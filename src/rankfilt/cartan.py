"""Koszul-model computation of H*(U(k)/H; Q) for arbitrary descriptors.

For the identity component H_0 = prod_b U(a_b) x U(c) of the isotropy
(embedded with tensor multiplicities and possibly a fixed subspace), the
rational cohomology of U(k)/H_0 is the cohomology of the Koszul complex

    Q[generators of H*(BH_0)] (x) Lambda(y_1, ..., y_k),
    deg y_i = 2i - 1,    d(y_i) = restriction of the i-th Chern class,

where the restricted total Chern class is prod_b c(V_b)^{l_b} * c(W):
each block of size a contributes polynomial generators in degrees
2, 4, ..., 2a, the complement contributes degrees 2, ..., 2c, and the
fixed subspace contributes the factor 1.

A finite part permuting identical blocks acts on the polynomial generators
by permuting whole leaf blocks, and rational cohomology of the disconnected
quotient is the cohomology of the invariant subcomplex, which is spanned by
orbit sums O(x) of monomials.  The group is never listed.  Each orbit is
named by its canonical representative, the lexicographically least image,
found by walking the wreath tree over the leaf variables: at a ``Wreath``
node each copy's segment is canonicalized recursively and the segments are
sorted; ``Bunch`` positions and complement variables stay in place.  A
basis row is d applied to the representative x0 alone, each term mapped to
its representative y0 and the coefficients added per target.  Since d
commutes with the group, this is the exact matrix of d on orbit sums with
row x0 multiplied by |Stab x0| and column y0 divided by |Stab y0|; nonzero
row and column scalings leave the rank unchanged, so the whole computation
stays over the integers.  That d commutes with the group is verified, not
assumed, on generators only: the adjacent transpositions of copies at every
``Wreath`` node must fix every Chern image.

Complete intersections.  Write R = Q[generators of H*(BH_0)], with
r = ``nvars`` generators (the rank of H_0), and I = (rho_1, ..., rho_k) for
the Chern images.  Then rho_1, ..., rho_r generate I and form a regular
sequence.  Let z_1, ..., z_r be the Chern roots of H_0, z_v repeated m_v
times (its tensor multiplicity, 1 for a complement root), so that rho_j is
the j-th elementary symmetric function of that multiset.

* Newton: for the power sums P_j = sum_v m_v z_v^j, Newton's identities
  give (rho_1, ..., rho_j) = (P_1, ..., P_j) in R for every j.
* Recurrence: each z_v is a root of prod_u (x - z_u), whose coefficients
  eps_i, the elementary symmetric functions of the r distinct roots, are
  invariant under every permutation of the roots and so lie in R.
  Multiplying z_v^(j-r) prod_u (z_v - z_u) = 0 by m_v and summing over v
  gives P_j = sum_{i=1..r} (-1)^(i-1) eps_i P_(j-i) for j > r, so
  I = (P_1, ..., P_r) = (rho_1, ..., rho_r).
* Regularity: H*(BH_0) is a finite module over H*(BU(k)) (Venkov), so R/I
  has finite length; r elements cutting out a finite-length quotient of
  the polynomial ring R on r generators are a system of parameters of a
  Cohen-Macaulay ring, hence a regular sequence.

So I is a complete intersection, and in every degree

    H*(U(k)/H_0) = R/I (x) Lambda(y_(r+1), ..., y_k)

(P. Baum, "On the cohomology of homogeneous spaces", Topology 7, 1968;
Felix-Halperin-Thomas, "Rational Homotopy Theory", section 32; Conca,
Krattenthaler and Watanabe, "Regular sequences of symmetric polynomials",
Rend. Sem. Mat. Univ. Padova 121, 2009).

The finite part G fixes every rho_i and every y_i, so the cohomology of the
quotient is (R/I)^G (x) Lambda, and since the Koszul resolution of R/I is
G-equivariant with G acting trivially on its generators,

    Hilb((R/I)^G) = prod_{i<=r} (1 - t^(2i)) * (1/|G|) sum_g 1/det(1 - g t | V)

for V the span of the polynomial generators.  The sum over g is one
integer series through the real dimension n (:func:`generator_series`),
built from the wreath tree by the recurrence n h_n = sum_j p_j h_(n-j),
with no group element and no cycle type listed; the Molien engine runs its
own form of it on its own series.  It is divided once by |G| =
``finite_part_order``; the even part must vanish above
n - sum_{i>r} (2i - 1), the top degree of R/I.

Every answer is checked against the Koszul ranks in the degrees through
min(``WITNESS_DEGREES``, n), a witness that shares nothing with the closed
form; a disagreement raises :class:`EngineMismatch`.  Its rows in degree D
read rho_i only for 2i - 1 <= D, so ``cohomology_dims`` builds
rho_1..rho_4 for degree 8, once, before its rank loop.  The closed form
holds through n, above which the cohomology vanishes, so every answer is
exact; it is computed once per descriptor, and a cutoff only truncates it.

Everything else is graded and computed degree by degree on explicit
monomial bases with exact sparse elimination; there is no floating point
and no Groebner machinery.  This engine is deliberately independent of the
Molien engine so the two can cross-check each other.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import add

from .cache import memo
from .combinat import ContractViolation
from .linalg import sparse_rank
from .orbitspace import (
    Block,
    Bunch,
    Wreath,
    finite_part_order,
    molien_poincare,
    real_dimension,
    weyl_order,
)
from .poly import Poly, prod

BASIS_BUDGET = 500_000
WITNESS_DEGREES = 8


class ResourceLimit(RuntimeError):
    """A graded piece has more than ``BASIS_BUDGET`` basis elements."""

    def __init__(self, degree, size, budget):
        self.degree = degree
        self.size = size
        self.budget = budget
        super().__init__(
            "degree %d needs a basis of size %d, over the budget %d" % (degree, size, budget)
        )


class EngineMismatch(ArithmeticError):
    """Two independent routes disagree: a genuine math bug signal.

    ``answers`` holds the (route name, polynomial) pairs, such as Molien
    against Cartan, or the Koszul witness against the complete intersection.
    """

    def __init__(self, descriptor, *answers):
        self.descriptor = descriptor
        self.answers = answers
        super().__init__(
            "routes disagree on %s: %s"
            % (descriptor.canonical_string(),
               " vs ".join("%s %s" % (name, p.pretty()) for name, p in answers))
        )


class InvariantViolation(AssertionError):
    """A built-in check failed: the finite part does not commute with the
    differential, the closed form is not integral or has R/I above its top
    degree, or a result fails :func:`check_invariants`."""


# ---------------------------------------------------------------------------
# the finite part on exponent tuples


def _finite_part(u):
    """(width, canon, swaps) of a unit over its leaf variables, in tree order.

    ``canon`` maps an exponent tuple whose first ``width`` entries belong to
    ``u`` to its least image under the finite part of ``u``, leaving any
    later entries alone; it is None when ``u`` has no finite part.  Each
    swap ``(a, w)`` exchanges the segments [a, a+w) and [a+w, a+2w): the
    adjacent transpositions of copies, which generate the finite part.
    """
    if isinstance(u, Block):
        return u.size, None, []
    if isinstance(u, Wreath):
        w, inner, inner_swaps = _finite_part(u.inner)
        bounds = [(i * w, (i + 1) * w) for i in range(u.copies)]
        swaps = [(a, w) for a, _ in bounds[:-1]]
        swaps += [(a + s, sw) for a, _ in bounds for s, sw in inner_swaps]

        def canon(m):
            parts = sorted(m[a:b] if inner is None else inner(m[a:b]) for a, b in bounds)
            return tuple(itertools.chain.from_iterable(parts)) + m[bounds[-1][1]:]

        return u.copies * w, canon, swaps
    width, pieces, swaps = 0, [], []
    for v in u.units:
        w, f, vs = _finite_part(v)
        if f is not None:
            pieces.append((width, width + w, f))
        swaps += [(width + s, sw) for s, sw in vs]
        width += w
    if not pieces:
        return width, None, swaps

    def canon(m):
        out = list(m)
        for a, b, f in pieces:
            out[a:b] = f(m[a:b])
        return tuple(out)

    return width, canon, swaps


def _swap(mono, a, w):
    return mono[:a] + mono[a + w:a + 2 * w] + mono[a:a + w] + mono[a + 2 * w:]


# ---------------------------------------------------------------------------
# the average over the finite part on the generators


def _generator_series(series, u, stride=1):
    """``series`` times sum_g 1/det(1 - g q^stride), g over the finite part of
    the unit ``u`` acting on its generators, through the length of ``series``.

    A leaf block of size a has generators of degrees 2, ..., 2a, which g
    fixes: each 1 - q^(j*stride) is divided out by one prefix-sum pass per
    residue class mod j*stride.  A wreath of n copies runs n h_n =
    sum_j p_j h_(n-j) (Macdonald, ch. I, section 2) on these sums: term j
    counts the (n-1)!/(n-j)! |inner|^(j-1) elements that take the first copy
    round a j-cycle, along which the inner generators see q^(j*stride).
    """
    if isinstance(u, Block):
        series = list(series)
        for step in range(stride, min(u.size * stride, len(series) - 1) + 1, stride):
            for r in range(step):
                series[r::step] = itertools.accumulate(series[r::step])
        return series
    if isinstance(u, Bunch):
        for v in u.units:
            series = _generator_series(series, v, stride)
        return series
    h = [series]
    for n in range(1, u.copies + 1):
        acc = [0] * len(series)
        weight = 1
        for j in range(1, n + 1):
            term = _generator_series(h[n - j], u.inner, j * stride)
            acc = [x + weight * y for x, y in zip(acc, term)]
            weight *= (n - j) * u.inner.finite
        h.append(acc)
    return h[-1]


def generator_series(d, top):
    """sum_g 1/det(1 - g q) over the finite part G of ``d`` acting on the
    generators of H*(BH_0), in integers through q^top.  The complement U(c)
    has the generators of a leaf block of size c, fixed by G; tensor
    multiplicities and a fixed subspace change no generator."""
    extra = (Block(d.complement),) if d.complement else ()
    return _generator_series([1] + [0] * top, Bunch(tuple(d.units) + extra))


class KoszulComplex:
    """The Cartan model of U(k)/H for an orbit descriptor."""

    def __init__(self, d):
        self.descriptor = d
        self.k = d.k

        # polynomial generators: per leaf block, then the complement
        self.var_degrees = []
        self.leaf_var_start = []
        for b in d.blocks():
            self.leaf_var_start.append(len(self.var_degrees))
            self.var_degrees.extend(2 * j for j in range(1, b.size + 1))
        self.complement_var_start = len(self.var_degrees)
        self.var_degrees.extend(2 * j for j in range(1, d.complement + 1))
        self.nvars = len(self.var_degrees)

        # rho_1, rho_2, ...: built by _build_chern before any row reads them
        self.chern = []
        # canonical: m -> least monomial in its orbit, or None; generators: (a, w) swaps
        _, canon, self.generators = _finite_part(Bunch(tuple(d.units)))
        self.canonical = functools.cache(canon) if canon else None

        self._mono_cache = {}
        self._basis_cache = {}

    # -- construction ---------------------------------------------------

    def _chern_images(self, through):
        """rho_1..rho_through, the degree-2i parts of the restricted total
        Chern class.  Each factor (1 + x_1 + ... + x_a)^mult is multiplied in
        one degree at a time, top degree first, so every term is formed in
        its own degree and none above 2 * ``through``."""
        by_degree = [{(0,) * self.nvars: 1}] + [{} for _ in range(through)]
        # c(V_b)^mult per leaf block, then c(W) for the complement
        factors = [(start, b.size, b.mult)
                   for start, b in zip(self.leaf_var_start, self.descriptor.blocks())]
        factors.append((self.complement_var_start, self.descriptor.complement, 1))
        for start, size, mult in factors:
            for _ in range(mult):
                for i in range(through, 0, -1):
                    # x_j, of degree 2j, times the degree-2(i-j) part, not yet multiplied
                    out = by_degree[i]
                    for j in range(1, min(size, i) + 1):
                        v = start + j - 1
                        for mono, c in by_degree[i - j].items():
                            m = mono[:v] + (mono[v] + 1,) + mono[v + 1:]
                            out[m] = out.get(m, 0) + c
        return by_degree[1:]

    def _build_chern(self, through):
        """Hold at least rho_1..rho_through, rebuilding them when fewer are
        held; every rebuild is checked for equivariance."""
        if len(self.chern) < through:
            self.chern = self._chern_images(through)
            self._check_equivariance()

    def _check_equivariance(self):
        for a, w in self.generators:
            for rho in self.chern:
                if {_swap(mono, a, w): c for mono, c in rho.items()} != rho:
                    raise InvariantViolation(
                        "finite part does not commute with the differential"
                    )

    # -- bases ------------------------------------------------------------

    def _monomials(self, degree):
        """Exponent tuples of weighted degree ``degree``, in lexicographic
        order, built once per degree."""
        got = self._mono_cache.get(degree)
        if got is None:
            # (prefix, degree left) per variable; the degree left fixes the last exponent
            ws = self.var_degrees
            level = [((), degree)] if degree % 2 == 0 and degree >= 0 else []
            for w in ws[:-1]:
                level = [(m + (e,), r - e * w) for m, r in level for e in range(r // w + 1)]
            got = self._mono_cache[degree] = (
                [m + (r // ws[-1],) for m, r in level if r % ws[-1] == 0] if ws
                else [m for m, r in level if not r])
        return got

    def _exterior(self, degree):
        """(subset, degree) for the subsets of y_1..y_j, j the largest index
        with deg y_j = 2j - 1 <= ``degree``, by size and then lexicographically.

        No y_i with i > j fits in ``degree``, and the subsets of a prefix come
        in the same order as in the enumeration of all 2^k subsets.
        """
        j = max(0, min(self.k, (degree + 1) // 2))
        return [
            (comb, sum(2 * i - 1 for i in comb))
            for r in range(j + 1)
            for comb in itertools.combinations(range(1, j + 1), r)
        ]

    def basis(self, degree, invariants=True):
        """Basis of the degree-``degree`` piece: pairs (exterior tuple, monomial).

        With ``invariants`` (and a nontrivial finite part) monomials are
        canonical representatives and each pair stands for the orbit sum.
        """
        canon = self.canonical if invariants else None
        key = (degree, canon is not None)
        got = self._basis_cache.get(key)
        if got is not None:
            return got
        out = []
        for ext, edeg in self._exterior(degree):
            rest = degree - edeg
            if rest < 0 or rest % 2:
                continue
            for mono in self._monomials(rest):
                if canon is None or canon(mono) == mono:
                    out.append((ext, mono))
        if len(out) > BASIS_BUDGET:
            raise ResourceLimit(degree, len(out), BASIS_BUDGET)
        self._basis_cache[key] = out
        return out

    # -- the differential ---------------------------------------------------

    def _image_rows(self, degree, invariants):
        """Rows of d: C^degree -> C^(degree+1) in the chosen basis pair.

        On orbit sums a row is d of the representative, with every term
        moved to its representative: a rescaling of the exact matrix that
        keeps its rank (see the module docstring).  The images the rows read
        must be built already (``_build_chern``).
        """
        canon = self.canonical if invariants else None
        src = self.basis(degree, invariants)
        tgt = self.basis(degree + 1, invariants)
        tgt_index = {b: i for i, b in enumerate(tgt)}
        rows = []
        for ext, mono in src:
            row = {}
            for pos, i in enumerate(ext):
                rho = self.chern[i - 1]
                if not rho:
                    continue
                sign = -1 if pos % 2 else 1
                new_ext = ext[:pos] + ext[pos + 1:]
                for mu, c in rho.items():
                    tm = tuple(map(add, mono, mu))
                    if canon is not None:
                        tm = canon(tm)
                    j = tgt_index[(new_ext, tm)]
                    row[j] = row.get(j, 0) + sign * c
            rows.append({j: v for j, v in row.items() if v})
        return rows

    def differential_rank(self, degree, invariants=True):
        # last row first: on the 1 359-row degree-22 matrix of
        # U(5)/(1)x(1)x(1,2)xU(1) the pivots then hold 11 914 entries of at
        # most 6 bits, against 80 244 entries of up to 45 bits in basis order
        return sparse_rank(self._image_rows(degree, invariants)[::-1])

    def dims(self, cutoff, invariants=True):
        """Dimensions of the graded pieces of the (invariant) complex."""
        return [len(self.basis(d, invariants)) for d in range(cutoff + 1)]

    def cohomology_dims(self, cutoff, invariants=True):
        """Graded dimensions of cohomology in degrees 0..cutoff."""
        # every image the rows below read, built and checked once
        self._build_chern(min(self.k, (cutoff + 1) // 2))
        dims = self.dims(cutoff, invariants)
        ranks = [self.differential_rank(d, invariants) for d in range(cutoff + 1)]
        out = []
        for d in range(cutoff + 1):
            below = ranks[d - 1] if d > 0 else 0
            out.append(dims[d] - ranks[d] - below)
        return out

    # -- the complete-intersection route -------------------------------------

    def complete_intersection(self):
        """Exact Poincare polynomial from the closed form.

        P = Hilb((R/I)^G) * prod_{i>r} (1 + t^(2i-1)), r = ``nvars``, with
        the first factor the average over the finite part G of
        prod_{i<=r} (1 - t^(2i)) / det(1 - g t), summed over G acting on the
        polynomial generators (:func:`generator_series`) through the real
        dimension.
        """
        d, r = self.descriptor, self.nvars
        n = real_dimension(d)
        free = range(r + 1, self.k + 1)
        top = n - sum(2 * i - 1 for i in free)
        half = n // 2  # in q = t^2
        series = Poly(dict(enumerate(generator_series(d, half))), half)
        try:
            even = (series * prod(Poly.one_minus(i) for i in range(1, r + 1))).divide(
                finite_part_order(d))
        except ArithmeticError as exc:
            raise InvariantViolation("%s for %s" % (exc, d.canonical_string())) from None
        if 2 * even.degree() > top:
            raise InvariantViolation(
                "the invariant quotient R/I of %s has degree %d above %d"
                % (d.canonical_string(), 2 * even.degree(), top)
            )
        return Poly(even.coeffs).substitute_power(2) * prod(
            Poly({0: 1, 2 * i - 1: 1}) for i in free
        )


def cartan_cohomology(d, cutoff=None):
    """Poincare polynomial of U(k)/H from the Cartan model.

    Exact (``truncation=None``), computed once per descriptor and memoized;
    an explicit ``cutoff`` truncates the stored answer.
    """
    if cutoff is not None and cutoff < 0:
        raise ContractViolation("the cutoff must be >= 0, got %d" % cutoff)
    got = memo.get_or_compute(("cartan", d), lambda: _cartan(d))
    return got if cutoff is None else got.truncate(cutoff)


def _cartan(d):
    """One complex: the complete-intersection closed form, checked against
    its Koszul witness through min(WITNESS_DEGREES, dimension)."""
    kc = KoszulComplex(d)
    n = real_dimension(d)
    exact = check_invariants(d, kc.complete_intersection())
    through = min(WITNESS_DEGREES, n)
    witness = Poly(dict(enumerate(kc.cohomology_dims(through))), through)
    if not exact.agrees(witness):
        raise EngineMismatch(d, ("koszul", witness), ("complete intersection", exact))
    return exact


def check_invariants(d, p):
    """Return ``p`` after the cheap checks every answer for U(k)/H must pass.

    b_0 = 1, no negative coefficient, nothing above the real dimension n;
    with connected isotropy U(k)/H is a closed orientable manifold, so the
    top degree is n and ``p`` is palindromic; and the Euler characteristic
    p(-1) is the integer k!/|W| (``weyl_order``, W <= S_k) when
    rank H_0 = k, else 0.  The isotropy is connected when its finite part
    G = H / H_0 is trivial, |G| = 1, for every spelling of ``d``.
    """
    n = real_dimension(d)

    def fail(what):
        raise InvariantViolation("%s for %s: %s" % (what, d.canonical_string(), p.pretty()))

    if p[0] != 1:
        fail("b_0 = %d, not 1," % p[0])
    if any(c < 0 for c in p.coeffs.values()):
        fail("a negative Betti number")
    if p.degree() > n:
        fail("cohomology above the dimension %d" % n)
    order = finite_part_order(d)
    if order == 1 and (p.degree() != n or not p.is_palindromic()):
        fail("Poincare duality fails")
    euler = 0
    if d.is_torus_commensurable():
        euler = math.factorial(d.k) // weyl_order(d)
    chi = sum(c if deg % 2 == 0 else -c for deg, c in p.coeffs.items())
    if chi != euler:
        fail("Euler characteristic %d, not %s," % (chi, euler))
    return p


def poincare(d, cutoff=None, engine="auto"):
    """Poincare polynomial dispatcher.

    Torus-commensurable descriptors go to the Molien engine and come back
    exact whatever the cutoff; everything else goes to
    :func:`cartan_cohomology`, exact without a cutoff and truncated at an
    explicit one.  In ``auto`` mode with an explicit cutoff both engines run
    when both apply and must agree in every degree; disagreement raises
    :class:`EngineMismatch` rather than picking a side.  Each new Molien
    answer then meets :func:`check_invariants`.
    """
    if engine not in ("molien", "cartan", "auto"):
        raise ValueError("unknown engine %r" % (engine,))
    if cutoff is not None and cutoff < 0:
        raise ContractViolation("the cutoff must be >= 0, got %d" % cutoff)
    if engine == "molien" or (engine == "auto" and d.is_torus_commensurable()):
        compare = engine == "auto" and cutoff is not None
        q = cartan_cohomology(d) if compare else None
        p = memo.get_or_compute(("molien", d), lambda: _molien_checked(d, q))
        _cross_check(d, p, q)
        return p
    return cartan_cohomology(d, cutoff)


def _molien_checked(d, cartan):
    """Molien polynomial of ``d``, compared with the Cartan answer (when
    there is one) before :func:`check_invariants`: a disagreement between
    the engines is the finding to report.  An average that is not integral
    is an invariant violation, like a remainder on the complete-intersection
    route."""
    try:
        p = molien_poincare(d)
    except ArithmeticError as exc:
        raise InvariantViolation("%s for %s" % (exc, d.canonical_string())) from None
    _cross_check(d, p, cartan)
    return check_invariants(d, p)


def _cross_check(d, molien, cartan):
    if cartan is not None and not molien.agrees(cartan):
        raise EngineMismatch(d, ("molien", molien), ("cartan", cartan))
