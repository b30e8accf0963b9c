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

Everything is graded and computed degree by degree on explicit monomial
bases with exact sparse elimination; there is no floating point and no
Groebner machinery.  This engine is deliberately independent of the Molien
engine so the two can cross-check each other.
"""

from __future__ import annotations

import functools
import itertools
from operator import add

from .cache import memo
from .linalg import sparse_rank
from .orbitspace import (
    Block,
    Bunch,
    Wreath,
    molien_poincare,
    real_dimension,
)
from .poly import Poly

DEFAULT_CUTOFF_CAP = 24
DEFAULT_BASIS_BUDGET = 500_000


class ResourceLimit(RuntimeError):
    """A graded piece exceeded the configured basis budget."""

    def __init__(self, degree, size, budget):
        self.degree = degree
        self.size = size
        self.budget = budget
        super().__init__(
            "degree %d needs a basis of size %d, over the budget %d" % (degree, size, budget)
        )


class EngineMismatch(ArithmeticError):
    """Molien and Cartan engines disagree: a genuine math bug signal."""

    def __init__(self, descriptor, molien, cartan):
        self.descriptor = descriptor
        self.molien = molien
        self.cartan = cartan
        super().__init__(
            "engines disagree on %s: molien %s vs cartan %s"
            % (descriptor.canonical_string(), molien.pretty(), cartan.pretty())
        )


class InvariantViolation(AssertionError):
    """The finite part failed to commute with the differential."""


# ---------------------------------------------------------------------------
# integer multivariate polynomials on exponent tuples


def _poly_mul(p, q, nvars):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(m1[i] + m2[i] for i in range(nvars))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


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


class KoszulComplex:
    """The Cartan model of U(k)/H for a canonical orbit descriptor."""

    def __init__(self, descriptor, basis_budget=DEFAULT_BASIS_BUDGET):
        d = descriptor.canonicalize()
        self.descriptor = d
        self.k = d.k
        self.basis_budget = basis_budget

        # polynomial generators: per leaf block, then the complement
        self.var_degrees = []
        leaves = d.blocks()
        self.leaf_var_start = []
        for b in leaves:
            self.leaf_var_start.append(len(self.var_degrees))
            self.var_degrees.extend(2 * j for j in range(1, b.size + 1))
        self.complement_var_start = len(self.var_degrees)
        self.var_degrees.extend(2 * j for j in range(1, d.complement + 1))
        self.nvars = len(self.var_degrees)

        self.chern = self._chern_images(leaves)
        # canonical(m): least monomial in the orbit of m; generators: (a, w) swaps
        _, canon, self.generators = _finite_part(Bunch(tuple(d.units)))
        self.canonical = functools.cache(canon) if canon else (lambda mono: mono)
        self._check_equivariance()

        self._mono_cache = {}
        self._ext_list = None
        self._rank_cache = {}
        self._basis_cache = {}

    # -- construction ---------------------------------------------------

    def _chern_images(self, leaves):
        """Degree-2i parts of the restricted total Chern class, i = 1..k."""
        nv = self.nvars
        zero = tuple([0] * nv)
        total = {zero: 1}
        for li, b in enumerate(leaves):
            start = self.leaf_var_start[li]
            factor = {zero: 1}
            for j in range(b.size):
                mono = list(zero)
                mono[start + j] = 1
                factor[tuple(mono)] = 1
            for _ in range(b.mult):
                total = _poly_mul(total, factor, nv)
        if self.descriptor.complement:
            factor = {zero: 1}
            for j in range(self.descriptor.complement):
                mono = list(zero)
                mono[self.complement_var_start + j] = 1
                factor[tuple(mono)] = 1
            total = _poly_mul(total, factor, nv)
        by_degree = {}
        for mono, c in total.items():
            deg = self._mono_degree(mono)
            if deg % 2 or deg > 2 * self.k:
                raise InvariantViolation("restricted Chern class has a stray degree %d" % deg)
            by_degree.setdefault(deg, {})[mono] = c
        return [by_degree.get(2 * i, {}) for i in range(1, self.k + 1)]

    def _mono_degree(self, mono):
        return sum(e * self.var_degrees[i] for i, e in enumerate(mono) if e)

    def _check_equivariance(self):
        for a, w in self.generators:
            for rho in self.chern:
                if {_swap(mono, a, w): c for mono, c in rho.items()} != rho:
                    raise InvariantViolation(
                        "finite part does not commute with the differential"
                    )

    # -- bases ------------------------------------------------------------

    def _monomials(self, degree):
        """Exponent tuples of weighted degree ``degree`` (degree is even)."""
        key = degree
        got = self._mono_cache.get(key)
        if got is not None:
            return got

        out = []

        def rec(idx, remaining, current):
            if idx == self.nvars:
                if remaining == 0:
                    out.append(tuple(current))
                return
            d = self.var_degrees[idx]
            for e in range(remaining // d + 1):
                current.append(e)
                rec(idx + 1, remaining - e * d, current)
                current.pop()

        if degree % 2 == 0 and degree >= 0:
            rec(0, degree, [])
        self._mono_cache[key] = out
        return out

    def _exterior(self):
        if self._ext_list is None:
            gens = list(range(1, self.k + 1))
            subsets = []
            for r in range(self.k + 1):
                for comb in itertools.combinations(gens, r):
                    subsets.append((comb, sum(2 * i - 1 for i in comb)))
            self._ext_list = subsets
        return self._ext_list

    def _orbits(self, invariants):
        return invariants and bool(self.generators)

    def basis(self, degree, invariants=True):
        """Basis of the degree-``degree`` piece: pairs (exterior tuple, monomial).

        With ``invariants`` (and a nontrivial finite part) monomials are
        canonical representatives and each pair stands for the orbit sum.
        """
        key = (degree, self._orbits(invariants))
        got = self._basis_cache.get(key)
        if got is not None:
            return got
        canon = self.canonical if key[1] else None
        out = []
        for ext, edeg in self._exterior():
            rest = degree - edeg
            if rest < 0 or rest % 2:
                continue
            for mono in self._monomials(rest):
                if canon is None or canon(mono) == mono:
                    out.append((ext, mono))
        if len(out) > self.basis_budget:
            raise ResourceLimit(degree, len(out), self.basis_budget)
        self._basis_cache[key] = out
        return out

    # -- the differential ---------------------------------------------------

    def _image_rows(self, degree, invariants):
        """Rows of d: C^degree -> C^(degree+1) in the chosen basis pair.

        On orbit sums a row is d of the representative, with every term
        moved to its representative: a rescaling of the exact matrix that
        keeps its rank (see the module docstring).
        """
        canon = self.canonical if self._orbits(invariants) else None
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
        key = (degree, self._orbits(invariants))
        got = self._rank_cache.get(key)
        if got is None:
            got = sparse_rank(self._image_rows(degree, invariants))
            self._rank_cache[key] = got
        return got

    def dims(self, cutoff, invariants=True):
        """Dimensions of the graded pieces of the (invariant) complex."""
        return [len(self.basis(d, invariants)) for d in range(cutoff + 1)]

    def cohomology_dims(self, cutoff, invariants=True):
        """Graded dimensions of cohomology in degrees 0..cutoff."""
        dims = self.dims(cutoff, invariants)
        ranks = [self.differential_rank(d, invariants) for d in range(cutoff + 1)]
        out = []
        for d in range(cutoff + 1):
            below = ranks[d - 1] if d > 0 else 0
            out.append(dims[d] - ranks[d] - below)
        return out

    def verify_d_squared(self, degrees):
        """Check d(d(b)) == 0 on every basis element in the given degrees."""
        for d in degrees:
            rows = self._image_rows(d, invariants=False)
            rows_next = self._image_rows(d + 1, invariants=False)
            for row in rows:
                acc = {}
                for j, v in row.items():
                    for j2, v2 in rows_next[j].items():
                        acc[j2] = acc.get(j2, 0) + v * v2
                if any(acc.values()):
                    raise InvariantViolation("d^2 != 0 in degree %d" % d)
        return True


def cartan_cohomology(descriptor, cutoff, basis_budget=DEFAULT_BASIS_BUDGET):
    """Poincare polynomial of U(k)/H through ``cutoff`` via the Koszul model.

    For a disconnected H the invariant subcomplex is used, which over Q
    computes the cohomology of the quotient by the finite part.
    """
    d = descriptor.canonicalize()
    key = ("cartan", d.canonical_string(), cutoff)

    def compute():
        kc = KoszulComplex(d, basis_budget=basis_budget)
        dims = kc.cohomology_dims(cutoff, invariants=True)
        return Poly({i: c for i, c in enumerate(dims)}, truncation=cutoff)

    return memo.get_or_compute(key, compute)


def default_cutoff(descriptor):
    """Twice the real dimension of the orbit, capped: past the dimension the
    cohomology is zero, so the factor two is pure safety margin."""
    return min(max(2 * real_dimension(descriptor), 0), DEFAULT_CUTOFF_CAP)


def poincare(descriptor, cutoff=None, engine="auto", basis_budget=DEFAULT_BASIS_BUDGET):
    """Poincare polynomial dispatcher.

    Torus-commensurable descriptors go to the Molien engine and come back
    exact; everything else goes to the Cartan engine truncated at ``cutoff``
    (defaulting to :func:`default_cutoff`).  In ``auto`` mode with an explicit
    cutoff both engines run when both apply and must agree; disagreement
    raises :class:`EngineMismatch` rather than picking a side.
    """
    d = descriptor.canonicalize()
    commensurable = d.is_torus_commensurable()
    if engine == "molien":
        return memo.get_or_compute(
            ("molien", d.canonical_string()), lambda: molien_poincare(d)
        )
    if engine == "cartan":
        return cartan_cohomology(d, default_cutoff(d) if cutoff is None else cutoff, basis_budget)
    if engine != "auto":
        raise ValueError("unknown engine %r" % (engine,))
    if commensurable:
        p = memo.get_or_compute(("molien", d.canonical_string()), lambda: molien_poincare(d))
        if cutoff is not None:
            q = cartan_cohomology(d, cutoff, basis_budget)
            if not p.agrees(q, cutoff):
                raise EngineMismatch(d, p, q)
        return p
    return cartan_cohomology(d, default_cutoff(d) if cutoff is None else cutoff, basis_budget)
