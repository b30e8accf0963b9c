"""Canonical descriptors of unitary orbit spaces and the Molien engine.

An orbit space U(k)/H is described by the restriction of the standard
representation to the isotropy group H:

* blocks: a factor U(a) embedded as ``u -> u (x) I_l`` on a subspace of
  dimension a*l (tensor multiplicity l);
* a complement of dimension c carrying a full U(c) factor;
* a fixed subspace of dimension k - sum(a*l) - c on which H acts trivially;
* a finite part permuting identical blocks, recorded structurally as a
  generalized wreath tree (``Wreath`` nodes carry full symmetric groups on
  identical copies, plain juxtaposition carries no symmetry).

When every block has tensor multiplicity 1 and there is no fixed subspace,
the identity component of H contains a maximal torus of U(k) and the graded
dimensions of H*(U(k)/H; Q) are computed by a Molien average over the
induced subgroup W of the symmetric group S_k: in each even degree 2d the
dimension is the multiplicity of the trivial character in the degree-d part
of the coinvariant algebra of S_k.  The average is taken over cycle types
with class counts (a cycle index), never element by element, and in
integers: the series 1/prod_{c in lambda} (1 - q^c) of each cycle type
lambda is expanded through degree D = k(k-1)/2, the series are summed
with the number of elements of W of each type, multiplied by
prod_{i<=k} (1 - q^i) and divided by |W| (``weyl_order``).  Each character
prod_{i<=k} (1 - q^i) / prod_{c in lambda} (1 - q^c) is a polynomial of
degree exactly D, because lambda sums to k, so truncating at D loses
nothing.  The average is cross-checked in the tests against
flag-manifold polynomials built from Gaussian binomials, and against a
sum of exact polynomial quotients divided by the sum of the counts;
neither route shares code with this one.

Grading convention, fixed globally: one power of q is cohomological degree 2
(complex cells), so all Poincare polynomials substitute q -> t^2.

Descriptor grammar (round-trip parsed, used as cache key and CLI argument)::

    descriptor := 'U(' k ')/' body
    body       := 'e'                 trivial isotropy, alone
                | factor ('x' factor)*
    factor     := 'U(' c ')'          complement with a full unitary group
                | unit
    unit       := '(' a [',' l] ')'   single block, l defaults to 1
                | 'S' g 'wr' unit     g identical copies permuted by Sym(g)
                | '{' unit ('x' unit)* '}'
    k, c, a, l, g := positive decimal integers (c may be 0)

If no complement factor is written, the complement is the full leftover
k - sum(a*l); with an explicit complement the leftover beyond it is the
fixed subspace.  So ``U(2)/(1)xU(1)`` is the projective line while
``U(2)/U(1)`` is the unit sphere in C^2.  Bracketed forms such as
``U(4)/[2x(1,1)|S2]xU(2)`` and ``U(3)/[S2wr(1)|x(1)]`` are accepted on
input: inside brackets '|' separates terms, 'n x unit' abbreviates n
juxtaposed copies, and a bare 'S<n>' marker upgrades the preceding
n-fold term to a wreath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .combinat import partitions_into
from .poly import Poly


class DescriptorError(ValueError):
    """Malformed orbit descriptor (bad structure or unparsable string)."""


class NotTorusCommensurable(ValueError):
    """Molien engine called on a descriptor whose isotropy misses the torus."""


# ---------------------------------------------------------------------------
# descriptor structure


# Every unit node carries five sums over its leaves, set once when it is
# built: ``dim`` = sum(size * mult), the dimension it acts on; ``rank`` =
# sum(size), the rank of its identity component; ``finite``, the order of
# its finite part (copies! * inner^copies at a wreath); ``weyl``, that
# order times size! at each leaf; and ``key``, its sort key among
# juxtaposed units.  A wreath multiplies its inner sums by ``copies`` (or
# raises them to that power), so no sum walks the leaves.  The key
# determines the unit, so units hash by their key.


def _set_sums(u, dim, rank, finite, weyl, key):
    object.__setattr__(u, "dim", dim)
    object.__setattr__(u, "rank", rank)
    object.__setattr__(u, "finite", finite)
    object.__setattr__(u, "weyl", weyl)
    object.__setattr__(u, "key", key)


def _hash_key(u):
    return hash(u.key)


@dataclass(frozen=True)
class Block:
    size: int
    mult: int = 1

    def __post_init__(self):
        if self.size < 1 or self.mult < 1:
            raise DescriptorError("block sizes and multiplicities must be >= 1")
        _set_sums(self, self.size * self.mult, self.size, 1, math.factorial(self.size),
                  (0, self.size, self.mult))

    __hash__ = _hash_key


@dataclass(frozen=True)
class Wreath:
    """``copies`` identical copies of ``inner``, permuted by the full symmetric group."""

    inner: object
    copies: int

    def __post_init__(self):
        if self.copies < 1:
            raise DescriptorError("wreath copy count must be >= 1")
        inner, copies = self.inner, self.copies
        perms = math.factorial(copies)
        _set_sums(self, copies * inner.dim, copies * inner.rank,
                  perms * inner.finite ** copies, perms * inner.weyl ** copies,
                  (1, copies, inner.key))

    __hash__ = _hash_key


@dataclass(frozen=True)
class Bunch:
    """Juxtaposed units with no symmetry between them."""

    units: tuple

    def __post_init__(self):
        units = self.units
        _set_sums(self, sum(v.dim for v in units), sum(v.rank for v in units),
                  math.prod(v.finite for v in units), math.prod(v.weyl for v in units),
                  (2, len(units)) + tuple(v.key for v in units))

    __hash__ = _hash_key


def _unit_leaves(u, out):
    if isinstance(u, Block):
        out.append(u)
    elif isinstance(u, Wreath):
        for _ in range(u.copies):
            _unit_leaves(u.inner, out)
    elif isinstance(u, Bunch):
        for v in u.units:
            _unit_leaves(v, out)
    else:
        raise DescriptorError("unknown unit %r" % (u,))


def _canonical_unit(u):
    if isinstance(u, Block):
        return u
    if isinstance(u, Wreath):
        inner = _canonical_unit(u.inner)
        if u.copies == 1:
            return inner
        return Wreath(inner, u.copies)
    if isinstance(u, Bunch):
        return juxtapose([_canonical_unit(v) for v in u.units])
    raise DescriptorError("unknown unit %r" % (u,))


def flatten_units(units):
    """The top-level units of a canonical juxtaposition of canonical units:
    nested bunches flattened, the rest sorted by key, as a tuple."""
    flat = []
    for v in units:
        if isinstance(v, Bunch):
            flat.extend(v.units)
        else:
            flat.append(v)
    flat.sort(key=lambda v: v.key)
    return tuple(flat)


def juxtapose(units):
    """Canonical juxtaposition of canonical units: a lone unit stands for
    itself; otherwise ``flatten_units`` gives the units of a bunch, and a
    lone one of those stands for itself."""
    if len(units) == 1:
        return units[0]
    flat = flatten_units(units)
    return flat[0] if len(flat) == 1 else Bunch(flat)


@dataclass(frozen=True)
class OrbitDescriptor:
    """U(k)/H for H built from blocks, a full complement, and a fixed subspace."""

    k: int
    units: tuple = ()
    complement: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise DescriptorError("ambient rank must be >= 1")
        if self.complement < 0:
            raise DescriptorError("complement dimension must be >= 0")
        if self.fixed < 0:
            raise DescriptorError(
                "blocks and complement overfill the ambient space (fixed part %d)" % self.fixed
            )

    @property
    def fixed(self):
        """Dimension of the subspace H fixes: k less the complement and the
        size sums ``dim`` of the top-level units (each block size * mult, each
        wreath copies * inner), so no leaf is walked."""
        return self.k - sum(u.dim for u in self.units) - self.complement

    def blocks(self):
        """Leaf blocks (size, mult) in tree order."""
        out = []
        for u in self.units:
            _unit_leaves(u, out)
        return out

    def canonicalize(self):
        units = flatten_units([_canonical_unit(u) for u in self.units])
        return OrbitDescriptor(self.k, units, self.complement)

    def canonical_string(self):
        d = self.canonicalize()
        parts = [_unit_string(u) for u in d.units]
        # U(0) beside units marks a fixed part: left out, the leftover would
        # parse back as the complement
        if d.complement > 0 or (parts and d.fixed > 0):
            parts.append("U(%d)" % d.complement)
        body = "x".join(parts) if parts else "e"
        return "U(%d)/%s" % (d.k, body)

    def is_torus_commensurable(self):
        """True when the identity component of H contains a maximal torus of U(k):
        no fixed part and every block of tensor multiplicity 1.

        Read off the size sum ``rank`` = sum(size) of the units, with no leaf
        walk: every mult is >= 1 and the fixed part is >= 0 (checked at
        construction), so sum(size) <= sum(size * mult) <= k - complement,
        with equality throughout exactly when every mult is 1 and nothing is
        fixed."""
        return sum(u.rank for u in self.units) == self.k - self.complement

    def __str__(self):
        return self.canonical_string()


def _unit_string(u):
    if isinstance(u, Block):
        if u.mult == 1:
            return "(%d)" % u.size
        return "(%d,%d)" % (u.size, u.mult)
    if isinstance(u, Wreath):
        return "S%dwr%s" % (u.copies, _unit_string(u.inner))
    return "{%s}" % "x".join(_unit_string(v) for v in u.units)


def real_dimension(d):
    """dim U(k)/H = k^2 - sum of block dims - complement dim (finite part contributes 0)."""
    return d.k * d.k - sum(b.size * b.size for b in d.blocks()) - d.complement * d.complement


# ---------------------------------------------------------------------------
# descriptor parsing


class _Scanner:
    def __init__(self, text):
        self.text = text.replace(" ", "")
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, s):
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def expect(self, s):
        if not self.take(s):
            raise DescriptorError(
                "expected %r at position %d in %r" % (s, self.pos, self.text)
            )

    def integer(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise DescriptorError("expected an integer at position %d in %r" % (start, self.text))
        return int(self.text[start:self.pos])

    def done(self):
        return self.pos >= len(self.text)


def parse_descriptor(text):
    """Parse a descriptor string; see the module docstring for the grammar."""
    sc = _Scanner(text)
    sc.expect("U(")
    k = sc.integer()
    sc.expect(")")
    sc.expect("/")
    if sc.take("e"):
        if not sc.done():
            raise DescriptorError("the trivial isotropy 'e' must stand alone in %r" % sc.text)
        return OrbitDescriptor(k)
    units, complement = _parse_factors(sc, bracket=False)
    if not sc.done():
        raise DescriptorError("trailing input at position %d in %r" % (sc.pos, sc.text))
    if complement is None:
        complement = k - sum(u.dim for u in units)
        if complement < 0:
            raise DescriptorError("blocks overfill U(%d)" % k)
    return OrbitDescriptor(k, tuple(units), complement).canonicalize()


def _parse_factors(sc, bracket):
    units = []
    complement = None
    pending = None  # (unit, copies) awaiting a possible S<g> upgrade

    def flush():
        nonlocal pending
        if pending is not None:
            unit, copies = pending
            units.extend([unit] * copies)
            pending = None

    while True:
        if sc.peek() in ("x", "|"):
            sc.pos += 1
            continue
        if bracket and sc.take("]"):
            break
        if sc.done():
            if bracket:
                raise DescriptorError("unterminated '[' in %r" % sc.text)
            break
        if sc.take("["):
            flush()
            inner_units, inner_c = _parse_factors(sc, bracket=True)
            units.extend(inner_units)
            if inner_c is not None:
                if complement is not None:
                    raise DescriptorError("more than one complement factor")
                complement = inner_c
            continue
        if sc.take("U("):
            flush()
            c = sc.integer()
            sc.expect(")")
            if complement is not None:
                raise DescriptorError("more than one complement factor")
            complement = c
            continue
        if sc.peek().isdigit():
            n = sc.integer()
            sc.expect("x")
            flush()
            pending = (_parse_unit(sc), n)
            continue
        if sc.peek() == "S":
            save = sc.pos
            sc.pos += 1
            g = sc.integer()
            if sc.take("wr"):
                sc.pos = save
                flush()
                units.append(_parse_unit(sc))
            else:
                # bare S<g>: wreath marker for the pending multiplicity group
                if pending is None or pending[1] != g:
                    raise DescriptorError(
                        "symmetry marker S%d has no matching %d-fold term" % (g, g)
                    )
                units.append(Wreath(pending[0], g))
                pending = None
            continue
        flush()
        units.append(_parse_unit(sc))
    flush()
    if not units and complement is None:
        raise DescriptorError("expected a factor before position %d in %r" % (sc.pos, sc.text))
    return units, complement


def _parse_unit(sc):
    if sc.peek() == "S":
        sc.expect("S")
        g = sc.integer()
        sc.expect("wr")
        return Wreath(_parse_unit(sc), g)
    if sc.take("{"):
        inner = [_parse_unit(sc)]
        while sc.take("x") or sc.take("|"):
            inner.append(_parse_unit(sc))
        sc.expect("}")
        return Bunch(tuple(inner))
    if sc.take("("):
        a = sc.integer()
        l = sc.integer() if sc.take(",") else 1
        sc.expect(")")
        return Block(a, l)
    raise DescriptorError("cannot parse a unit at position %d in %r" % (sc.pos, sc.text))


# ---------------------------------------------------------------------------
# cycle indices

# A cycle index is a map {cycle type -> number of group elements of that
# type}: cycle types are partitions stored as descending tuples.


def _z_lambda(part):
    """Size of the S_n centralizer of a permutation of cycle type ``part``."""
    z = 1
    for p in set(part):
        m = part.count(p)
        z *= p ** m * math.factorial(m)
    return z


def sym_cycle_index(n):
    """Cycle index of the full symmetric group S_n: n!/z_lambda of type lambda."""
    return {
        part: math.factorial(n) // _z_lambda(part)
        for r in range(n + 1)
        for part in partitions_into(n, r)
    }


def ci_product(z1, z2):
    """Cycle index of a direct product acting on the disjoint union."""
    out = {}
    for p1, c1 in z1.items():
        for p2, c2 in z2.items():
            p = tuple(sorted(p1 + p2, reverse=True))
            out[p] = out.get(p, 0) + c1 * c2
    return out


def _ci_scale(z, factor, weight):
    """Every cycle length of ``z`` times ``factor``, every count times ``weight``."""
    return {tuple(c * factor for c in p): n * weight for p, n in z.items()}


def ci_plethysm(outer, inner):
    """Cycle index of the wreath product: ``outer`` permutes copies of ``inner``.

    Along an i-cycle of the outer permutation the copies have the cycles
    of the product of their i inner elements, i times as long, and each
    product arises from |inner|^(i-1) choices (|inner| the sum of the inner
    counts): so lengths are scaled by i and counts by |inner|^(i-1).
    """
    size = sum(inner.values())
    out = {}
    for mu, n in outer.items():
        term = {(): n}
        for i in mu:
            term = ci_product(term, _ci_scale(inner, i, size ** (i - 1)))
        for p, c in term.items():
            out[p] = out.get(p, 0) + c
    return out


def _generator_leaf(size):
    """Fixed generators of degrees 2, 4, ..., 2*size of H*(BU(size)).

    A generator of degree 2j is recorded as a cycle of length j, so that
    scaling by the length L of a cycle of copies (``ci_plethysm``) gives the
    factor 1 - q^(jL) = 1 - t^(2jL) of det(1 - g t) on the copies.
    """
    return {tuple(range(size, 0, -1)): 1}


class _SymIndices(dict):
    """Cycle indices of S_n by n, each built on first use, for one call."""

    def __missing__(self, n):
        z = self[n] = sym_cycle_index(n)
        return z


def _unit_cycle_index(u, leaf, sym):
    if isinstance(u, Block):
        return leaf(u)
    if isinstance(u, Wreath):
        return ci_plethysm(sym[u.copies], _unit_cycle_index(u.inner, leaf, sym))
    if isinstance(u, Bunch):
        z = {(): 1}
        for v in u.units:
            z = ci_product(z, _unit_cycle_index(v, leaf, sym))
        return z
    raise DescriptorError("unknown unit %r" % (u,))


def descriptor_cycle_index(d):
    """Cycle index on k points of the Weyl-level group W <= S_k of the isotropy.

    W is generated by the symmetric groups inside each block and the
    complement, extended by the finite part permuting identical blocks.
    Each S_n index is built once per call, however many blocks, wreaths
    and complements share its n.
    """
    if not d.is_torus_commensurable():
        raise NotTorusCommensurable(
            "not torus-commensurable: %s" % d.canonical_string()
        )
    sym = _SymIndices()
    units = _unit_cycle_index(Bunch(d.units), lambda b: sym[b.size], sym)
    return ci_product(sym[d.complement], units)


def generator_cycle_index(d):
    """Cycle index of the finite part acting on the generators of H*(BH_0).

    Each leaf block of size a has generators in degrees 2, ..., 2a and the
    complement U(c) in degrees 2, ..., 2c; the finite part permutes the
    generators of identical blocks.  A cycle of length m in a cycle type
    stands for the factor 1 - q^m of det(1 - g q) on the generators, with
    q = t^2, so sum_g 1/det(1 - g q) is the sum over cycle types of the
    count divided by prod (1 - q^m).  Tensor multiplicities and a
    fixed subspace change no generator, so every descriptor has this index.
    """
    units = _unit_cycle_index(
        Bunch(d.units), lambda b: _generator_leaf(b.size), _SymIndices())
    return ci_product(_generator_leaf(d.complement), units)


def finite_part_order(d):
    """|H / H_0|: the product of the top-level units' ``finite`` orders
    (copies! * |inner|^copies at every ``Wreath`` node)."""
    return math.prod(u.finite for u in d.units)


def weyl_order(d):
    """|W| = ``finite_part_order(d)`` * prod a_b! * c! over the leaf blocks and
    the complement, from the top-level units' ``weyl`` orders: the order of
    the group of ``descriptor_cycle_index``."""
    return math.factorial(d.complement) * math.prod(u.weyl for u in d.units)


# ---------------------------------------------------------------------------
# the Molien average


def molien_poincare(d):
    """Poincare polynomial of U(k)/H for torus-commensurable isotropy H.

    The integer average of the module docstring: each series
    1/prod_{c in lambda} (1 - q^c) takes one prefix-sum pass per part
    through q^D, D = k(k-1)/2, and the count-weighted sum times
    prod_{i<=k} (1 - q^i) is exact through q^D, where every character
    ends.  Dividing by |W|, not by the sum of the counts, leaves a wrong
    count to show as b_0 != 1 or as an ArithmeticError.  The result is
    regraded q -> t^2; ``cartan.poincare`` runs the invariant checks on it.
    """
    top = d.k * (d.k - 1) // 2
    acc = [0] * (top + 1)
    for part, count in descriptor_cycle_index(d).items():
        series = [1] + [0] * top
        for c in part:
            for i in range(c, top + 1):
                series[i] += series[i - c]
        acc = [a + count * s for a, s in zip(acc, series)]
    for j in range(1, d.k + 1):
        for i in range(top, j - 1, -1):
            acc[i] -= acc[i - j]
    return Poly(dict(enumerate(acc))).divide(weyl_order(d)).substitute_power(2)
