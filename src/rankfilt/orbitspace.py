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
of the coinvariant algebra of S_k.  The average is an integer series
through degree D = k(k-1)/2, with no element and no cycle type listed:
the count-weighted sum of 1/det(1 - w q) over W is a!/prod_{i<=a} (1 - q^i)
for a block or the complement U(a), the product over juxtaposed units, and
for n copies of a unit u the H_n of H_0 = 1, H_n = sum_{j=1..n}
(n-1)!/(n-j)! |W_u|^(j-1) G_u(q^j) H_{n-j}, G_u the sum of u: this is
n h_n = sum_j p_j h_{n-j} (Macdonald, "Symmetric Functions and Hall
Polynomials", ch. I section 2).  The sum times prod_{i<=k} (1 - q^i) is
divided by |W| (``weyl_order``).  Each character prod_{i<=k} (1 - q^i) /
det(1 - w q) is a polynomial of degree exactly D, because the cycle lengths
of w sum to k, so truncating at D loses nothing.  The average is
cross-checked in the tests against flag-manifold polynomials built from
Gaussian binomials, and against exact polynomial quotients summed over a
listed cycle index and divided by the sum of the counts; neither route
shares code with this one.

Grading convention, fixed globally: one power of q is cohomological degree 2
(complex cells), so all Poincare polynomials substitute q -> t^2.

Descriptor grammar (round-trip parsed, used as cache key and CLI argument)::

    descriptor := 'U(' k ')/' ('e' | factors)   'e' is the trivial isotropy
    factors    := ('x' | '|' | factor)+         separators may repeat
    factor     := 'U(' c ')'                    complement with a full unitary group
                | '[' factors ']'
                | n 'x' unit [('x' | '|')* 'S' n]   n copies (none if n = 0), Sym(n) if marked
                | unit
    unit       := '(' a [',' l] ')'             single block, l defaults to 1
                | 'S' g 'wr' unit               g identical copies permuted by Sym(g)
                | '{' unit (('x' | '|') unit)* '}'
    k, c, a, l, g, n := decimal integers (k, a, l, g >= 1)

If no complement factor is written, the complement is the full leftover
k - sum(a*l); with an explicit complement the leftover beyond it is the
fixed subspace.  So ``U(2)/(1)xU(1)`` is the projective line while
``U(2)/U(1)`` is the unit sphere in C^2.  A list of factors needs a
unit or a complement, and one complement at most is written.  The
shorthand works at every level: ``U(4)/2x(1,1)xS2xU(2)`` and
``U(4)/[2x(1,1)|S2]xU(2)`` are both ``U(4)/S2wr(1)xU(2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

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


def finite_part_order(d):
    """|H / H_0|: the product of the top-level units' ``finite`` orders
    (copies! * |inner|^copies at every ``Wreath`` node)."""
    return math.prod(u.finite for u in d.units)


def weyl_order(d):
    """|W| = ``finite_part_order(d)`` * prod a_b! * c! over the leaf blocks and
    the complement, from the top-level units' ``weyl`` orders: the order of
    the Weyl-level group W <= S_k that ``molien_sum`` sums over."""
    return math.factorial(d.complement) * math.prod(u.weyl for u in d.units)


# ---------------------------------------------------------------------------
# descriptor parsing


class _Scanner:
    def __init__(self, text):
        self.text = text.replace(" ", "")
        self.pos = 0

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
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise DescriptorError("expected an integer at position %d in %r" % (start, self.text))
        return int(self.text[start:self.pos])


def parse_descriptor(text):
    """Parse a descriptor string; see the module docstring for the grammar."""
    sc = _Scanner(text)
    sc.expect("U(")
    k = sc.integer()
    sc.expect(")")
    sc.expect("/")
    if sc.take("e"):
        if sc.pos < len(sc.text):
            raise DescriptorError("the trivial isotropy 'e' must stand alone in %r" % sc.text)
        return OrbitDescriptor(k)
    units, complement = _parse_factors(sc, None)
    if complement is None:
        complement = k - sum(u.dim for u in units)
        if complement < 0:
            raise DescriptorError("blocks overfill U(%d)" % k)
    return OrbitDescriptor(k, tuple(units), complement).canonicalize()


def _parse_factors(sc, close):
    """(units, complement or None) up to ``close``; with no ``close``, to the end."""
    units = []
    complement = None
    run = None  # (unit, n) after 'n x unit' and any separators
    while not sc.take(close) if close else sc.pos < len(sc.text):
        if sc.pos == len(sc.text):
            raise DescriptorError("unterminated '[' in %r" % sc.text)
        if sc.take("x") or sc.take("|"):
            continue
        last, run, c = run, None, None
        if sc.take("["):
            inner, c = _parse_factors(sc, "]")
            units += inner
        elif sc.take("U("):
            c = sc.integer()
            sc.expect(")")
        elif "0" <= sc.text[sc.pos] <= "9":
            n = sc.integer()
            sc.expect("x")
            run = (_parse_unit(sc), n)
            units += [run[0]] * n
        elif sc.take("S"):
            g = sc.integer()
            if sc.take("wr"):
                units.append(Wreath(_parse_unit(sc), g))
            elif last and last[1] == g:
                # a bare S<g>: the g copies just read become one wreath
                units[len(units) - g:] = [Wreath(last[0], g)]
            else:
                raise DescriptorError(
                    "symmetry marker S%d has no matching %d-fold term" % (g, g)
                )
        else:
            units.append(_parse_unit(sc))
        if c is not None:
            if complement is not None:
                raise DescriptorError("more than one complement factor")
            complement = c
    if not units and complement is None:
        raise DescriptorError("expected a factor before position %d in %r" % (sc.pos, sc.text))
    return units, complement


def _parse_unit(sc):
    if sc.take("S"):
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
# the Molien average


def _times_sym(series, a, stride=1):
    """``series`` times a!/prod_{i<=a} (1 - q^(i*stride)), the count-weighted
    Molien sum of S_a on a points at q^stride: one prefix-sum pass per
    factor, each residue class mod i*stride summed on its own."""
    series = list(series)
    for step in range(stride, min(a * stride, len(series) - 1) + 1, stride):
        for r in range(step):
            series[r::step] = accumulate(series[r::step])
    if a > 1:
        f = math.factorial(a)
        series = [f * s for s in series]
    return series


def _times_unit(series, u, stride=1):
    """``series`` times the count-weighted Molien sum of the unit ``u`` at
    q^stride, through the length of ``series``."""
    if isinstance(u, Block):
        return _times_sym(series, u.size, stride)
    if isinstance(u, Bunch):
        for v in u.units:
            series = _times_unit(series, v, stride)
        return series
    # a wreath: the recurrence of the module docstring with H_0 = series,
    # each G_v(q^j) applied as the inner unit at j times the stride
    h = [series]
    for n in range(1, u.copies + 1):
        acc = [0] * len(series)
        weight = 1
        for j in range(1, n + 1):
            term = _times_unit(h[n - j], u.inner, j * stride)
            acc = [x + weight * y for x, y in zip(acc, term)]
            weight *= (n - j) * u.inner.weyl
        h.append(acc)
    return h[-1]


def molien_sum(d, top):
    """sum_{w in W} 1/det(1 - w q) on the k points, in integers through
    q^top: the complement and then each unit multiply the series."""
    if not d.is_torus_commensurable():
        raise NotTorusCommensurable("not torus-commensurable: %s" % d.canonical_string())
    series = _times_sym([1] + [0] * top, d.complement)
    for u in d.units:
        series = _times_unit(series, u)
    return series


def molien_poincare(d):
    """Poincare polynomial of U(k)/H for torus-commensurable isotropy H.

    The integer average of the module docstring, exact through q^D,
    D = k(k-1)/2, where every character ends.  Dividing by |W|, not by a
    count the sum carries, leaves a wrong sum to show as b_0 != 1 or as an
    ArithmeticError.  The result is regraded q -> t^2; ``cartan.poincare``
    runs the invariant checks on it.
    """
    top = d.k * (d.k - 1) // 2
    acc = molien_sum(d, top)
    for j in range(1, d.k + 1):
        for i in range(top, j - 1, -1):
            acc[i] -= acc[i - j]
    return Poly(dict(enumerate(acc))).divide(weyl_order(d)).substitute_power(2)
