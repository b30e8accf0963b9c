"""Reference implementations the tests compare the engines against.

None of these is reached from the ``rankfilt`` command line; they live
beside the tests so that the oracle side of every cross-check is visibly
separate from the engine side.  Each one reaches its answer by a route
that shares no code with the engine it checks:

* ``gaussian_binomial`` and ``flag_poincare_oracle`` build flag-manifold
  Poincare polynomials from the q-Pascal recursion.  The Molien engine
  sums integer series over the Weyl-level group instead, so the two meet
  only in the answer.
* ``descriptor_cycle_index`` lists the cycle index of the Weyl-level
  group W <= S_k of a torus-commensurable descriptor: every cycle type of
  S_a for each block and the complement (``sym_cycle_index``, n!/z_lambda
  per type), and at each ``Wreath`` node every cycle type of the copy
  permutation (``ci_plethysm``).  The Molien engine lists no cycle type:
  it multiplies integer series block by block and runs the n*h_n
  recurrence at each wreath.
* ``generator_cycle_index`` lists the cycle index of the finite part of
  any descriptor on the generators of H*(BH_0) the same way, with
  ``ci_plethysm`` over every listed cycle type of each S_n; a generator
  of degree 2j is a cycle of length j.  ``cartan.generator_series`` lists
  no cycle type: it sums 1/det(1 - g q) as one integer series, with its
  own n*h_n recurrence at each wreath, and the tests compare it with
  sum count / prod (1 - q^m) over this index.
* ``molien_poincare_oracle`` averages by polynomial division over
  ``descriptor_cycle_index``: for each cycle type it divides
  prod_{i<=k} (1 - q^i) by prod_{c in lambda} (1 - q^c) with
  ``divide_exact`` (``graded_char_coinv``), sums count x quotient as
  ``Poly`` objects, and divides the sum by the order, which it takes as
  the sum of the counts, with ``divide_exact`` again.  The engine sums
  integer series truncated at degree k(k-1)/2 and divides once by the
  closed-form order ``weyl_order``, so the two share nothing but the
  descriptor.
* ``cycle_index_by_enumeration`` lists the group W <= S_k of a
  torus-commensurable descriptor element by element: it closes the
  generating permutations of the k points (adjacent transpositions inside
  each leaf block and inside the complement, and the adjacent copy swaps
  at every ``Wreath`` node) and counts cycle types, the check of
  ``descriptor_cycle_index``.
* ``stabilizer_oracle`` builds the raw isotropy unit tree of a chain,
  single classes and nested bunches included, and canonicalizes the whole
  descriptor with ``OrbitDescriptor.canonicalize``.  ``decomp.stabilizer``
  never canonicalizes: it builds each subtree's canonical unit once, from
  its children's canonical units.
* ``dense_rank_fractions`` is textbook Gaussian elimination over Fraction
  on a dense matrix, with the first nonzero entry of each column as pivot.
  ``linalg.sparse_rank`` is fraction-free integer elimination on sparse
  rows.
* ``verify_d_squared`` multiplies the full (non-invariant) matrices of the
  Koszul differential in two consecutive degrees and checks that the
  product is zero.  It uses the complex's own rows but no rank and no orbit
  representatives, so it tests the differential that every rank is taken
  of.
* ``full_exterior_basis`` is ``KoszulComplex.basis`` without the bound on
  the exterior part: it tries all 2^k subsets of y_1..y_k in every degree,
  so it checks that the bounded enumeration drops only subsets that cannot
  fit and keeps the order.
* ``full_ring_minimal_generators`` builds all k Chern images and decides
  the minimality of each in the whole polynomial ring R, complement variables included, with one
  ``linalg.sparse_rank`` comparison per nonzero rho_i and no shortcut.  The
  engine ranks nothing here: it takes rho_1..rho_r as the minimal
  generators by the theorem in the ``cartan`` module docstring, which this
  oracle checks.
* ``fixed_oracle`` and ``torus_commensurable_oracle`` read the fixed
  dimension and torus-commensurability off the list of leaf blocks
  (``OrbitDescriptor.blocks``).  ``OrbitDescriptor.fixed`` and
  ``is_torus_commensurable`` take them from the size sums stored on the
  top-level units and list no leaf.
* ``check_chain_tree`` validates a chain tree in one walk over its levels:
  the root has the ambient dimension, every node's children are sorted
  descending and sum to its dimension, part counts strictly increase
  downward and every leaf sits on the finest level.  ``decomp`` checks
  none of this at run time, because ``NodeTable.subtrees`` builds every
  tree that way; the tests run this check on every tree the enumerator
  yields.
* ``chain_types_oracle`` lists chain types by the level-wide forest
  search: each root of a level takes a partition, a forest is kept when
  the parts add up to the level's count, and each forest is sorted as it
  is stored.  ``decomp.NodeTable`` builds one tree at a time from its
  level counts as int ids, bounds each child's counts by what its later
  siblings can take, and sorts no list of trees.
* ``structural_chain_types`` and ``append_lines`` compute the chain types
  and the edge pairing on nested trees: trees are compared and sorted
  structurally, and children are refined in place.  They share
  ``decomp._profiles`` with the engine's search, so the tests check them
  against ``chain_types_oracle`` as well.  The engine's roots,
  appended roots and descriptors, spelled as trees, must equal theirs on
  every cube the tests build.
* ``canonical_chain_type``, ``level_counts`` and ``leaves`` build a
  checked chain tree from an unsorted one and read its component counts
  per level and its leaf dimensions, for the tests of the chain trees and
  the edge pairing in ``decomp``; ``vertex`` looks a cube vertex up by its
  subset.  ``table_root`` interns a chain tree as a root of a
  ``decomp.NodeTable``, and ``stabilizer_of`` runs ``decomp.stabilizer`` on
  a chain tree through a fresh table: they call the engine, and check
  nothing.
* ``PointedMap``, ``pushforward``, ``compose_rank`` and ``compose_indices``
  spell out the functoriality of the index calculus (maps of pointed sets
  push multiplicities forward; composition multiplies ranks).  They are the
  objects of the combinatorial property suites.  An index tuple there is a
  triple (entries, k, l) checked by ``index_tuple``, which, unlike a
  ``combinat.SummandSet``, admits the basepoint, since a composite may be
  the basepoint.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from operator import add

from rankfilt.cartan import InvariantViolation
from rankfilt.combinat import ContractViolation, partitions_into
from rankfilt.decomp import NodeTable, _profiles, stabilizer
from rankfilt.linalg import sparse_rank
from rankfilt.orbitspace import (
    Block,
    Bunch,
    DescriptorError,
    NotTorusCommensurable,
    OrbitDescriptor,
    Wreath,
)
from rankfilt.poly import Poly, prod

# ---------------------------------------------------------------------------
# flag manifolds


_gauss_cache = {}


def gaussian_binomial(n, j):
    """Gaussian binomial [n choose j]_q via the Pascal recursion."""
    if j < 0 or j > n:
        return Poly.zero()
    if j == 0 or j == n:
        return Poly.one()
    key = (n, min(j, n - j))
    got = _gauss_cache.get(key)
    if got is None:
        j = key[1]
        got = gaussian_binomial(n - 1, j - 1) + gaussian_binomial(n - 1, j) * Poly({j: 1})
        _gauss_cache[key] = got
    return got


def flag_poincare_oracle(composition):
    """Poincare polynomial of the flag manifold of a composition (k_1, ..., k_r).

    Computed as a product of Gaussian binomials, then regraded q -> t^2.
    """
    acc = Poly.one()
    total = 0
    for c in composition:
        total += c
        acc = acc * gaussian_binomial(total, c)
    return acc.substitute_power(2)


# ---------------------------------------------------------------------------
# listed cycle indices

# A cycle index is a map {cycle type -> number of group elements of that
# type}: cycle types are descending tuples.


def _z_lambda(part):
    """Size of the S_n centralizer of a permutation of cycle type ``part``."""
    z = 1
    for p in set(part):
        m = part.count(p)
        z *= p ** m * math.factorial(m)
    return z


def ci_product(z1, z2):
    """Cycle index of a direct product acting on the disjoint union."""
    out = {}
    for p1, c1 in z1.items():
        for p2, c2 in z2.items():
            p = tuple(sorted(p1 + p2, reverse=True))
            out[p] = out.get(p, 0) + c1 * c2
    return out


def sym_cycle_index(n):
    """Cycle index of the full symmetric group S_n: n!/z_lambda of type lambda,
    over the listed partitions of n."""
    return {
        part: math.factorial(n) // _z_lambda(part)
        for r in range(n + 1)
        for part in partitions_into(n, r)
    }


def ci_plethysm(outer, inner):
    """Cycle index of the wreath product: ``outer`` permutes copies of ``inner``.

    Along an i-cycle of the outer permutation the copies have the cycles
    of the product of their i inner elements, i times as long, and each
    product arises from |inner|^(i-1) choices (|inner| the sum of the inner
    counts): so lengths are scaled by i and counts by |inner|^(i-1), for
    each listed cycle type of ``outer``.
    """
    size = sum(inner.values())
    out = {}
    for mu, n in outer.items():
        term = {(): n}
        for i in mu:
            scaled = {tuple(c * i for c in p): w * size ** (i - 1) for p, w in inner.items()}
            term = ci_product(term, scaled)
        for p, c in term.items():
            out[p] = out.get(p, 0) + c
    return out


def descriptor_cycle_index(d):
    """Cycle index on k points of the Weyl-level group W <= S_k of the
    torus-commensurable descriptor ``d``, with every S_n index listed.

    W is generated by the symmetric groups inside each block and the
    complement, extended by the finite part permuting identical blocks.
    """
    if not d.is_torus_commensurable():
        raise NotTorusCommensurable("not torus-commensurable: %s" % d.canonical_string())

    def unit(u):
        if isinstance(u, Block):
            return sym_cycle_index(u.size)
        if isinstance(u, Wreath):
            return ci_plethysm(sym_cycle_index(u.copies), unit(u.inner))
        z = {(): 1}
        for v in u.units:
            z = ci_product(z, unit(v))
        return z

    return ci_product(sym_cycle_index(d.complement), unit(Bunch(d.units)))


def generator_cycle_index(d):
    """Cycle index of the finite part of ``d`` acting on the generators of
    H*(BH_0), with every S_n index listed.

    A leaf block of size a, and the complement U(a), has generators of
    degrees 2, ..., 2a, fixed by every element, recorded as the cycles
    (a, ..., 1): a cycle of length m stands for the factor 1 - q^m of
    det(1 - g q), q = t^2, and ``ci_plethysm`` scales it along a cycle of
    copies.  Tensor multiplicities and a fixed subspace change no generator.
    """

    def leaf(a):
        return {tuple(range(a, 0, -1)): 1}

    def unit(u):
        if isinstance(u, Block):
            return leaf(u.size)
        if isinstance(u, Wreath):
            return ci_plethysm(sym_cycle_index(u.copies), unit(u.inner))
        z = {(): 1}
        for v in u.units:
            z = ci_product(z, unit(v))
        return z

    return ci_product(leaf(d.complement), unit(Bunch(d.units)))


# ---------------------------------------------------------------------------
# the Molien average by exact division


def divide_exact(num, den):
    """Exact division of untruncated polynomials; ArithmeticError on a
    remainder or on a quotient that is not integral."""
    if num.truncation is not None or den.truncation is not None:
        raise ValueError("exact division requires untruncated polynomials")
    if not den.coeffs:
        raise ZeroDivisionError("division by zero polynomial")
    rem = dict(num.coeffs)
    dd = den.degree()
    lead = den.coeffs[dd]
    quot = {}
    while rem:
        rd = max(rem)
        if rd < dd:
            raise ArithmeticError("non-exact polynomial division (remainder of degree %d)" % rd)
        q, r = divmod(rem[rd], lead)
        if r:
            raise ArithmeticError(
                "non-integral quotient %s in degree %d" % (Fraction(rem[rd], lead), rd - dd))
        quot[rd - dd] = q
        for d2, c2 in den.coeffs.items():
            nd = rd - dd + d2
            nc = rem.get(nd, 0) - q * c2
            if nc:
                rem[nd] = nc
            else:
                rem.pop(nd, None)
    return Poly(quot)


def graded_char_coinv(cycle_type, k, numerator):
    """Graded character of the S_k coinvariant algebra at a cycle type:
    ``numerator`` / prod_{c in type} (1 - q^c), with ``numerator`` the
    polynomial prod_{i=1..k} (1 - q^i).  The identity type yields the
    q-factorial [k]_q!."""
    cycle_type = tuple(sorted(cycle_type, reverse=True))
    if sum(cycle_type) != k or any(c < 1 for c in cycle_type):
        raise DescriptorError("%r is not a partition of %d" % (cycle_type, k))
    den = prod(Poly.one_minus(c) for c in cycle_type)
    return divide_exact(numerator, den)


def molien_poincare_oracle(d):
    """The Molien average of ``d``: the sum of its characters weighted by
    the class counts, divided by the sum of the counts and regraded
    q -> t^2."""
    num = prod(Poly.one_minus(i) for i in range(1, d.k + 1))
    z = descriptor_cycle_index(d)
    acc = Poly.zero()
    for part, count in z.items():
        acc = acc + graded_char_coinv(part, d.k, num) * count
    return divide_exact(acc, Poly({0: sum(z.values())})).substitute_power(2)


def cycle_index_by_enumeration(d):
    """{cycle type: number of elements} of the group W <= S_k of the
    torus-commensurable descriptor ``d``, found by listing W.

    The points are numbered leaf block by leaf block in tree order, then
    the complement.  W is generated by the adjacent transpositions inside
    each block and inside the complement, and by the adjacent copy swaps of
    every ``Wreath`` node; the group is closed by breadth-first search.
    """
    swaps = []  # each generator as a tuple of disjoint transpositions

    def walk(u, start):
        """Add the generators of ``u`` on the points from ``start``; return its width."""
        if isinstance(u, Block):
            if u.mult != 1:
                raise DescriptorError("tensor multiplicity %d" % u.mult)
            swaps.extend(((i, i + 1),) for i in range(start, start + u.size - 1))
            return u.size
        if isinstance(u, Wreath):
            w = walk(u.inner, start)
            for c in range(1, u.copies):
                walk(u.inner, start + c * w)
                a = start + (c - 1) * w
                swaps.append(tuple((a + i, a + w + i) for i in range(w)))
            return u.copies * w
        width = 0
        for v in u.units:
            width += walk(v, start + width)
        return width

    end = walk(Bunch(d.units), 0)
    if end + d.complement != d.k:
        raise DescriptorError("fixed subspace of dimension %d" % (d.k - end - d.complement))
    swaps.extend(((i, i + 1),) for i in range(end, d.k - 1))
    gens = []
    for pairs in swaps:
        p = list(range(d.k))
        for a, b in pairs:
            p[a], p[b] = b, a
        gens.append(tuple(p))
    identity = tuple(range(d.k))
    group, frontier = {identity}, [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in group:
                    group.add(y)
                    new.append(y)
        frontier = new
    return dict(Counter(map(_cycle_type, group)))


def _cycle_type(perm):
    """Cycle lengths of a permutation of range(len(perm)), descending."""
    seen, lengths = set(), []
    for i in range(len(perm)):
        n, j = 0, i
        while j not in seen:
            seen.add(j)
            j, n = perm[j], n + 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# linear algebra


def dense_rank_fractions(rows, ncols):
    """Rank over Q by dense Fraction elimination of rows {column: value}."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    prow = 0
    for col in range(ncols):
        piv = None
        for r in range(prow, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[prow], mat[piv] = mat[piv], mat[prow]
        pv = mat[prow][col]
        for r in range(prow + 1, len(mat)):
            f = mat[r][col] / pv
            if f:
                for c in range(col, ncols):
                    mat[r][c] -= f * mat[prow][c]
        prow += 1
        rank += 1
        if prow == len(mat):
            break
    return rank


def verify_d_squared(kc, degrees):
    """Check d(d(b)) == 0 on every full basis element of ``kc`` in ``degrees``."""
    kc._build_chern(kc.k)
    for d in degrees:
        rows = kc._image_rows(d, invariants=False)
        rows_next = kc._image_rows(d + 1, invariants=False)
        for row in rows:
            acc = {}
            for j, v in row.items():
                for j2, v2 in rows_next[j].items():
                    acc[j2] = acc.get(j2, 0) + v * v2
            if any(acc.values()):
                raise InvariantViolation("d^2 != 0 in degree %d" % d)
    return True


def full_exterior_basis(kc, degree, invariants=True):
    """The basis of ``kc`` in ``degree`` from every subset of y_1..y_k, by
    size and then lexicographically, each subset with every monomial that
    completes its degree (orbit representatives only with ``invariants``)."""
    orbits = invariants and bool(kc.generators)
    out = []
    for r in range(kc.k + 1):
        for ext in itertools.combinations(range(1, kc.k + 1), r):
            rest = degree - sum(2 * i - 1 for i in ext)
            if rest < 0 or rest % 2:
                continue
            for mono in kc._monomials(rest):
                if not orbits or kc.canonical(mono) == mono:
                    out.append((ext, mono))
    return out


def full_ring_minimal_generators(kc):
    """The degrees i whose rho_i minimally generate the ideal I of ``kc``
    when there are exactly ``nvars`` of them, else None.

    rho_i is minimal when it lies outside the span of the multiples
    x^alpha rho_j (j < i, rho_j minimal) in degree 2i, with x^alpha over
    every generator of R.
    """
    kc._build_chern(kc.k)
    minimal = []
    for i, rho in enumerate(kc.chern, start=1):
        if not rho:
            continue
        rows = [
            {tuple(map(add, alpha, mu)): c for mu, c in kc.chern[j - 1].items()}
            for j in minimal
            for alpha in kc._monomials(2 * (i - j))
        ]
        if not rows or sparse_rank(rows + [rho]) > sparse_rank(rows):
            minimal.append(i)
    return minimal if len(minimal) == kc.nvars else None


# ---------------------------------------------------------------------------
# descriptor size sums


def fixed_oracle(d):
    """The fixed dimension of ``d`` from its list of leaf blocks."""
    return d.k - sum(b.size * b.mult for b in d.blocks()) - d.complement


def torus_commensurable_oracle(d):
    """No fixed part and every leaf block of tensor multiplicity 1, read
    off the list of leaf blocks."""
    return fixed_oracle(d) == 0 and all(b.mult == 1 for b in d.blocks())


# ---------------------------------------------------------------------------
# chain trees


def check_chain_tree(m, root):
    """``root`` if it is the canonical tree of a chain of decompositions of
    C^m; raises ``ContractViolation`` otherwise.

    Children sorted descending at every node is the same as the tree being
    its own canonical form.  Every leaf must sit on the finest level, so
    that each level is one decomposition with the level's count of parts.
    """
    if root[0] != m:
        raise ContractViolation("root dimension differs from ambient dimension")
    prev, level = 0, [root]
    while level:
        if len(level) <= prev:
            raise ContractViolation("component counts must strictly increase downward")
        prev = len(level)
        n_leaves = sum(1 for _, kids in level if not kids)
        if 0 < n_leaves < len(level):
            raise ContractViolation("leaves must all sit on the finest level")
        for dim, kids in level:
            if kids != tuple(sorted(kids, reverse=True)):
                raise ContractViolation("chain tree is not in canonical form")
            if kids and sum(c[0] for c in kids) != dim:
                raise ContractViolation("children dimensions do not sum to the node dimension")
        level = [c for _, kids in level for c in kids]
    return root


def canonical_chain_type(m, root):
    """The chain tree ``root`` with the children of every node sorted
    descending, which is the canonical form, checked by ``check_chain_tree``."""

    def canon(node):
        dim, children = node
        return (dim, tuple(sorted((canon(c) for c in children), reverse=True)))

    return check_chain_tree(m, canon(root))


def structural_chain_types(m, subset, subtrees):
    """The chain types over C^m with level counts ``subset`` as a sorted
    tuple of nested trees, by the search of ``decomp.NodeTable`` on nested
    trees: every tree is a nested tuple with its children sorted
    structurally, so a twin is compared by recursive tuple comparison, not
    by id.  ``subtrees`` is a dict of the trees of each (dim, level
    counts), shared like the engine's ``forests``."""
    return tuple(sorted(_structural_trees(m, tuple(sorted(set(subset))), subtrees)))


def _structural_trees(dim, counts, memo):
    key = (dim, counts)
    got = memo.get(key)
    if got is None:
        if not counts:
            got = [(dim, ())]
        else:
            got = [(dim, children) for part in partitions_into(dim, counts[0])
                   for children in _structural_children(part, counts[1:], memo)]
        memo[key] = got
    return got


def _structural_children(part, counts, memo):
    dim = part[0]
    if len(part) == 1:
        return [(tree,) for tree in _structural_trees(dim, counts, memo)]
    out = []
    twin = part[1] == dim
    for own in _profiles(dim, counts, len(part) - 1, sum(part[1:])):
        tails = _structural_children(
            part[1:], tuple([a - b for a, b in zip(counts, own)]), memo)
        for tree in _structural_trees(dim, own, memo):
            out.extend([(tree,) + tail for tail in tails if not twin or tail[0] <= tree])
    return out


def append_lines(node, appended):
    """The chain tree ``node`` with its finest level refined by the full
    line decomposition, on nested trees: the refinement is strictly
    increasing on the subtrees of one depth and keeps dimensions, so sorted
    siblings stay sorted.  ``appended`` stores each refined child."""
    dim, children = node
    if not children:
        return (dim, ((1, ()),) * dim)
    refined = []
    for child in children:
        got = appended.get(child)
        if got is None:
            got = appended[child] = append_lines(child, appended)
        refined.append(got)
    return (dim, tuple(refined))


def table_root(table, tree):
    """The children of the chain tree ``tree`` in the order of ``table``,
    each subtree interned: the inverse of ``NodeTable.root_tree``."""
    return table.ordered([table.node(c[0], table_root(table, c)) for c in tree[1]])


def stabilizer_of(tree, l=1, k=None):
    """``decomp.stabilizer`` of the chain tree ``tree``, through a fresh
    node table for (m, ``l``)."""
    table = NodeTable(tree[0], l)
    return stabilizer(table_root(table, tree), table, k)


def stabilizer_oracle(tree, l=1, k=None):
    """The descriptor of ``decomp.stabilizer`` from the raw unit tree of the
    chain ``tree``, canonicalized as a whole."""

    def unit(node):
        dim, children = node
        if not children:
            return Block(dim, l)
        classes = []
        for child, run in itertools.groupby(children):
            copies = len(tuple(run))
            classes.append(unit(child) if copies == 1 else Wreath(unit(child), copies))
        return Bunch(tuple(classes))

    m = tree[0]
    if k is None:
        k = m * l
    return OrbitDescriptor(k, (unit(tree),), k - l * m).canonicalize()


def chain_types_oracle(m, subset, forests):
    """The chain types of ``decomp.enumerate_chain_types`` by the level-wide
    forest search: every root of a level takes a partition, the budget of
    parts is checked only once all roots have one, and every forest is
    sorted as it is stored.  ``forests`` is shared like the engine's dict."""
    return tuple(forest[0] for forest in _forests((m,), tuple(sorted(set(subset))), forests))


def _forests(dims, counts, memo):
    key = (dims, counts)
    if key in memo:
        return memo[key]
    if not counts:
        memo[key] = [tuple((d, ()) for d in dims)]
        return memo[key]
    target, rest = counts[0], counts[1:]
    results = set()

    def assign(i, budget, chosen):
        if i == len(dims):
            if budget:
                return
            child_dims = tuple(d for part in chosen for d in part)
            for sub in _forests(child_dims, rest, memo):
                forest = []
                pos = 0
                for root_dim, part in zip(dims, chosen):
                    n = len(part)
                    forest.append((root_dim, tuple(sorted(sub[pos:pos + n], reverse=True))))
                    pos += n
                results.add(tuple(forest))
            return
        d = dims[i]
        remaining_roots = len(dims) - i - 1
        for p in range(1, min(d, budget - remaining_roots) + 1):
            for part in partitions_into(d, p):
                chosen.append(part)
                assign(i + 1, budget - p, chosen)
                chosen.pop()

    assign(0, target, [])
    memo[key] = sorted(results)
    return memo[key]


def level_counts(tree):
    """Component counts per level of a chain tree, coarsest first."""
    counts, level = [], list(tree[1])
    while level:
        counts.append(len(level))
        level = [c for _, children in level for c in children]
    return counts


def leaves(tree):
    """Dimensions of the leaves of a chain tree, which all sit on its finest
    level, in tree order."""
    level = [tree]
    while level[0][1]:
        level = [c for _, children in level for c in children]
    return [dim for dim, _ in level]


def vertex(report, subset):
    """The vertex of a ``decomp.CubeReport`` at ``subset``, in any order."""
    subset = tuple(sorted(subset))
    return next(v for v in report.vertices if v.subset == subset)


# ---------------------------------------------------------------------------
# pointed maps and composition of index tuples


@dataclass(frozen=True)
class PointedMap:
    """A basepoint-preserving function [t] -> [s], with 0 the basepoint.

    ``values[i-1]`` is the image of i for 1 <= i <= t; the basepoint's image
    is implicitly 0 and not stored.
    """

    source_size: int
    target_size: int
    values: tuple

    def __post_init__(self):
        if self.source_size < 0 or self.target_size < 0:
            raise ContractViolation("negative set size")
        if len(self.values) != self.source_size:
            raise ContractViolation("value list does not match source size")
        for v in self.values:
            if not 0 <= v <= self.target_size:
                raise ContractViolation("value %r outside [0..%d]" % (v, self.target_size))

    @staticmethod
    def identity(t):
        return PointedMap(t, t, tuple(range(1, t + 1)))

    def __call__(self, i):
        if i == 0:
            return 0
        return self.values[i - 1]

    def compose(self, other):
        """self after other: [r] -> [t] -> [s]."""
        if other.target_size != self.source_size:
            raise ContractViolation("composition size mismatch")
        return PointedMap(
            other.source_size,
            self.target_size,
            tuple(self(v) for v in other.values),
        )


def pushforward(alpha, entries):
    """Push a tuple of multiplicities forward along a pointed map.

    Entry j of the result sums the entries of ``entries`` mapping to j;
    entries sent to the basepoint are discarded.
    """
    entries = tuple(entries)
    if alpha.source_size != len(entries):
        raise ContractViolation(
            "map source [%d] does not match tuple length %d" % (alpha.source_size, len(entries))
        )
    out = [0] * alpha.target_size
    for i, m in enumerate(entries, start=1):
        j = alpha(i)
        if j != 0:
            out[j - 1] += m
    return tuple(out)


def compose_rank(r, s):
    """Rank of a composite: ranks multiply."""
    if r < 0 or s < 0:
        raise ContractViolation("ranks must be non-negative")
    return r * s


def index_tuple(entries, k, l):
    """The triple (entries, k, l) of an index tuple over (k, l), checked:
    k, l >= 1, no negative entry and l * rank <= k, where the rank is the
    sum of the entries.  The basepoint (rank 0) is allowed."""
    entries = tuple(entries)
    if k < 1 or l < 1:
        raise ContractViolation("ambient ranks must be >= 1")
    if any(m < 0 for m in entries):
        raise ContractViolation("negative multiplicity")
    r = sum(entries)
    if l * r > k:
        raise ContractViolation(
            "tuple of rank %d cannot label a summand: %d * %d > %d" % (r, l, r, k))
    return entries, k, l


def compose_indices(m_tuple, n_tuple):
    """Compose index tuples (entries, k, l); contexts must share the middle
    matrix rank.

    For M over (k, l) and N over (l, n) the composite lives over (k, n) and
    consists of all pairwise products m_i * n_j, ordered lexicographically in
    (i, j).  Its rank is rank(M) * rank(N).
    """
    (m_entries, k, l), (n_entries, l2, n) = m_tuple, n_tuple
    if l != l2:
        raise ContractViolation(
            "incompatible contexts: (%d, %d) then (%d, %d)" % (k, l, l2, n))
    return index_tuple(tuple(a * b for a in m_entries for b in n_entries), k, n)
