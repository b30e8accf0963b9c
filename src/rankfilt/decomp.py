"""Complexes of direct-sum decompositions: connectivity, chains, and the cube.

A decomposition of C^m into pairwise orthogonal nonzero subspaces is
recorded up to the unitary action by the multiset of its part dimensions;
it is proper when it has at least two parts.  The complex of proper
decompositions is connected exactly when m >= 2 (see ``connectivity``).

A chain of decompositions, each refining the next, is recorded by its
canonical nested tree, the chain type: a tuple ``(dim, children)`` with the
children sorted descending, a leaf being ``(dim, ())``.  The root is C^m,
its children are the parts of the coarsest decomposition, and each level
refines the one above, so part counts strictly increase downward.  Unary
nodes are kept so that the tree levels match the prescribed component
counts exactly, and every leaf sits on the finest level.

For a subset U of {2, ..., m} the cube vertex X(U) is the space of chains
whose level component counts are the elements of U; it is a finite disjoint
union of unitary orbits, one per chain type, each with its (chain tree,
isotropy descriptor, Poincare polynomial).  The verification
that the total cofiber of the cube is rationally trivial proceeds by the
direction-m edge pairing: appending the full line decomposition below the
finest level must be a bijection from the chain types of X(U) to those of
X(U + {m}), checked directly: injective (no two base types append to the
same tree), into (every appended tree is an extended type) and onto (every
extended type is hit); and each matched pair must have equal Poincare
polynomials.  The signed sum over all vertices is then zero for free, but
is checked anyway as an independent Euler-level consistency test.

For general (k, l) the vertex orbits are U(k)/(H (x) I_l x U(k - l*m)) with
H the plain chain isotropy, and P(c) = P(append(c)) for every chain c.
Appending the lines turns each leaf U(a) of H into N(T_a) = S_a wr U(1)
and keeps the finite part: stripping the finest level undoes the append,
so siblings are equal after it exactly when they were before.  The new
isotropy is thus a subgroup of the old one, and the map of orbits is a
fibre bundle with connected fibre prod U(a)/N(T_a) over the leaves.  That
fibre is rationally a point, since H*(U(a)/T_a; Q) is the regular
representation of S_a, so the map is an isomorphism on rational
cohomology (Serre spectral sequence).  ``_edge`` still checks every edge
at run time, and a failure is reported as a finding, never auto-corrected.

Work per chain is done once per distinct subtree, and isotropy work once
per distinct isotropy.  Each ``cube_report`` call owns one ``NodeTable``,
made when it starts and dropped when it returns, so nothing outlives the
call.  In it a proper subtree is an int id, one per distinct (dim, child
ids), and the subtree's dim, child ids, isotropy unit and appended id are
list entries indexed by the id, each computed once:

* siblings are ordered by (dim, id), descending.  Structurally equal
  subtrees get one id, so every multiset of siblings has one spelling,
  and the twin rule of the enumeration compares ints;
* a root is the tuple of its child ids and is not interned, as no root
  repeats within a cube.  Appending the lines maps each child to its
  appended id and sorts the few results again, so an edge is a lookup of
  small int tuples;
* the units are interned (hash-consing): each distinct unit is stored
  under its ``key``, the wreath of each run of identical siblings under
  (id, copies), and the juxtaposition of each tuple of two or more
  classes under the tuple of their ids, valid because the table keeps
  the classes alive.

Beside the table the call keeps ``isotropies``: the (descriptor, Poincare
polynomial) pair of each distinct isotropy, by the id of the root's
interned unit.  A miss calls ``stabilizer`` and ``cartan.poincare`` once;
every chain of that isotropy then shares the pair.  The cube is walked
edge by edge: X(U), then X(U + {m}), then the edge between them, after
which only the two vertex sums are kept.  A vertex's Poincare polynomial
is sum(n * P) over its isotropies, with n the number of its chains of
each, summed in one pass over the integer coefficients
(``_weighted_sum``); the signed sum over the vertices is summed the same
way.  Chain trees in the structural form above, their order and their
strings are built only when asked for: by ``cube_report(...,
chains=True)``, which ``--json`` passes, and for the findings of a
failed edge.

``CubeReport.to_json`` likewise owns three dicts for the length of one
call, so that each distinct value is rendered once, as every chain of
one isotropy shares one descriptor and one ``Poly``:

* ``names``: the ``canonical_string()`` of each descriptor, by id;
* ``maps``: the ``to_map()`` of each polynomial, by id;
* ``trees``: the ``_tree_string`` of each shared subtree, by id.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from . import cartan
from .combinat import ContractViolation, is_prime_power, partitions_into
from .orbitspace import Block, OrbitDescriptor, Wreath, flatten_units, juxtapose
from .poly import Poly


# ---------------------------------------------------------------------------
# connectivity


def connectivity(m):
    """Path-connectivity of the complex of proper decompositions of C^m:
    True exactly when m >= 2.

    Each orbit of decompositions is a connected homogeneous space, so the
    complex is connected when its proper types are linked by coarsenings.
    Every proper type coarsens the line decomposition (1, ..., 1) by a run
    of pair merges, and each intermediate type has at least as many parts
    as the target, so it is proper too: every proper type is linked to the
    line decomposition.  For m = 1 there is no proper type and the complex
    is empty (the suspension is just the two-point sphere).
    """
    if m < 1:
        raise ContractViolation("need m >= 1")
    return m >= 2


# ---------------------------------------------------------------------------
# chain types


class NodeTable:
    """The chain subtrees of one cube over C^m as int ids, with their
    isotropy units for tensor multiplicity ``l`` (module docstring).

    ``dim``, ``kids``, ``unit`` and ``appended`` are lists indexed by id:
    a subtree's dim, its child ids ordered by (dim, id) descending, its
    interned isotropy unit, and the id of the subtree refined by the lines
    (None until ``append`` asks for it).
    """

    def __init__(self, m, l=1):
        self.m, self.l = m, l
        self.dim, self.kids, self.unit, self.appended = [], [], [], []
        # kids -> id for an inner node, whose dim is the sum of its
        # children's; dim -> id for a leaf
        self.ids = {}
        self.forests = {}  # (dim, level counts) -> ids of those subtrees
        self.units = {}  # each distinct unit, by its key
        self.wreaths = {}  # (id, copies) -> the wreath of copies of that subtree
        self.joins = {}  # ids of two or more classes -> their juxtaposition
        self.trees = {}  # id -> the structural subtree, built on demand

    def node(self, dim, kids):
        """The id of the subtree (``dim``, ``kids``), ``kids`` in table
        order; a new id gets its unit at once, from its children's."""
        key = kids or dim
        got = self.ids.get(key)
        if got is None:
            got = self.ids[key] = len(self.dim)
            self.dim.append(dim)
            self.kids.append(kids)
            self.unit.append(self.unit_of(dim, kids))
            self.appended.append(None)
        return got

    def ordered(self, ids):
        """``ids`` as a sibling tuple: by (dim, id), descending."""
        return tuple(sorted(sorted(ids, reverse=True), key=self.dim.__getitem__, reverse=True))

    # -- enumeration ------------------------------------------------------

    def subtrees(self, dim, counts):
        """Ids of the chain trees of dim ``dim`` with ``counts[j]`` nodes on
        level j + 1 below the root, listed once in ``forests``."""
        key = (dim, counts)
        got = self.forests.get(key)
        if got is None:
            node = self.node
            got = self.forests[key] = [node(dim, kids) for kids in self.child_tuples(dim, counts)]
        return got

    def child_tuples(self, dim, counts):
        """The child-id tuples of those trees: the root splits into
        ``counts[0]`` parts, and the children of each split come from
        ``children``.  Each level spends exactly its count, leaves sit only
        on the finest level, and siblings are in table order, so every tree
        has one spelling and none is built twice."""
        if not counts:
            return [()]
        rest = counts[1:]
        return [kids for part in partitions_into(dim, counts[0])
                for kids in self.children(part, rest)]

    def children(self, part, counts):
        """Sibling tuples of chain trees with dims ``part`` (a descending
        partition) whose level counts add up to ``counts``.

        The first child takes each level-count profile ``own`` that
        ``_profiles`` leaves room for, and the later children are the tuples
        for ``part[1:]`` and the counts left over.  Children of unequal dims
        are ordered by dim; when the second dim equals the first, only tails
        whose first id is at most the first child's are kept.
        """
        dim = part[0]
        if len(part) == 1:
            return [(i,) for i in self.subtrees(dim, counts)]
        out = []
        twin = part[1] == dim
        for own in _profiles(dim, counts, len(part) - 1, sum(part[1:])):
            tails = self.children(part[1:], tuple([a - b for a, b in zip(counts, own)]))
            for i in self.subtrees(dim, own):
                head = (i,)
                out.extend([head + tail for tail in tails if tail[0] <= i] if twin
                           else [head + tail for tail in tails])
        return out

    # -- isotropy units ---------------------------------------------------

    def intern(self, unit):
        """The one unit in ``units`` equal to ``unit``, stored under its key
        (the key determines the unit)."""
        return self.units.setdefault(unit.key, unit)

    def unit_of(self, dim, kids):
        """Canonical isotropy unit of the tree (``dim``, ``kids``): a leaf
        is a block of tensor multiplicity ``l``; otherwise each run of equal
        siblings (adjacent, as siblings are sorted) is permuted by a wreath
        if it repeats, and the classes are juxtaposed.  The juxtaposition is
        stored under the ids of its classes, which the table keeps alive."""
        if not kids:
            return self.intern(Block(dim, self.l))
        if len(set(kids)) == len(kids):  # no run repeats
            classes = list(map(self.unit.__getitem__, kids))
        else:
            classes = []
            for kid, run in itertools.groupby(kids):
                copies = len(tuple(run))
                if copies == 1:
                    classes.append(self.unit[kid])
                    continue
                got = self.wreaths.get((kid, copies))
                if got is None:
                    got = self.wreaths[kid, copies] = self.intern(Wreath(self.unit[kid], copies))
                classes.append(got)
        if len(classes) == 1:
            return classes[0]
        ids = tuple(map(id, classes))
        got = self.joins.get(ids)
        if got is None:
            got = self.joins[ids] = self.intern(juxtapose(classes))
        return got

    # -- the lines --------------------------------------------------------

    def refine(self, dim, kids):
        """The children of the tree (``dim``, ``kids``) with its finest level
        refined by the full line decomposition: a leaf splits into ``dim``
        lines, an inner node refines each child (``append``).  Dims are
        kept, but ids are not in structural order, so the result is sorted
        again."""
        if not kids:
            return (self.node(1, ()),) * dim
        return self.ordered(map(self.append, kids))

    def append(self, i):
        """The id of subtree ``i`` refined by the lines, built once."""
        got = self.appended[i]
        if got is None:
            got = self.appended[i] = self.node(self.dim[i], self.refine(self.dim[i], self.kids[i]))
        return got

    # -- structural trees -------------------------------------------------

    def tree(self, i):
        """Subtree ``i`` as a chain tree (dim, children), children sorted
        descending, built once."""
        got = self.trees.get(i)
        if got is None:
            got = self.trees[i] = (
                self.dim[i], tuple(sorted(map(self.tree, self.kids[i]), reverse=True)))
        return got

    def root_tree(self, root):
        """The chain tree of dim m with children ``root``."""
        return (self.m, tuple(sorted(map(self.tree, root), reverse=True)))


def enumerate_chain_types(table, subset):
    """All chain types over C^m, m = ``table.m``, with level component
    counts ``subset``, as roots of ``table``: one child-id tuple each.

    ``subset`` is any subset of {2, ..., m}; its elements, in increasing
    order, are the part counts from the coarsest level down.  The empty
    subset yields the single empty chain, the root ().  The roots come in
    the order ``NodeTable.child_tuples`` builds them, and
    ``table.root_tree`` spells one as a chain tree.
    """
    subset = sorted(set(subset))
    if any(not 2 <= u <= table.m for u in subset):
        raise ContractViolation("subset must lie in {2, ..., %d}" % table.m)
    return table.child_tuples(table.m, tuple(subset))


def _profiles(dim, left, others, room):
    """Level counts a child of dim ``dim`` can take out of ``left``, so
    that ``others`` later children of total dim ``room`` can take the rest.

    A tree's level counts are nondecreasing (every node above the finest
    level has a child), at least 1 and at most its dim.  So the child takes
    between ``left[j] - room`` and ``left[j] - others`` on level j, and no
    more than keeps the rest nondecreasing.
    """
    found = [()]
    for j, n in enumerate(left):
        low, high = max(1, n - room), min(dim, n - others)
        if j:
            step = n - left[j - 1]
            found = [own + (c,) for own in found
                     for c in range(max(low, own[-1]), min(high, own[-1] + step) + 1)]
        else:
            found = [(c,) for c in range(low, high + 1)]
    return found


def stabilizer(root, table, k=None):
    """Orbit descriptor of the isotropy of the chain type ``root``, a root
    of ``table``, generalized by (k, l) with m and l those of the table.

    The plain case (l = 1, k = m) yields U(m)/H with H the wreath-extended
    product of the leaf unitary groups.  In general each leaf block picks up
    tensor multiplicity l and a full complement U(k - l*m) appears; k
    defaults to l*m.  The descriptor is canonical as built.
    """
    m, l = table.m, table.l
    if k is None:
        k = m * l
    if l < 1 or k < l * m:
        raise ContractViolation("need l >= 1 and k >= l*m")
    return OrbitDescriptor(k, flatten_units((table.unit_of(m, root),)), k - l * m)


# ---------------------------------------------------------------------------
# the cube


@dataclass(frozen=True)
class CubeVertex:
    subset: tuple
    # (chain tree, OrbitDescriptor, Poly) per chain, sorted by tree; None
    # unless the report was built with chains=True
    chains: tuple
    poincare: Poly  # the sum of the chain polynomials


@dataclass(frozen=True)
class EdgeVerdict:
    subset: tuple  # the base U not containing m
    matched: bool  # chain types biject structurally
    equal: bool  # matched polynomials agree
    mismatches: tuple  # chain-type strings with details

    @property
    def ok(self):
        return self.matched and self.equal


@dataclass(frozen=True)
class CubeReport:
    m: int
    l: int
    k: int
    cutoff: object
    vertices: tuple  # of CubeVertex, sorted by subset
    edges: tuple  # of EdgeVerdict
    signed_sum: Poly
    signed_sum_zero: bool

    @property
    def verified(self):
        if self.m == 1:
            return True
        return all(e.ok for e in self.edges) and self.signed_sum_zero

    def to_json(self):
        """The report as a JSON document, each distinct descriptor string,
        polynomial map and subtree string rendered once (module docstring).
        It needs the chains, so the report must be built with chains=True."""
        if any(v.chains is None for v in self.vertices):
            raise ContractViolation("the report keeps no chains: build it with chains=True")
        names, maps, trees = {}, {}, {}

        def name(d):
            got = names.get(id(d))
            if got is None:
                got = names[id(d)] = d.canonical_string()
            return got

        def poly_map(p):
            got = maps.get(id(p))
            if got is None:
                got = maps[id(p)] = p.to_map()
            return got

        return {
            "m": self.m,
            "l": self.l,
            "k": self.k,
            "cutoff": self.cutoff,
            "prime_power": is_prime_power(self.m),
            "verified": self.verified,
            "signed_sum": self.signed_sum.to_map(),
            "signed_sum_zero": self.signed_sum_zero,
            "vertices": [
                {
                    "subset": list(v.subset),
                    "poincare": v.poincare.to_map(),
                    "chains": [
                        {
                            "chain": _tree_string(c, trees),
                            "stabilizer": name(d),
                            "poincare": poly_map(p),
                        }
                        for c, d, p in v.chains
                    ],
                }
                for v in self.vertices
            ],
            "edges": [
                {
                    "subset": list(e.subset),
                    "matched": e.matched,
                    "equal": e.equal,
                    "ok": e.ok,
                    "mismatches": list(e.mismatches),
                }
                for e in self.edges
            ],
        }


def _tree_string(node, strings=None):
    """The tree as nested text, ``dim[child,...]``.  ``strings`` is a dict
    of the strings of inner subtrees by id, to share between calls over
    trees that share subtrees; its caller keeps every node it keys alive."""
    dim, children = node
    if not children:
        return str(dim)
    if strings is None:
        strings = {}
    got = strings.get(id(node))
    if got is None:
        got = strings[id(node)] = "%d[%s]" % (
            dim, ",".join([_tree_string(c, strings) for c in children]))
    return got


def _subsets(elements):
    return [s for r in range(len(elements) + 1) for s in itertools.combinations(elements, r)]


def _edge(table, subset, base, extended, isotropies, in_order=False):
    """The direction-m edge at U = ``subset``: appending the line
    decomposition must be a bijection from the chain types of X(U) onto
    those of X(U + {m}) that keeps the Poincare polynomial.  ``base`` and
    ``extended`` list the (root, isotropy key) pairs of the two vertices,
    and ``isotropies`` maps a key to its (descriptor, polynomial).  A
    failed edge is checked again with both lists in the order of their
    chain trees, so that its findings read in that order."""
    partner = dict(extended)
    hit = {}
    agree = {}  # (base key, extended key) -> whether their polynomials agree
    equal = True
    partnerless = False
    mismatches = []

    def spell(root):
        return _tree_string(table.root_tree(root))

    for c, key in base:
        ext = table.refine(table.m, c)
        first = hit.setdefault(ext, c)
        if first != c:
            mismatches.append("%s and %s both append to %s" % (spell(first), spell(c), spell(ext)))
            hit[ext] = c
        q = partner.get(ext)
        if q is None:
            partnerless = True
            mismatches.append("no partner for %s" % spell(ext))
            continue
        same = agree.get((key, q))
        if same is None:
            same = agree[key, q] = isotropies[key][1].agrees(isotropies[q][1])
        if not same:
            equal = False
            mismatches.append("P(%s) = %s but P(%s) = %s" % (
                spell(c), isotropies[key][1].pretty(), spell(ext), isotropies[q][1].pretty()))
    # every hit root was looked up in ``partner``: with none partnerless,
    # the hit roots are all extended types, and all of them when the sizes
    # agree (injective: as many hit roots as base chains)
    matched = not partnerless and len(hit) == len(base) == len(partner)
    if not matched:
        mismatches.extend(
            "unmatched extended type %s" % spell(t) for t in partner if t not in hit)
    if mismatches and not in_order:
        base, extended = (sorted(pairs, key=lambda pair: table.root_tree(pair[0]))
                          for pairs in (base, extended))
        return _edge(table, subset, base, extended, isotropies, True)
    return EdgeVerdict(subset, matched, equal, tuple(mismatches))


def _weighted_sum(terms):
    """sum(n * P) over the (P, n) ``terms`` in one pass, truncated like
    ``Poly.__add__``: at the least truncation of any term."""
    coeffs, truncation = {}, None
    for p, n in terms:
        for d, c in p.coeffs.items():
            coeffs[d] = coeffs.get(d, 0) + n * c
        if p.truncation is not None and (truncation is None or p.truncation < truncation):
            truncation = p.truncation
    return Poly(coeffs, truncation)


def cube_report(m, l=1, k=None, cutoff=None, chains=False):
    """Build and verify the cube of chain spaces for C^m, generalized by (k, l).

    For every subset U of {2, ..., m} the vertex sum is computed; for every
    U not containing m the direction-m edge is checked: chain types must
    biject under the full-line refinement and matched Poincare polynomials
    must agree (exactly in Molien mode, through the cutoff otherwise).
    Verification failures land in the report, they do not raise.  With
    ``chains`` each vertex also keeps its chains, sorted by chain tree, as
    ``to_json`` needs; without, no chain outlives its edge.
    """
    if m < 1:
        raise ContractViolation("need m >= 1")
    if k is None:
        k = m * l
    if l < 1 or k < l * m:
        raise ContractViolation("need l >= 1 and k >= l*m")

    table = NodeTable(m, l)
    isotropies = {}  # id of a root's interned unit -> (descriptor, Poincare polynomial)
    sums, kept = {}, {}

    def vertex(subset):
        """The (root, isotropy key) pairs of X(``subset``), its sum stored."""
        roots = enumerate_chain_types(table, subset)
        # the root's interned unit, kept in the table, names its isotropy
        unit_of = table.unit_of
        keys = [id(unit_of(m, root)) for root in roots]
        counts = Counter(keys)  # chains per isotropy
        for key, root in dict(zip(keys, roots)).items():
            if key not in isotropies:
                desc = stabilizer(root, table, k)
                isotropies[key] = (desc, cartan.poincare(desc, cutoff=cutoff))
        sums[subset] = _weighted_sum([(isotropies[key][1], n) for key, n in counts.items()])
        if chains:
            kept[subset] = tuple(sorted(
                [(table.root_tree(root),) + isotropies[key] for root, key in zip(roots, keys)],
                key=lambda chain: chain[0]))
        return list(zip(roots, keys))

    edges = []
    if m == 1:
        vertex(())
    else:
        for subset in _subsets(range(2, m)):
            edges.append(_edge(table, subset, vertex(subset), vertex(subset + (m,)), isotropies))

    vertices = tuple(CubeVertex(s, kept.get(s), sums[s]) for s in _subsets(range(2, m + 1)))
    signed = _weighted_sum([(v.poincare, (-1) ** len(v.subset)) for v in vertices])
    zero = (not signed.coeffs) if m > 1 else False

    return CubeReport(
        m=m,
        l=l,
        k=k,
        cutoff=cutoff,
        vertices=vertices,
        edges=tuple(edges),
        signed_sum=signed,
        signed_sum_zero=zero,
    )
