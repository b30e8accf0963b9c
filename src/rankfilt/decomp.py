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
union of unitary orbits, one per chain type, and is recorded as the list of
(chain tree, isotropy descriptor, Poincare polynomial).  The verification
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
per distinct isotropy.  Each ``cube_report`` call owns four dicts, made
when it starts and dropped when it returns, so nothing outlives the call:

* ``subtrees``: the chain trees of each (dim, level counts), built by
  ``_trees`` and shared by the enumeration of every vertex;
* ``units``: the interned isotropy units, so each distinct unit is one
  object (hash-consing).  It stores each unit under its ``key``; the unit
  of each subtree (``_node_unit``) under the subtree; the wreath of each
  run of identical siblings under (subtree, copies); and the
  juxtaposition of each tuple of two or more classes under the tuple of
  their ids, valid because the classes stay in the dict.  The keys never
  clash: a subtree is (int, tuple), a run (tuple, int), a unit key has
  three or more entries with 0 first or a tuple third, and an id tuple
  holds only nonzero ints;
* ``appended``: each subtree refined by the lines (``_append_lines``),
  shared by every edge;
* ``isotropies``: the (descriptor, Poincare polynomial) pair of each
  distinct isotropy, by the id of the root's interned unit.  A miss calls
  ``stabilizer`` and ``cartan.poincare`` once; every chain of that
  isotropy then shares the pair.

No root repeats within a cube, so neither ``units`` nor ``appended`` keys one;
tree keys are structural, never ids, since a tree freed by one call may
leave its id to another.  A vertex's Poincare polynomial is sum(n * P)
over its isotropies, with n the number of its chains of each, summed in
one pass over the integer coefficients (``_weighted_sum``); the signed
sum over the vertices is summed the same way.

``CubeReport.to_json`` likewise owns three dicts for the length of one
call, so that each distinct value is rendered once, as every chain of
one isotropy shares one descriptor and one ``Poly``:

* ``names``: the ``canonical_string()`` of each descriptor, by id;
* ``maps``: the ``to_map()`` of each polynomial, by id;
* ``trees``: the ``_tree_string`` of each shared subtree, by id.
"""

from __future__ import annotations

import itertools
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


def _append_lines(node, appended):
    """Refine the finest level of a chain tree by the full line decomposition.

    The refinement is strictly increasing on the subtrees of one depth (all
    leaves or all inner nodes, since leaves sit only on the finest level)
    and keeps dimensions, so sorted siblings stay sorted and the result is
    canonical without a sort.  Each refined child is stored in ``appended``,
    a dict shared over one cube; the node itself is not, as roots never
    repeat.
    """
    dim, children = node
    if not children:
        return (dim, ((1, ()),) * dim)
    refined = []
    for child in children:
        got = appended.get(child)
        if got is None:
            got = appended[child] = _append_lines(child, appended)
        refined.append(got)
    return (dim, tuple(refined))


def _node_unit(node, l, units):
    """Canonical isotropy unit of a chain subtree, stored in ``units``
    under the subtree (``_build_unit``)."""
    got = units.get(node)
    if got is None:
        got = units[node] = _build_unit(node, l, units)
    return got


def _build_unit(node, l, units):
    """Canonical isotropy unit of a chain tree: each leaf a block of
    tensor multiplicity ``l``, each run of identical sibling subtrees
    permuted by a wreath, the classes juxtaposed.

    Children of a chain tree are canonical and sorted, so a node's unit is
    built from its children's units.  ``units`` interns them (``_intern``),
    so each distinct unit is one object, and it stores the juxtaposition
    of each tuple of classes under their ids: the classes stay in
    ``units``, so their ids name them for as long as the dict lives.
    """
    dim, children = node
    if not children:
        return _intern(Block(dim, l), units)
    classes = _classes(children, l, units)
    if len(classes) == 1:
        return classes[0]
    ids = tuple(map(id, classes))
    got = units.get(ids)
    if got is None:
        got = units[ids] = _intern(juxtapose(classes), units)
    return got


def _classes(children, l, units):
    """One interned unit per run of identical sorted siblings, a wreath if
    it repeats; the wreath of ``copies`` copies of a subtree is stored in
    ``units`` under (subtree, copies)."""
    classes = []
    for child, run in itertools.groupby(children):
        copies = len(tuple(run))
        if copies == 1:
            got = _node_unit(child, l, units)
        else:
            got = units.get((child, copies))
            if got is None:
                got = units[child, copies] = _intern(
                    Wreath(_node_unit(child, l, units), copies), units)
        classes.append(got)
    return classes


def _intern(unit, units):
    """The one unit in ``units`` equal to ``unit``, stored under its key
    (the key determines the unit)."""
    return units.setdefault(unit.key, unit)


def enumerate_chain_types(m, subset, subtrees=None):
    """All chain types over C^m with level component counts ``subset``.

    ``subset`` is any subset of {2, ..., m}; its elements, in increasing
    order, are the part counts from the coarsest level down.  The empty
    subset yields the single empty chain.  The types come as a sorted tuple
    of root trees, canonical as ``_trees`` builds them.  ``subtrees`` is a
    dict of the trees of each dim and level counts, to share between calls
    over the same C^m (one cube); a fresh one is used when none is passed.
    """
    subset = sorted(set(subset))
    if any(not 2 <= u <= m for u in subset):
        raise ContractViolation("subset must lie in {2, ..., %d}" % m)
    if subtrees is None:
        subtrees = {}
    return tuple(sorted(_trees(m, tuple(subset), subtrees)))


def _trees(dim, counts, memo):
    """Chain trees of dim ``dim`` with ``counts[j]`` nodes on level j + 1
    below the root, each built once and listed in ``memo[(dim, counts)]``.

    The root splits into ``counts[0]`` parts, and the children of each
    split come from ``_children``: each level spends exactly its count,
    leaves sit only on the finest level, and children are sorted, so every
    tree is canonical and none is built twice.
    """
    key = (dim, counts)
    got = memo.get(key)
    if got is None:
        if not counts:
            got = ((dim, ()),)
        else:
            got = []
            rest = counts[1:]
            for part in partitions_into(dim, counts[0]):
                got.extend([(dim, children) for children in _children(part, rest, memo)])
        memo[key] = got
    return got


def _children(part, counts, memo):
    """Descending tuples of chain trees with dims ``part`` (a descending
    partition) whose level counts add up to ``counts``.

    The first child takes each level-count profile ``own`` that
    ``_profiles`` leaves room for, and the later children are the tuples
    for ``part[1:]`` and the counts left over.  Children of unequal dims
    are ordered by dim; when the second dim equals the first, only tails
    whose first tree is at most the first child's are kept.
    """
    dim = part[0]
    if len(part) == 1:
        return [(tree,) for tree in _trees(dim, counts, memo)]
    out = []
    twin = part[1] == dim
    for own in _profiles(dim, counts, len(part) - 1, sum(part[1:])):
        tails = _children(part[1:], tuple([a - b for a, b in zip(counts, own)]), memo)
        for tree in _trees(dim, own, memo):
            out.extend([(tree,) + tail for tail in tails if not twin or tail[0] <= tree])
    return out


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


def stabilizer(tree, l=1, k=None, units=None):
    """Orbit descriptor of the isotropy of a chain tree, generalized by (k, l).

    The plain case (l = 1, k = m) yields U(m)/H with H the wreath-extended
    product of the leaf unitary groups.  In general each leaf block picks up
    tensor multiplicity l and a full complement U(k - l*m) appears.  The
    descriptor is canonical as built.  ``units`` is a dict of interned
    subtree units for this ``l`` (module docstring) to share between calls
    over one cube, like ``subtrees``; a fresh one is used when none is
    passed.
    """
    m, _ = tree
    if k is None:
        k = m * l
    if l < 1 or k < l * m:
        raise ContractViolation("need l >= 1 and k >= l*m")
    root = _build_unit(tree, l, {} if units is None else units)
    return OrbitDescriptor(k, flatten_units((root,)), k - l * m)


# ---------------------------------------------------------------------------
# the cube


@dataclass(frozen=True)
class CubeVertex:
    subset: tuple
    chains: tuple  # of (chain tree, OrbitDescriptor, Poly)
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
        polynomial map and subtree string rendered once (module docstring)."""
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


def _edge(subset, base_chains, extended_chains, appended):
    """The direction-m edge at U = ``subset``: appending the line
    decomposition must be a bijection from the chain types of X(U) onto
    those of X(U + {m}) that keeps the Poincare polynomial.  ``appended``
    is the cube's dict of refined subtrees (``_append_lines``)."""
    extended = {c: p for c, _, p in extended_chains}
    hit = {}
    equal = True
    partnerless = False
    mismatches = []
    for c, _, p in base_chains:
        ext = _append_lines(c, appended)
        first = hit.setdefault(ext, c)
        if first is not c:
            mismatches.append("%s and %s both append to %s" % (
                _tree_string(first), _tree_string(c), _tree_string(ext)))
            hit[ext] = c
        q = extended.get(ext)
        if q is None:
            partnerless = True
            mismatches.append("no partner for %s" % _tree_string(ext))
        elif not p.agrees(q):
            equal = False
            mismatches.append("P(%s) = %s but P(%s) = %s" % (
                _tree_string(c), p.pretty(), _tree_string(ext), q.pretty()))
    # every hit tree was looked up in ``extended``: with none partnerless,
    # the hit trees are all extended types, and all of them when the sizes
    # agree (injective: as many hit trees as base chains)
    matched = not partnerless and len(hit) == len(base_chains) == len(extended)
    if not matched:
        mismatches.extend(
            "unmatched extended type %s" % _tree_string(t) for t in extended if t not in hit)
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


def cube_report(m, l=1, k=None, cutoff=None):
    """Build and verify the cube of chain spaces for C^m, generalized by (k, l).

    For every subset U of {2, ..., m} the vertex data is computed; for every
    U not containing m the direction-m edge is checked: chain types must
    biject under the full-line refinement and matched Poincare polynomials
    must agree (exactly in Molien mode, through the cutoff otherwise).
    Verification failures land in the report, they do not raise.
    """
    if m < 1:
        raise ContractViolation("need m >= 1")
    if k is None:
        k = m * l
    if l < 1 or k < l * m:
        raise ContractViolation("need l >= 1 and k >= l*m")

    vertices = {}
    subtrees, units, appended, isotropies = {}, {}, {}, {}
    for subset in _subsets(range(2, m + 1)):
        chains = []
        counts = {}  # chains per isotropy, by its key
        for c in enumerate_chain_types(m, subset, subtrees):
            # the root's interned unit, kept in ``units``, names its isotropy
            key = id(_build_unit(c, l, units))
            got = isotropies.get(key)
            if got is None:
                desc = stabilizer(c, l, k, units)
                got = isotropies[key] = (desc, cartan.poincare(desc, cutoff=cutoff))
            chains.append((c,) + got)
            counts[key] = counts.get(key, 0) + 1
        total = _weighted_sum([(isotropies[key][1], n) for key, n in counts.items()])
        vertices[subset] = CubeVertex(subset, tuple(chains), total)

    edges = tuple(
        _edge(subset, vertices[subset].chains, vertices[subset + (m,)].chains, appended)
        for subset in (_subsets(range(2, m)) if m > 1 else [])
    )

    signed = _weighted_sum([(v.poincare, (-1) ** len(s)) for s, v in vertices.items()])
    zero = (not signed.coeffs) if m > 1 else False

    return CubeReport(
        m=m,
        l=l,
        k=k,
        cutoff=cutoff,
        vertices=tuple(vertices.values()),
        edges=edges,
        signed_sum=signed,
        signed_sum_zero=zero,
    )

