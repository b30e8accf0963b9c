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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import cartan
from .combinat import ContractViolation, is_prime_power, partitions_into
from .orbitspace import Block, Bunch, OrbitDescriptor, Wreath, juxtapose
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


def _canonical_node(dim, children):
    return (dim, tuple(sorted(children, reverse=True)))


def _append_lines(node):
    """Refine the finest level of a chain tree by the full line decomposition."""
    dim, children = node
    if not children:
        return (dim, tuple([(1, ())] * dim))
    return _canonical_node(dim, tuple(_append_lines(c) for c in children))


def _node_unit(node, l, units):
    """Canonical isotropy unit of a chain subtree: each leaf a block of
    tensor multiplicity ``l``, each run of identical sibling subtrees
    permuted by a wreath, the classes juxtaposed.

    Children of a chain tree are canonical and sorted, so a node's unit is
    built from its children's units, each stored once in ``units``.
    """
    got = units.get(node)
    if got is None:
        dim, children = node
        if not children:
            got = Block(dim, l)
        else:
            classes = []
            for child, run in itertools.groupby(children):
                copies = len(tuple(run))
                inner = _node_unit(child, l, units)
                classes.append(inner if copies == 1 else Wreath(inner, copies))
            got = juxtapose(classes)
        units[node] = got
    return got


def enumerate_chain_types(m, subset, forests=None):
    """All chain types over C^m with level component counts ``subset``.

    ``subset`` is any subset of {2, ..., m}; its elements, in increasing
    order, are the part counts from the coarsest level down.  The empty
    subset yields the single empty chain.  The types come as a sorted tuple
    of root trees, canonical as ``_forests`` builds them: children sorted,
    each level spending exactly its count of parts, and leaves only on the
    finest level, where the recursion ends.  ``forests`` is a dict of
    sub-forests to share between calls over the same C^m (one cube); a
    fresh one is used when none is passed.
    """
    subset = sorted(set(subset))
    if any(not 2 <= u <= m for u in subset):
        raise ContractViolation("subset must lie in {2, ..., %d}" % m)
    if forests is None:
        forests = {}
    return tuple(forest[0] for forest in _forests((m,), tuple(subset), forests))


def _forests(dims, counts, memo):
    """Forests with root dims ``dims`` and global level counts ``counts``.

    The sorted list is stored in ``memo`` under ``(dims, counts)`` and
    shared by every later caller, which only iterates it.
    """
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
                    forest.append(_canonical_node(root_dim, sub[pos:pos + n]))
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


def stabilizer(tree, l=1, k=None, units=None):
    """Orbit descriptor of the isotropy of a chain tree, generalized by (k, l).

    The plain case (l = 1, k = m) yields U(m)/H with H the wreath-extended
    product of the leaf unitary groups.  In general each leaf block picks up
    tensor multiplicity l and a full complement U(k - l*m) appears.  The
    descriptor is canonical as built.  ``units`` is a dict of subtree units
    for this ``l`` to share between calls over one cube, like ``forests``;
    a fresh one is used when none is passed.
    """
    m = tree[0]
    if k is None:
        k = m * l
    if l < 1 or k < l * m:
        raise ContractViolation("need l >= 1 and k >= l*m")
    unit = _node_unit(tree, l, {} if units is None else units)
    return OrbitDescriptor(k, unit.units if isinstance(unit, Bunch) else (unit,), k - l * m)


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
                            "chain": _tree_string(c),
                            "stabilizer": d.canonical_string(),
                            "poincare": p.to_map(),
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


def _tree_string(node):
    dim, children = node
    if not children:
        return str(dim)
    return "%d[%s]" % (dim, ",".join(_tree_string(c) for c in children))


def _subsets(elements):
    return [s for r in range(len(elements) + 1) for s in itertools.combinations(elements, r)]


def _edge(subset, base_chains, extended_chains):
    """The direction-m edge at U = ``subset``: appending the line
    decomposition must be a bijection from the chain types of X(U) onto
    those of X(U + {m}) that keeps the Poincare polynomial."""
    extended = {c: p for c, _, p in extended_chains}
    hit = {}
    equal = True
    mismatches = []
    for c, _, p in base_chains:
        ext = _append_lines(c)
        if ext in hit:
            mismatches.append("%s and %s both append to %s" % (
                _tree_string(hit[ext]), _tree_string(c), _tree_string(ext)))
        hit[ext] = c
        q = extended.get(ext)
        if q is None:
            mismatches.append("no partner for %s" % _tree_string(ext))
        elif not p.agrees(q):
            equal = False
            mismatches.append("P(%s) = %s but P(%s) = %s" % (
                _tree_string(c), p.pretty(), _tree_string(ext), q.pretty()))
    mismatches.extend(
        "unmatched extended type %s" % _tree_string(t) for t in extended if t not in hit)
    matched = len(hit) == len(base_chains) and hit.keys() == extended.keys()
    return EdgeVerdict(subset, matched, equal, tuple(mismatches))


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
    forests, units = {}, {}
    for subset in _subsets(range(2, m + 1)):
        chains = []
        total = Poly.zero()
        for c in enumerate_chain_types(m, subset, forests):
            desc = stabilizer(c, l, k, units)
            p = cartan.poincare(desc, cutoff=cutoff)
            chains.append((c, desc, p))
            total = total + p
        vertices[subset] = CubeVertex(subset, tuple(chains), total)

    edges = tuple(
        _edge(subset, vertices[subset].chains, vertices[subset + (m,)].chains)
        for subset in (_subsets(range(2, m)) if m > 1 else [])
    )

    signed = Poly.zero()
    for subset, v in vertices.items():
        signed = signed + (v.poincare if len(subset) % 2 == 0 else -v.poincare)
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

