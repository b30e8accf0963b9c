"""Complexes of direct-sum decompositions: orbit types, chains, and the cube.

A decomposition of C^m into pairwise orthogonal nonzero subspaces is
recorded up to the unitary action by the multiset of its part dimensions
(a DecompositionType); it is proper when it has at least two parts.  The
complex of proper decompositions is connected exactly when its types are
linked by merging two parts at a time: any coarsening is such a run of
pair merges, and its intermediate types are proper.

A chain of decompositions, each refining the next, is recorded by a nested
tree (a ChainType): the root is C^m, the root's children are the parts of
the coarsest decomposition, and each level refines the one above, so part
counts strictly increase downward.  Unary nodes are kept so that the tree
levels match the prescribed component counts exactly, and every leaf sits
on the finest level.

For a subset U of {2, ..., m} the cube vertex X(U) is the space of chains
whose level component counts are the elements of U; it is a finite disjoint
union of unitary orbits, one per chain type, and is recorded as the list of
(chain type, isotropy descriptor, Poincare polynomial).  The verification
that the total cofiber of the cube is rationally trivial proceeds by the
direction-m edge pairing: appending the full line decomposition below the
finest level matches chain types of X(U + {m}) with those of X(U), the
appended isotropy is a finite extension of the maximal torus of the base
isotropy, and matched vertices must have equal Poincare polynomials.  The
signed sum over all vertices is then zero for free, but is checked anyway
as an independent Euler-level consistency test.

For general (k, l) the vertex orbits are U(k)/(H (x) I_l x U(k - l*m)) with
H the plain chain isotropy.  The edge equalities in that generality are an
empirical verification, not a cited fact: a failure is reported as a
finding, never auto-corrected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cartan
from .combinat import ContractViolation, is_prime_power
from .orbitspace import Block, Bunch, OrbitDescriptor, Wreath
from .poly import Poly


# ---------------------------------------------------------------------------
# decomposition types


@dataclass(frozen=True)
class DecompositionType:
    """Unordered multiset of part dimensions of a direct-sum decomposition."""

    parts: tuple

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ContractViolation("parts must be positive")
        if tuple(sorted(self.parts, reverse=True)) != self.parts:
            raise ContractViolation("parts must be sorted descending")

    @staticmethod
    def of(parts):
        return DecompositionType(tuple(sorted(parts, reverse=True)))

    @property
    def ambient(self):
        return sum(self.parts)

    @property
    def is_proper(self):
        return len(self.parts) >= 2

    def merges(self):
        """Proper types reached by merging two parts; none below three parts."""
        ps = self.parts
        if len(ps) < 3:
            return set()
        return {
            DecompositionType.of(ps[:i] + ps[i + 1:j] + ps[j + 1:] + (ps[i] + ps[j],))
            for i in range(len(ps))
            for j in range(i + 1, len(ps))
        }


def _partitions_into(n, parts, largest=None):
    """Partitions of n into exactly ``parts`` positive parts, descending."""
    if largest is None:
        largest = n
    if parts == 0:
        if n == 0:
            yield ()
        return
    if n < parts:
        return
    for first in range(min(n - parts + 1, largest), 0, -1):
        for rest in _partitions_into(n - first, parts - 1, first):
            yield (first,) + rest


def enumerate_decomposition_types(m, parts):
    """All decompositions of C^m with exactly ``parts`` components, up to orbit."""
    if not 1 <= parts <= m:
        raise ContractViolation("need 1 <= parts <= m")
    return {DecompositionType(p) for p in _partitions_into(m, parts)}


def tensor(a, b):
    """Tensor product of decomposition types: all pairwise products of parts."""
    return DecompositionType.of(x * y for x in a.parts for y in b.parts)


def connectivity(m):
    """Path-connectivity of the complex of proper decompositions of C^m.

    The orbit-incidence graph has the proper types as vertices and an edge
    whenever one type coarsens to another; since each orbit is a connected
    homogeneous space, graph connectivity decides connectivity of the
    complex.  The search follows pair merges only, which gives the same
    components: a coarsening of v to a proper w is a run of pair merges
    whose intermediate types have at least as many parts as w, so every
    step stays proper.  For m = 1 the complex is empty (the suspension is
    just the two-point sphere) and the answer is False.
    """
    if m < 1:
        raise ContractViolation("need m >= 1")
    adjacent = {
        v: set() for parts in range(2, m + 1) for v in enumerate_decomposition_types(m, parts)
    }
    for v in adjacent:
        for w in v.merges():
            adjacent[v].add(w)
            adjacent[w].add(v)
    if not adjacent:
        return False
    start = next(iter(adjacent))
    seen = {start}
    queue = [start]
    while queue:
        for w in adjacent[queue.pop()] - seen:
            seen.add(w)
            queue.append(w)
    return len(seen) == len(adjacent)


# ---------------------------------------------------------------------------
# chain types

# A tree node is (dim, children) with children a tuple of nodes sorted
# descending; a leaf is (dim, ()).


def _canonical_node(dim, children):
    return (dim, tuple(sorted(children, reverse=True)))


@dataclass(frozen=True)
class ChainType:
    """Canonical nested tree of a chain of decompositions of C^m."""

    m: int
    root: tuple

    def __post_init__(self):
        if self.root[0] != self.m:
            raise ContractViolation("root dimension differs from ambient dimension")
        _check_levels(self.root)

    @staticmethod
    def of(m, root):
        return ChainType(m, _canon_tree(root))

    def level_counts(self):
        """Component counts per level, top (coarsest) to bottom (finest)."""
        return [len(level) for level in _levels(self.root)][1:]

    def leaves(self):
        *_, finest = _levels(self.root)
        return [dim for dim, _ in finest]

    def append_lines(self):
        """Refine the finest level by the full line decomposition."""

        def rec(node):
            dim, children = node
            if not children:
                return (dim, tuple([(1, ())] * dim))
            return _canonical_node(dim, tuple(rec(c) for c in children))

        return ChainType(self.m, rec(self.root))

    def strip_finest(self):
        """Remove the finest level; inverse to append_lines when that level is lines."""
        depth = len(self.level_counts())
        if depth == 0:
            raise ContractViolation("empty chain has no finest level")

        def rec(node, d):
            dim, children = node
            if d == 1:
                return (dim, ())
            return _canonical_node(dim, tuple(rec(c, d - 1) for c in children))

        return ChainType(self.m, rec(self.root, depth))

    def stabilizer_units(self):
        """Isotropy structure: leaf blocks under the tree's wreath symmetry."""
        u = _node_unit(self.root)
        if isinstance(u, Bunch):
            return u.units
        return (u,)


def _canon_tree(node):
    dim, children = node
    return _canonical_node(dim, tuple(_canon_tree(c) for c in children))


def _levels(root):
    """Node lists of the tree's levels, from the root down to the leaves."""
    level = [root]
    while level:
        yield level
        level = [c for _, children in level for c in children]


def _check_levels(root):
    """Validate a chain tree in one walk over its levels.

    Children sorted descending at every node is the same as the tree being
    its own canonical form.  Every leaf must sit on the finest level, so
    that each level is one decomposition with the level's count of parts.
    """
    prev = 0
    for level in _levels(root):
        if len(level) <= prev:
            raise ContractViolation("component counts must strictly increase downward")
        prev = len(level)
        leaves = sum(1 for _, kids in level if not kids)
        if 0 < leaves < len(level):
            raise ContractViolation("leaves must all sit on the finest level")
        for dim, kids in level:
            if kids != tuple(sorted(kids, reverse=True)):
                raise ContractViolation("chain tree is not in canonical form")
            if kids and sum(c[0] for c in kids) != dim:
                raise ContractViolation("children dimensions do not sum to the node dimension")


def _node_unit(node):
    dim, children = node
    if not children:
        return Block(dim)
    classes = []
    i = 0
    while i < len(children):
        j = i
        while j < len(children) and children[j] == children[i]:
            j += 1
        inner = _node_unit(children[i])
        classes.append(inner if j - i == 1 else Wreath(inner, j - i))
        i = j
    if len(classes) == 1:
        return classes[0]
    return Bunch(tuple(classes))


def enumerate_chain_types(m, subset):
    """All chain types over C^m with level component counts ``subset``.

    ``subset`` is any subset of {2, ..., m}; its elements, in increasing
    order, are the part counts from the coarsest level down.  The empty
    subset yields the single empty chain.  The types come as a tuple sorted
    by tree; every tree ``_forests`` builds is already canonical.
    """
    subset = sorted(set(subset))
    if any(not 2 <= u <= m for u in subset):
        raise ContractViolation("subset must lie in {2, ..., %d}" % m)
    return tuple(ChainType(m, forest[0]) for forest in _forests((m,), tuple(subset)))


def _forests(dims, counts):
    """Forests with root dims ``dims`` and global level counts ``counts``."""
    if not counts:
        return [tuple((d, ()) for d in dims)]
    target, rest = counts[0], counts[1:]
    results = set()

    def assign(i, budget, chosen):
        if i == len(dims):
            if budget:
                return
            child_dims = tuple(d for part in chosen for d in part)
            for sub in _forests(child_dims, rest):
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
            for part in _partitions_into(d, p):
                chosen.append(part)
                assign(i + 1, budget - p, chosen)
                chosen.pop()

    assign(0, target, [])
    return sorted(results)


def stabilizer(chain, l=1, k=None):
    """Orbit descriptor of the isotropy of a chain, generalized by (k, l).

    The plain case (l = 1, k = m) yields U(m)/H with H the wreath-extended
    product of the leaf unitary groups.  In general each leaf block picks up
    tensor multiplicity l and a full complement U(k - l*m) appears.
    """
    m = chain.m
    if k is None:
        k = m * l
    if l < 1 or k < l * m:
        raise ContractViolation("need l >= 1 and k >= l*m")
    units = chain.stabilizer_units()
    if l > 1:
        units = tuple(_tensor_unit(u, l) for u in units)
    return OrbitDescriptor(k, units, k - l * m).canonicalize()


def _tensor_unit(u, l):
    if isinstance(u, Block):
        return Block(u.size, u.mult * l)
    if isinstance(u, Wreath):
        return Wreath(_tensor_unit(u.inner, l), u.copies)
    return Bunch(tuple(_tensor_unit(v, l) for v in u.units))


# ---------------------------------------------------------------------------
# the cube


@dataclass(frozen=True)
class CubeVertex:
    subset: tuple
    chains: tuple  # of (ChainType, OrbitDescriptor, Poly)

    @property
    def poincare(self):
        acc = Poly.zero()
        for _, _, p in self.chains:
            acc = acc + p
        return acc


@dataclass(frozen=True)
class EdgeVerdict:
    subset: tuple  # the base U not containing m
    matched: bool  # chain types biject structurally
    equal: bool  # matched polynomials agree
    mismatches: tuple = field(default=())  # chain-type strings with details

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

    def vertex(self, subset):
        subset = tuple(sorted(subset))
        for v in self.vertices:
            if v.subset == subset:
                return v
        raise KeyError(subset)

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
                            "chain": _tree_string(c.root),
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
    out = [()]
    for e in elements:
        out += [s + (e,) for s in out]
    return sorted(out, key=lambda s: (len(s), s))


def cube_report(m, l=1, k=None, cutoff=None, basis_budget=cartan.DEFAULT_BASIS_BUDGET):
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

    def vertex_poly(desc):
        return cartan.poincare(desc, cutoff=cutoff, basis_budget=basis_budget)

    vertices = {}
    for subset in _subsets(range(2, m + 1)):
        chains = []
        for c in enumerate_chain_types(m, subset):
            desc = stabilizer(c, l, k)
            chains.append((c, desc, vertex_poly(desc)))
        vertices[subset] = CubeVertex(subset, tuple(chains))

    edges = []
    for subset in _subsets(range(2, m)) if m > 1 else []:
        base = vertices[subset]
        extended = vertices[tuple(sorted(subset + (m,)))]
        by_type = {c.root: p for c, _, p in extended.chains}
        matched = True
        equal = True
        mismatches = []
        appended = set()
        for c, _, p in base.chains:
            ext = c.append_lines()
            if any(d != 1 for d in ext.leaves()):
                raise AssertionError("extended chain is not a torus extension")
            appended.add(ext.root)
            q = by_type.get(ext.root)
            if q is None:
                matched = False
                mismatches.append("no partner for %s" % _tree_string(ext.root))
                continue
            if ext.strip_finest() != c:
                matched = False
                mismatches.append("strip/append mismatch at %s" % _tree_string(c.root))
            if not p.agrees(q):
                equal = False
                mismatches.append(
                    "P(%s) = %s but P(%s) = %s"
                    % (_tree_string(c.root), p.pretty(), _tree_string(ext.root), q.pretty())
                )
        if appended != set(by_type):
            matched = False
            extra = [t for t in by_type if t not in appended]
            mismatches.extend("unmatched extended type %s" % _tree_string(t) for t in extra)
        edges.append(EdgeVerdict(subset, matched, equal, tuple(mismatches)))

    signed = Poly.zero()
    for subset, v in vertices.items():
        term = v.poincare
        signed = signed + (term if len(subset) % 2 == 0 else -term)
    zero = (not signed.coeffs) if m > 1 else False

    return CubeReport(
        m=m,
        l=l,
        k=k,
        cutoff=cutoff,
        vertices=tuple(vertices[s] for s in sorted(vertices, key=lambda s: (len(s), s))),
        edges=tuple(edges),
        signed_sum=signed,
        signed_sum_zero=zero,
    )
