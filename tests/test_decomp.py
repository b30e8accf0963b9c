"""Decomposition types, chain trees, stabilizers, and cube verification."""

import json
from itertools import combinations

import pytest

from rankfilt.combinat import ContractViolation
from rankfilt.decomp import (
    ChainType,
    DecompositionType,
    connectivity,
    cube_report,
    enumerate_chain_types,
    enumerate_decomposition_types,
    stabilizer,
    tensor,
)
from rankfilt.poly import Poly


def parts_of(types):
    return sorted(t.parts for t in types)


def trees_of(types):
    return sorted(c.root for c in types)


# -- decomposition types --------------------------------------------------------


def test_enumerate_decomposition_types():
    assert parts_of(enumerate_decomposition_types(3, 2)) == [(2, 1)]
    assert parts_of(enumerate_decomposition_types(2, 2)) == [(1, 1)]
    assert parts_of(enumerate_decomposition_types(4, 2)) == [(2, 2), (3, 1)]
    assert parts_of(enumerate_decomposition_types(5, 3)) == [(2, 2, 1), (3, 1, 1)]
    with pytest.raises(ContractViolation):
        enumerate_decomposition_types(3, 4)


def test_tensor():
    two_lines = DecompositionType.of([1, 1])
    three_lines = DecompositionType.of([1, 1, 1])
    assert tensor(two_lines, three_lines).parts == (1,) * 6
    assert tensor(DecompositionType.of([2]), two_lines).parts == (2, 2)
    assert tensor(DecompositionType.of([3]), DecompositionType.of([4])).parts == (12,)
    assert tensor(DecompositionType.of([2]), two_lines).is_proper
    assert not tensor(DecompositionType.of([3]), DecompositionType.of([4])).is_proper


def test_tensor_counts_multiply():
    a = DecompositionType.of([2, 1, 1])
    b = DecompositionType.of([3, 2])
    out = tensor(a, b)
    assert len(out.parts) == len(a.parts) * len(b.parts)
    assert out.ambient == a.ambient * b.ambient


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _coarsenings(v):
    """Proper types other than v obtained by merging v's parts along a set partition."""
    out = set()
    for grouping in _set_partitions(list(v.parts)):
        merged = DecompositionType.of(sum(g) for g in grouping)
        if len(grouping) >= 2 and merged != v:
            out.add(merged)
    return out


def _coarsening_connectivity(m):
    """Reference: search the graph of all coarsenings, both ways."""
    vertices = set()
    for parts in range(2, m + 1):
        vertices |= enumerate_decomposition_types(m, parts)
    if not vertices:
        return False
    start = next(iter(vertices))
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        up = _coarsenings(v)
        for w in vertices - seen:
            if w in up or v in _coarsenings(w):
                seen.add(w)
                queue.append(w)
    return seen == vertices


def test_connectivity():
    assert connectivity(1) is False
    for m in range(2, 13):
        assert connectivity(m) is True, m
    for m in range(1, 8):
        assert connectivity(m) is _coarsening_connectivity(m), m
        # the coarsenings of a type are exactly the runs of pair merges
        for parts in range(2, m + 1):
            for v in enumerate_decomposition_types(m, parts):
                reached, frontier = set(), v.merges()
                while frontier:
                    reached |= frontier
                    frontier = {w for u in frontier for w in u.merges()} - reached
                assert reached == _coarsenings(v), v


# -- chain types -------------------------------------------------------------------


def test_enumerate_chain_types_examples():
    # one type: {2,1} refined by lines
    assert trees_of(enumerate_chain_types(3, {2, 3})) == [
        (3, ((2, ((1, ()), (1, ()))), (1, ((1, ()),))))
    ]
    assert trees_of(enumerate_chain_types(3, {3})) == [(3, ((1, ()), (1, ()), (1, ())))]
    assert trees_of(enumerate_chain_types(4, {2})) == [
        (4, ((2, ()), (2, ()))),
        (4, ((3, ()), (1, ()))),
    ]
    assert trees_of(enumerate_chain_types(3, ())) == [(3, ())]
    # two level structures on the same level multiset are distinguished
    assert len(enumerate_chain_types(5, {2, 3})) == 4


def test_chain_canonical_idempotence():
    messy = (4, ((1, ((1, ()),)), (3, ((1, ()), (2, ())))))
    c = ChainType.of(4, messy)
    assert ChainType.of(4, c.root) == c
    assert c.root == (4, ((3, ((2, ()), (1, ()))), (1, ((1, ()),))))


def test_chain_level_counts_and_leaves():
    c = list(enumerate_chain_types(3, {2, 3}))[0]
    assert c.level_counts() == [2, 3]
    assert sorted(c.leaves()) == [1, 1, 1]
    empty = list(enumerate_chain_types(3, ()))[0]
    assert empty.level_counts() == []
    assert empty.leaves() == [3]

    def walk(node, depth, counts, leaves):
        dim, children = node
        if not children:
            leaves.append(dim)
        for child in children:
            if len(counts) == depth:
                counts.append(0)
            counts[depth] += 1
            walk(child, depth + 1, counts, leaves)

    for m in range(1, 7):
        for size in range(m):
            for subset in combinations(range(2, m + 1), size):
                for c in enumerate_chain_types(m, subset):
                    counts, leaves = [], []
                    walk(c.root, 0, counts, leaves)
                    assert c.level_counts() == counts == list(subset)
                    assert c.leaves() == leaves


def test_append_and_strip_are_inverse():
    # appending applies to chains whose finest level is coarser than lines,
    # i.e. to vertices whose subset does not contain m
    for m in (2, 3, 4):
        for u in [(), (2,), (3,)]:
            subset = {x for x in u if 2 <= x < m}
            for c in enumerate_chain_types(m, subset):
                ext = c.append_lines()
                assert ext.level_counts() == c.level_counts() + [m]
                assert all(d == 1 for d in ext.leaves())
                assert ext.strip_finest() == c


def test_chain_type_validation():
    with pytest.raises(ContractViolation):
        ChainType(3, (2, ()))  # wrong root dimension
    with pytest.raises(ContractViolation):
        ChainType.of(3, (3, ((1, ()), (1, ()))))  # children do not sum to 3
    with pytest.raises(ContractViolation):
        ChainType(4, (4, ((1, ()), (3, ()))))  # children not in canonical order
    with pytest.raises(ContractViolation):
        # a leaf beside an inner node: level 2 would be a 4-part decomposition
        ChainType.of(4, (4, ((3, ((1, ()), (1, ()), (1, ()))), (1, ()))))


# -- stabilizers --------------------------------------------------------------------


def test_stabilizer_examples():
    pair = list(enumerate_chain_types(2, {2}))[0]
    assert stabilizer(pair).canonical_string() == "U(2)/S2wr(1)"

    coarse = list(enumerate_chain_types(3, {2}))[0]
    assert stabilizer(coarse).canonical_string() == "U(3)/(1)x(2)"

    refined = list(enumerate_chain_types(3, {2, 3}))[0]
    assert stabilizer(refined).canonical_string() == "U(3)/(1)xS2wr(1)"

    # generalized: tensor multiplicity and complement
    assert stabilizer(refined, l=2, k=8).canonical_string() == "U(8)/(1,2)xS2wr(1,2)xU(2)"


def test_stabilizer_connected_part_of_extended_chain_is_torus():
    for m in (2, 3, 4):
        for subset in [(), (2,)]:
            for c in enumerate_chain_types(m, set(s for s in subset if 2 <= s < m)):
                ext = c.append_lines()
                d = stabilizer(ext)
                assert all(b.size == 1 and b.mult == 1 for b in d.blocks())
                assert len(d.blocks()) == m


# -- cubes ---------------------------------------------------------------------------


def test_cube_m1_is_a_sphere():
    r = cube_report(1)
    assert r.verified
    assert len(r.vertices) == 1 and r.vertices[0].subset == ()
    assert r.vertices[0].poincare == Poly({0: 1})
    assert r.edges == ()
    assert r.signed_sum == Poly({0: 1})


def test_cube_m2():
    r = cube_report(2)
    assert r.verified
    assert r.vertex(()).poincare == Poly({0: 1})
    assert r.vertex((2,)).poincare == Poly({0: 1})
    assert r.signed_sum == Poly.zero() and r.signed_sum_zero


def test_cube_m3_square():
    r = cube_report(3)
    assert r.verified
    assert r.vertex(()).poincare == Poly({0: 1})
    assert r.vertex((2,)).poincare == Poly({0: 1, 2: 1, 4: 1})
    assert r.vertex((3,)).poincare == Poly({0: 1})
    assert r.vertex((2, 3)).poincare == Poly({0: 1, 2: 1, 4: 1})
    # isotropy groups of the square
    stabs = {v.subset: [d.canonical_string() for _, d, _ in v.chains] for v in r.vertices}
    assert stabs[(2,)] == ["U(3)/(1)x(2)"]
    assert stabs[(3,)] == ["U(3)/S3wr(1)"]
    assert stabs[(2, 3)] == ["U(3)/(1)xS2wr(1)"]


def test_cube_m4_and_m5_edge_completeness():
    for m in (4, 5):
        r = cube_report(m)
        assert r.verified, m
        assert len(r.vertices) == 2 ** (m - 1)
        assert all(e.ok for e in r.edges)
        assert r.signed_sum == Poly.zero()


def test_cube_generalized():
    for (k, l, m) in [(4, 2, 2), (6, 2, 2), (5, 1, 2), (6, 3, 2), (6, 2, 3)]:
        r = cube_report(m, l, k, cutoff=10)
        assert r.verified, (k, l, m)


def test_cube_json_roundtrip_and_determinism():
    r = cube_report(3)
    doc = r.to_json()
    blob1 = json.dumps(doc, sort_keys=True)
    blob2 = json.dumps(cube_report(3).to_json(), sort_keys=True)
    assert blob1 == blob2
    assert doc["verified"] is True
    assert [v["subset"] for v in doc["vertices"]] == [[], [2], [3], [2, 3]]
    assert doc["vertices"][1]["poincare"] == {"0": 1, "2": 1, "4": 1}
    assert doc["prime_power"] is True


def test_cube_report_flags_bad_input():
    with pytest.raises(ContractViolation):
        cube_report(2, l=1, k=1)
