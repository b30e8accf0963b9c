"""Decomposition complexes, chain trees, stabilizers, and cube verification."""

import hashlib
import json
from itertools import combinations

import pytest

from oracles import (
    append_lines,
    canonical_chain_type,
    chain_types_oracle,
    check_chain_tree,
    leaves,
    level_counts,
    stabilizer_of,
    stabilizer_oracle,
    structural_chain_types,
    table_root,
    vertex,
)
from rankfilt import cartan, decomp
from rankfilt.cache import memo
from rankfilt.combinat import ContractViolation, partitions_into
from rankfilt.decomp import (
    NodeTable,
    connectivity,
    cube_report,
    enumerate_chain_types,
    _tree_string,
    stabilizer,
)
from rankfilt.poly import Poly


# -- decomposition complexes ------------------------------------------------------


def test_enumerate_decomposition_types():
    # the proper decompositions of C^m into a given number of parts, up to orbit
    assert sorted(partitions_into(3, 2)) == [(2, 1)]
    assert sorted(partitions_into(2, 2)) == [(1, 1)]
    assert sorted(partitions_into(4, 2)) == [(2, 2), (3, 1)]
    assert sorted(partitions_into(5, 3)) == [(2, 2, 1), (3, 1, 1)]
    assert list(partitions_into(3, 4)) == []


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _merged(grouping):
    """The decomposition type, parts sorted descending, of merging along ``grouping``."""
    return tuple(sorted((sum(g) for g in grouping), reverse=True))


def _proper_types(m):
    """Proper decomposition types of C^m: the coarsenings of the lines into >= 2 parts."""
    return {_merged(g) for g in _set_partitions([1] * m) if len(g) >= 2}


def _coarsenings(v):
    """Proper types other than v obtained by merging v's parts along a set partition."""
    out = set()
    for grouping in _set_partitions(list(v)):
        merged = _merged(grouping)
        if len(grouping) >= 2 and merged != v:
            out.add(merged)
    return out


def _pair_merges(v):
    """Proper types reached by merging two parts of v; none below three parts."""
    if len(v) < 3:
        return set()
    return {
        _merged([[v[i], v[j]]] + [[p] for n, p in enumerate(v) if n not in (i, j)])
        for i, j in combinations(range(len(v)), 2)
    }


def _coarsening_connectivity(m):
    """Reference: search the graph of all coarsenings, both ways."""
    vertices = _proper_types(m)
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
    with pytest.raises(ContractViolation):
        connectivity(0)
    for m in range(1, 8):
        assert connectivity(m) is _coarsening_connectivity(m), m
        # the coarsenings of a type are exactly the runs of pair merges
        for v in _proper_types(m):
            reached, frontier = set(), _pair_merges(v)
            while frontier:
                reached |= frontier
                frontier = {w for u in frontier for w in _pair_merges(u)} - reached
            assert reached == _coarsenings(v), v


# -- chain types -------------------------------------------------------------------


def chain_trees(m, subset, table=None):
    """The engine's chain types over C^m with level counts ``subset``,
    spelled as chain trees and sorted."""
    table = table or NodeTable(m)
    return sorted(map(table.root_tree, enumerate_chain_types(table, subset)))


def appended_tree(m, tree):
    """The engine's appended root of the chain tree ``tree``, spelled as a
    chain tree."""
    table = NodeTable(m)
    return table.root_tree(table.refine(m, table_root(table, tree)))


def test_enumerate_chain_types_examples():
    # one type: {2,1} refined by lines
    assert chain_trees(3, {2, 3}) == [
        (3, ((2, ((1, ()), (1, ()))), (1, ((1, ()),))))
    ]
    assert chain_trees(3, {3}) == [(3, ((1, ()), (1, ()), (1, ())))]
    assert chain_trees(4, {2}) == [
        (4, ((2, ()), (2, ()))),
        (4, ((3, ()), (1, ()))),
    ]
    assert enumerate_chain_types(NodeTable(3), ()) == [()]
    assert chain_trees(3, ()) == [(3, ())]
    # two level structures on the same level multiset are distinguished
    assert len(enumerate_chain_types(NodeTable(5), {2, 3})) == 4
    with pytest.raises(ContractViolation):
        enumerate_chain_types(NodeTable(3), {4})


def test_siblings_are_ordered_by_dim_then_id():
    table = NodeTable(4)
    one, two, three = (table.node(d, ()) for d in (1, 2, 3))
    pair = table.node(2, (one, one))
    assert pair > two
    assert table.ordered([one, two, three, pair]) == (three, pair, two, one)
    # a structurally equal subtree is the same id
    assert table.node(2, (one, one)) == pair and table_root(table, (2, ((1, ()), (1, ())))) == (
        one, one)


def test_chain_canonical_idempotence():
    messy = (4, ((1, ((1, ()),)), (3, ((1, ()), (2, ())))))
    c = canonical_chain_type(4, messy)
    assert canonical_chain_type(4, c) == c
    assert c == (4, ((3, ((2, ()), (1, ()))), (1, ((1, ()),))))


def test_chain_level_counts_and_leaves():
    c = chain_trees(3, {2, 3})[0]
    assert level_counts(c) == [2, 3]
    assert sorted(leaves(c)) == [1, 1, 1]
    empty = chain_trees(3, ())[0]
    assert level_counts(empty) == []
    assert leaves(empty) == [3]

    def walk(node, depth, counts, found):
        dim, children = node
        if not children:
            found.append(dim)
        for child in children:
            if len(counts) == depth:
                counts.append(0)
            counts[depth] += 1
            walk(child, depth + 1, counts, found)

    for m in range(1, 7):
        for size in range(m):
            for subset in combinations(range(2, m + 1), size):
                for c in chain_trees(m, subset):
                    counts, found = [], []
                    walk(c, 0, counts, found)
                    assert level_counts(c) == counts == list(subset)
                    assert leaves(c) == found


def test_shared_sub_forests_match_fresh_enumeration():
    # one table shared by every subset of a cube, as cube_report keeps it
    for m in range(1, 8):
        table = NodeTable(m)
        for size in range(m):
            for subset in combinations(range(2, m + 1), size):
                assert chain_trees(m, subset, table) == chain_trees(m, subset), (m, subset)


def test_chain_types_match_the_forest_search():
    # one dict per m on each side, shared by every subset as cube_report does
    totals = {}
    for m in range(1, 9):
        subtrees, forests = {}, {}
        totals[m] = 0
        for size in range(m):
            for subset in combinations(range(2, m + 1), size):
                chains = structural_chain_types(m, subset, subtrees)
                assert chains == chain_types_oracle(m, subset, forests), (m, subset)
                totals[m] += len(chains)
    assert totals[7] == 936 and totals[8] == 5820


def _id_cube_cases():
    return [(m, 1, m) for m in range(1, 9)] + [(3, 2, 8), (4, 2, 10), (3, 3, 12)]


@pytest.mark.parametrize("m, l, k", _id_cube_cases())
def test_node_table_matches_the_structural_oracle(m, l, k):
    # every vertex of the cube, on one shared table as cube_report keeps
    # it: the roots spell the structural chain types, one root per type;
    # each appended root spells the appended tree; and each root's
    # descriptor is the one built from its tree
    table = NodeTable(m, l)
    subtrees, appended = {}, {}
    for subset in decomp._subsets(range(2, m + 1)):
        roots = enumerate_chain_types(table, subset)
        trees = [table.root_tree(root) for root in roots]
        assert len(set(roots)) == len(roots)
        assert sorted(trees) == list(structural_chain_types(m, subset, subtrees)), subset
        for root, tree in zip(roots, trees):
            if m > 1 and m not in subset:
                assert table.root_tree(table.refine(m, root)) == append_lines(tree, appended)
            d = stabilizer(root, table, k)
            assert d == stabilizer_oracle(tree, l, k), _tree_string(tree)


def test_append_and_strip_are_inverse():
    # appending applies to chains whose finest level is coarser than lines,
    # i.e. to vertices whose subset does not contain m; it is injective on
    # every such vertex, so stripping the lines again recovers the chain
    for m in (2, 3, 4, 5, 6):
        table = NodeTable(m)
        for size in range(m - 1):
            for subset in combinations(range(2, m), size):
                chains = enumerate_chain_types(table, subset)
                appended = set()
                for c in chains:
                    ext = table.refine(m, c)
                    assert level_counts(table.root_tree(ext)) == level_counts(
                        table.root_tree(c)) + [m]
                    assert all(d == 1 for d in leaves(table.root_tree(ext)))
                    appended.add(ext)
                assert len(appended) == len(chains), (m, subset)


def test_enumerated_and_appended_trees_are_valid_chain_trees():
    # decomp checks no tree at run time: _trees builds every one canonical
    # and level-complete, and appending the lines keeps it so on every base
    # vertex of a cube edge (m >= 2, m not in U)
    for m in range(1, 9):
        table = NodeTable(m)
        for size in range(m):
            for subset in combinations(range(2, m + 1), size):
                for c in enumerate_chain_types(table, subset):
                    tree = table.root_tree(c)
                    assert check_chain_tree(m, tree) is tree
                    if 1 < m and m not in subset:
                        check_chain_tree(m, table.root_tree(table.refine(m, c)))


def test_chain_type_validation():
    with pytest.raises(ContractViolation):
        check_chain_tree(3, (2, ()))  # wrong root dimension
    with pytest.raises(ContractViolation):
        check_chain_tree(3, (3, ((1, ()), (1, ()))))  # children do not sum to 3
    with pytest.raises(ContractViolation):
        check_chain_tree(4, (4, ((1, ()), (3, ()))))  # children not in canonical order
    with pytest.raises(ContractViolation):
        # a leaf beside an inner node: level 2 would be a 4-part decomposition
        check_chain_tree(4, (4, ((3, ((1, ()), (1, ()), (1, ()))), (1, ()))))


# -- stabilizers --------------------------------------------------------------------


def test_stabilizer_examples():
    pair = chain_trees(2, {2})[0]
    assert stabilizer_of(pair).canonical_string() == "U(2)/S2wr(1)"

    coarse = chain_trees(3, {2})[0]
    assert stabilizer_of(coarse).canonical_string() == "U(3)/(1)x(2)"

    refined = chain_trees(3, {2, 3})[0]
    assert stabilizer_of(refined).canonical_string() == "U(3)/(1)xS2wr(1)"

    # generalized: tensor multiplicity and complement
    assert stabilizer_of(refined, l=2, k=8).canonical_string() == "U(8)/(1,2)xS2wr(1,2)xU(2)"


def test_stabilizer_is_unchanged_on_every_chain_type_up_to_m7():
    # sha1 of "<tree> <repr(descriptor)>" lines over all 1 175 chain types
    # with m <= 7, recorded before the lone-unit shortcut in _canonical_unit
    h = hashlib.sha1()
    n = 0
    for m in range(1, 8):
        for size in range(m):
            for subset in combinations(range(2, m + 1), size):
                for c in chain_trees(m, subset):
                    h.update(("%s %r\n" % (_tree_string(c), stabilizer_of(c))).encode())
                    n += 1
    assert n == 1175
    assert h.hexdigest() == "ddaca4cf9a931c2d73ff15fdd9f0b3758808f086"


def test_shared_units_give_the_canonicalized_raw_tree():
    # cube_report shares one dict of subtree units across a whole cube
    for m, l, k in [(m, 1, m) for m in range(1, 8)] + [(3, 2, 8), (4, 2, 10)]:
        memo.clear()
        for v in cube_report(m, l, k, chains=True).vertices:
            for c, d, _ in v.chains:
                assert d == stabilizer_oracle(c, l, k) == d.canonicalize(), _tree_string(c)
    memo.clear()


def test_interned_isotropies_match_fresh_stabilizers_and_polynomials():
    # cube_report builds one descriptor and one polynomial per isotropy and
    # hands them to every chain of it: each must be what a fresh build gives
    for m, l, k in [(m, 1, m) for m in range(1, 9)] + [(3, 2, 8), (4, 2, 10), (3, 3, 12)]:
        memo.clear()
        chains = [chain for v in cube_report(m, l, k, chains=True).vertices
                  for chain in v.chains]
        memo.clear()
        fresh = {}
        for c, d, p in chains:
            assert d == stabilizer_of(c, l, k), _tree_string(c)
            if id(d) not in fresh:
                fresh[id(d)] = cartan.poincare(d)
            assert p == fresh[id(d)], _tree_string(c)
    memo.clear()


def test_each_isotropy_is_built_once_per_cube(monkeypatch):
    built = []
    real = decomp.stabilizer

    def counting(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(decomp, "stabilizer", counting)
    memo.clear()
    chains = [chain for v in cube_report(8, chains=True).vertices for chain in v.chains]
    assert len(chains) == 5820
    descriptors = {d for _, d, _ in chains}
    assert len(descriptors) == len({id(d) for _, d, _ in chains}) == 125
    assert len({id(p) for _, _, p in chains}) == 125
    assert len(built) == len(set(built)) == 125
    memo.clear()


def test_vertex_sum_truncates_like_poly_addition():
    terms = [(Poly({0: 1, 2: 3, 6: 1}), 2), (Poly({0: 1, 4: -1}, 5), 3),
             (Poly({0: 2, 2: -6, 3: 1}, 3), 1), (Poly({1: 4}), 5)]
    expected = sum((p * n for p, n in terms), Poly.zero())
    got = decomp._weighted_sum(terms)
    assert got == expected and got.truncation == 3
    assert decomp._weighted_sum(terms[:1] + terms[3:]) == Poly({0: 2, 1: 20, 2: 6, 6: 2})
    assert decomp._weighted_sum([]) == Poly.zero()


def test_stabilizer_connected_part_of_extended_chain_is_torus():
    for m in (2, 3, 4):
        for subset in [(), (2,)]:
            for c in chain_trees(m, set(s for s in subset if 2 <= s < m)):
                d = stabilizer_of(appended_tree(m, c))
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
    assert vertex(r, ()).poincare == Poly({0: 1})
    assert vertex(r, (2,)).poincare == Poly({0: 1})
    assert r.signed_sum == Poly.zero() and r.signed_sum_zero


def test_cube_m3_square():
    r = cube_report(3, chains=True)
    assert r.verified
    assert vertex(r, ()).poincare == Poly({0: 1})
    assert vertex(r, (2,)).poincare == Poly({0: 1, 2: 1, 4: 1})
    assert vertex(r, (3,)).poincare == Poly({0: 1})
    assert vertex(r, (2, 3)).poincare == Poly({0: 1, 2: 1, 4: 1})
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
    r = cube_report(3, chains=True)
    doc = r.to_json()
    blob1 = json.dumps(doc, sort_keys=True)
    blob2 = json.dumps(cube_report(3, chains=True).to_json(), sort_keys=True)
    assert blob1 == blob2
    assert doc["verified"] is True
    assert [v["subset"] for v in doc["vertices"]] == [[], [2], [3], [2, 3]]
    assert doc["vertices"][1]["poincare"] == {"0": 1, "2": 1, "4": 1}
    assert doc["prime_power"] is True
    # the text path keeps no chains, and so has no JSON
    with pytest.raises(ContractViolation):
        cube_report(3).to_json()


def _module_state():
    """Sizes of the containers and function caches ``decomp`` binds."""
    sizes = {}
    for name, value in vars(decomp).items():
        if isinstance(value, (dict, list, set)):
            sizes[name] = len(value)
        elif hasattr(value, "cache_info"):
            sizes[name] = value.cache_info().currsize
    return sizes


def test_cube_report_keeps_no_state_between_runs():
    memo.clear()
    first = cube_report(6, chains=True)
    state = _module_state()
    memo.clear()
    second = cube_report(6, chains=True)
    assert second.to_json() == first.to_json()
    assert _module_state() == state
    # the subtrees are rebuilt, not kept from the first run
    trees = {id(c) for v in first.vertices for c, _, _ in v.chains}
    assert not any(id(c) in trees for v in second.vertices for c, _, _ in v.chains)


def test_missing_extended_chain_is_reported_not_raised(monkeypatch):
    enumerate_all = decomp.enumerate_chain_types

    def drop_one(table, subset):
        chains = enumerate_all(table, subset)
        return chains[1:] if table.m in subset else chains

    monkeypatch.setattr(decomp, "enumerate_chain_types", drop_one)
    r = cube_report(3)
    assert not r.verified
    base = r.edges[0]
    assert base.subset == () and not base.matched
    assert base.mismatches == ("no partner for 3[1,1,1]",)


def test_unhit_extended_chain_is_reported_not_raised(monkeypatch):
    # every base chain finds its own partner, but one extended type is hit
    # by none: the edge is not onto
    enumerate_all = decomp.enumerate_chain_types

    def drop_one(table, subset):
        chains = enumerate_all(table, subset)
        if subset != (2,):
            return chains
        return [c for c in chains if _tree_string(table.root_tree(c)) != "4[2,2]"]

    monkeypatch.setattr(decomp, "enumerate_chain_types", drop_one)
    r = cube_report(4)
    assert not r.verified
    edge = next(e for e in r.edges if e.subset == (2,))
    assert not edge.matched and edge.equal
    assert edge.mismatches == ("unmatched extended type 4[2[1,1],2[1,1]]",)
    assert all(e.ok for e in r.edges if e.subset != (2,))


def test_two_chains_appending_to_one_tree_are_reported_not_raised(monkeypatch):
    refine = NodeTable.refine
    base = chain_trees(4, (2,))
    assert _tree_string(base[0]) == "4[2,2]" and _tree_string(base[1]) == "4[3,1]"

    def collide(table, dim, kids):
        # both roots of X({2}) append to the appended root of 4[2,2]
        if dim == 4 and table.root_tree(kids) in base:
            kids = table_root(table, base[0])
        return refine(table, dim, kids)

    monkeypatch.setattr(NodeTable, "refine", collide)
    r = cube_report(4)
    assert not r.verified
    edge = next(e for e in r.edges if e.subset == (2,))
    assert not edge.matched
    assert edge.mismatches[0] == "4[2,2] and 4[3,1] both append to 4[2[1,1],2[1,1]]"
    assert "unmatched extended type 4[3[1,1,1],1[1]]" in edge.mismatches
    assert all(e.ok for e in r.edges if e.subset != (2,))


def test_unequal_matched_polynomials_are_reported_not_raised(monkeypatch):
    real = cartan.poincare
    point = stabilizer_of((3, ()))
    bump = Poly({0: 1, 2: 1})

    def perturbed(d, cutoff=None):
        return bump if d == point else real(d, cutoff=cutoff)

    monkeypatch.setattr(cartan, "poincare", perturbed)
    r = cube_report(3)
    assert not r.verified
    edge = r.edges[0]
    assert edge.subset == () and edge.matched and not edge.equal
    message = "P(3) = %s but P(3[1,1,1]) = %s" % (bump.pretty(), Poly.one().pretty())
    assert edge.mismatches == (message,)
    assert all(e.ok for e in r.edges[1:])


def test_cube_report_flags_bad_input():
    with pytest.raises(ContractViolation):
        cube_report(2, l=1, k=1)
