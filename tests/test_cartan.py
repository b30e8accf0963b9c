"""Koszul engine against classical closed forms and the Molien engine."""

import itertools

import pytest

from oracles import (
    flag_poincare_oracle,
    full_exterior_basis,
    full_ring_minimal_generators,
    structural_chain_types,
    verify_d_squared,
)
from rankfilt.cache import memo
from rankfilt.cartan import (
    EngineMismatch,
    InvariantViolation,
    KoszulComplex,
    ResourceLimit,
    cartan_cohomology,
    check_invariants,
    poincare,
)
from rankfilt.combinat import ContractViolation
from rankfilt.decomp import stabilizer
from rankfilt.orbitspace import (
    Block,
    Bunch,
    OrbitDescriptor,
    Wreath,
    molien_poincare,
    parse_descriptor,
    real_dimension,
)
from rankfilt.poly import Poly, prod
from rankfilt.spectra import first_stage_descriptor


def stiefel_oracle(k, l, cutoff):
    """P(U(k)/U(k-l)) = prod_{i=k-l+1}^{k} (1 + t^(2i-1)), truncated."""
    return prod(Poly({0: 1, 2 * i - 1: 1}) for i in range(k - l + 1, k + 1)).truncate(cutoff)


def pu_oracle(k, cutoff=None):
    """P(PU(k)) = prod_{i=2}^{k} (1 + t^(2i-1))."""
    p = prod(Poly({0: 1, 2 * i - 1: 1}) for i in range(2, k + 1))
    return p if cutoff is None else p.truncate(cutoff)


def test_projective_spaces():
    for k in range(2, 6):
        d = OrbitDescriptor(k, (Block(1),), k - 1)
        got = cartan_cohomology(d, 2 * k)
        assert got.agrees(Poly({2 * i: 1 for i in range(k)}))


def test_stiefel_closed_forms():
    for k in range(1, 5):
        for l in range(1, k + 1):
            d = OrbitDescriptor(k, (), k - l)
            cutoff = 2 * k
            assert cartan_cohomology(d, cutoff).agrees(stiefel_oracle(k, l, cutoff))


def test_pu_closed_forms():
    for k in range(2, 5):
        d = OrbitDescriptor(k, (Block(1, k),), 0)
        cutoff = k * k
        got = cartan_cohomology(d, cutoff)
        assert got.agrees(pu_oracle(k, cutoff))


def test_pu2_differential_shape():
    # d(y1) = 2u, d(y2) = u^2 for the central circle inside U(2)
    kc = KoszulComplex(OrbitDescriptor(2, (Block(1, 2),), 0))
    kc._build_chern(kc.k)
    assert kc.chern[0] == {(1,): 2}
    assert kc.chern[1] == {(2,): 1}


def test_point_and_full_group():
    point = OrbitDescriptor(3, (Block(3),), 0)
    assert cartan_cohomology(point, 8).agrees(Poly({0: 1}))
    u3 = OrbitDescriptor(3, (), 0)
    assert cartan_cohomology(u3, 9).agrees(
        prod(Poly({0: 1, 2 * i - 1: 1}) for i in (1, 2, 3)).truncate(9)
    )


def test_d_squared_zero():
    cases = [
        OrbitDescriptor(3, (Block(1, 3),), 0),
        OrbitDescriptor(3, (Block(1), Block(1)), 1),
        OrbitDescriptor(4, (Block(1, 2),), 2),
        OrbitDescriptor(2, (), 1),
    ]
    for d in cases:
        verify_d_squared(KoszulComplex(d), range(0, 7))


def test_chern_images_homogeneous():
    kc = KoszulComplex(OrbitDescriptor(4, (Block(2, 1), Block(1)), 1))
    kc._build_chern(kc.k)
    assert len(kc.chern) == kc.k
    for i, rho in enumerate(kc.chern, start=1):
        for mono in rho:
            assert sum(e * w for e, w in zip(mono, kc.var_degrees)) == 2 * i


def test_witness_builds_only_the_images_it_reads():
    # the rows through degree 8 read y_1..y_4, so only rho_1..rho_4 are built
    kc = KoszulComplex(parse_descriptor("U(8)/S8wr(1)"))
    assert kc.chern == []
    kc.cohomology_dims(8)
    assert len(kc.chern) == 4
    kc.cohomology_dims(20)
    assert len(kc.chern) == 8


def test_witness_builds_and_checks_its_images_once(monkeypatch):
    # cohomology_dims builds rho_1..rho_4 before its rank loop, not one
    # more image per degree that reads one
    checks = []
    check = KoszulComplex._check_equivariance
    monkeypatch.setattr(KoszulComplex, "_check_equivariance",
                        lambda kc: checks.append(len(kc.chern)) or check(kc))
    KoszulComplex(parse_descriptor("U(8)/S8wr(1)")).cohomology_dims(8)
    assert checks == [4]


def test_invariant_dims_examples():
    # trivial finite part: same as the plain computation
    flag = OrbitDescriptor(2, (Block(1), Block(1)), 0)
    kc = KoszulComplex(flag)
    assert kc.cohomology_dims(6, invariants=True) == kc.cohomology_dims(6, invariants=False)

    pairs = KoszulComplex(OrbitDescriptor(2, (Wreath(Block(1), 2),), 0))
    assert pairs.cohomology_dims(10, invariants=True) == [1] + [0] * 10

    mixed = KoszulComplex(OrbitDescriptor(3, (Wreath(Block(1), 2), Block(1)), 0))
    dims = mixed.cohomology_dims(8, invariants=True)
    assert dims == [1, 0, 1, 0, 1, 0, 0, 0, 0]


def test_euler_characteristic_audit():
    # per degree: dim C^d = dim H^d + rank d_d + rank d_(d-1)
    for desc in [
        OrbitDescriptor(3, (Block(1, 3),), 0),
        OrbitDescriptor(3, (Wreath(Block(1), 2), Block(1)), 0),
        OrbitDescriptor(4, (Block(1, 2),), 2),
    ]:
        kc = KoszulComplex(desc)
        cutoff = 8
        dims = kc.dims(cutoff)
        coh = kc.cohomology_dims(cutoff)
        for d in range(cutoff + 1):
            below = kc.differential_rank(d - 1) if d > 0 else 0
            assert dims[d] == coh[d] + kc.differential_rank(d) + below
            assert coh[d] >= 0


def test_tensor_block_with_complement():
    # embeddings of C^2 in C^4 modulo the scalar circle: Cartan route only
    d = OrbitDescriptor(4, (Block(1, 2),), 2)
    p = cartan_cohomology(d, 12)
    assert p[0] == 1
    assert all(c >= 0 for c in p.coeffs.values())


def test_engine_agreement_sample():
    cases = [
        OrbitDescriptor(3, (Block(2), Block(1)), 0),
        OrbitDescriptor(3, (Wreath(Block(1), 3),), 0),
        OrbitDescriptor(4, (Wreath(Block(1), 2),), 2),
        OrbitDescriptor(4, (Wreath(Bunch((Block(1), Block(1))), 2),), 0),
        OrbitDescriptor(4, (Block(2), Block(2)), 0),
    ]
    for d in cases:
        exact = molien_poincare(d)
        trunc = cartan_cohomology(d, 14)
        assert exact.agrees(trunc), d.canonical_string()


def test_dispatcher_routes_and_checks():
    flag = OrbitDescriptor(3, (Block(2), Block(1)), 0)
    p = poincare(flag)
    assert p.truncation is None and p == flag_poincare_oracle((2, 1))
    # explicit cutoff in auto mode runs the dual-engine comparison
    assert poincare(flag, cutoff=10) == p
    stiefel = OrbitDescriptor(2, (), 1)
    q = poincare(stiefel, cutoff=7)
    assert q.truncation == 7 and q.agrees(Poly({0: 1, 3: 1}))
    assert poincare(stiefel) == Poly({0: 1, 3: 1})
    with pytest.raises(ValueError):
        poincare(flag, engine="nonsense")


def test_dispatcher_mismatch_raises(monkeypatch):
    import rankfilt.cartan as cartan_mod

    # palindromic of top degree dim = 4: only the engine comparison can object
    flag = OrbitDescriptor(3, (Block(1), Block(2)), 0)
    monkeypatch.setattr(cartan_mod, "molien_poincare", lambda d: Poly({0: 1, 2: 7, 4: 1}))
    cartan_mod.memo.clear()
    with pytest.raises(EngineMismatch):
        poincare(flag, cutoff=6)
    cartan_mod.memo.clear()


def test_resource_limit_reports_degree(monkeypatch):
    import rankfilt.cartan as cartan_mod

    d = OrbitDescriptor(4, (Block(1), Block(1), Block(1), Block(1)), 0)
    memo.clear()
    monkeypatch.setattr(cartan_mod, "BASIS_BUDGET", 3)
    with pytest.raises(ResourceLimit) as exc:
        cartan_cohomology(d, 12)
    assert exc.value.degree >= 0
    assert exc.value.budget == 3


def test_concurrent_evaluation_is_consistent():
    # distinct degrees and descriptors may be evaluated from several threads;
    # the shared memo must serve consistent polynomials
    import threading

    descriptors = [
        OrbitDescriptor(3, (Block(1, 3),), 0),
        OrbitDescriptor(3, (Wreath(Block(1), 2), Block(1)), 0),
        OrbitDescriptor(4, (Block(1, 2),), 2),
    ]
    results = [[None] * len(descriptors) for _ in range(4)]
    errors = []

    def work(slot):
        try:
            for i, d in enumerate(descriptors):
                results[slot][i] = poincare(d, cutoff=10, engine="cartan")
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for slot in range(1, 4):
        assert results[slot] == results[0]


# -- the finite part: canonical representatives ------------------------------


def _leaf_permutations(u):
    """Every element of the finite part of a unit, as a permutation of its leaves."""
    if isinstance(u, Block):
        return [(0,)]
    if isinstance(u, Wreath):
        inner = _leaf_permutations(u.inner)
        n = len(inner[0])
        return [
            tuple(sigma[i] * n + tau[i][j] for i in range(u.copies) for j in range(n))
            for sigma in itertools.permutations(range(u.copies))
            for tau in itertools.product(inner, repeat=u.copies)
        ]
    out = []
    for combo in itertools.product(*(_leaf_permutations(v) for v in u.units)):
        perm, offset = [], 0
        for p in combo:
            perm.extend(offset + i for i in p)
            offset += len(p)
        out.append(tuple(perm))
    return out


def test_canonical_is_group_minimum():
    for text in [
        "U(5)/S2wrS2wr(1)x(1)",
        "U(6)/S3wrS2wr(1)",
        "U(4)/S2wr{(1)x(1)}",
        "U(6)/S2wr(2)xS2wr(1)",
        "U(7)/S2wr(1,2)xU(3)",
    ]:
        kc = KoszulComplex(parse_descriptor(text))
        leaves = kc.descriptor.blocks()
        starts = kc.leaf_var_start
        group = _leaf_permutations(Bunch(kc.descriptor.units))
        assert len(set(group)) == len(group) > 1, text

        def act(mono, perm):
            out = list(mono)
            for li, target in enumerate(perm):
                for j in range(leaves[li].size):
                    out[starts[target] + j] = mono[starts[li] + j]
            return tuple(out)

        for degree in range(0, 9, 2):
            for mono in kc._monomials(degree):
                assert kc.canonical(mono) == min(act(mono, g) for g in group), (text, mono)


def _unit_lists(n):
    """Tuples of multiplicity-one units of total weight n (with repeats)."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for u in _units(first):
            for rest in _unit_lists(n - first):
                yield (u,) + rest


def _units(n):
    yield Block(n)
    for copies in range(2, n + 1):
        if n % copies == 0:
            for inner in _unit_lists(n // copies):
                yield Wreath(inner[0] if len(inner) == 1 else Bunch(inner), copies)


def test_invariant_dims_match_molien_with_finite_part():
    seen = {}
    for k in range(1, 6):
        for weight in range(1, k + 1):
            for units in _unit_lists(weight):
                d = OrbitDescriptor(k, units, k - weight).canonicalize()
                if "wr" in d.canonical_string():
                    seen[d.canonical_string()] = d
    assert len(seen) > 20
    cutoff = 12
    for text, d in seen.items():
        exact = molien_poincare(d)
        got = KoszulComplex(d).cohomology_dims(cutoff)
        assert got == [exact[i] for i in range(cutoff + 1)], text


def test_broken_symmetry_is_caught_on_generators():
    class Lopsided(KoszulComplex):
        """Adds the product of the first Chern roots of some leaves to a Chern image."""

        broken = (0,)

        def _chern_images(self, through):
            chern = super()._chern_images(through)
            if through < len(self.broken):
                return chern
            mono = [0] * self.nvars
            for leaf in self.broken:
                mono[self.leaf_var_start[leaf]] = 1
            rho = chern[len(self.broken) - 1]
            rho[tuple(mono)] = rho.get(tuple(mono), 0) + 1
            return chern

    cases = [
        # every leaf of a nested wreath is moved by some generator
        ("U(6)/S3wrS2wr(1)", [(leaf,) for leaf in range(6)]),
        # fixed by the first transposition of copies, not by the second
        ("U(3)/S3wr(1)", [(0, 1)]),
        # fixed by the outer swap, not by the inner ones
        ("U(4)/S2wrS2wr(1)", [(0, 2)]),
    ]
    # the images are built, and checked, on first need
    for text, breaks in cases:
        d = parse_descriptor(text)
        KoszulComplex(d)._build_chern(d.k)
        for broken in breaks:
            Lopsided.broken = broken
            kc = Lopsided(d)
            with pytest.raises(InvariantViolation):
                kc._build_chern(d.k)
    # a block outside every wreath may be lopsided
    Lopsided.broken = (0,)
    Lopsided(parse_descriptor("U(5)/S2wrS2wr(1)x(1)"))._build_chern(5)


# -- the complete-intersection route against the full Koszul cohomology ------


def _connected_descriptors(k_max, dim_max):
    """Connected descriptors: multisets of blocks Block(a, l) plus a complement."""

    def block_lists(room, smallest):
        yield ()
        for a in range(1, room + 1):
            for l in range(1, room // a + 1):
                if (a, l) >= smallest:
                    for rest in block_lists(room - a * l, (a, l)):
                        yield (Block(a, l),) + rest

    seen = {}
    for k in range(1, k_max + 1):
        for blocks in block_lists(k, (1, 1)):
            used = sum(b.size * b.mult for b in blocks)
            for c in range(k - used + 1):
                d = OrbitDescriptor(k, blocks, c).canonicalize()
                if real_dimension(d) <= dim_max:
                    seen[d.canonical_string()] = d
    return seen


def test_duality_route_matches_every_degree():
    # connected isotropy: every degree of the complete-intersection route,
    # truncated or exact, is the full Koszul cohomology
    seen = _connected_descriptors(5, 24)
    assert len(seen) > 100
    for text, d in seen.items():
        n = real_dimension(d)
        full = KoszulComplex(d).cohomology_dims(n + 3)
        assert full[n] == 1 and full[n + 1:] == [0, 0, 0], text
        exact = cartan_cohomology(d)
        assert exact.truncation is None, text
        assert exact.agrees(Poly(dict(enumerate(full)), n + 3)), text
        for cutoff in (n // 2, n, n + 3):
            got = cartan_cohomology(d, cutoff)
            assert got.truncation == cutoff, text
            assert [got[i] for i in range(cutoff + 1)] == full[: cutoff + 1], (text, cutoff)


def test_differential_rank_reduces_rows_last_first(monkeypatch):
    # sparse_rank reduces rows in the order given; the witness passes its
    # rows last first, which keeps the pivots short (basis order made the
    # duality test above take minutes)
    import rankfilt.cartan as cartan_mod

    seen = []
    monkeypatch.setattr(cartan_mod, "sparse_rank", lambda rows: seen.append(rows) or 0)
    for text in ["U(4)/S2wr(1)xU(2)", "U(5)/(1,2)xU(3)"]:
        kc = KoszulComplex(parse_descriptor(text))
        for degree in range(9):
            seen.clear()
            kc.differential_rank(degree)
            assert seen == [kc._image_rows(degree, True)[::-1]], (text, degree)


def _with_finite_part():
    """Descriptors with a finite part, some with tensor multiplicity or a
    fixed subspace, among them the stabilizers of ``cube 3 --l 2 --k 8``."""
    found = []
    for k in range(2, 6):
        for weight in range(2, k + 1):
            found += [OrbitDescriptor(k, units, k - weight) for units in _unit_lists(weight)]
    found += [parse_descriptor(text) for text in [
        "U(5)/S2wr(1,2)xU(1)", "U(5)/S2wr(1,2)xU(0)", "U(4)/S2wr(1)xU(0)",
        "U(7)/S2wr(1,2)xU(3)", "U(6)/S2wr(1,2)xS2wr(1)", "U(8)/S4wr(1,2)",
        "U(6)/S2wrS2wr(1)x(2)",
    ]]
    for subset in [(), (2,), (3,), (2, 3)]:
        found += [stabilizer(chain, 2, 8) for chain in structural_chain_types(3, subset, {})]
    # descriptor -> its string, for messages
    return {d: d.canonical_string() for d in map(OrbitDescriptor.canonicalize, found)
            if "wr" in d.canonical_string()}


def test_finite_part_route_matches_invariant_koszul():
    seen = _with_finite_part()
    assert len(seen) > 30 and "U(8)/S3wr(1,2)xU(2)" in seen.values()
    assert parse_descriptor("U(5)/S2wr(1,2)xU(0)") in seen
    for d, text in seen.items():
        exact = cartan_cohomology(d)
        assert exact.truncation is None, text
        through = min(real_dimension(d), 16)
        full = KoszulComplex(d).cohomology_dims(through)
        assert [exact[i] for i in range(through + 1)] == full, text


def test_bounded_exterior_basis_matches_all_subsets():
    # the subsets of y_1..y_k that fit in the degree, in the full order
    sample = list(_connected_descriptors(5, 24).values()) + list(_with_finite_part())
    for d in sample:
        kc = KoszulComplex(d)
        for degree in range(11):
            for invariants in (True, False):
                assert kc.basis(degree, invariants) == full_exterior_basis(
                    kc, degree, invariants
                ), (d.canonical_string(), degree, invariants)


def test_one_memo_entry_per_descriptor():
    # the exact answer is stored once; a cutoff only truncates it
    memo.clear()
    d = parse_descriptor("U(4)/(1,2)xU(2)")
    for cutoff in (5, 0, None):
        cartan_cohomology(d, cutoff)
    assert len(memo) == 1
    memo.clear()


def _connected(k_max):
    """Every connected descriptor with k <= k_max: blocks with tensor
    multiplicities, a complement and a fixed part, canonical."""

    def blocks(budget, least):
        yield ()
        for a in range(1, budget + 1):
            for l in range(1, budget // a + 1):
                if (a, l) >= least:
                    for rest in blocks(budget - a * l, (a, l)):
                        yield (Block(a, l),) + rest

    return {
        OrbitDescriptor(k, bs, c).canonicalize()
        for k in range(1, k_max + 1)
        for bs in blocks(k, (1, 1))
        for c in range(k - sum(b.size * b.mult for b in bs) + 1)
    }


def test_small_connected_descriptors_are_complete_intersections():
    # rho_1, ..., rho_r minimally generate I (r = nvars): the theorem behind
    # the closed form, checked by the full-ring oracle
    found = _connected(6)
    assert len(found) == 294
    for d in found:
        kc = KoszulComplex(d)
        assert full_ring_minimal_generators(kc) == list(range(1, kc.nvars + 1)), (
            d.canonical_string())


def test_rank_test_finds_the_minimal_generators():
    # (1 + u)^2 (1 + w): rho_1 = 2u + w and rho_2 = u^2 + 2uw generate I,
    # rho_3 = u^2 w is redundant
    kc = KoszulComplex(parse_descriptor("U(3)/(1,2)xU(1)"))
    assert full_ring_minimal_generators(kc) == [1, 2]
    # torus-commensurable: all k Chern images are minimal
    assert full_ring_minimal_generators(
        KoszulComplex(parse_descriptor("U(4)/S2wr(1)xU(2)"))) == [1, 2, 3, 4]
    # trivial isotropy: no generators, every y_i is free
    assert full_ring_minimal_generators(KoszulComplex(OrbitDescriptor(2, (), 0))) == []
    assert cartan_cohomology(OrbitDescriptor(2, (), 0)) == pu_oracle(2) * Poly({0: 1, 1: 1})


def test_block_variable_rank_tests_match_the_full_ring():
    # the generators the closed form takes, rho_1..rho_r, are the ones the
    # full-ring oracle finds with a finite part too (it leaves I unchanged)
    for d in _with_finite_part():
        kc = KoszulComplex(d)
        assert full_ring_minimal_generators(kc) == list(range(1, kc.nvars + 1)), (
            d.canonical_string())


def test_first_stage_closed_form_through_the_dimension():
    # P = [k-l+1]_{t^2} * prod_{i=k-l+2}^{k} (1 + t^(2i-1)), exact
    for k in range(1, 13):
        for l in range(1, k + 1):
            d = first_stage_descriptor(k, l)
            closed = Poly({2 * j: 1 for j in range(k - l + 1)}) * prod(
                Poly({0: 1, 2 * i - 1: 1}) for i in range(k - l + 2, k + 1)
            )
            got = poincare(d)
            assert got.truncation is None and got == closed, (k, l)


def test_negative_cutoff_is_a_contract_violation():
    with pytest.raises(ContractViolation):
        cartan_cohomology(OrbitDescriptor(3, (Block(1, 2),), 1), -1)


def test_degree_zero_must_be_one(monkeypatch):
    import rankfilt.cartan as cartan_mod

    # every weight of the average doubled
    series = cartan_mod.generator_series
    monkeypatch.setattr(
        cartan_mod, "generator_series",
        lambda d, top: [2 * c for c in series(d, top)],
    )
    for text in ["U(3)/(1,2)xU(1)", "U(4)/S2wr(1)xU(2)"]:
        memo.clear()
        with pytest.raises(InvariantViolation, match="b_0 = 2"):
            cartan_cohomology(parse_descriptor(text), 6)
    memo.clear()


def test_invariants_take_connectedness_from_the_finite_part():
    # a wreath inside a one-unit bunch: disconnected isotropy, though no
    # top-level unit is a Wreath until canonicalize flattens the bunch
    d = OrbitDescriptor(3, (Bunch((Wreath(Block(1), 2),)),), 1)
    assert d.canonicalize().canonical_string() == "U(3)/S2wr(1)xU(1)"
    p = Poly({0: 1, 2: 1, 4: 1})
    assert poincare(d.canonicalize()) == p
    assert check_invariants(d, p) == p
    assert poincare(d) == p


def test_complex_is_freed_without_the_cycle_collector(monkeypatch):
    # a complex left to the cyclic collector lingers, with all its bases,
    # into whatever runs next
    import gc
    import weakref

    made = []
    init = KoszulComplex.__init__

    def tracked(self, *args, **kwargs):
        made.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(KoszulComplex, "__init__", tracked)
    memo.clear()
    gc.disable()
    try:
        for text in ["U(4)/S2wr(1)xU(2)", "U(5)/(1,2)xU(3)"]:
            cartan_cohomology(parse_descriptor(text), 8)
        memo.clear()
        assert len(made) == 2 and all(ref() is None for ref in made)
    finally:
        gc.enable()
