"""Koszul engine against classical closed forms and the Molien engine."""

import itertools

import pytest

from rankfilt.cartan import (
    EngineMismatch,
    InvariantViolation,
    KoszulComplex,
    ResourceLimit,
    cartan_cohomology,
    default_cutoff,
    poincare,
)
from rankfilt.orbitspace import (
    Block,
    Bunch,
    OrbitDescriptor,
    Wreath,
    flag_poincare_oracle,
    molien_poincare,
    parse_descriptor,
)
from rankfilt.poly import Poly, prod


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
        KoszulComplex(d).verify_d_squared(range(0, 7))


def test_chern_images_homogeneous():
    kc = KoszulComplex(OrbitDescriptor(4, (Block(2, 1), Block(1)), 1))
    for i, rho in enumerate(kc.chern, start=1):
        for mono in rho:
            assert kc._mono_degree(mono) == 2 * i


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
    assert p.is_exact() and p == flag_poincare_oracle((2, 1))
    # explicit cutoff in auto mode runs the dual-engine comparison
    assert poincare(flag, cutoff=10) == p
    stiefel = OrbitDescriptor(2, (), 1)
    q = poincare(stiefel, cutoff=7)
    assert q.truncation == 7 and q.agrees(Poly({0: 1, 3: 1}))
    assert poincare(stiefel).truncation == default_cutoff(stiefel)
    with pytest.raises(ValueError):
        poincare(flag, engine="nonsense")


def test_dispatcher_mismatch_raises(monkeypatch):
    import rankfilt.cartan as cartan_mod

    flag = OrbitDescriptor(2, (Block(1), Block(1)), 0)
    monkeypatch.setattr(cartan_mod, "molien_poincare", lambda d: Poly({0: 1, 2: 7}))
    cartan_mod.memo.clear()
    with pytest.raises(EngineMismatch):
        poincare(flag, cutoff=6)
    cartan_mod.memo.clear()


def test_resource_limit_reports_degree():
    d = OrbitDescriptor(4, (Block(1), Block(1), Block(1), Block(1)), 0)
    with pytest.raises(ResourceLimit) as exc:
        cartan_cohomology(d, 12, basis_budget=3)
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

        def _chern_images(self, leaves):
            chern = super()._chern_images(leaves)
            mono = [0] * self.nvars
            for leaf in self.broken:
                mono[self.leaf_var_start[leaf]] = 1
            rho = chern[len(self.broken) - 1] = dict(chern[len(self.broken) - 1])
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
    for text, breaks in cases:
        d = parse_descriptor(text)
        KoszulComplex(d)
        for broken in breaks:
            Lopsided.broken = broken
            with pytest.raises(InvariantViolation):
                Lopsided(d)
    # a block outside every wreath may be lopsided
    Lopsided.broken = (0,)
    Lopsided(parse_descriptor("U(5)/S2wrS2wr(1)x(1)"))
