"""Filtration reports: vanishing, first stage, subquotients, pi_0, ku series."""

import json

import pytest

from rankfilt.combinat import ContractViolation, enumerate_summands
from rankfilt.poly import Poly, prod
from rankfilt.spectra import (
    Vanishes,
    bu_poincare,
    first_stage_poincare,
    ku_limit_series,
    pi0_check,
    small_range_report,
    stabilization_check,
    subquotient_rational_check,
    vanishing_check,
)


def pu_oracle(k):
    return prod(Poly({0: 1, 2 * i - 1: 1}) for i in range(2, k + 1))


def test_vanishing():
    assert vanishing_check(1, 2) is True
    assert vanishing_check(2, 2) is False
    assert vanishing_check(5, 2) is False
    with pytest.raises(ContractViolation):
        vanishing_check(0, 1)
    # the summand sets of every t >= 1 agree with the one set vanishing_check reads
    for k in range(1, 7):
        for l in range(1, 8):
            for t in range(1, 5):
                assert vanishing_check(k, l) == (len(enumerate_summands(k, l, t)) == 0), (k, l, t)


def test_first_stage_projective():
    assert first_stage_poincare(2, 1) == Poly({0: 1, 2: 1})
    assert first_stage_poincare(3, 1) == Poly({0: 1, 2: 1, 4: 1})


def test_first_stage_endomorphisms():
    for k in (2, 3, 4):
        got = first_stage_poincare(k, k, cutoff=16)
        assert got.agrees(pu_oracle(k))


def test_first_stage_vanishes():
    with pytest.raises(Vanishes):
        first_stage_poincare(1, 2)


def test_first_stage_degree_zero_grid():
    for k in range(1, 6):
        for l in range(1, k + 1):
            p = first_stage_poincare(k, l, cutoff=16)
            assert p[0] == 1, (k, l)


def test_subquotient_checks():
    for (k, l, m) in [(2, 1, 2), (4, 2, 2), (3, 1, 3)]:
        v = subquotient_rational_check(k, l, m, cutoff=10)
        assert v.verified and v.verdict == "rationally trivial"
        assert v.counterexamples() == []
    with pytest.raises(ContractViolation):
        subquotient_rational_check(3, 2, 2)  # 2*2 > 3


def test_subquotient_checks_stage_four():
    # stage m = 4 through the full M_max window, plain and generalized
    assert subquotient_rational_check(4, 1, 4).verified
    assert subquotient_rational_check(5, 1, 4).verified
    assert subquotient_rational_check(8, 2, 4, cutoff=8).verified


def test_pi0_grid():
    for k in range(1, 6):
        for l in range(1, 7):
            expected = 0 if l > k else 1
            assert pi0_check(k, l) == expected, (k, l)


def test_bu_poincare():
    assert bu_poincare(1, 12) == Poly.geometric(2, 12)
    b2 = bu_poincare(2, 8)
    assert b2.coeffs == {0: 1, 2: 1, 4: 2, 6: 2, 8: 3}


def test_ku_limit_series_rank_one():
    s = ku_limit_series(1, 1, 12)
    assert s == Poly.geometric(2, 12)
    # rank-1 tuples of length t contribute t geometric series
    s3 = ku_limit_series(1, 3, 6)
    assert s3 == 3 * Poly.geometric(2, 6)


def test_ku_limit_series_higher_rank():
    s = ku_limit_series(1, 1, 8, max_rank=2)
    assert s == (bu_poincare(1, 8) + bu_poincare(2, 8))
    with pytest.raises(ContractViolation):
        ku_limit_series(1, 0, 4)


def test_stabilization():
    stabilization_check(1, (1,), 12, ks=(8, 9, 10, 12))
    stabilization_check(1, (2,), 10, ks=(9, 11))
    stabilization_check(1, (1, 1), 8, ks=(8, 10))
    stabilization_check(2, (1,), 6, ks=(6, 8))
    s = ku_limit_series(1, 1, 12, check_stabilization=True, sample_ks=(8, 10))
    assert s == Poly.geometric(2, 12)


def test_report_one_stage():
    r = small_range_report(3, 2)
    assert r.one_stage and r.length == 1 and r.pi0 == 1
    assert r.first_stage[0] == 1
    assert r.stages[0].verdict == "first stage"
    assert r.endomorphism is None
    assert r.verified

    r22 = small_range_report(2, 2)
    assert r22.one_stage
    assert r22.first_stage.agrees(Poly({0: 1, 3: 1}))
    assert r22.endomorphism.agrees(Poly({0: 1, 3: 1}))


def test_report_vanishing():
    r = small_range_report(1, 2)
    assert r.vanishes and r.pi0 == 0 and r.first_stage is None and r.length == 0
    doc = r.to_json()
    assert doc["vanishes"] is True and doc["first_stage"] is None


def test_report_stages_and_flags():
    r = small_range_report(4, 1)
    assert [s.m for s in r.stages] == [1, 2, 3, 4]
    assert [s.prime_power for s in r.stages] == [None, True, True, True]
    assert all(s.verdict == "rationally trivial" for s in r.stages[1:])
    assert r.pi0 == 1
    assert r.verified

    r6 = small_range_report(6, 1)
    flags = {s.m: s.prime_power for s in r6.stages}
    assert flags == {1: None, 2: True, 3: True, 4: True, 5: True, 6: False}
    verdicts = {s.m: s.verdict for s in r6.stages}
    assert verdicts[5] == "skipped (beyond M_max)"
    assert verdicts[6] == "skipped (beyond M_max)"


def test_report_k_cap():
    with pytest.raises(ContractViolation):
        small_range_report(9, 1)


def test_report_json_schema():
    doc = small_range_report(4, 2, cutoff=10).to_json()
    blob = json.dumps(doc, sort_keys=True)
    assert json.dumps(small_range_report(4, 2, cutoff=10).to_json(), sort_keys=True) == blob
    for key in ("k", "l", "stages", "first_stage", "pi0", "note"):
        assert key in doc
    assert doc["stages"][0]["m"] == 1
    for stage in doc["stages"]:
        for key in ("m", "prime_power", "verdict", "poincare"):
            assert key in stage


def test_endomorphism_coefficients_shape():
    # 0/1 coefficients, nothing in degrees 1 and 2, odd generators >= 3;
    # products of odd generators do land in even degrees (t^3*t^5 = t^8)
    for k in (2, 3, 4):
        p = first_stage_poincare(k, k, cutoff=16)
        assert p == p.as_integer()
        for deg, c in p.coeffs.items():
            assert c == 1
            assert deg == 0 or deg >= 3
        assert p[3] == 1 and p[1] == 0 and p[2] == 0
