"""Molien engine, flag oracle, cycle indices, and the descriptor grammar."""

import importlib
import math
import os
import random
import re

import pytest

from oracles import (
    cycle_index_by_enumeration,
    descriptor_cycle_index,
    divide_exact,
    fixed_oracle,
    flag_poincare_oracle,
    gaussian_binomial,
    generator_cycle_index,
    graded_char_coinv,
    molien_poincare_oracle,
    sym_cycle_index,
    torus_commensurable_oracle,
)
from test_cartan import _with_finite_part
from rankfilt.cache import memo
from rankfilt.cartan import generator_series
from rankfilt.combinat import partitions_into
from rankfilt.decomp import cube_report
from rankfilt.orbitspace import (
    Block,
    Bunch,
    DescriptorError,
    NotTorusCommensurable,
    OrbitDescriptor,
    Wreath,
    finite_part_order,
    molien_poincare,
    parse_descriptor,
    real_dimension,
    weyl_order,
)
from rankfilt.poly import Poly, prod
from rankfilt.spectra import first_stage_descriptor


def compositions_of(k):
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in compositions_of(k - first):
            yield (first,) + rest


# -- real dimension -----------------------------------------------------------


def test_real_dimension_examples():
    assert real_dimension(OrbitDescriptor(2, (Block(1),), 1)) == 2
    assert real_dimension(OrbitDescriptor(3, (Block(2),), 1)) == 4
    assert real_dimension(OrbitDescriptor(4, (Block(1, 2),), 2)) == 11
    # fixed subspaces contribute nothing: the unit sphere in C^2
    assert real_dimension(OrbitDescriptor(2, (), 1)) == 3


# -- coinvariant characters ---------------------------------------------------


def numerator(k):
    """prod_{i=1..k} (1 - q^i), built fresh."""
    out = Poly.one()
    for i in range(1, k + 1):
        out = out * Poly.one_minus(i)
    return out


def test_graded_char_examples():
    assert graded_char_coinv((1, 1), 2, numerator(2)) == Poly({0: 1, 1: 1})
    assert graded_char_coinv((2,), 2, numerator(2)) == Poly({0: 1, 1: -1})
    assert graded_char_coinv((3,), 3, numerator(3)) == Poly({0: 1, 1: -1, 2: -1, 3: 1})


def test_graded_char_identity_is_q_factorial():
    for k in range(1, 7):
        char = graded_char_coinv((1,) * k, k, numerator(k))
        qfact = Poly.one()
        for i in range(1, k + 1):
            qfact = qfact * Poly({d: 1 for d in range(i)})
        assert char == qfact
        assert char.degree() == k * (k - 1) // 2


def test_graded_char_bad_partition():
    with pytest.raises(DescriptorError):
        graded_char_coinv((2, 2), 3, numerator(3))


def test_graded_char_with_a_shared_numerator():
    # one numerator serves every cycle type of S_k, as in a Molien average,
    # and each character is the quotient built from scratch
    for k in range(1, 9):
        shared = numerator(k)
        for r in range(1, k + 1):
            for part in partitions_into(k, r):
                den = Poly.one()
                for c in part:
                    den = den * Poly.one_minus(c)
                char = graded_char_coinv(part, k, shared)
                assert char == divide_exact(numerator(k), den)
                assert char * den == numerator(k)
        assert shared == numerator(k)


def test_graded_char_non_exact_division_raises():
    # (1 - q)(1 - q^2) is not divisible by 1 - q^3
    with pytest.raises(ArithmeticError, match="non-exact"):
        graded_char_coinv((3,), 3, numerator(2))


def _cube_stabilizers(m_max):
    """Every stabilizer of the plain cubes with m <= ``m_max``."""
    found = set()
    for m in range(1, m_max + 1):
        memo.clear()
        found.update(d for v in cube_report(m, chains=True).vertices for _, d, _ in v.chains)
    memo.clear()
    return found


def test_molien_matches_the_division_oracle():
    # every flag with k <= 8, U(k)/S_k wr(1) for k <= 10, and every
    # stabilizer of the plain cubes with m <= 7
    found = [
        OrbitDescriptor(k, tuple(Block(a) for a in part), 0).canonicalize()
        for k in range(1, 9)
        for r in range(1, k + 1)
        for part in partitions_into(k, r)
    ]
    found += [parse_descriptor("U(%d)/S%dwr(1)" % (k, k)) for k in range(1, 11)]
    found += _cube_stabilizers(7)
    assert len(set(found)) == 166
    for d in set(found):
        assert molien_poincare(d) == molien_poincare_oracle(d), d


def test_first_stage_closed_form_at_large_k():
    # U(k)/(1)xU(k-1) is CP^(k-1): the Molien series lists no cycle type of
    # S_(k-1), so k = 40 is as cheap as k = 8
    for k in (16, 24, 32, 40):
        assert molien_poincare(first_stage_descriptor(k, 1)) == Poly({2 * i: 1 for i in range(k)})


# -- cycle indices ------------------------------------------------------------


def test_sym_cycle_index_weights():
    for n in range(1, 7):
        z = sym_cycle_index(n)
        assert all(type(c) is int for c in z.values())
        assert sum(z.values()) == [1, 1, 2, 6, 24, 120, 720][n]
        assert z[(1,) * n] == 1 and z[(n,)] == math.factorial(n - 1)


def test_wreath_cycle_index_s2_wr_s2():
    d = OrbitDescriptor(4, (Wreath(Wreath(Block(1), 2), 2),), 0)
    assert descriptor_cycle_index(d) == {
        (1, 1, 1, 1): 1,
        (2, 1, 1): 2,
        (2, 2): 3,
        (4,): 2,
    }


def _finite_part_order(u):
    """Closed form: copies! * (inner order)^copies at each Wreath node."""
    if isinstance(u, Block):
        return 1
    if isinstance(u, Wreath):
        return math.factorial(u.copies) * _finite_part_order(u.inner) ** u.copies
    out = 1
    for v in u.units:
        out *= _finite_part_order(v)
    return out


def test_cycle_index_matches_automorphism_count():
    cases = [
        OrbitDescriptor(4, (Wreath(Block(1), 2), Block(1), Block(1)), 0),
        OrbitDescriptor(4, (Wreath(Bunch((Block(1), Block(1))), 2),), 0),
        OrbitDescriptor(6, (Wreath(Block(2), 2), Wreath(Block(1), 2)), 0),
    ]
    cases += sorted(_cube_stabilizers(7), key=str) + list(_with_finite_part())
    commensurable = 0
    for d in cases:
        assert sum(generator_cycle_index(d).values()) == finite_part_order(d), d
        if not d.is_torus_commensurable():
            continue
        commensurable += 1
        z = descriptor_cycle_index(d)
        finite_part = _finite_part_order(Bunch(d.units))
        block_weyl = 1
        for b in d.blocks():
            f = 1
            for i in range(1, b.size + 1):
                f *= i
            block_weyl *= f
        comp = 1
        for i in range(1, d.complement + 1):
            comp *= i
        assert z[(1,) * d.k] == 1
        assert sum(z.values()) == finite_part * block_weyl * comp == weyl_order(d), d
    assert commensurable > 100


def test_cycle_index_matches_enumeration():
    # the counts of W <= S_k by listing W, on every stabilizer of the plain
    # cubes with m <= 6 and on nested wreaths
    found = _cube_stabilizers(6) | {parse_descriptor(text) for text in [
        "U(4)/S2wrS2wr(1)", "U(6)/S3wr(2)", "U(6)/S2wrS3wr(1)", "U(6)/S2wrS2wr(1)x(2)",
    ]}
    assert len(found) == 72
    for d in found:
        assert d.is_torus_commensurable() and d.k <= 7
        assert descriptor_cycle_index(d) == cycle_index_by_enumeration(d), d


def test_generator_series_matches_the_listed_cycle_index():
    # generator_series runs n*h_n = sum_j p_j h_(n-j) on integer series;
    # the oracle sums count / prod (1 - q^m) over every listed cycle type
    top = 24
    cases = _cube_stabilizers(7) | set(_with_finite_part())
    assert len(cases) > 100
    for d in cases:
        listed = Poly.zero(top)
        for part, count in generator_cycle_index(d).items():
            listed = listed + prod((Poly.geometric(m, top) for m in part), top) * count
        assert generator_series(d, top) == [listed[i] for i in range(top + 1)], d


def test_size_sums_match_the_leaf_lists(monkeypatch):
    # fixed and is_torus_commensurable read the size sums of the top-level
    # units; the oracles walk every leaf block
    found = set(_cube_stabilizers(6))
    for m, l, k in [(3, 2, 8), (4, 2, 10), (3, 3, 12)]:
        memo.clear()
        found.update(d for v in cube_report(m, l, k, chains=True).vertices
                     for _, d, _ in v.chains)
    memo.clear()
    # every spelling of the cache-stream benchmark pool
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    spellings = [text for _, texts in importlib.import_module("cases").pool() for text in texts]
    assert len(spellings) == 132
    found.update(parse_descriptor(text) for text in spellings)
    # fixed parts, tensor multiplicities and nested wreaths, by hand
    found.update(_with_finite_part())
    found.update([
        OrbitDescriptor(6, (Block(2), Block(1)), 1),
        OrbitDescriptor(9, (Wreath(Block(1, 2), 2), Block(2)), 1),
        OrbitDescriptor(9, (Wreath(Wreath(Block(1), 2), 2), Block(2, 2)), 0),
        OrbitDescriptor(14, (Wreath(Bunch((Block(1), Wreath(Block(1, 3), 2))), 2),), 0),
        OrbitDescriptor(12, (Wreath(Bunch((Block(2), Wreath(Block(1), 3))), 2),), 1),
        parse_descriptor("U(8)/S2wrS2wr(2)"),
        parse_descriptor("U(7)/S2wr{(1)xS2wr(1)}xU(0)"),
    ])
    kinds = set()
    for d in found:
        assert d.fixed == fixed_oracle(d), d
        assert d.is_torus_commensurable() == torus_commensurable_oracle(d), d
        kinds.add((d.fixed > 0, any(b.mult > 1 for b in d.blocks()), d.is_torus_commensurable()))
    # every way to fail commensurability is met, and commensurable ones too
    assert kinds >= {(True, False, False), (False, True, False), (True, True, False),
                     (False, False, True)}
    with pytest.raises(DescriptorError):
        OrbitDescriptor(5, (Wreath(Bunch((Block(1), Block(1, 2))), 2),), 0)


# -- Molien engine -------------------------------------------------------------


def test_molien_examples():
    pairs = OrbitDescriptor(2, (Wreath(Block(1), 2),), 0)
    assert molien_poincare(pairs) == Poly({0: 1})
    flag31 = OrbitDescriptor(3, (Block(2), Block(1)), 0)
    assert molien_poincare(flag31) == Poly({0: 1, 2: 1, 4: 1})
    triples = OrbitDescriptor(3, (Wreath(Block(1), 3),), 0)
    assert molien_poincare(triples) == Poly({0: 1})


def test_normalizer_triviality_through_6():
    for m in range(1, 7):
        d = OrbitDescriptor(m, (Wreath(Block(1), m),), 0)
        assert molien_poincare(d) == Poly({0: 1})


def test_oracle_agreement_all_compositions():
    for k in range(1, 7):
        for comp in compositions_of(k):
            d = OrbitDescriptor(k, tuple(Block(c) for c in comp[:-1]), comp[-1])
            assert molien_poincare(d) == flag_poincare_oracle(comp), comp


def test_molien_shape_properties():
    rng = random.Random(99)
    descriptors = []
    for k in range(2, 6):
        for comp in compositions_of(k):
            units = [Block(c) for c in comp]
            # randomly wreath together identical prefixes
            if len(units) >= 2 and units[0] == units[1] and rng.random() < 0.5:
                units = [Wreath(units[0], 2)] + units[2:]
            descriptors.append(OrbitDescriptor(k, tuple(units), 0))
    for d in descriptors:
        p = molien_poincare(d)
        assert p[0] == 1
        assert all(c > 0 for c in p.coeffs.values())
        assert p.is_palindromic()
        assert all(deg % 2 == 0 for deg in p.coeffs)


def test_molien_rejects_tensor_blocks():
    with pytest.raises(NotTorusCommensurable):
        molien_poincare(OrbitDescriptor(4, (Block(1, 2),), 2))
    with pytest.raises(NotTorusCommensurable):
        molien_poincare(OrbitDescriptor(2, (), 1))  # fixed subspace present


# -- flag oracle ----------------------------------------------------------------


def test_flag_oracle_examples():
    assert flag_poincare_oracle((1, 1)) == Poly({0: 1, 2: 1})
    assert flag_poincare_oracle((2, 2)) == Poly({0: 1, 2: 1, 4: 2, 6: 1, 8: 1})
    assert flag_poincare_oracle((4,)) == Poly({0: 1})


def test_gaussian_binomial_symmetry():
    for n in range(8):
        for j in range(n + 1):
            assert gaussian_binomial(n, j) == gaussian_binomial(n, n - j)
            # specialization q -> 1 gives the ordinary binomial
            total = sum(gaussian_binomial(n, j).coeffs.values())
            import math

            assert total == math.comb(n, j)


# -- canonicalization and the grammar ---------------------------------------------


def test_canonicalization_shuffle_invariance():
    rng = random.Random(3)
    base_units = [Wreath(Block(1), 2), Block(2), Block(1), Wreath(Bunch((Block(1), Block(2))), 2)]
    k = sum(b.size for u in base_units for b in OrbitDescriptor(12, (u,), 0).blocks()) + 2
    canon = OrbitDescriptor(k, tuple(base_units), 2).canonicalize()
    for _ in range(50):
        shuffled = list(base_units)
        rng.shuffle(shuffled)
        # also shuffle inside a bunch
        shuffled = [
            Wreath(Bunch((Block(2), Block(1))), 2) if isinstance(u, Wreath) and isinstance(u.inner, Bunch) else u
            for u in shuffled
        ]
        d = OrbitDescriptor(k, tuple(shuffled), 2).canonicalize()
        assert d == canon
        assert d.canonical_string() == canon.canonical_string()
        assert molien_poincare(d) == molien_poincare(canon)


def test_canonicalize_idempotent_and_unwraps():
    d = OrbitDescriptor(3, (Wreath(Block(1), 1), Bunch((Block(2),))), 0).canonicalize()
    assert d.units == (Block(1), Block(2))
    assert d.canonicalize() == d


def test_grammar_round_trip_spec_literals():
    cases = {
        "U(4)/[2x(1,1)|S2]xU(2)": OrbitDescriptor(4, (Wreath(Block(1), 2),), 2),
        "U(3)/[S2wr(1)|x(1)]": OrbitDescriptor(3, (Wreath(Block(1), 2), Block(1)), 0),
        "U(2)/[S2wr(1)]": OrbitDescriptor(2, (Wreath(Block(1), 2),), 0),
        "U(2)/[(1)x(1)]": OrbitDescriptor(2, (Block(1), Block(1)), 0),
        "U(2)/U(1)": OrbitDescriptor(2, (), 1),
        "U(3)/e": OrbitDescriptor(3, (), 0),
        "U(4)/(1,2)xU(2)": OrbitDescriptor(4, (Block(1, 2),), 2),
        "U(4)/S2wr{(1)x(1)}": OrbitDescriptor(4, (Wreath(Bunch((Block(1), Block(1))), 2),), 0),
    }
    for text, expected in cases.items():
        got = parse_descriptor(text)
        assert got == expected.canonicalize(), text
        assert parse_descriptor(got.canonical_string()) == got


def test_canonical_string_round_trips_beside_a_fixed_part():
    unit_lists = [(), (Block(1),), (Block(2), Block(1)), (Block(1, 2),), (Wreath(Block(1), 2),)]
    fixed = {True: 0, False: 0}  # descriptors with a fixed part, by c > 0
    for k in range(1, 7):
        for units in unit_lists:
            for c in range(k + 1):
                try:
                    d = OrbitDescriptor(k, units, c).canonicalize()
                except DescriptorError:
                    continue
                assert parse_descriptor(d.canonical_string()) == d, d.canonical_string()
                if d.fixed:
                    fixed[c > 0] += 1
    assert min(fixed.values()) > 10
    assert OrbitDescriptor(3, (Block(1),), 0).canonical_string() == "U(3)/(1)xU(0)"


def test_grammar_cli_values():
    assert molien_poincare(parse_descriptor("U(3)/[S2wr(1)|x(1)]")) == Poly({0: 1, 2: 1, 4: 1})
    assert molien_poincare(parse_descriptor("U(2)/[S2wr(1)]")) == Poly({0: 1})
    assert molien_poincare(parse_descriptor("U(2)/[(1)x(1)]")) == Poly({0: 1, 2: 1})


def test_grammar_rejects_garbage():
    for bad in ["U(3)", "U(3)/bogus", "U(3)/(4)", "U(2)/U(1)xU(1)x(1)", "U(3)/[S3]"]:
        with pytest.raises(DescriptorError):
            parse_descriptor(bad)


@pytest.mark.parametrize("text, canonical", [
    ("U(4)/2x(2)", "U(4)/(2)x(2)"),
    ("U(4)/2x(1,1)xS2xU(2)", "U(4)/S2wr(1)xU(2)"),
    ("U(4)/|(1)||(3)|", "U(4)/(1)x(3)"),
    ("U(2)/0x(1)x(2)", "U(2)/(2)"),  # a zero-fold term adds nothing
    ("U(3)/[2x(1)|S2]", "U(3)/S2wr(1)xU(1)"),
    ("U(4)/[[2x(1)|S2]]", "U(4)/S2wr(1)xU(2)"),
    ("U(5)/{(1)|(2)}", "U(5)/(1)x(2)xU(2)"),
])
def test_grammar_shorthand_spellings(text, canonical):
    assert parse_descriptor(text).canonical_string() == canonical


@pytest.mark.parametrize("text, message", [
    ("U(3)/[2x(1)]S2", "no matching 2-fold term"),  # a bracket ends the term
    ("U(3)/2x(1)xU(1)xS2", "no matching 2-fold term"),  # a complement comes between
    ("U(3)/S2", "no matching 2-fold term"),
    ("U(4)/[U(1)]xU(2)", "more than one complement factor"),
    ("U(3)/[(1)", "unterminated '['"),
    ("U(3)/(1)]", "cannot parse a unit"),
    ("U(4)/2x2x(1)", "cannot parse a unit"),
    ("U(3)/S0wr(1)", "wreath copy count must be >= 1"),
    ("U(3)/0x(1)|S0", "wreath copy count must be >= 1"),
    ("U(4)/(1,)", "expected an integer"),
    ("U(\u00b2)/e", "expected an integer"),  # digits are ASCII 0-9 only
    ("U(4)/\u00b2x(1)xU(2)", "cannot parse a unit"),
    ("U(\u0663)/e", "expected an integer"),
    ("U(3)/(\u0661)xU(2)", "expected an integer"),
])
def test_grammar_rejection_messages(text, message):
    with pytest.raises(DescriptorError, match=re.escape(message)):
        parse_descriptor(text)


def test_partitions_of():
    assert {p for r in range(5) for p in partitions_into(4, r)} == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
