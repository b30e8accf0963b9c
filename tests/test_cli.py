"""Command-line behaviour: outputs, exit codes, determinism, cache."""

import json
import math
import os
import time

import pytest

from rankfilt import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_summands_rows(capsys):
    code, out, _ = run(capsys, "summands", "2", "1", "1")
    assert code == 0
    assert "summands k=2 l=1 t=1" in out and "(1)" in out and "(2)" in out

    code, out, _ = run(capsys, "summands", "1", "2", "3")
    assert code == 0
    assert "contractible" in out

    code, out, _ = run(capsys, "summands", "4", "1", "2", "--max-rank", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["tuples"]) == 5


def test_summands_usage_error(capsys):
    code, _, err = run(capsys, "summands", "0", "1", "1")
    assert code == 2
    assert "error" in err


def test_negative_subquotient_stage_is_named(capsys):
    code, out, err = run(capsys, "summands", "2", "1", "1", "--subquotient", "-1")
    assert code == 2 and out == ""
    assert err == "error: need subquotient stage m >= 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        "summands 4 1 2 --positive",
        "summands 4 1 2 --latching --subquotient 2",
        "summands 4 1 2 --max-rank 1 --subquotient 2",
        "summands 4 1 2 --json --csv",
        "report 4 2 --json --csv",
    ],
)
def test_ignored_flag_combinations_are_usage_errors(capsys, argv):
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:  # argparse rejects conflicting flags itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err


def test_poincare_values(capsys):
    for desc, expected in [
        ("U(3)/[S2wr(1)|x(1)]", "1 + t^2 + t^4"),
        ("U(2)/[S2wr(1)]", "1"),
        ("U(2)/[(1)x(1)]", "1 + t^2"),
    ]:
        code, out, _ = run(capsys, "poincare", desc)
        assert code == 0
        assert out.strip() == expected


def test_poincare_engines_agree(capsys):
    code, out, _ = run(capsys, "poincare", "U(3)/(2)x(1)", "--engine", "molien")
    code2, out2, _ = run(capsys, "poincare", "U(3)/(2)x(1)", "--cutoff", "10")
    assert code == code2 == 0
    assert out.strip() == out2.strip() == "1 + t^2 + t^4"


def test_poincare_bad_descriptor(capsys):
    code, _, err = run(capsys, "poincare", "U(3)/wat")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("text", ["U(3)/", "U(3)/x", "U(3)/[]"])
def test_descriptor_needs_a_factor(capsys, text):
    code, out, err = run(capsys, "poincare", text)
    assert code == 2 and out == "" and "expected a factor" in err


@pytest.mark.parametrize("text", ["U(3)/e(1)", "U(3)/ex(1)xU(2)"])
def test_trivial_isotropy_marker_stands_alone(capsys, text):
    code, out, err = run(capsys, "poincare", text)
    assert code == 2 and out == "" and "must stand alone" in err


def test_poincare_engine_mismatch_exit_code(capsys, monkeypatch):
    from rankfilt import cartan
    from rankfilt.poly import Poly

    cartan.memo.clear()
    # palindromic of top degree dim = 4: only the engine comparison can object
    monkeypatch.setattr(cartan, "molien_poincare", lambda d: Poly({0: 1, 2: 9, 4: 1}))
    code, _, err = run(capsys, "poincare", "U(3)/(1)x(2)", "--cutoff", "6")
    assert code == 3
    assert "mismatch" in err
    cartan.memo.clear()


@pytest.fixture
def small_budget(monkeypatch):
    """A basis budget of 2, with the memo cleared on both sides."""
    from rankfilt import cartan

    cartan.memo.clear()
    monkeypatch.setattr(cartan, "BASIS_BUDGET", 2)
    yield
    cartan.memo.clear()


def test_resource_limit_exit_code(capsys, small_budget):
    code, _, err = run(
        capsys, "poincare", "U(4)/(1,2)xU(2)", "--engine", "cartan", "--cutoff", "8"
    )
    assert code == 5
    assert "resource limit" in err and "degree" in err


def test_basis_budget_reaches_every_engine_command(capsys, small_budget):
    for argv in (["poincare", "U(4)/(1,2)xU(2)"], ["cube", "2", "--l", "2", "--k", "5"],
                 ["report", "4", "2"]):
        code, _, err = run(capsys, *argv)
        assert code == 5 and "resource limit" in err, argv


def test_config_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", "x.json", "cube", "3"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("usage: rankfilt")


def test_negative_cutoff_is_a_usage_error(capsys):
    commands = (
        ["poincare", "U(3)/(1,2)xU(1)"],
        ["poincare", "U(3)/(1,2)xU(1)", "--json"],
        ["cube", "2", "--l", "2", "--k", "5"],
        ["report", "4", "2"],
        ["ku-series", "1", "1"],
    )
    for argv in commands:
        code, out, err = run(capsys, *argv, "--cutoff", "-1")
        assert code == 2 and out == "" and "cutoff" in err, argv


def test_invariant_violation_exit_code(capsys, monkeypatch):
    from rankfilt import cartan

    chern_images = cartan.KoszulComplex._chern_images

    def lopsided(self, through):
        # add the first Chern root of leaf 0 alone to c_1: no longer symmetric
        chern = chern_images(self, through)
        mono = [0] * self.nvars
        mono[self.leaf_var_start[0]] = 1
        chern[0] = dict(chern[0])
        chern[0][tuple(mono)] = chern[0].get(tuple(mono), 0) + 1
        return chern

    cartan.memo.clear()
    monkeypatch.setattr(cartan.KoszulComplex, "_chern_images", lopsided)
    code, out, err = run(capsys, "poincare", "U(4)/S2wr(1)xU(2)", "--engine", "cartan")
    assert code == 6 and out == ""
    assert len(err.splitlines()) == 1 and "invariant violation" in err
    cartan.memo.clear()


def test_python_dash_m_runs_the_cli():
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "rankfilt", "report", "3", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("report k=3 l=1: 3 stages, pi0 = 1")


def test_cube_text_and_exit(capsys):
    code, out, _ = run(capsys, "cube", "3")
    assert code == 0
    assert "X({2}): 1 + t^2 + t^4" in out
    assert "verified: True" in out


def test_cube_m_max_guard(capsys):
    code, _, err = run(capsys, "cube", "5")
    assert code == 2 and "M_max" in err
    code, out, _ = run(capsys, "cube", "5", "--allow-large")
    assert code == 0


def test_cube_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "cube", "3", "--json")
    code2, out2, _ = run(capsys, "cube", "3", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verified"] is True


def test_report_text(capsys):
    code, out, _ = run(capsys, "report", "2", "2")
    assert code == 0
    assert "one-stage" in out and "1 + t^3" in out and "pi0 = 1" in out

    code, out, _ = run(capsys, "report", "1", "2")
    assert code == 0
    assert "vanishes" in out

    code, out, _ = run(capsys, "report", "4", "1", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "k,l,m,prime_power,verdict,poincare"


def test_ku_series(capsys):
    code, out, _ = run(capsys, "ku-series", "1", "1", "--cutoff", "12")
    assert code == 0
    assert out.strip() == "1 + t^2 + t^4 + t^6 + t^8 + t^10 + t^12"


def test_ku_series_sample_ranks_are_checked(capsys):
    args = ("ku-series", "1", "2", "--cutoff", "6", "--max-rank", "2")
    code, plain, _ = run(capsys, *args)
    assert code == 0
    code, checked, _ = run(capsys, *args, "--sample-k", "6", "--sample-k", "8")
    assert code == 0 and checked == plain
    # rank-2 tuples do not fit in U(1): the check runs and rejects the sample
    code, _, err = run(capsys, *args, "--sample-k", "1")
    assert code == 2 and "ambient rank too small" in err


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    # a usage error, a valid query, then an append option given twice: each
    # prints in one shared process what it prints in a fresh one
    import subprocess
    import sys

    calls = [
        ("poincare", "U(2)/(1)x(1)", "--engine", "bogus"),
        ("poincare", "U(4)/(2)x(1)x(1)"),
        ("ku-series", "1", "2", "--cutoff", "6", "--max-rank", "2",
         "--sample-k", "6", "--sample-k", "8"),
    ]
    monkeypatch.delenv("RANKFILT_CACHE", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert cli.build_parser() is cli.build_parser()
    codes = []
    for argv in calls:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "rankfilt", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [2, 0, 0]


def test_cache_transparency_and_audit(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    args = ("poincare", "U(4)/[2x(1,1)|S2]xU(2)")
    code, cold, _ = run(capsys, *args, "--cache", str(cache))
    assert code == 0 and cache.exists()
    code, warm, _ = run(capsys, *args, "--cache", str(cache))
    assert code == 0
    code, bare, _ = run(capsys, *args)
    assert cold == warm == bare

    code, out, _ = run(capsys, *args, "--cache", str(cache), "--verify-cache")
    assert code == 0 and "audit passed" in out

    # tampering makes the audit fail with the verification exit code
    doc = json.loads(cache.read_text())
    key = next(iter(doc["entries"]))
    doc["entries"][key]["value"]["2"] = 99
    cache.write_text(json.dumps(doc))
    code, _, err = run(capsys, *args, "--cache", str(cache), "--verify-cache")
    assert code == 4 and "audit FAILED" in err


def test_corrupt_cache_is_ignored(capsys, tmp_path):
    cache = tmp_path / "broken.json"
    cache.write_text("{ not json")
    code, out, err = run(capsys, "poincare", "U(2)/[(1)x(1)]", "--cache", str(cache))
    assert code == 0
    assert out.strip() == "1 + t^2"
    assert "warning" in err


def test_env_cache_path(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envcache.json"
    monkeypatch.setenv("RANKFILT_CACHE", str(cache))
    code, out, _ = run(capsys, "poincare", "U(2)/[(1)x(1)]")
    assert code == 0 and cache.exists()


def test_verify_cache_needs_a_cache_path(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("RANKFILT_CACHE", raising=False)
    code, out, err = run(capsys, "poincare", "U(2)/(1)x(1)", "--verify-cache")
    assert code == 2 and out == ""
    assert "--cache" in err and "RANKFILT_CACHE" in err
    # a missing or empty cache file is a cache with nothing to audit
    (tmp_path / "empty.json").write_text("")
    for name in ("missing.json", "empty.json"):
        args = ("poincare", "U(2)/(1)x(1)", "--cache", str(tmp_path / name), "--verify-cache")
        code, out, _ = run(capsys, *args)
        assert code == 0 and "audit passed: 0 entries" in out
    monkeypatch.setenv("RANKFILT_CACHE", str(tmp_path / "env.json"))
    code, out, _ = run(capsys, "poincare", "U(2)/(1)x(1)", "--verify-cache")
    assert code == 0 and "audit passed: 0 entries" in out


def test_stale_cache_entry_is_recomputed(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    args = ("poincare", "U(3)/(2)x(1)", "--cache", str(cache))
    code, fresh, _ = run(capsys, *args)
    assert code == 0 and fresh.strip() == "1 + t^2 + t^4"
    # the same key, written by another engine version with a wrong value
    doc = json.loads(cache.read_text())
    (key,) = doc["entries"]
    doc["entries"][key].update(value={"0": 1, "2": 5}, engine_version="rankfilt-0.0.0")
    cache.write_text(json.dumps(doc))
    code, out, _ = run(capsys, *args)
    assert code == 0 and out == fresh
    entry = json.loads(cache.read_text())["entries"][key]
    assert entry["engine_version"] == cli.engine_version()
    assert entry["value"] == {"0": 1, "2": 1, "4": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def test_cache_entry_from_other_engine_source_is_a_miss(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache.json"
    args = ("poincare", "U(3)/(2)x(1)", "--cache", str(cache))
    code, _, _ = run(capsys, *args)
    assert code == 0
    (key,) = json.loads(cache.read_text())["entries"]
    assert cli.ResultCache(str(cache)).get(key) is not None
    # the same file, read by an engine whose source has changed
    monkeypatch.setattr(cli, "engine_version", lambda: "rankfilt-00000000")
    assert cli.ResultCache(str(cache)).get(key) is None


def test_cache_entry_that_is_not_a_map_is_a_miss(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    args = ("poincare", "U(3)/(2)x(1)", "--cache", str(cache))
    code, fresh, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(cache.read_text())
    (key,) = doc["entries"]
    for value in ("1 + t^2", [1, 0, 1], None):
        doc["entries"][key]["value"] = value
        cache.write_text(json.dumps(doc))
        code, out, _ = run(capsys, *args)
        assert code == 0 and out == fresh, value
        assert json.loads(cache.read_text())["entries"][key]["value"] == {"0": 1, "2": 1, "4": 1}


def test_cache_file_does_not_depend_on_the_clock(capsys, tmp_path, monkeypatch):
    args = ("poincare", "U(3)/(2)x(1)", "--cache")
    assert run(capsys, *args, str(tmp_path / "now.json"))[0] == 0
    monkeypatch.setattr(time, "time", lambda: 0.0)
    assert run(capsys, *args, str(tmp_path / "epoch.json"))[0] == 0
    assert (tmp_path / "now.json").read_bytes() == (tmp_path / "epoch.json").read_bytes()
    # an entry written with the per-entry timestamp of older files still loads
    doc = json.loads((tmp_path / "now.json").read_text())
    (key,) = doc["entries"]
    doc["entries"][key]["timestamp"] = 1
    (tmp_path / "now.json").write_text(json.dumps(doc))
    code, out, _ = run(capsys, *args, str(tmp_path / "now.json"), "--verify-cache")
    assert code == 0 and "1 entries recomputed" in out


def test_cache_is_written_compact_and_indented_files_still_load(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    args = ("poincare", "U(3)/(2)x(1)", "--cache", str(cache))
    assert run(capsys, *args)[0] == 0
    text = cache.read_text()
    assert text.endswith("}\n") and "\n" not in text[:-1]
    # older versions wrote the same document with indent=1
    cache.write_text(json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n")
    code, out, _ = run(capsys, *args, "--verify-cache")
    assert code == 0 and "1 entries recomputed" in out


def test_cache_is_written_by_the_c_encoder(capsys, tmp_path, monkeypatch):
    # json.dump always streams through the pure-Python encoder, which
    # _make_iterencode builds; the save must not reach it
    args = ("poincare", "U(3)/(2)x(1)", "--cache")
    assert run(capsys, *args, str(tmp_path / "plain.json"))[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert run(capsys, *args, str(tmp_path / "c.json"))[0] == 0
    assert (tmp_path / "c.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_cache_audit_reports_an_unparsable_value(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    args = ("poincare", "U(3)/(2)x(1)", "--cache", str(cache))
    assert run(capsys, *args)[0] == 0
    doc = json.loads(cache.read_text())
    (key,) = doc["entries"]
    doc["entries"][key]["value"] = {"0": "one"}
    cache.write_text(json.dumps(doc))
    code, _, err = run(capsys, *args, "--verify-cache")
    assert code == 4
    assert "cache audit FAILED for %s: value differs" % key in err


def test_truncated_cache_is_ignored(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    args = ("poincare", "U(3)/(2)x(1)", "--cache", str(cache))
    code, fresh, err = run(capsys, *args)
    assert code == 0 and not err
    text = cache.read_text()
    cache.write_text(text[: len(text) // 2])
    code, out, err = run(capsys, *args)
    assert code == 0 and out == fresh
    assert "warning: ignoring cache" in err
    # the recomputed value replaced the torn document
    assert json.loads(cache.read_text())["entries"]


def test_ku_series_needs_a_positive_l(capsys):
    for l in ("0", "-3"):
        code, out, err = run(capsys, "ku-series", l, "1", "--cutoff", "4")
        assert code == 2 and out == "" and "need l >= 1" in err, l


def test_molien_duality_violation_exit_code(capsys, monkeypatch):
    from rankfilt import cartan
    from rankfilt.poly import Poly

    cartan.memo.clear()
    # palindromic, but U(3)/(1)x(2) has dimension 4, not 2
    monkeypatch.setattr(cartan, "molien_poincare", lambda d: Poly({0: 1, 2: 1}))
    code, out, err = run(capsys, "poincare", "U(3)/(1)x(2)")
    assert code == 6 and out == ""
    assert "invariant violation" in err and "U(3)/(1)x(2)" in err
    cartan.memo.clear()


@pytest.mark.parametrize(
    "descriptor, fake, message",
    [
        ("U(3)/(1)x(2)", {0: 2, 2: 1, 4: 2}, "b_0 = 2"),
        ("U(3)/(1)x(2)", {0: 1, 2: -1, 4: 1}, "negative Betti number"),
        ("U(3)/S3wr(1)", {0: 1, 8: 1}, "above the dimension 6"),
        ("U(3)/(1)x(2)", {0: 1, 1: 1, 2: 2, 4: 1}, "Poincare duality"),
        ("U(3)/(1)x(2)", {0: 1, 2: 2, 4: 1}, "Euler characteristic 4, not 3"),
        ("U(3)/S3wr(1)", {0: 1, 2: 1}, "Euler characteristic 2, not 1"),
    ],
    ids=["b0", "negative", "above-dimension", "duality", "euler", "euler-finite-part"],
)
def test_each_invariant_exits_6(capsys, monkeypatch, descriptor, fake, message):
    from rankfilt import cartan
    from rankfilt.poly import Poly

    cartan.memo.clear()
    monkeypatch.setattr(cartan, "molien_poincare", lambda d: Poly(fake))
    code, out, err = run(capsys, "poincare", descriptor)
    assert code == 6 and out == ""
    assert len(err.splitlines()) == 1 and message in err and descriptor in err
    cartan.memo.clear()


def test_cutoff_compares_molien_with_every_cartan_degree(capsys, monkeypatch):
    from rankfilt import cartan
    from rankfilt.poly import Poly

    cartan.memo.clear()
    # passes every invariant of U(3)/(1)x(2) and agrees with Cartan in degree 0
    fake = Poly({0: 1, 1: 1, 2: 3, 3: 1, 4: 1})
    monkeypatch.setattr(cartan, "molien_poincare", lambda d: fake)
    code, out, err = run(capsys, "poincare", "U(3)/(1)x(2)", "--cutoff", "0")
    assert code == 3 and out == ""
    assert "mismatch" in err and "molien: 1 + t + 3t^2 + t^3 + t^4" in err
    cartan.memo.clear()


def test_molien_average_meets_the_invariant_checks(capsys, monkeypatch):
    from rankfilt import cartan, orbitspace

    cartan.memo.clear()
    series = orbitspace.molien_sum
    monkeypatch.setattr(
        orbitspace, "molien_sum", lambda d, top: [2 * c for c in series(d, top)])
    code, out, err = run(capsys, "poincare", "U(3)/(1)x(2)")
    assert code == 6 and out == ""
    assert "invariant violation" in err and "b_0 = 2" in err and "Traceback" not in err
    cartan.memo.clear()


def test_a_cutoff_truncates_only_a_cartan_answer(capsys):
    # Molien: exact whatever the cutoff
    code, out, _ = run(capsys, "poincare", "U(2)/(1)x(1)", "--cutoff", "0")
    assert code == 0 and out.strip() == "1 + t^2"
    code, out, _ = run(capsys, "poincare", "U(2)/(1)x(1)", "--cutoff", "0", "--json")
    assert code == 0 and json.loads(out)["cutoff"] is None
    # Cartan: exact without a cutoff, truncated with one
    code, out, _ = run(capsys, "poincare", "U(3)/(1,2)xU(1)", "--json")
    exact = json.loads(out)
    assert code == 0 and exact["cutoff"] is None and exact["poincare"]["7"] == 1
    code, out, _ = run(capsys, "poincare", "U(3)/(1,2)xU(1)", "--cutoff", "3", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["cutoff"] == 3
    assert doc["poincare"] == {d: c for d, c in exact["poincare"].items() if int(d) <= 3}


def test_fixed_part_without_complement_passes_the_cache_audit(capsys, tmp_path):
    args = ("poincare", "U(3)/(1)xU(0)", "--cache", str(tmp_path / "cache.json"))
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0 and json.loads(out)["descriptor"] == "U(3)/(1)xU(0)"
    code, out, err = run(capsys, *args, "--verify-cache")
    assert code == 0 and not err
    assert "cache audit passed: 1 entries" in out


def test_witness_disagreement_exit_code(capsys, monkeypatch):
    from rankfilt import cartan
    from rankfilt.poly import Poly

    cartan.memo.clear()
    # passes every invariant of U(3)/(1,2)xU(1) (dimension 7, Euler characteristic 0)
    fake = Poly({0: 1, 1: 1, 6: 1, 7: 1})
    monkeypatch.setattr(cartan.KoszulComplex, "complete_intersection", lambda self: fake)
    code, out, err = run(capsys, "poincare", "U(3)/(1,2)xU(1)")
    assert code == 3 and out == ""
    assert "mismatch" in err and "koszul: 1 + t^2" in err
    assert "complete intersection: 1 + t + t^6 + t^7" in err
    cartan.memo.clear()


def test_report_json_states_the_first_stage_cutoff(capsys):
    code, out, _ = run(capsys, "report", "8", "3", "--json")
    assert code == 0 and json.loads(out)["first_stage_cutoff"] is None
    code, out, _ = run(capsys, "report", "4", "2", "--json", "--cutoff", "6")
    assert code == 0 and json.loads(out)["first_stage_cutoff"] == 6
    code, out, _ = run(capsys, "report", "1", "2", "--json")
    assert code == 0 and json.loads(out)["first_stage_cutoff"] is None


def test_non_integral_molien_average_exits_6(capsys, monkeypatch):
    from rankfilt import cartan, orbitspace

    cartan.memo.clear()
    series = orbitspace.molien_sum
    monkeypatch.setattr(
        orbitspace, "molien_sum",  # a second identity: 1/(1 - q)^k
        lambda d, top: [c + math.comb(i + d.k - 1, i) for i, c in enumerate(series(d, top))],
    )
    code, out, err = run(capsys, "poincare", "U(3)/(1)x(2)")
    assert code == 6 and out == ""
    assert "invariant violation" in err and "non-integral coefficient 3/2" in err
    assert "U(3)/(1)x(2)" in err and "Traceback" not in err
    cartan.memo.clear()


def _written(value):
    pieces = []
    cli.write_json(value, pieces.append)
    return "".join(pieces)


@pytest.mark.parametrize(
    "value",
    [
        # empty containers at each depth
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[]], {}], {"a": {"b": []}, "c": {}},
        [1, [], {}], {"a": 1, "b": [], "c": {}},
        # a bool must not take the plain-int path
        [1, True, None, -5], {"a": True, "b": 2}, [False], {"a": False}, [True, 1],
        # nested lists of tuples, and keys that sort as strings
        [(1, 2), [(3,), ()], ((4, 5), (6, [7]))], {"11": 1, "2": 2, "b": (1, 2), "a": [()]},
        # ints past 2**64, floats
        [2 ** 64, -(2 ** 70) - 1], {"big": 2 ** 65}, 0.1, 1e300, [0.1, 1e300], {"x": 0.1},
        # strings needing escapes: quote, backslash, control, non-ASCII, astral
        'a"b\\c', "tab\there\x01", "café ∃", "\U0001d11e",
        {'k"\\\x02é\U0001d11e': ['v"\\\x1f', "ü"]},
        # scalars
        None, True, False, 0, -3, "",
        # rows of plain ints, written from one template per length, beside
        # a bool in a row, an empty row, a row beside an int, rows one
        # level deeper, and negative and 40-digit entries
        [(0, 1, 2), (3, 4, 5)], [[1, True], [2, 3]], [[1, 2, 3], (4,), [5, 6]],
        [[1, 2], []], [(), (1,)], [[1, 2], 3], [3, (1, 2)], [[[1, 2], [3]], [[4]]],
        {"t": [[[1], (2, 3)]], "u": [(7,)]}, [[-1, 10 ** 40], (-(10 ** 39) - 7, 0)],
    ],
)
def test_write_json_matches_json_dumps(value):
    assert _written(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{(1,): 2}]])
def test_write_json_rejects_a_non_string_key(value):
    with pytest.raises(TypeError):
        _written(value)
