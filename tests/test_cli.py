import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import sidonlab
from sidonlab import LevelSet, Tower, pair_enclosure_grid, triple_enclosure_grid
from sidonlab.cli import main
from sidonlab.sidon import sidon_property_check
from tests.conftest import RUNNING_SPEC, deep_spec

GENERATOR = {"type": "optimal-sidon", "psi": {"kind": "power", "alpha": [1, 4]},
             "numStages": 2}
# psi(m) = (m + 2)^(1/4) as a table of m = 1..40: the same floats as the
# power psi at alpha = 1/4
TABLE_PSI = {"kind": "table", "table": [(m + 2) ** 0.25 for m in range(1, 41)]}
X2 = {"stage": 2, "ranges": [[0, 3]]}


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def read_report(path):
    """(provenance comment lines, header, rows) of one CSV report."""
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    rows = list(csv.reader(body))
    return comments, rows[0], rows[1:]


def assert_exit_contract(cmd: str, cfg: dict, report: str, *flags: str):
    """Run one config: it exits 0, 2 or 3 and writes its report only on
    exit 0; a failure prints one JSON diagnostic with its exit code, and a
    success prints nothing on stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "o"
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli([cmd, "--config", str(path), "--out", str(out), *flags])
        assert (out / report).exists() == (code == 0)
    assert code in (0, 2, 3)
    if code:
        (line,) = err.getvalue().splitlines()
        assert json.loads(line)["code"] == code
    else:
        assert err.getvalue() == ""


# Field values for the exit-contract fuzz.  A field that sets the cost of a
# run (sample counts, grid lengths, zmax) is drawn from small values or
# wrong types only, so that no draw runs long.
WRONG = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none())
ANY = st.one_of(st.integers(-1, 40), st.sampled_from([2**63, 10**30]), WRONG)
SMALL = st.one_of(st.integers(-1, 20), WRONG)
GRID = st.one_of(WRONG, st.lists(ANY, max_size=3))
EPSILON = st.builds(lambda a, b: {"num": a, "den": b}, st.integers(0, 3), st.integers(1, 3))
# sets of the running tower (heights 1, 3, 30)
LEVEL_SET = st.sampled_from([{"stage": 1, "ranges": [[0, 1]]},
                             {"stage": 2, "ranges": [[0, 1], [2, 3]]},
                             {"stage": 3, "ranges": [[0, 6], [12, 15], [29, 30]]}])


def replaced(values: dict):
    """Up to two fields of a config replaced, each by a draw from its
    strategy in ``values``."""
    field = st.sampled_from(sorted(values))
    return st.lists(field.flatmap(lambda k: st.tuples(st.just(k), values[k])),
                    max_size=2).map(dict)


@pytest.fixture()
def running_config(tmp_path):
    p = tmp_path / "running.json"
    p.write_text(json.dumps({"construction": RUNNING_SPEC.to_dict()}))
    return p


class TestBuild:
    def test_stage_table(self, running_config, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["build", "--config", str(running_config), "--out", str(out)]) == 0
        comments, header, rows = read_report(out / "stages.csv")
        assert comments[0].startswith("# config_sha256=")
        assert comments[1].startswith("# tool_version=")
        assert header == ["j", "h_j", "r_j", "mu_Ej_num", "mu_Ej_den",
                         "mu_Xj_num", "mu_Xj_den"]
        assert rows == [
            ["1", "1", "2", "1", "1", "1", "1"],
            ["2", "3", "3", "1", "2", "3", "2"],
            ["3", "30", "", "1", "6", "5", "1"],
        ]

    def test_generator_ledger(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "construction": {"generator": {
                "type": "optimal-sidon",
                "psi": {"kind": "power", "alpha": [1, 4]},
                "numStages": 4,
            }}
        }))
        out = tmp_path / "o"
        assert run_cli(["build", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_report(out / "generator_ledger.csv")
        assert header[:5] == ["j", "h_j", "r_j", "N_j", "q"]
        assert [r[4] for r in rows] == ["2", "3", "23"]
        assert all(r[-1] == "True" for r in rows)

    # the log psi finds each stage's threshold by bisection; stage 5 then
    # needs a Singer set far over the walk budget
    @pytest.mark.parametrize("stages, code", [(5, 0), (6, 2)])
    def test_log_psi_generator(self, tmp_path, capsys, stages, code):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"construction": {"generator": {
            **GENERATOR, "psi": {"kind": "log"}, "numStages": stages}}}))
        out = tmp_path / "o"
        assert run_cli(["build", "--config", str(cfg), "--out", str(out)]) == code
        if code:
            (line,) = capsys.readouterr().err.splitlines()
            err = json.loads(line)
            assert err["module"] == "sidon" and err["context"]["stage"] == 5
            assert not out.exists()
        else:
            _, header, rows = read_report(out / "generator_ledger.csv")
            assert len(rows) == stages - 1
            assert all(r[header.index("sqrt_ineq_ok")] == "True" for r in rows)

    def test_depth_flag(self, running_config, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["build", "--config", str(running_config),
                        "--out", str(out), "--depth", "2"]) == 0
        _, _, rows = read_report(out / "stages.csv")
        assert len(rows) == 2


    # The running construction with up to two fields replaced: h1, or the
    # stage list by one whose stages may have r, s or an unknown key
    # replaced; or a value that is not an object in its place.
    STAGE = st.integers(2, 3).flatmap(lambda r: st.fixed_dictionaries(
        {"r": st.just(r), "s": st.lists(st.integers(0, 9), min_size=r, max_size=r)}))
    ANY_STAGE = st.builds(lambda a, b: {**a, **b}, STAGE,
                          replaced({"r": ANY, "s": st.one_of(ANY, st.lists(ANY, max_size=4)),
                                    "bogus": ANY}))
    BASE = st.fixed_dictionaries({"h1": st.integers(1, 3),
                                  "stages": st.lists(STAGE, min_size=1, max_size=3)})
    CHANGES = replaced({"h1": ANY, "stages": st.one_of(WRONG, st.lists(ANY_STAGE, max_size=3)),
                        "bogus": ANY})

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(construction=st.one_of(st.builds(lambda a, b: {**a, **b}, BASE, CHANGES), ANY))
    def test_fuzz_exit_contract(self, construction):
        assert_exit_contract("build", {"construction": construction}, "stages.csv")


class TestErrors:
    def test_malformed_json_no_partial_output(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"construction": ')
        out = tmp_path / "o"
        assert run_cli(["build", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and "JSON" in err["message"]
        assert not (out / "stages.csv").exists()

    # Configs that json.loads refuses with other errors than JSONDecodeError
    @pytest.mark.parametrize("raw, words", [
        (b"\xff\xff{}", "utf-8"),
        (b"[" * 200_000 + b"]" * 200_000, "nested too deeply"),
        (b'{"construction": ' + b"7" * 4301 + b"}", "4300"),
    ], ids=["not-utf8", "deep-nesting", "long-integer"])
    def test_malformed_config_exit2(self, tmp_path, capsys, raw, words):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(raw)
        out = tmp_path / "o"
        assert run_cli(["build", "--config", str(cfg), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["code"] == 2 and err["message"].startswith("malformed JSON: ")
        assert words in err["message"]
        assert not out.exists()

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        d = {"construction": RUNNING_SPEC.to_dict()}
        d["construction"]["bogus"] = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(d))
        assert run_cli(["build", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "unknown keys" in err["message"]

    def test_missing_seed_is_config_error(self, running_config, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(["flow", "--config", str(running_config), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "--seed" in err["message"]
        assert not (out / "flow.csv").exists()

    def test_needs_more_stages_exit3(self, tmp_path, capsys):
        cfg = tmp_path / "corr.json"
        cfg.write_text(json.dumps({
            "construction": RUNNING_SPEC.to_dict(),
            "A": {"stage": 2, "ranges": [[0, 3]]},
            "B": {"stage": 2, "ranges": [[0, 3]]},
            "m": 1000,
        }))
        assert run_cli(["corr", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["module"] == "core-construction"
        assert err["context"]["required_depth"] >= 4

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli(["build", "--config", str(tmp_path / "nope.json")]) == 2

    # A Poisson marginal past the float range: 20 points in a stage-2 tower
    # of measure about 5e29.  Its probability underflows to 0.0.
    def test_marginal_past_float_range(self, tmp_path):
        whole = {"stage": 2, "ranges": [[0, 2 + 10**30]]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "construction": {"h1": 1, "stages": [{"r": 2, "s": [0, 10**30]}]},
            "mode": "mixing", "n_grid": [0],
            "events": [{"set": whole, "count": 20},
                       {"set": {"stage": 1, "ranges": [[0, 1]]}, "count": 0}]}))
        out = tmp_path / "o"
        assert run_cli(["poisson", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_report(out / "poisson.csv")
        assert header[:4] == ["n", "joint_lo", "joint_hi", "product"]
        assert rows == [["0", "0.0", "0.0", "0.0", "0.0", "0.0"]]

    # h_3 - h_2 = 2^64 + 3 shifts to check at stride 1
    def test_check_sidon_too_many_shifts(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "construction": {"h1": 1, "stages": [{"r": 2, "s": [0, 1]},
                                                 {"r": 2, "s": [0, 2**64]}]},
            "stage": 2, "escape_depth": 0}))
        out = tmp_path / "o"
        assert run_cli(["check-sidon", "--config", str(cfg), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["context"]["field"] == "m_stride"
        assert f"{2**64 + 3} shifts" in err["message"]
        assert not out.exists()

    # A Poisson triple of 1000 points per event: about 4e10 convolution
    # terms, refused before any law is evaluated
    def test_poisson_counts_past_the_term_bound(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "construction": RUNNING_SPEC.to_dict(), "mode": "triple", "mn_grid": [[0, 1]],
            "events": [{"set": X2, "count": 1000}] * 3}))
        out = tmp_path / "o"
        assert run_cli(["poisson", "--config", str(cfg), "--out", str(out)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["code"] == 3 and err["message"].startswith("ValueError")
        assert "[1000, 1000, 1000]" in err["message"]
        assert not out.exists()

    def test_summary_past_float_range(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": {"h1": 1, "stages": [{"r": 2,
                                                                         "s": [0, 10**400]}]}}))
        out = tmp_path / "o"
        assert run_cli(["build", "--config", str(cfg), "--out", str(out)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["code"] == 3 and err["message"].startswith("OverflowError")
        assert not (out / "stages.csv").exists()

    # A run that outgrows its memory exits 3 with one JSON diagnostic; the
    # grid is made to raise, as no small corr run needs that much memory.
    def test_memory_error_exit3(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr("sidonlab.cli.pair_enclosure_grid", out_of_memory)
        cfg = tmp_path / "corr.json"
        cfg.write_text(json.dumps({"construction": RUNNING_SPEC.to_dict(), "A": X2, "B": X2,
                                   "m": 3}))
        out = tmp_path / "o"
        assert run_cli(["corr", "--config", str(cfg), "--out", str(out)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["code"] == 3 and "MemoryError" in err["message"]
        assert not (out / "corr.csv").exists()

    def test_out_under_a_file(self, running_config, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "o"
        assert run_cli(["build", "--config", str(running_config), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["code"] == 2 and err["context"] == {"out": str(out)}

    # build and decay write two reports, both to .tmp files before either is
    # renamed: when the second cannot be written, neither is left.
    @pytest.mark.parametrize("cmd, extra, first, second", [
        ("build", {}, "stages.csv", "generator_ledger.csv"),
        ("decay", {"m_grid": [1, 2]}, "decay.csv", "decay_ledger.csv")])
    def test_two_reports_or_none(self, tmp_path, capsys, cmd, extra, first, second):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": {"generator": GENERATOR}, **extra}))
        out = tmp_path / "o"
        assert run_cli([cmd, "--config", str(cfg), "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {first, second}
        out = tmp_path / "blocked"
        (out / second).mkdir(parents=True)
        assert run_cli([cmd, "--config", str(cfg), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["context"] == {"out": str(out)}
        assert [p.name for p in out.iterdir()] == [second]  # no first report, no .tmp
        assert (out / second).is_dir()

    @pytest.mark.parametrize("bad", [[0, 99], [0, 10**30]])
    @pytest.mark.parametrize("cmd", ["corr", "decay", "poisson"])
    def test_level_set_past_stage_height(self, tmp_path, capsys, cmd, bad):
        # stage 2 of the running tower has height 3
        bad_set = {"stage": 2, "ranges": [bad]}
        good_set = {"stage": 2, "ranges": [[0, 3]]}
        cfg = {"construction": RUNNING_SPEC.to_dict()}
        if cmd == "corr":
            cfg.update({"A": good_set, "B": bad_set, "m": 3})
        elif cmd == "decay":
            cfg.update({"psi": {"kind": "power", "alpha": [1, 4]}, "A": bad_set,
                        "m_grid": [1]})
        else:
            cfg.update({"events": [{"set": good_set, "count": 0},
                                   {"set": bad_set, "count": 0}], "n_grid": [0]})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli([cmd, "--config", str(path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and "height 3" in err["message"]
        assert not out.exists()

    # (subcommand, config keys) of the runs a flag case can name first;
    # a case that names none runs corr
    FLAG_RUNS = {
        "corr": ("corr", {"A": {"stage": 2, "ranges": [[0, 3]]},
                          "B": {"stage": 2, "ranges": [[0, 3]]}, "m": 3}),
        "build": ("build", {}),
        "check-sidon": ("check-sidon", {"stage": 1}),
        "flow": ("flow", {"samples": 10}),
        "wandering": ("homoclinic", {"mode": "wandering", "zmax": 2}),
        "retention": ("homoclinic", {"mode": "retention"}),
    }

    @pytest.mark.parametrize("flag", [["--epsilon-num", "1", "--epsilon-den", "0"],
                                      ["--depth", "0"],
                                      ["--depth", "4"],
                                      ["--epsilon-den", "7"],
                                      ["build", "--epsilon-num", "1"],
                                      ["check-sidon", "--epsilon-num", "1"],
                                      ["flow", "--seed", "0", "--epsilon-den", "2"],
                                      ["wandering", "--epsilon-num", "1"],
                                      ["retention", "--epsilon-num", "0",
                                       "--epsilon-den", "3"],
                                      ["--epsilon-num", "-5"]])
    def test_bad_flag(self, tmp_path, capsys, flag):
        name, flags = (flag[0], flag[1:]) if flag[0] in self.FLAG_RUNS else ("corr", flag)
        cmd, keys = self.FLAG_RUNS[name]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": RUNNING_SPEC.to_dict(), **keys}))
        out = tmp_path / "o"
        assert run_cli([cmd, "--config", str(cfg), "--out", str(out), *flags]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and flag[-2] in err["message"]
        assert err["context"]["field"] == flag[-2][2:].split("-")[0]
        assert not out.exists()

    @pytest.mark.parametrize("psi", [{"kind": "power", "alpha": [1, 0]},
                                     {"kind": "power", "alpha": [1, 2, 3]},
                                     {"kind": "power", "alpha": [1, 2]},
                                     {"kind": "power"}, {"kind": "table"},
                                     {"kind": "bogus"},
                                     {"kind": "table", "table": [1]},
                                     {"kind": "table", "table": [1, 0.5]},
                                     {"kind": "table", "table": [1, 2]},
                                     {"kind": "table", "table": [math.nan] * 100},
                                     {"kind": "table", "table": [0] * 100},
                                     {"kind": "table", "table": [10**400] * 100}])
    def test_bad_psi(self, tmp_path, capsys, psi):
        cfg = tmp_path / "decay.json"
        cfg.write_text(json.dumps({"construction": RUNNING_SPEC.to_dict(), "psi": psi,
                                   "m_grid": [1]}))
        assert run_cli(["decay", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["field"] == "psi"

    def test_config_epsilon_den_zero(self, tmp_path, capsys):
        # and a negative num, which would run as epsilon = 0
        for epsilon in ({"num": 1, "den": 0}, {"num": -1, "den": 1}):
            cfg = tmp_path / "corr.json"
            cfg.write_text(json.dumps({
                "construction": RUNNING_SPEC.to_dict(),
                "A": {"stage": 2, "ranges": [[0, 3]]},
                "B": {"stage": 2, "ranges": [[0, 3]]},
                "m": 3,
                "epsilon": epsilon,
            }))
            assert run_cli(["corr", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["context"]["field"] == "epsilon"

    def test_singer_walk_over_budget_refused_fast(self, tmp_path, capsys):
        # numStages=5 at alpha=1/4 asks for q = 9941: ~10^8 powers in GF(q^3)
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"construction": {"generator": {
            "type": "optimal-sidon", "psi": {"kind": "power", "alpha": [1, 4]},
            "numStages": 5}}}))
        out = tmp_path / "o"
        t0 = time.perf_counter()
        assert run_cli(["build", "--config", str(cfg), "--out", str(out)]) == 2
        assert time.perf_counter() - t0 < 10
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and err["context"]["q"] == 9941
        assert "q=9941" in err["message"]
        assert not out.exists()

    def test_singer_walk_counts_q2_q_1_powers(self, tmp_path):
        # h1 = 223 asks for q = 223: q^2 + q + 1 = 49,953 powers are within
        # the budget, though q^3 - 1 (~1.1e7) would not be
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"construction": {"h1": 223, "generator": GENERATOR}}))
        out = tmp_path / "o"
        assert run_cli(["build", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_report(out / "generator_ledger.csv")
        assert [r[header.index("q")] for r in rows] == ["223"]

    def test_greedy_over_budget_refused_fast(self, tmp_path, capsys):
        # the same request with greedy sets asks for mian_chowla(12433) at stage 4
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"construction": {"generator": {
            "type": "optimal-sidon", "psi": {"kind": "power", "alpha": [1, 4]},
            "numStages": 5, "sets": "greedy"}}}))
        out = tmp_path / "o"
        t0 = time.perf_counter()
        assert run_cli(["build", "--config", str(cfg), "--out", str(out)]) == 2
        assert time.perf_counter() - t0 < 10
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and err["context"] == {"n": 12433, "stage": 4}
        assert "n=12433" in err["message"]
        assert not out.exists()

    def test_huge_h1_refused_before_rounding(self, tmp_path, capsys):
        # r ~ 10^30 at stage 1: rounding it up to a prime power by trial
        # division would not finish, and q >= r is already over budget
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"construction": {"h1": 10**30, "generator": GENERATOR}}))
        out = tmp_path / "o"
        t0 = time.perf_counter()
        assert run_cli(["build", "--config", str(cfg), "--out", str(out)]) == 2
        assert time.perf_counter() - t0 < 10
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["code"] == 2 and err["context"]["stage"] == 1
        r = err["context"]["r"]
        assert r >= 10**29 and f"q >= r={r}" in err["message"]
        assert not out.exists()

    def test_psi_base_is_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"construction": {"generator": {
            "type": "optimal-sidon",
            "psi": {"kind": "power", "alpha": [1, 4], "base": 2},
            "numStages": 3}}}))
        assert run_cli(["build", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "unknown keys ['base']" in err["message"]

    @staticmethod
    def _write_config(tmp_path, cmd, extra):
        """A config for cmd: the running tower's construction updated by
        `extra`, plus the sets and psi that cmd needs."""
        x2 = {"stage": 2, "ranges": [[0, 3]]}
        cfg = {"construction": RUNNING_SPEC.to_dict(), **extra}
        if cmd == "corr":
            cfg.update({"A": x2, "B": x2})
        elif cmd == "decay":
            cfg["psi"] = {"kind": "power", "alpha": [1, 4]}
        elif cmd == "poisson":
            n_events = 3 if cfg.get("mode") == "triple" else 2
            cfg.setdefault("events", [{"set": x2, "count": 0}] * n_events)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    @pytest.mark.parametrize("cmd, extra, field", [
        ("corr", {"m": "3"}, "m"),
        ("corr", {"m_grid": [1.5]}, "m_grid[0]"),
        ("corr", {"m": 3, "mc_samples": -5}, "mc_samples"),
        ("corr", {"m": 3, "n": True, "C": {"stage": 2, "ranges": [[0, 3]]}}, "n"),
        ("decay", {"m_grid": [1, "2"]}, "m_grid[1]"),
        ("poisson", {"n_grid": [0.5]}, "n_grid[0]"),
        ("poisson", {"n_grid": [0], "mc_samples": -5}, "mc_samples"),
        ("poisson", {"mode": "triple", "mn_grid": [[1, 2.5]]}, "mn_grid[0]"),
        ("poisson", {"mode": "triple", "mn_grid": [[1]]}, "mn_grid"),
        ("flow", {"samples": 0}, "samples"),
        ("flow", {"n_grid": [1.5]}, "n_grid[0]"),
        ("check-sidon", {"stage": 1, "m_stride": 1.5}, "m_stride"),
        ("homoclinic", {"mode": "sweep", "j_range": [2, 2],
                        "samples_per_stage": "3"}, "samples_per_stage"),
        ("check-sidon", {"stage": True}, "stage"),
        ("homoclinic", {"mode": "wandering", "zmax": "5"}, "zmax"),
        ("flow", {"t": "x"}, "t"),
        ("flow", {"rect": [0.0, 1.0]}, "rect"),
        ("flow", {"rect": [0.0, 1.0, 0.5, 0.5]}, "rect"),
        ("flow", {"phi": "nope"}, "phi"),
        ("build", {"construction": {**RUNNING_SPEC.to_dict(), "h1": "x"}},
         "construction.h1"),
        ("build", {"construction": {**RUNNING_SPEC.to_dict(), "h1": 1.5}},
         "construction.h1"),
        ("build", {"construction": {**RUNNING_SPEC.to_dict(), "h1": True}},
         "construction.h1"),
        ("build", {"construction": {"h1": "x", "generator": GENERATOR}},
         "construction.h1"),
        ("build", {"construction": {"h1": 1.5, "generator": GENERATOR}},
         "construction.h1"),
        ("build", {"construction": {"h1": True, "generator": GENERATOR}},
         "construction.h1"),
        ("homoclinic", {"mode": "sweep", "j_range": [0, 2]}, "j_range"),
        ("homoclinic", {"mode": "sweep", "j_range": [3, 1]}, "j_range"),
        ("corr", {"m": -1}, "m"),
        ("corr", {"m_grid": [3, -1]}, "m_grid[1]"),
        ("decay", {"m_grid": [-2]}, "m_grid[0]"),
        ("corr", {"m": 3, "m_grid": [1]}, "m"),
        ("corr", {"m": 3, "n": 5}, "n"),
        ("decay", {"m_grid": [0, 5]}, "m_grid[0]"),
        ("corr", {"m": 3, "n": -1, "C": {"stage": 2, "ranges": [[0, 3]]}}, "n"),
        ("flow", {"phi": []}, "phi"),
        ("flow", {"t": 10**400}, "t"),
        ("flow", {"rect": [0, 10**400, 0, 1]}, "rect"),
        ("build", {"construction": {"h1": 1, "stages": {"r": 2, "s": [0, 1]}}},
         "construction.stages"),
        ("build", {"construction": {"h1": 1, "stages": [{"r": "3", "s": [1.9, 0, "3"]}]}},
         "construction.stages[0].r"),
        ("build", {"construction": {"h1": 1, "stages": [{"r": 3, "s": [1.9, 0, "3"]}]}},
         "construction.stages[0].s[0]"),
        ("build", {"construction": {"h1": 1, "stages": [{"r": 2, "s": [0, 1e300]}]}},
         "construction.stages[0].s[1]"),
        ("build", {"construction": {"h1": 1, "stages": [{"r": 2, "s": [0, "x"]}]}},
         "construction.stages[0].s[1]"),
        ("build", {"construction": {"h1": 1, "stages": [{"r": 2, "s": [0, float("nan")]}]}},
         "construction.stages[0].s[1]"),
        ("build", {"construction": {"h1": 1, "stages": [{"r": 2, "s": [0, -1]}]}},
         "construction.stages[0].s[1]"),
        ("build", {"construction": {"h1": 1, "stages": [{"r": 2, "s": [0]}]}},
         "construction.stages[0].s"),
        ("build", {"construction": {"h1": 1, "stages": [{"r": 1, "s": [0]}]}},
         "construction.stages[0].r"),
        ("build", {"construction": {"h1": 1, "stages": [{"r": 2, "s": [0, 1], "extra": 1}]}},
         "construction.stages[0]"),
        ("corr", {"m": 3, "mc_samples": 10, "C": {"stage": 2, "ranges": [[0, 3]]}},
         "mc_samples"),
        ("corr", {"m_grid": [3], "n": 1, "mc_samples": 0,
                  "C": {"stage": 2, "ranges": [[0, 3]]}}, "mc_samples"),
        ("build", {"construction": 5}, "construction"),
        ("build", {"construction": None}, "construction"),
        ("build", {"construction": [RUNNING_SPEC.to_dict()]}, "construction"),
        ("poisson", {"n_grid": [0], "events": 5}, "events"),
        ("poisson", {"n_grid": [0], "events": None}, "events"),
        ("poisson", {"mode": "triple", "mn_grid": [[1, 1]], "events": "ab"}, "events"),
        ("corr", {}, "m"),
        ("poisson", {"n_grid": [0], "events": [{"set": X2, "count": 0}] * 3}, "events"),
        ("poisson", {"mode": "triple", "mn_grid": [[1, 1]],
                     "events": [{"set": X2, "count": 0}] * 2}, "events"),
        ("homoclinic", {"mode": "sweep"}, "j_range"),
        ("flow", {"rect": [0, 1, -0.5, 1], "n_grid": [0, 3]}, "rect"),
    ])
    def test_bad_grid_or_sample_type(self, tmp_path, capsys, cmd, extra, field):
        path = self._write_config(tmp_path, cmd, extra)
        out = tmp_path / "o"
        assert run_cli([cmd, "--config", str(path), "--out", str(out),
                        "--seed", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and err["context"]["field"] == field
        assert not out.exists()


    # configs without a set or psi that _write_config would add
    @pytest.mark.parametrize("cmd, extra, field", [
        ("corr", {"B": X2, "m": 3}, "A"),
        ("corr", {"A": X2, "m": 3}, "A"),
        ("decay", {"m_grid": [1]}, "psi"),
    ])
    def test_missing_set_or_psi(self, tmp_path, capsys, cmd, extra, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"construction": RUNNING_SPEC.to_dict(), **extra}))
        out = tmp_path / "o"
        assert run_cli([cmd, "--config", str(path), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["code"] == 2 and err["context"]["field"] == field
        assert not out.exists()

    def test_flow_area_beyond_float_range(self, tmp_path, capsys):
        path = self._write_config(tmp_path, "flow", {"rect": [-1e308, 1e308, 0.0, 1.0]})
        out = tmp_path / "o"
        assert run_cli(["flow", "--config", str(path), "--out", str(out), "--seed", "1"]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert "float range" in json.loads(line)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("cmd, extra, key", [
        ("build", {"extra": 1}, "extra"),
        ("check-sidon", {"stage": 1, "epsilon": {"num": 1, "den": 2}}, "epsilon"),
        ("corr", {"m": 3, "m_grd": [5]}, "m_grd"),
        ("decay", {"m_grid": [1], "n": 2}, "n"),
        ("poisson", {"n_grid": [0], "mn_grid": [[1, 1]]}, "mn_grid"),
        ("poisson", {"mode": "triple", "mn_grid": [[1, 1]], "n_grid": [0]}, "n_grid"),
        ("homoclinic", {"mode": "sweep", "j_range": [2, 2], "zmax": 5}, "zmax"),
        ("homoclinic", {"mode": "wandering", "j_range": [2, 2]}, "j_range"),
        ("homoclinic", {"mode": "retention", "epsilon": {"num": 1, "den": 2}},
         "epsilon"),
        ("flow", {"m": 3}, "m"),
    ])
    def test_unknown_top_level_key(self, tmp_path, capsys, cmd, extra, key):
        path = self._write_config(tmp_path, cmd, extra)
        out = tmp_path / "o"
        assert run_cli([cmd, "--config", str(path), "--out", str(out),
                        "--seed", "1"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["code"] == 2 and f"unknown keys ['{key}']" in err["message"]
        assert not out.exists()


def test_cli_does_not_import_sympy(tmp_path):
    # a Singer build (q = 25, GF(5^6)) runs the whole primitive-polynomial search
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"construction": {"h1": 25, "generator": GENERATOR}}))
    out = tmp_path / "o"
    code = (
        "import sys\n"
        "import sidonlab.cli as cli\n"
        f"rc = cli.main(['build', '--config', {str(cfg)!r}, '--out', {str(out)!r}])\n"
        "assert rc == 0, rc\n"
        "assert 'sympy' not in sys.modules\n"
    )
    src = str(Path(sidonlab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    _, _, rows = read_report(out / "generator_ledger.csv")
    assert [r[4] for r in rows] == ["25"]


class TestCorr:
    def test_exact_pair_row(self, tmp_path):
        cfg = tmp_path / "corr.json"
        cfg.write_text(json.dumps({
            "construction": RUNNING_SPEC.to_dict(),
            "A": {"stage": 2, "ranges": [[0, 3]]},
            "B": {"stage": 2, "ranges": [[0, 3]]},
            "m": 3,
        }))
        out = tmp_path / "o"
        assert run_cli(["corr", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_report(out / "corr.csv")
        assert header[:4] == ["m", "lo_num", "lo_den", "lo"]
        (row,) = rows
        assert row[0] == "3"
        assert Fraction(int(row[1]), int(row[2])) == Fraction(1, 2)
        assert Fraction(int(row[4]), int(row[5])) == Fraction(1, 2)

    # deep_spec's 57-stage tower, A = B = C = {0} at stage 1: m = h_j - 1
    # stops about ten stages above j.  Both modes count at the sets' own
    # stage, so neither outgrows the address-space limit of the child.
    # check-sidon resolves escapes of X_3 up to the top stage, 57, where
    # X_3 lifted would be 2^54 ranges; it counts X_3 at its own stage too.
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS is enforced on Linux")
    @pytest.mark.parametrize("mode, j, code", [("pair", 20, 0), ("pair", 40, 0),
                                               ("triple", 16, 0), ("triple", 20, 0),
                                               ("triple", 40, 0), ("check-sidon", 3, 0)])
    def test_deep_tower_under_memory_limit(self, tmp_path, mode, j, code):
        tower = Tower(deep_spec(random.Random(0)), depth=57)
        one = {"stage": 1, "ranges": [[0, 1]]}
        m = tower.stage(j).h - 1
        cmd, report = "corr", "corr.csv"
        cfg = {"construction": tower.spec.to_dict(), "A": one, "B": one, "m": m}
        if mode == "triple":
            cfg.update({"C": one, "n": 0})
        elif mode == "check-sidon":
            cmd, report = mode, "check_sidon.csv"
            cfg = {"construction": tower.spec.to_dict(), "stage": j, "escape_depth": 53}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        limit = 400 * 2**20
        child = ("import resource, sys\n"
                 f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
                 "from sidonlab.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(sidonlab.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", child, cmd, "--config", str(path),
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == code, proc.stderr
        if code:
            (line,) = proc.stderr.splitlines()
            err = json.loads(line)
            assert err["code"] == 3 and "MemoryError" in err["message"]
            assert not (out / report).exists()
            return
        assert proc.stderr == ""
        _, header, rows = read_report(out / report)
        if mode == "check-sidon":
            want = sidon_property_check(tower, j, depth=53).rows
            assert rows == [[str(r.m), str(len(r.pairs)), str(len({p[1] for p in r.pairs})),
                             str(r.strict_ok), str(r.relaxed_ok), str(r.slack.numerator),
                             str(r.slack.denominator)] for r in want]
            return
        (row,) = rows
        A = LevelSet.from_ranges(1, [(0, 1)])
        (enc,) = (triple_enclosure_grid(A, A, A, 0, [m], tower) if mode == "triple"
                  else pair_enclosure_grid(A, A, [m], tower))
        assert [Fraction(int(row[header.index(f"{k}_num")]), int(row[header.index(f"{k}_den")]))
                for k in ("lo", "hi")] == [enc.lo, enc.hi]

    def test_empty_grid_header_only(self, tmp_path):
        cfg = tmp_path / "corr.json"
        cfg.write_text(json.dumps({
            "construction": RUNNING_SPEC.to_dict(),
            "A": {"stage": 2, "ranges": [[0, 3]]},
            "B": {"stage": 2, "ranges": [[0, 3]]},
            "m_grid": [],
        }))
        out = tmp_path / "o"
        assert run_cli(["corr", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_report(out / "corr.csv")
        assert header[0] == "m" and rows == []

    # Pair and triple configs on the running tower with up to two fields
    # replaced or an unknown key added: the exit contract holds.
    BASE = st.tuples(
        st.fixed_dictionaries({"A": LEVEL_SET, "B": LEVEL_SET},
                              optional={"mc_samples": st.integers(0, 20), "epsilon": EPSILON}),
        st.one_of(st.fixed_dictionaries({"m": st.integers(0, 35)}),
                  st.fixed_dictionaries({"m_grid": st.lists(st.integers(0, 35), max_size=5)})),
        st.one_of(st.just({}),
                  st.fixed_dictionaries({"C": LEVEL_SET}, optional={"n": st.integers(0, 10)})),
    ).map(lambda parts: {k: v for part in parts for k, v in part.items()})
    CHANGES = replaced({"A": ANY, "B": ANY, "C": ANY, "m": ANY, "m_grid": GRID, "n": ANY,
                        "mc_samples": SMALL, "epsilon": ANY, "bogus": ANY})

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(fields=st.builds(lambda a, b: {**a, **b}, BASE, CHANGES))
    def test_fuzz_exit_contract(self, fields):
        assert_exit_contract("corr", {"construction": RUNNING_SPEC.to_dict(), **fields},
                             "corr.csv", "--seed", "0")


class TestCheckSidon:
    def test_stage_required(self, running_config, tmp_path, capsys):
        assert run_cli(["check-sidon", "--config", str(running_config),
                        "--out", str(tmp_path / "o")]) == 2

    def test_rows(self, demo_config, tmp_path):
        cfg = tmp_path / "cs.json"
        base = json.loads(demo_config.read_text())
        base["stage"] = 2
        base["m_stride"] = 7
        cfg.write_text(json.dumps(base))
        out = tmp_path / "o"
        assert run_cli(["check-sidon", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_report(out / "check_sidon.csv")
        assert header == ["m", "pairs", "columns", "verdictStrict",
                          "verdictRelaxed", "slack_num", "slack_den"]
        assert len(rows) == 10
        assert rows[0][0] == "8"  # m sweeps (h_2, h_3] with stride 7

    # one row; escapes lifted to the top stage; every escape left as slack
    @pytest.mark.parametrize("stage, escape_depth, m_stride",
                             [(2, 1, 2**63), (3, 10**30, 7), (1, 0, 1)])
    def test_edge_configs(self, demo_config, demo_tower, tmp_path,
                          stage, escape_depth, m_stride):
        cfg = tmp_path / "cs.json"
        cfg.write_text(json.dumps({**json.loads(demo_config.read_text()), "stage": stage,
                                   "escape_depth": escape_depth, "m_stride": m_stride}))
        out = tmp_path / "o"
        assert run_cli(["check-sidon", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_report(out / "check_sidon.csv")
        want = sidon_property_check(demo_tower, stage, escape_depth, m_stride).rows
        assert [int(r[0]) for r in rows] == [r.m for r in want]

    # A config of integer fields (stage 6 has no stage 7 to check against)
    # with up to two fields replaced by any JSON value, or an unknown key
    # added: the run exits 0, 2 or 3, and a failure prints one JSON
    # diagnostic.  Draws are kept to at most 10^4 rows.
    BASE = st.fixed_dictionaries(
        {"stage": st.integers(1, 6)},
        optional={"escape_depth": st.integers(0, 3),
                  "m_stride": st.sampled_from([1, 7, 500, 997, 2**63])})
    VALUE = st.one_of(st.integers(-1, 6), st.sampled_from([2**63, 10**30]), st.booleans(),
                      st.floats(), st.text(max_size=3), st.none())
    CHANGES = st.dictionaries(
        st.sampled_from(["stage", "escape_depth", "m_stride", "epsilon", "stages"]),
        VALUE, max_size=2)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(fields=st.builds(lambda a, b: {**a, **b}, BASE, CHANGES))
    def test_fuzz_exit_contract(self, demo_config, demo_tower, fields):
        is_int = lambda x: isinstance(x, int) and not isinstance(x, bool)
        j, stride = fields.get("stage"), fields.get("m_stride", 1)
        if is_int(j) and is_int(stride) and 1 <= j < demo_tower.depth and stride >= 1:
            rows = (demo_tower.stage(j + 1).h - demo_tower.stage(j).h) // stride
            assume(rows <= 10**4)
        assert_exit_contract("check-sidon", {**json.loads(demo_config.read_text()), **fields},
                             "check_sidon.csv")


class TestDecay:
    def test_warning_column(self, tmp_path, capsys):
        cfg = tmp_path / "decay.json"
        cfg.write_text(json.dumps({
            "construction": RUNNING_SPEC.to_dict(),
            "psi": {"kind": "power", "alpha": [1, 4]},
            "A": {"stage": 2, "ranges": [[0, 1]]},
            "m_grid": [1, 3],
        }))
        out = tmp_path / "o"
        assert run_cli(["decay", "--config", str(cfg), "--out", str(out)]) == 0
        assert "warning" in capsys.readouterr().out
        _, header, rows = read_report(out / "decay.csv")
        assert header[-1] == "warning"
        assert all(r[-1] for r in rows)

    @pytest.mark.parametrize("psi, warning", [
        ({"kind": "power", "alpha": [1, 3]}, "psi differs from the construction generator's psi"),
        (GENERATOR["psi"], "")])
    def test_generator_psi_warning(self, tmp_path, capsys, psi, warning):
        cfg = tmp_path / "decay.json"
        cfg.write_text(json.dumps({"construction": {"generator": GENERATOR}, "psi": psi,
                                   "m_grid": [1, 2]}))
        out = tmp_path / "o"
        assert run_cli(["decay", "--config", str(cfg), "--out", str(out)]) == 0
        assert ("warning: " + warning in capsys.readouterr().out) == bool(warning)
        _, header, rows = read_report(out / "decay.csv")
        assert [r[header.index("warning")] for r in rows] == [warning] * 2

    def test_table_psi_is_its_power(self, tmp_path):
        reports = []
        for name, psi in [("table", TABLE_PSI), ("power", {"kind": "power", "alpha": [1, 4]})]:
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"construction": RUNNING_SPEC.to_dict(), "psi": psi,
                                       "m_grid": [1, 3, 29]}))
            out = tmp_path / name
            assert run_cli(["decay", "--config", str(cfg), "--out", str(out)]) == 0
            reports.append([read_report(out / f)[1:] for f in ("decay.csv", "decay_ledger.csv")])
        assert reports[0] == reports[1]

    # psi(m) is read at every m of the grid and at h_2 = 3 and h_3 = 30 of
    # the ledger; a table of 10 values has neither m = 12 nor 30
    @pytest.mark.parametrize("m_grid, m", [([12], 12), ([1], 30)])
    def test_table_psi_past_its_end(self, tmp_path, capsys, m_grid, m):
        cfg = tmp_path / "decay.json"
        cfg.write_text(json.dumps({"construction": RUNNING_SPEC.to_dict(), "m_grid": m_grid,
                                   "psi": {**TABLE_PSI, "table": TABLE_PSI["table"][:10]}}))
        out = tmp_path / "o"
        assert run_cli(["decay", "--config", str(cfg), "--out", str(out)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert f"table psi not defined at m={m}" in json.loads(line)["message"]
        assert not (out / "decay.csv").exists()

    # Decay configs on the running tower with up to two fields replaced or
    # an unknown key added; a replaced psi may be one PsiSpec refuses.
    BAD_PSI = st.one_of(
        st.sampled_from([{"kind": "power", "alpha": [1, 0]}, {"kind": "power"},
                         {"kind": "power", "alpha": "x"}, {"kind": "table"}]),
        st.builds(lambda x: {"kind": "table", "table": [x] * 40},
                  st.one_of(st.floats(), st.sampled_from([0, 10**400]))))
    BASE = st.fixed_dictionaries(
        {"psi": st.sampled_from([{"kind": "power", "alpha": [1, 4]}, {"kind": "log"}]),
         "m_grid": st.lists(st.integers(1, 35), min_size=1, max_size=5)},
        optional={"A": LEVEL_SET, "epsilon": EPSILON})
    CHANGES = replaced({"psi": st.one_of(ANY, BAD_PSI), "A": ANY, "m_grid": GRID,
                        "epsilon": ANY, "bogus": ANY})

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(fields=st.builds(lambda a, b: {**a, **b}, BASE, CHANGES))
    def test_fuzz_exit_contract(self, fields):
        assert_exit_contract("decay", {"construction": RUNNING_SPEC.to_dict(), **fields},
                             "decay.csv")


class TestHomoclinic:
    # A config of each mode on the running tower with up to two fields
    # replaced or an unknown key added.
    BASE = st.one_of(
        st.fixed_dictionaries(
            {"mode": st.just("sweep"), "j_range": st.sampled_from([[1, 1], [1, 2], [2, 2]])},
            optional={"samples_per_stage": st.integers(0, 4), "epsilon": EPSILON}),
        st.fixed_dictionaries({"mode": st.just("wandering")},
                              optional={"zmax": st.integers(0, 5)}),
        st.fixed_dictionaries({"mode": st.just("retention")}))
    CHANGES = replaced({"mode": ANY, "j_range": GRID, "samples_per_stage": SMALL,
                        "zmax": SMALL, "epsilon": ANY, "bogus": ANY})

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(fields=st.builds(lambda a, b: {**a, **b}, BASE, CHANGES))
    def test_fuzz_exit_contract(self, fields):
        assert_exit_contract("homoclinic", {"construction": RUNNING_SPEC.to_dict(), **fields},
                             "homoclinic.csv", "--seed", "0")


class TestPoisson:
    # A config of each mode on the running tower with up to two fields
    # replaced (events by a value that may not be a list) or an unknown key
    # added.  Event counts stay at most 3: the
    # triple law's cost grows as the fourth power of the counts.
    SHIFT = st.integers(-35, 35)
    EVENT = st.fixed_dictionaries({"set": LEVEL_SET, "count": st.integers(0, 3)},
                                  optional={"shift": SHIFT})
    ANY_EVENT = st.fixed_dictionaries(
        {"set": st.one_of(LEVEL_SET, ANY), "count": st.one_of(st.integers(-1, 3), WRONG)},
        optional={"shift": ANY, "bogus": ANY})
    OPTIONAL = {"mc_samples": st.integers(0, 20), "epsilon": EPSILON}
    BASE = st.one_of(
        st.fixed_dictionaries({"mode": st.just("mixing"),
                               "events": st.lists(EVENT, min_size=2, max_size=2),
                               "n_grid": st.lists(SHIFT, max_size=4)}, optional=OPTIONAL),
        st.fixed_dictionaries({"mode": st.just("triple"),
                               "events": st.lists(EVENT, min_size=3, max_size=3),
                               "mn_grid": st.lists(st.lists(SHIFT, min_size=2, max_size=2),
                                                   max_size=3)}, optional=OPTIONAL))
    CHANGES = replaced({"mode": ANY, "events": st.one_of(ANY, st.lists(ANY_EVENT, max_size=4)),
                        "n_grid": GRID,
                        "mn_grid": st.one_of(GRID, st.lists(st.lists(ANY, max_size=3), max_size=3)),
                        "mc_samples": SMALL, "epsilon": ANY, "bogus": ANY})

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(fields=st.builds(lambda a, b: {**a, **b}, BASE, CHANGES))
    def test_fuzz_exit_contract(self, fields):
        assert_exit_contract("poisson", {"construction": RUNNING_SPEC.to_dict(), **fields},
                             "poisson.csv", "--seed", "0")


class TestFlow:
    # Flow configs on the running tower (height 30 at stage 3) with up to
    # two fields replaced or an unknown key added.  Sample counts stay at
    # most 20.
    BASE = st.fixed_dictionaries(
        {"samples": st.integers(1, 20)},
        optional={"phi": st.sampled_from(["reciprocal", "exp"]), "t": st.floats(-2, 2),
                  "rect": st.sampled_from([[0.0, 1.0, 0.0, 1.0], [-1, 2, 0.5, 4.5]]),
                  "n_grid": st.lists(st.integers(0, 29), max_size=3)})
    CHANGES = replaced({"phi": ANY, "rect": st.one_of(WRONG, st.lists(ANY, max_size=5)),
                        "t": ANY, "samples": SMALL, "n_grid": GRID, "bogus": ANY})

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(fields=st.builds(lambda a, b: {**a, **b}, BASE, CHANGES))
    def test_fuzz_exit_contract(self, fields):
        assert_exit_contract("flow", {"construction": RUNNING_SPEC.to_dict(), **fields},
                             "flow.csv", "--seed", "0")


class TestHeaders:
    """The header row of every CSV kind, pinned literally.  Homoclinic runs
    on the demo tower, the rest on the running tower."""

    X2 = {"stage": 2, "ranges": [[0, 3]]}
    EVENT = {"set": X2, "count": 1}
    GENERATED = {"h1": 1, "generator": GENERATOR}
    STAGES = ["j", "h_j", "r_j", "mu_Ej_num", "mu_Ej_den", "mu_Xj_num", "mu_Xj_den"]
    CORR = ["m", "lo_num", "lo_den", "lo", "hi_num", "hi_den", "hi",
            "slack_num", "slack_den", "slack"]
    MIXING = ["n", "joint_lo", "joint_hi", "product", "dev_lo", "dev_hi"]
    TRIPLE = ["m", "n", "joint_lo", "joint_hi", "product", "dev_lo", "dev_hi",
              "exact_zero_dev"]
    FLOW = ["n", "t", "estimate", "stderr", "samples", "seed"]
    CASES = [
        ("build", {}, {"stages.csv": STAGES}),
        ("build", {"construction": GENERATED},
         {"stages.csv": STAGES, "generator_ledger.csv": [
             "j", "h_j", "r_j", "N_j", "q", "span", "h_next", "sqrt_ineq_ok"]}),
        ("check-sidon", {"stage": 1}, {"check_sidon.csv": [
            "m", "pairs", "columns", "verdictStrict", "verdictRelaxed", "slack_num",
            "slack_den"]}),
        ("corr", {"A": X2, "B": X2, "m_grid": [1, 3]}, {"corr.csv": CORR}),
        ("corr", {"A": X2, "B": X2, "m_grid": []}, {"corr.csv": CORR}),
        ("corr", {"A": X2, "B": X2, "m_grid": [1, 3], "mc_samples": 10},
         {"corr.csv": CORR + ["mc_estimate", "mc_stderr"]}),
        ("corr", {"A": X2, "B": X2, "m_grid": [], "mc_samples": 10},
         {"corr.csv": CORR + ["mc_estimate", "mc_stderr"]}),
        ("corr", {"A": X2, "B": X2, "C": X2, "n": 1, "m_grid": [1, 3]}, {"corr.csv": CORR}),
        ("corr", {"A": X2, "B": X2, "C": X2, "n": 1, "m_grid": []}, {"corr.csv": CORR}),
        ("decay", {"psi": {"kind": "power", "alpha": [1, 4]}, "m_grid": [1, 3]},
         {"decay.csv": ["m", "lo_num", "lo_den", "lo", "hi_num", "hi_den", "hi", "envelope",
                        "c_of_m", "slack_num", "slack_den", "slack", "warning"],
          "decay_ledger.csv": ["j", "h_j", "h_next", "sqrt_ineq_ok"]}),
        ("poisson", {"events": [EVENT] * 2, "n_grid": [0, 2]}, {"poisson.csv": MIXING}),
        ("poisson", {"events": [EVENT] * 2, "n_grid": []}, {"poisson.csv": MIXING}),
        ("poisson", {"events": [EVENT] * 2, "n_grid": [0, 2], "mc_samples": 10},
         {"poisson.csv": MIXING + ["mc", "mc_stderr"]}),
        ("poisson", {"mode": "triple", "events": [EVENT] * 3, "mn_grid": [[1, 1]]},
         {"poisson.csv": TRIPLE}),
        ("poisson", {"mode": "triple", "events": [EVENT] * 3, "mn_grid": []},
         {"poisson.csv": TRIPLE}),
        ("poisson", {"mode": "triple", "events": [EVENT] * 3, "mn_grid": [[1, 1]],
                     "mc_samples": 10}, {"poisson.csv": TRIPLE + ["mc", "mc_stderr"]}),
        ("homoclinic", {"mode": "sweep", "j_range": [2, 2], "samples_per_stage": 3},
         {"homoclinic.csv": ["j", "k", "n", "defect_lo_num", "defect_lo_den", "defect_lo",
                             "defect_hi_num", "defect_hi_den", "defect_hi", "slack_num",
                             "slack_den", "slack"]}),
        ("homoclinic", {"mode": "wandering", "zmax": 3},
         {"homoclinic.csv": ["zmax", "passed", "pieces", "covered_fraction_num",
                             "covered_fraction_den", "covered_fraction"]}),
        ("homoclinic", {"mode": "retention"},
         {"homoclinic.csv": ["stage", "blocks", "parts", "retention_num", "retention_den",
                             "retention", "bound_num", "bound_den", "bound", "ok"]}),
        ("flow", {"samples": 5, "n_grid": [0, 2]}, {"flow.csv": FLOW}),
        ("flow", {"samples": 5, "n_grid": []}, {"flow.csv": FLOW}),
    ]

    @pytest.mark.parametrize("cmd, extra, headers", CASES)
    def test_header(self, demo_config, tmp_path, cmd, extra, headers):
        base = {"construction": RUNNING_SPEC.to_dict()}
        if cmd == "homoclinic":
            base = json.loads(demo_config.read_text())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, **extra}))
        out = tmp_path / "o"
        assert run_cli([cmd, "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        assert {p.name: read_report(p)[1] for p in out.glob("*.csv")} == headers


class TestDeterminism:
    def _twice(self, argv_base, out1, out2, name):
        assert run_cli(argv_base + ["--out", str(out1)]) == 0
        assert run_cli(argv_base + ["--out", str(out2)]) == 0
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2
        return b1

    def test_flow(self, running_config, tmp_path):
        argv = ["flow", "--config", str(running_config), "--seed", "5"]
        cfg = json.loads(running_config.read_text())
        cfg.update({"t": 1.0, "samples": 500, "n_grid": [0, 2]})
        running_config.write_text(json.dumps(cfg))
        b = self._twice(argv, tmp_path / "a", tmp_path / "b", "flow.csv")
        assert b.count(b"\n") == 2 + 1 + 2  # provenance, header, two rows

    def test_homoclinic_sweep(self, demo_config, tmp_path):
        cfg = tmp_path / "hc.json"
        base = json.loads(demo_config.read_text())
        base.update({"mode": "sweep", "j_range": [2, 2], "samples_per_stage": 3})
        cfg.write_text(json.dumps(base))
        argv = ["homoclinic", "--config", str(cfg), "--seed", "3"]
        self._twice(argv, tmp_path / "a", tmp_path / "b", "homoclinic.csv")

    def test_poisson_mixing(self, demo_config, tmp_path):
        cfg = tmp_path / "po.json"
        base = json.loads(demo_config.read_text())
        base.update({
            "mode": "mixing",
            "events": [
                {"set": {"stage": 2, "ranges": [[0, 3]]}, "count": 0},
                {"set": {"stage": 2, "ranges": [[0, 3]]}, "count": 0},
            ],
            "n_grid": [0, 5],
            "mc_samples": 200,
        })
        cfg.write_text(json.dumps(base))
        argv = ["poisson", "--config", str(cfg), "--seed", "9"]
        self._twice(argv, tmp_path / "a", tmp_path / "b", "poisson.csv")

    def test_build(self, running_config, tmp_path):
        argv = ["build", "--config", str(running_config)]
        self._twice(argv, tmp_path / "a", tmp_path / "b", "stages.csv")
