import csv
import json
import time
from fractions import Fraction

import pytest

from sidonlab.cli import main
from tests.conftest import RUNNING_SPEC


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

    def test_depth_flag(self, running_config, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["build", "--config", str(running_config),
                        "--out", str(out), "--depth", "2"]) == 0
        _, _, rows = read_report(out / "stages.csv")
        assert len(rows) == 2


class TestErrors:
    def test_malformed_json_no_partial_output(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"construction": ')
        out = tmp_path / "o"
        assert run_cli(["build", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and "JSON" in err["message"]
        assert not (out / "stages.csv").exists()

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

    @pytest.mark.parametrize("flag", [["--epsilon-num", "1", "--epsilon-den", "0"],
                                      ["--depth", "0"]])
    def test_bad_flag(self, tmp_path, capsys, flag):
        cfg = tmp_path / "corr.json"
        cfg.write_text(json.dumps({
            "construction": RUNNING_SPEC.to_dict(),
            "A": {"stage": 2, "ranges": [[0, 3]]},
            "B": {"stage": 2, "ranges": [[0, 3]]},
            "m": 3,
        }))
        assert run_cli(["corr", "--config", str(cfg), "--out", str(tmp_path / "o"),
                        *flag]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and flag[-2] in err["message"]

    def test_config_epsilon_den_zero(self, tmp_path, capsys):
        cfg = tmp_path / "corr.json"
        cfg.write_text(json.dumps({
            "construction": RUNNING_SPEC.to_dict(),
            "A": {"stage": 2, "ranges": [[0, 3]]},
            "B": {"stage": 2, "ranges": [[0, 3]]},
            "m": 3,
            "epsilon": {"num": 1, "den": 0},
        }))
        assert run_cli(["corr", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["context"]["field"] == "epsilon"

    def test_singer_walk_over_budget_refused_fast(self, tmp_path, capsys):
        # numStages=5 at alpha=1/4 asks for q = 9941: ~10^12 powers in GF(q^3)
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

    def test_psi_base_is_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"construction": {"generator": {
            "type": "optimal-sidon",
            "psi": {"kind": "power", "alpha": [1, 4], "base": 2},
            "numStages": 3}}}))
        assert run_cli(["build", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "unknown keys ['base']" in err["message"]

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
    ])
    def test_bad_grid_or_sample_type(self, tmp_path, capsys, cmd, extra, field):
        x2 = {"stage": 2, "ranges": [[0, 3]]}
        cfg = {"construction": RUNNING_SPEC.to_dict(), **extra}
        if cmd == "corr":
            cfg.update({"A": x2, "B": x2})
        elif cmd == "decay":
            cfg["psi"] = {"kind": "power", "alpha": [1, 4]}
        elif cmd == "poisson":
            n_events = 3 if cfg.get("mode") == "triple" else 2
            cfg["events"] = [{"set": x2, "count": 0}] * n_events
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli([cmd, "--config", str(path), "--out", str(out),
                        "--seed", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and err["context"]["field"] == field
        assert not out.exists()


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
