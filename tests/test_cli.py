"""Command-line interface: flags, file outputs, exit-code contract."""

import hashlib
import json
import logging
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import frosim
import frosim.dynamics
import frosim.sweep
from frosim import AttackSignal, SimOptions, load_config, simulate
from frosim.cli import run
from frosim.dynamics import TRACE_CSV_HEADER
from frosim.sweep import SWEEP_CSV_HEADER
from test_dynamics import reference_write_trace_csv

CASE_STUDY_GRID = (Path(__file__).resolve().parent.parent / "demos"
                   / "case_study_grid.json")
SWITCHES = ["--literal-accumulation", "--literal-signs", "--rescale-inertia"]


def config_dict(h=2.0, r=0.2, t=0.2, toi=0.02, ad=0.2, kappa=60.0,
                gens=None, loads=None):
    return {
        "frequency_nominal_hz": 60.0,
        "dt_s": 1 / 60,
        "inertia_h_s": h,
        "droop_r_pu": r,
        "governor_t_s": t,
        "rocof_window_m": 6,
        "generators": gens or [
            {"id": "g4", "bus": "bus4", "p_tg_pu": 1.0,
             "rocof_thresh_hz_per_s": 0.5},
            {"id": "g5", "bus": "bus5", "p_tg_pu": 1.0,
             "rocof_thresh_hz_per_s": 0.6},
            {"id": "g1", "bus": "bus1", "p_tg_pu": 1.0,
             "rocof_thresh_hz_per_s": 1.2},
        ],
        "loads": loads or [
            {"id": f"l{i}", "bus": f"bus{i}", "p_sh_pu": 0.5,
             "underfreq_thresh_hz": 59.5}
            for i in range(1, 5)
        ],
        "attacker": {"toi": toi, "ad": ad, "der_total_pu": 1.5,
                     "kappa": kappa},
    }


def with_value(data, path, value):
    """A copy of *data* with the value at *path* (keys and list indices)
    replaced by *value*."""
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


# Grid-config fields set to a value of the wrong JSON type or a non-finite
# number; each must exit 2, never 1 ("no attack exists").
BAD_CONFIG_VALUES = [
    (("inertia_h_s",), "2"),
    (("generators", 0, "p_tg_pu"), "1"),
    (("droop_r_pu",), True),
    (("rocof_window_m",), None),
    (("governor_t_s",), float("nan")),
    (("dt_s",), float("inf")),
    (("inertia_h_s",), 10 ** 400),  # an integer no float holds
    (("rocof_window_m",), 10 ** 400),
    (("rocof_window_m",), 6.0),
    (("loads", 1, "underfreq_thresh_hz"), float("-inf")),
    (("frequency_nominal_hz",), [60.0]),
    (("attacker", "kappa"), "1"),
    (("attacker", "toi"), {"value": 0.02}),
    (("generators",), {"id": "g4"}),
    (("loads",), "l1"),
    (("generators", 1), "g5"),
    (("loads", 0), ["l1"]),
    (("attacker",), [0.02, 0.2, 1.5]),
    (("generators", 2, "id"), 1),
]
BAD_CONFIG_IDS = ["/".join(map(str, p)) + f"={v!r:.12}" for p, v in BAD_CONFIG_VALUES]


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "grid.json"
    p.write_text(json.dumps(config_dict()))
    return p


class TestSimulate:
    def test_attack_run_writes_trace(self, tmp_path, config_file):
        out = tmp_path / "trace.csv"
        code = run(["simulate", "--config", str(config_file),
                    "--dp-a", "0.322", "--horizon", "600",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == TRACE_CSV_HEADER
        assert len(lines) == 602
        assert any("ROCOF_TRIP:g4" in ln for ln in lines)

    def test_quiet_run_is_flat(self, tmp_path, config_file):
        out = tmp_path / "flat.csv"
        code = run(["simulate", "--config", str(config_file),
                    "--dp-a", "0", "--horizon", "100", "--out", str(out)])
        assert code == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert all(row[2] == "60" for row in rows)
        assert all(row[7] == "" for row in rows)

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = run(["simulate", "--config", str(tmp_path / "nope.json"),
                    "--dp-a", "0.1", "--horizon", "60",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = config_dict()
        data["inertia_h_s"] = 0.0
        bad.write_text(json.dumps(data))
        code = run(["simulate", "--config", str(bad), "--dp-a", "0.1",
                    "--horizon", "60", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "h_inertia" in capsys.readouterr().err

    def test_unwritable_out_exits_3(self, tmp_path, config_file, capsys):
        code = run(["simulate", "--config", str(config_file),
                    "--dp-a", "0.1", "--horizon", "60",
                    "--out", str(tmp_path)])  # a directory
        assert code == 3

    @pytest.mark.parametrize("dp_a", ["nan", "inf", "-inf", "nanhz"])
    def test_non_finite_dp_a_exits_2(self, tmp_path, config_file, capsys, dp_a):
        out = tmp_path / "x.csv"
        code = run(["simulate", "--config", str(config_file),
                    f"--dp-a={dp_a}", "--horizon", "60", "--out", str(out)])
        assert code == 2
        assert "error: --dp-a" in capsys.readouterr().err
        assert not out.exists()

    def test_hz_suffix_is_per_unit_equivalent(self, tmp_path, config_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--config", str(config_file),
                    "--dp-a", "0.322", "--horizon", "60",
                    "--out", str(a)]) == 0
        assert run(["simulate", "--config", str(config_file),
                    "--dp-a", "19.32hz", "--horizon", "60",
                    "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


def switch_options(switch):
    """The SimOptions of one modelling switch flag, or of none."""
    return SimOptions(**({switch[2:].replace("-", "_"): True} if switch else {}))


class TestSimulateStreams:
    """``simulate`` writes the replay loop's records as it steps them."""

    @pytest.mark.parametrize("switch", [None, *SWITCHES])
    @pytest.mark.parametrize("horizon", ["3", "-1"])
    def test_short_horizon_exits_2_before_the_file(self, tmp_path, capsys,
                                                   switch, horizon):
        out = tmp_path / "x.csv"
        code = run(["simulate", "--config", str(CASE_STUDY_GRID),
                    "--dp-a", "0.1", "--horizon", horizon, "--out", str(out),
                    *([switch] if switch else [])])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: horizon {horizon} is shorter than one ROCOF window (M=6)\n")
        assert not out.exists()

    def check_against_the_reference(self, tmp_path, switch, horizons):
        config = load_config(CASE_STUDY_GRID)
        options = switch_options(switch)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        for horizon in horizons:
            for dp_a in (0.322, -0.322):
                assert run(["simulate", "--config", str(CASE_STUDY_GRID),
                            f"--dp-a={dp_a!r}", "--horizon", str(horizon),
                            "--out", str(got),
                            *([switch] if switch else [])]) == 0
                reference_write_trace_csv(
                    simulate(config, AttackSignal(dp_a), horizon, options), want)
                assert got.read_bytes() == want.read_bytes(), (horizon, dp_a)

    @pytest.mark.parametrize("switch", [None, *SWITCHES])
    def test_trace_equals_the_reference_writer(self, tmp_path, switch):
        self.check_against_the_reference(tmp_path, switch, (3000, 40000))

    def test_rows_around_one_chunk(self, tmp_path):
        # horizon h writes h + 1 rows: one below, at and one above a chunk
        chunk = frosim.dynamics._TRACE_CHUNK_ROWS
        self.check_against_the_reference(tmp_path, None,
                                         (chunk - 2, chunk - 1, chunk))

    def test_info_line_counts_rows_and_events(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="frosim")
        out = tmp_path / "trace.csv"
        assert run(["simulate", "--config", str(CASE_STUDY_GRID),
                    "--dp-a", "0.322", "--horizon", "600", "--out", str(out),
                    "--literal-accumulation"]) == 0
        trace = simulate(load_config(CASE_STUDY_GRID), AttackSignal(0.322), 600,
                         SimOptions(literal_accumulation=True))
        assert trace.events
        assert [r.getMessage() for r in caplog.records] == [
            f"trace written to {out} (601 rows, {len(trace.events)} events)"]

    def test_memory_does_not_grow_with_the_horizon(self, tmp_path):
        def peak(horizon):
            tracemalloc.start()
            try:
                assert run(["simulate", "--config", str(CASE_STUDY_GRID),
                            "--dp-a", "0.322", "--horizon", str(horizon),
                            "--out", str(tmp_path / "trace.csv"),
                            "--literal-accumulation"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # the parser and logging set up once per process
        short, long = peak(4000), peak(40000)
        assert long < 3 * 2**20
        assert long - short < 2**19


class TestSynthesize:
    def test_success_names_the_relay(self, tmp_path, config_file):
        out = tmp_path / "result.json"
        code = run(["synthesize", "--config", str(config_file),
                    "--horizon", "12", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["status"] == "success"
        assert result["relay_id"] == "g4"
        assert result["relay_kind"] == "rocof"
        assert result["dp_a_pu"] < 0.322
        assert (tmp_path / result["trace_file"].split("/")[-1]).exists()

    def test_high_inertia_grid_names_the_same_relay(self, tmp_path):
        # the stiffer grid needs a larger injection but the most sensitive
        # setting still operates first
        cfg = tmp_path / "stiff.json"
        cfg.write_text(json.dumps(config_dict(h=6.0, toi=0.06, kappa=60.0)))
        out = tmp_path / "result.json"
        code = run(["synthesize", "--config", str(cfg),
                    "--horizon", "12", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["relay_id"] == "g4" and result["relay_kind"] == "rocof"
        assert result["dp_a_pu"] > 0.09  # roughly three times the light grid

    def test_zero_capability_exits_1(self, tmp_path):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps(config_dict(toi=0.0)))
        out = tmp_path / "r.json"
        code = run(["synthesize", "--config", str(cfg),
                    "--horizon", "12", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text()) == {"status": "no_attack"}

    @pytest.mark.parametrize("target", ["any", "rocof"])
    def test_overflowing_capability_bound_exits_2(self, tmp_path, target):
        # each attacker field is finite, but kappa*toi*ad*der_total is not;
        # in a subprocess with a timeout, so a search that never ends fails
        data = json.loads(CASE_STUDY_GRID.read_text())
        data["attacker"].update(kappa=1e308, der_total_pu=1e308)
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(frosim.__file__).parents[1]),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "frosim.cli", "synthesize",
             "--config", str(cfg), "--horizon", "12", "--attack-step", "50",
             "--target", target, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "error: capability: bound" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--tolerance", "0"), ("--tolerance", "-1"), ("--tolerance", "nan"),
        ("--tolerance", "inf"), ("--tolerance", "nanhz"),
    ])
    @pytest.mark.parametrize("target", ["any", "rocof"])
    def test_bad_numeric_flag_exits_2(self, tmp_path, config_file, capsys,
                                      flag, value, target):
        out = tmp_path / "r.json"
        code = run(["synthesize", "--config", str(config_file),
                    "--target", target, "--horizon", "12",
                    f"{flag}={value}", "--out", str(out)])
        assert code == 2
        assert f"error: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path,value", BAD_CONFIG_VALUES, ids=BAD_CONFIG_IDS)
    def test_mistyped_config_exits_2(self, tmp_path, capsys, path, value):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(with_value(config_dict(), path, value)))
        out = tmp_path / "r.json"
        assert run(["synthesize", "--config", str(cfg), "--horizon", "12",
                    "--out", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exhaustive", [False, True])
    @pytest.mark.parametrize("target", ["any", "rocof", "ls", "specific"])
    def test_horizon_shorter_than_rocof_window_exits_2(
            self, tmp_path, config_file, capsys, target, exhaustive):
        out = tmp_path / "r.json"
        args = ["synthesize", "--config", str(config_file),
                "--target", target, "--relay-id", "g4", "--horizon", "3",
                "--out", str(out)]
        if exhaustive:
            args.append("--exhaustive")
        assert run(args) == 2
        assert ("error: horizon 3 is shorter than one ROCOF window (M=6)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_unknown_relay_id_exits_2(self, tmp_path, config_file, capsys,
                                      exhaustive):
        out = tmp_path / "r.json"
        args = ["synthesize", "--config", str(config_file),
                "--target", "specific", "--relay-id", "nosuch",
                "--horizon", "12", "--out", str(out)]
        assert run(args + ["--exhaustive"] * exhaustive) == 2
        assert ("error: relay_id: names no relay of the grid (got 'nosuch')"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("relay_id", ["g1", "l2"])
    def test_relay_ids_of_both_rosters_are_searched(self, tmp_path, config_file,
                                                    relay_id):
        assert run(["synthesize", "--config", str(config_file),
                    "--target", "specific", "--relay-id", relay_id,
                    "--horizon", "12",
                    "--out", str(tmp_path / "r.json")]) in (0, 1)

    def test_nonmonotone_instance_is_answered_exactly(self, tmp_path):
        # a feasible set with a hole, [0.008992, 0.056269] and
        # [0.200296, 0.35]: the exact answer is the start of the first part
        cfg = tmp_path / "nm.json"
        data = config_dict(
            h=2.0, r=1.0, t=0.2, toi=1.0, ad=1.0, kappa=0.35 / 1.5,
            gens=[{"id": "g", "bus": "b", "p_tg_pu": 1.0,
                   "rocof_thresh_hz_per_s": 3.0}],
            loads=[{"id": "l", "bus": "b", "p_sh_pu": 0.5,
                    "underfreq_thresh_hz": 59.5}],
        )
        cfg.write_text(json.dumps(data))
        args = ["synthesize", "--config", str(cfg), "--target", "rocof",
                "--horizon", "600", "--tolerance", "1e-3",
                "--out", str(tmp_path / "r.json")]
        assert run(args) == 0
        exact = json.loads((tmp_path / "r.json").read_text())["dp_a_pu"]
        assert exact == 0.00899189181221
        goal = frosim.AttackGoal(horizon=600,
                                 target_kind=frosim.TargetKind.ROCOF_ONLY)
        grid = frosim.load_config(cfg)
        assert not frosim.feasibility(grid, 0.0089918918122, goal).success
        assert run(args + ["--exhaustive"]) == 0
        scan = json.loads((tmp_path / "r.json").read_text())["dp_a_pu"]
        assert exact <= scan < exact + 1e-3


class TestSweep:
    def spec_file(self, tmp_path, **over):
        data = {
            "base_config": config_dict(kappa=2.0),
            "goal": {"horizon": 12, "target": "any", "sign": "positive"},
            "h_s": [2.0, 6.0],
            "r_pu": [0.2],
            "t_s": [0.2],
            "toi_pct": [2.0, 10.0],
            "ad_pct": [20.0, 100.0],
            "mode": "cartesian",
        }
        data.update(over)
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(data))
        return p

    def test_cartesian_rows(self, tmp_path):
        spec = self.spec_file(tmp_path)
        out = tmp_path / "records.csv"
        code = run(["sweep", "--spec", str(spec), "--out", str(out),
                    "--workers", "1"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 9  # header + 2*1*1*2*2 combos
        meta = json.loads((tmp_path / "records.csv.meta.json").read_text())
        assert meta["mode"] == "cartesian" and meta["count"] == 8
        assert meta["workers"] == 1
        assert meta["frosim_version"] == frosim.__version__
        assert meta["spec_sha256"] == hashlib.sha256(spec.read_bytes()).hexdigest()
        assert meta["status_counts"] == {"ok": 8}

    def test_random_reruns_identical(self, tmp_path):
        spec = self.spec_file(tmp_path, mode="random", count=40, seed=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["sweep", "--spec", str(spec), "--out", str(a)]) == 0
        assert run(["sweep", "--spec", str(spec), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_draw(self, tmp_path):
        spec = self.spec_file(tmp_path, mode="random", count=40, seed=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["sweep", "--spec", str(spec), "--out", str(a)]) == 0
        assert run(["sweep", "--spec", str(spec), "--out", str(b),
                    "--seed", "2"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{}")
        assert run(["sweep", "--spec", str(p),
                    "--out", str(tmp_path / "o.csv")]) == 2
        # mistyped fields are rejected before any combination runs
        for over in [{"tolerance": "1e-4"}, {"h_s": 5}, {"h_s": ["2"]},
                     {"r_pu": [True]}, {"t_s": [float("nan")]},
                     {"mode": "random", "count": "20"},
                     {"mode": "random", "count": 20.0},
                     {"goal": {"horizon": "12"}}, {"goal": {"horizon": True}},
                     {"goal": {"horizon": 12, "attack_step": "0"}},
                     {"goal": {"horizon": 12, "attack_step": 1.0}},
                     {"goal": {"horizon": 12, "target": "specific",
                               "relay_id": 4}},
                     {"goal": [1]}, {"goal": "any"},
                     {"seed": "1"}, {"seed": 1.5}, {"seed": False},
                     {"h_s": [10 ** 400]}, {"tolerance": 10 ** 400},
                     {"mode": "random", "count": 20, "seed": "1"}]:
            capsys.readouterr()
            spec = self.spec_file(tmp_path, **over)
            assert run(["sweep", "--spec", str(spec),
                        "--out", str(tmp_path / "o.csv")]) == 2, over
            assert "error: bad sweep spec" in capsys.readouterr().err, over

    def test_unknown_relay_id_exits_2(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, goal={
            "horizon": 12, "target": "specific", "relay_id": "nosuch"})
        out = tmp_path / "o.csv"
        assert run(["sweep", "--spec", str(spec), "--workers", "1",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: bad sweep spec" in err and "nosuch" in err
        assert not out.exists()

    def test_horizon_shorter_than_the_rocof_window_exits_2(self, tmp_path,
                                                          capsys):
        out = tmp_path / "o.csv"
        spec = self.spec_file(tmp_path, goal={"horizon": 3})
        assert run(["sweep", "--spec", str(spec), "--workers", "1",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: bad sweep spec: HorizonTooShort('horizon 3 is shorter "
            "than one ROCOF window (M=6)')\n")
        assert not out.exists()
        # a horizon of one window runs
        spec = self.spec_file(tmp_path, goal={"horizon": 6})
        assert run(["sweep", "--spec", str(spec), "--workers", "1",
                    "--out", str(out)]) == 0
        assert "HorizonTooShort" not in out.read_text()

    @pytest.mark.parametrize("workers", [
        0, -1, (os.cpu_count() or 1) + 1, 10 ** 9])
    def test_workers_out_of_range_exits_2(self, tmp_path, capsys, monkeypatch,
                                          workers):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(frosim.sweep, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "o.csv"
        assert run(["sweep", "--spec", str(self.spec_file(tmp_path)),
                    "--workers", str(workers), "--out", str(out)]) == 2
        assert "error: --workers must be in 1.." in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path,value", BAD_CONFIG_VALUES, ids=BAD_CONFIG_IDS)
    def test_mistyped_base_config_exits_2(self, tmp_path, capsys, path, value):
        spec = self.spec_file(
            tmp_path, base_config=with_value(config_dict(kappa=2.0), path, value))
        assert run(["sweep", "--spec", str(spec), "--workers", "1",
                    "--out", str(tmp_path / "o.csv")]) == 2
        assert "error: bad sweep spec" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_unwritable_out_exits_3(self, tmp_path):
        spec = self.spec_file(tmp_path)
        assert run(["sweep", "--spec", str(spec), "--out", str(tmp_path),
                    "--workers", "1"]) == 3


class TestReport:
    def records_file(self, tmp_path):
        spec = TestSweep().spec_file(tmp_path, mode="random", count=60, seed=4)
        out = tmp_path / "records.csv"
        assert run(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        return out

    def test_verdicts_printed_and_written(self, tmp_path, capsys):
        records = self.records_file(tmp_path)
        out = tmp_path / "trend.json"
        code = run(["report", "--records", str(records), "--out", str(out),
                    "--csv-dir", str(tmp_path / "csv")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "h_s" in printed and "verdict" in printed
        report = json.loads(out.read_text())
        assert report["total_records"] == 60
        assert (tmp_path / "csv" / "trend_toi_pct.csv").exists()

    def test_failed_combinations_are_excluded_and_reported(self, tmp_path, capsys):
        # H = 0 is invalid, so those four cells fail to synthesize
        spec = TestSweep().spec_file(tmp_path, h_s=[0.0, 2.0])
        records = tmp_path / "records.csv"
        assert run(["sweep", "--spec", str(spec), "--out", str(records),
                    "--workers", "1"]) == 0
        rows = [ln.split(",") for ln in records.read_text().splitlines()[1:]]
        assert sorted(r[-1] for r in rows if r[1] == "0") == ["InvalidParameter"] * 4
        capsys.readouterr()
        out = tmp_path / "trend.json"
        assert run(["report", "--records", str(records), "--out", str(out)]) == 0
        assert "8 records, 3 successes, 4 excluded" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["total_records"] == 8
        assert report["excluded_records"] == 4
        h = report["parameters"]["h_s"]["buckets"]
        assert [b["value"] for b in h] == [2.0] and h[0]["records"] == 4
        assert [s["h_s"] for s in report["h_attack_type_split"]] == [2.0]

    @pytest.mark.parametrize("column,value", [(6, "yes"), (8, "nan")])
    def test_malformed_records_exit_2(self, tmp_path, capsys, column, value):
        records = self.records_file(tmp_path)
        lines = records.read_text().splitlines()
        row = lines[1].split(",")
        row[column] = value
        lines[1] = ",".join(row)
        records.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "trend.json"
        assert run(["report", "--records", str(records),
                    "--out", str(out)]) == 2
        assert "error: records: malformed row" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [
        random.Random(7).randbytes(300),
        (SWEEP_CSV_HEADER + "\n").encode() + b"\xff\xfe,2.0\n",
    ], ids=["random-bytes", "header-then-ff-fe-row"])
    def test_records_not_utf8_exit_2(self, tmp_path, capsys, content):
        p = tmp_path / "bin.csv"
        p.write_bytes(content)
        out = tmp_path / "r.json"
        assert run(["report", "--records", str(p), "--out", str(out)]) == 2
        assert "error: records: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_records_exits_2(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text(SWEEP_CSV_HEADER + "\n")
        assert run(["report", "--records", str(p),
                    "--out", str(tmp_path / "t.json")]) == 2

    def test_single_bucket_verdicts_insufficient(self, tmp_path):
        spec = TestSweep().spec_file(
            tmp_path, h_s=[2.0], toi_pct=[2.0], ad_pct=[20.0])
        records = tmp_path / "records.csv"
        assert run(["sweep", "--spec", str(spec), "--out", str(records)]) == 0
        out = tmp_path / "trend.json"
        assert run(["report", "--records", str(records),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        verdicts = {p["verdict"] for p in report["parameters"].values()}
        assert verdicts == {"insufficient buckets"}


class TestIntegerSpellings:
    """A JSON integer beyond what products of floats keep exact runs as its
    float spelling does, in a config and in a sweep's value lists."""

    BIG = 2 ** 600

    def outputs(self, tmp_path, command, name, doc):
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / f"{name}.out"
        flag = {"synthesize": ["--config", str(src), "--horizon", "60",
                               "--target", "rocof",
                               "--trace-out", str(tmp_path / f"{name}.csv")],
                "sweep": ["--spec", str(src), "--workers", "1"]}[command]
        code = run([command, *flag, "--out", str(out)])
        text = out.read_text().replace(name, "NAME")
        if command == "synthesize":
            text += (tmp_path / f"{name}.csv").read_text()
        return code, text

    def test_synthesize(self, tmp_path, capsys):
        results = [self.outputs(tmp_path, "synthesize", name, config_dict(
                       r=value, t=value))
                   for name, value in (("int", self.BIG),
                                       ("float", float(self.BIG)))]
        assert results[0] == results[1]
        assert results[0][0] == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_sweep(self, tmp_path, capsys):
        results = [self.outputs(tmp_path, "sweep", name, {
                       "base_config": config_dict(kappa=2.0),
                       "goal": {"horizon": 12, "target": "rocof"},
                       "h_s": [2.0, 6], "r_pu": [value], "t_s": [value],
                       "toi_pct": [2, 10.0], "ad_pct": [100],
                       "tolerance": 1})
                   for name, value in (("int", self.BIG),
                                       ("float", float(self.BIG)))]
        assert results[0] == results[1]
        assert results[0][0] == 0
        assert "Traceback" not in capsys.readouterr().err


def test_one_parser_serves_every_command(tmp_path, monkeypatch):
    # synthesize, a rejected flag, then sweep: in one process as in three
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config_dict()))
    spec = TestSweep().spec_file(tmp_path)
    commands = [
        ["synthesize", "--config", str(cfg), "--horizon", "12",
         "--target", "rocof", "--out", "r.json"],
        ["synthesize", "--config", str(cfg), "--horizon", "12",
         "--no-such-flag", "--out", "r.json"],
        ["sweep", "--spec", str(spec), "--workers", "1", "--out", "s.csv"],
    ]

    def outputs(where):
        return {name: (where / name).read_bytes()
                for name in ("r.json", "r.json.trace.csv", "s.csv")}

    alone = tmp_path / "alone"
    alone.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(frosim.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    codes = [subprocess.run([sys.executable, "-m", "frosim.cli", *argv],
                            cwd=alone, env=env, capture_output=True,
                            timeout=120).returncode
             for argv in commands]
    together = tmp_path / "together"
    together.mkdir()
    monkeypatch.chdir(together)
    got = []
    for argv in commands:
        try:
            got.append(run(argv))
        except SystemExit as exc:
            got.append(exc.code)
    assert got == codes == [0, 2, 0]
    assert outputs(together) == outputs(alone)


def test_console_entry_point_smoke(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config_dict()))
    out = tmp_path / "trace.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "frosim.cli", "simulate",
         "--config", str(cfg), "--dp-a", "0.05", "--horizon", "30",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == frosim.__version__
