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
from frosim import (
    AttackSignal,
    InvalidParameter,
    SimOptions,
    load_config,
    simulate,
)
from frosim.cli import _spec_from_file, run
from frosim.dynamics import TRACE_CSV_HEADER
from frosim.sweep import SWEEP_CSV_HEADER
from test_dynamics import reference_write_trace_csv

CASE_STUDY_GRID = (Path(__file__).resolve().parent.parent / "demos"
                   / "case_study_grid.json")
SWITCHES = ["--literal-accumulation", "--literal-signs", "--rescale-inertia"]


def run_in_subprocess(*argv, timeout=60, cwd=None):
    """``frosim`` with *argv* in a fresh interpreter started in *cwd*, which
    imports this checkout's package and prints warnings to its stderr as a
    user sees them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(frosim.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "frosim.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)


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

    @pytest.mark.parametrize("command,extra", [
        ("simulate", ["--dp-a", "0.1"]), ("synthesize", [])])
    def test_not_utf8_config_exits_2(self, tmp_path, capsys, command, extra):
        bad = tmp_path / "bad.json"
        bad.write_bytes(bytes.fromhex("fffe7b7d"))
        out = tmp_path / "out"
        assert run([command, "--config", str(bad), *extra, "--horizon", "60",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: config: not UTF-8 text\n"
        assert not out.exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = config_dict()
        data["inertia_h_s"] = 0.0
        bad.write_text(json.dumps(data))
        code = run(["simulate", "--config", str(bad), "--dp-a", "0.1",
                    "--horizon", "60", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "h_inertia" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("inertia_h_s", 1e306),
                                           ("dt_s", 1e-309)])
    @pytest.mark.parametrize("command", ["simulate", "synthesize"])
    def test_overflowing_step_factor_exits_2(self, tmp_path, capsys, command,
                                             key, value):
        # the value is finite and > 0, but the kernel's 4H/dt is not: exit
        # 1 would claim no attack exists, and a trace would hold NaN
        data = json.loads(CASE_STUDY_GRID.read_text())
        data[key] = value
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        flags = (["--dp-a", "0.1"] if command == "simulate" else [])
        code = run([command, "--config", str(cfg), *flags, "--horizon", "12",
                    "--out", str(out)])
        assert code == 2
        assert "4*h_inertia/dt: must be finite" in capsys.readouterr().err
        assert not out.exists()

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

        peak(100)  # the parser is built once per process
        short, long = peak(4000), peak(40000)
        assert long < 3 * 2**20
        assert long - short < 2**19


class TestSynthesize:
    def test_relay_id_shared_across_rosters_exits_2(self, tmp_path, capsys):
        data = config_dict()
        data["loads"][0]["id"] = "g4"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        code = run(["synthesize", "--config", str(bad), "--horizon", "12",
                    "--target", "specific", "--relay-id", "g4",
                    "--out", str(out)])
        assert code == 2
        assert "loads[0].id" in capsys.readouterr().err
        assert not out.exists()

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
        proc = run_in_subprocess(
            "synthesize", "--config", str(cfg), "--horizon", "12",
            "--attack-step", "50", "--target", target, "--out", str(out))
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

    @pytest.mark.parametrize("flag", ["--out", "--trace-out", "--out-only"])
    def test_output_path_that_is_a_directory_exits_3(self, tmp_path,
                                                     config_file, capsys,
                                                     flag):
        paths = {"--out": tmp_path / "r.json", "--trace-out": tmp_path / "t.csv"}
        if flag == "--out-only":
            # the trace goes to OUT.trace.csv, beside the directory
            del paths["--trace-out"]
            flag = "--out"
        paths[flag] = tmp_path
        args = ["synthesize", "--config", str(config_file), "--horizon", "12"]
        for name, path in paths.items():
            args += [name, str(path)]

        def listing():
            return sorted([*tmp_path.parent.iterdir(), *tmp_path.rglob("*")])

        before = listing()
        assert run(args) == 3
        assert "error writing results: " in capsys.readouterr().err
        # the trace is written before the result, and removed when it fails
        assert not (tmp_path / "r.json").exists()
        assert listing() == before

    @pytest.mark.parametrize("exhaustive", [False, True])
    @pytest.mark.parametrize("trace_out", ["./r.json", "link.json"])
    def test_trace_out_naming_the_out_file_exits_2(self, tmp_path,
                                                   config_file, capsys,
                                                   monkeypatch, trace_out,
                                                   exhaustive):
        def no_search(*args, **kwargs):
            raise AssertionError("searched")
        monkeypatch.setattr("frosim.cli.synthesize_min_attack", no_search)
        monkeypatch.setattr("frosim.cli.exhaustive_min_attack", no_search)
        monkeypatch.chdir(tmp_path)
        if trace_out == "link.json":
            # another name of an existing result
            Path("r.json").write_text("{}")
            Path("link.json").symlink_to("r.json")
        listing = sorted(tmp_path.iterdir())
        args = ["synthesize", "--config", str(config_file), "--horizon", "12",
                "--out", "r.json", "--trace-out", trace_out]
        assert run(args + ["--exhaustive"] * exhaustive) == 2
        assert capsys.readouterr().err == (
            f"error: --trace-out: names the same file as --out "
            f"(got {trace_out!r})\n")
        assert sorted(tmp_path.iterdir()) == listing

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_specific_target_without_relay_id_exits_2(self, tmp_path,
                                                      config_file, capsys,
                                                      exhaustive):
        out = tmp_path / "r.json"
        args = ["synthesize", "--config", str(config_file),
                "--target", "specific", "--horizon", "12", "--out", str(out)]
        assert run(args + ["--exhaustive"] * exhaustive) == 2
        assert capsys.readouterr().err == (
            "error: SPECIFIC goal requires specific_relay_id\n")
        assert not out.exists()

    def test_relay_id_of_another_target_warns(self, tmp_path, config_file):
        # the id is ignored, not checked, and the search runs as without it
        args = ["synthesize", "--config", str(config_file), "--target",
                "rocof", "--horizon", "12"]
        plain = run_in_subprocess(*args, "--out", str(tmp_path / "a.json"))
        named = run_in_subprocess(*args, "--relay-id", "nosuch",
                                  "--out", str(tmp_path / "b.json"))
        assert plain.returncode == named.returncode == 0
        assert "ignoring relay_id" not in plain.stderr
        assert ("UserWarning: ignoring relay_id 'nosuch': target is 'rocof', "
                "not 'specific'") in named.stderr
        assert named.stdout == plain.stdout

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

    def test_not_utf8_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(bytes.fromhex("fffe7b7d"))
        with pytest.raises(InvalidParameter) as exc:
            _spec_from_file(spec)
        assert exc.value.field == "spec"
        assert str(exc.value) == "spec: not UTF-8 text"
        out = tmp_path / "records.csv"
        assert run(["sweep", "--spec", str(spec), "--out", str(out),
                    "--workers", "1"]) == 2
        assert "InvalidParameter('spec: not UTF-8 text')" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_not_utf8_base_config_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "grid.json").write_bytes(bytes.fromhex("fffe7b7d"))
        spec = self.spec_file(tmp_path, base_config_file="grid.json")
        data = json.loads(spec.read_text())
        del data["base_config"]
        spec.write_text(json.dumps(data))
        assert run(["sweep", "--spec", str(spec), "--out",
                    str(tmp_path / "records.csv"), "--workers", "1"]) == 2
        assert "InvalidParameter('config: not UTF-8 text')" in \
            capsys.readouterr().err

    def test_unknown_spec_and_goal_keys_warn(self, tmp_path):
        # misspelled keys are ignored, so the spec runs on the defaults
        spec = self.spec_file(tmp_path, toi_pc=[4.0],
                              goal={"horizon": 12, "targt": "rocof"})
        with pytest.warns(UserWarning) as caught:
            parsed, _ = _spec_from_file(spec)
        assert [str(w.message) for w in caught] == [
            "ignoring unknown spec keys: ['toi_pc']",
            "ignoring unknown goal keys: ['targt']"]
        assert parsed.goal.target_kind.value == "any"
        assert parsed.toi_pct_values == (2.0, 10.0)
        proc = run_in_subprocess("sweep", "--spec", str(spec), "--out",
                                 str(tmp_path / "records.csv"), "--workers", "1")
        assert proc.returncode == 0, proc.stderr
        assert "UserWarning: ignoring unknown spec keys: ['toi_pc']" in proc.stderr
        assert "UserWarning: ignoring unknown goal keys: ['targt']" in proc.stderr

    @pytest.mark.parametrize("target", ["any", "rocof", "ls", "specific"])
    def test_spec_relay_id_warns_unless_specific(self, tmp_path, recwarn,
                                                 target):
        spec = self.spec_file(tmp_path, goal={
            "horizon": 12, "target": target, "relay_id": "g4"})
        _spec_from_file(spec)
        messages = [str(w.message) for w in recwarn]
        if target == "specific":
            assert messages == []
        else:
            assert messages == [f"ignoring relay_id 'g4': target is "
                                f"'{target}', not 'specific'"]

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

    def test_missing_base_config_is_named(self, tmp_path, capsys):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"goal": {"horizon": 12}}))
        assert run(["sweep", "--spec", str(p), "--workers", "1",
                    "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: bad sweep spec: InvalidParameter('base_config: missing "
            "required key')\n")
        assert sorted(tmp_path.iterdir()) == [p]

    def test_base_config_file_is_read_beside_the_spec(self, tmp_path,
                                                      monkeypatch):
        # the working directory holds another grid of the same name
        inline = self.spec_file(tmp_path, mode="random", count=40, seed=1)
        study, work = tmp_path / "study", tmp_path / "work"
        study.mkdir()
        work.mkdir()
        data = json.loads(inline.read_text())
        (study / "grid.json").write_text(json.dumps(data.pop("base_config")))
        data["base_config_file"] = "grid.json"
        (study / "spec.json").write_text(json.dumps(data))
        (work / "grid.json").write_text(json.dumps(config_dict(kappa=60.0)))
        monkeypatch.chdir(work)
        for spec, out in ((inline, "inline.csv"), ("../study/spec.json",
                                                   "named.csv")):
            assert run(["sweep", "--spec", str(spec), "--out", out,
                        "--workers", "1"]) == 0
        assert (work / "named.csv").read_bytes() == (
            work / "inline.csv").read_bytes()

    @pytest.mark.parametrize("name,message", [
        (3, "base_config_file: must be a string"),
        ("nosuch.json", "No such file or directory"),
    ], ids=["not-a-string", "missing"])
    def test_bad_base_config_file_exits_2(self, tmp_path, capsys, name,
                                          message):
        spec = self.spec_file(tmp_path, base_config_file=name)
        out = tmp_path / "o.csv"
        assert run(["sweep", "--spec", str(spec), "--workers", "1",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: bad sweep spec" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", [0, 0.0, -1e-4])
    def test_nonpositive_tolerance_exits_2(self, tmp_path, capsys, tolerance):
        spec = self.spec_file(tmp_path, tolerance=tolerance)
        out = tmp_path / "o.csv"
        assert run(["sweep", "--spec", str(spec), "--workers", "1",
                    "--out", str(out)]) == 2
        assert "tolerance: must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

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

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            no_pool)
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
        listing = sorted(tmp_path.iterdir())
        assert run(["sweep", "--spec", str(spec), "--out", str(tmp_path),
                    "--workers", "1"]) == 3
        assert sorted(tmp_path.iterdir()) == listing

    def test_unwritable_meta_leaves_no_records(self, tmp_path, capsys):
        # the records are written, then the .meta.json fails on a directory
        spec = self.spec_file(tmp_path)
        (tmp_path / "r.csv.meta.json").mkdir()
        listing = sorted(tmp_path.iterdir())
        out = tmp_path / "r.csv"
        assert run(["sweep", "--spec", str(spec), "--out", str(out),
                    "--workers", "1"]) == 3
        assert f"error writing {out}: " in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == listing


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

    @pytest.mark.parametrize("blocked", ["out", "csv-dir"])
    def test_unwritable_output_exits_3(self, tmp_path, capsys, blocked):
        records = self.records_file(tmp_path)
        # --out a directory, or --csv-dir a file that the report does not read
        (tmp_path / "a_file").write_text("not a directory\n")
        out, csv_dir = ((tmp_path, tmp_path / "csv") if blocked == "out"
                        else (tmp_path / "trend.json", tmp_path / "a_file"))
        capsys.readouterr()
        listing = sorted(tmp_path.rglob("*"))
        assert run(["report", "--records", str(records), "--out", str(out),
                    "--csv-dir", str(csv_dir)]) == 3
        assert "error writing report: " in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == listing

    def test_failed_report_removes_the_csv_dir_parents_it_made(self,
                                                               tmp_path,
                                                               capsys):
        # the writer makes a/ and a/b/, then the last name is too long
        records = self.records_file(tmp_path)
        csv_dir = tmp_path / "a" / "b" / ("x" * 300)
        capsys.readouterr()
        listing = sorted(tmp_path.rglob("*"))
        assert run(["report", "--records", str(records),
                    "--out", str(tmp_path / "trend.json"),
                    "--csv-dir", str(csv_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error writing report: ") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == listing

    @pytest.mark.parametrize("csv_dir", ["default", "explicit", "linked"])
    def test_out_naming_a_trend_csv_exits_2(self, tmp_path, capsys, csv_dir):
        # the h_s trend CSV would overwrite the report JSON; a directory
        # link names an existing trend CSV by another path
        records = self.records_file(tmp_path)
        argv = ["report", "--records", str(records)]
        if csv_dir == "default":
            out = tmp_path / "trend_h_s.csv"
        else:
            (tmp_path / "csv").mkdir()
            argv += ["--csv-dir", str(tmp_path / "csv")]
            out = tmp_path / "csv" / "trend_h_s.csv"
        if csv_dir == "linked":
            out.write_text("h_s,successes\n")
            (tmp_path / "link").symlink_to(tmp_path / "csv")
            out = tmp_path / "link" / "trend_h_s.csv"
        capsys.readouterr()
        listing = sorted(tmp_path.rglob("*"))
        assert run(argv + ["--out", str(out)]) == 2
        assert ("error: a trend CSV of --csv-dir: names the same file as --out"
                in capsys.readouterr().err)
        assert sorted(tmp_path.rglob("*")) == listing

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


# The bytes of each command's input file.
INPUT_BYTES = {
    "--config": json.dumps(config_dict()).encode(),
    "--spec": json.dumps({"base_config": config_dict(kappa=2.0),
                          "goal": {"horizon": 12}, "h_s": [2.0]}).encode(),
    "--records": (SWEEP_CSV_HEADER
                  + "\n0,2,0.2,0.2,2,20,false,NONE,,,ok\n").encode(),
}
# command, input flag and file, other arguments, and the label and path of
# the output that names the input ("link.json" links to the input)
SELF_OVERWRITES = {
    "simulate-out": ("simulate", "--config", "c.json",
                     ["--dp-a", "0.3", "--horizon", "60", "--out", "c.json"],
                     "--out", "c.json"),
    "simulate-linked-out": ("simulate", "--config", "c.json",
                            ["--dp-a", "0.3", "--horizon", "60",
                             "--out", "link.json"], "--out", "link.json"),
    "synthesize-out": ("synthesize", "--config", "c.json",
                       ["--horizon", "12", "--out", "c.json"],
                       "--out", "c.json"),
    "synthesize-trace-out": ("synthesize", "--config", "c.json",
                             ["--horizon", "12", "--out", "r.json",
                              "--trace-out", "c.json", "--exhaustive"],
                             "--trace-out", "c.json"),
    "synthesize-default-trace": ("synthesize", "--config", "r.json.trace.csv",
                                 ["--horizon", "12", "--out", "r.json"],
                                 "--trace-out", "r.json.trace.csv"),
    "sweep-out": ("sweep", "--spec", "s.json", ["--out", "s.json"],
                  "--out", "s.json"),
    "sweep-meta": ("sweep", "--spec", "r.csv.meta.json", ["--out", "r.csv"],
                   "the .meta.json of --out", "r.csv.meta.json"),
    "report-out": ("report", "--records", "r.csv", ["--out", "r.csv"],
                   "--out", "r.csv"),
    "report-linked-out": ("report", "--records", "r.csv",
                          ["--out", "link.json"], "--out", "link.json"),
    "report-trend-csv": ("report", "--records", "trend_h_s.csv",
                         ["--out", "t.json"], "a trend CSV of --csv-dir",
                         "trend_h_s.csv"),
}


@pytest.mark.parametrize("case", SELF_OVERWRITES)
def test_output_naming_an_input_exits_2(tmp_path, capsys, monkeypatch, case):
    # the command would overwrite what it reads: it exits 2 before it
    # searches, sweeps or writes anything
    command, flag, name, rest, label, out = SELF_OVERWRITES[case]

    def refused(*args, **kwargs):
        raise AssertionError("searched or wrote")
    for attr in ("synthesize_min_attack", "exhaustive_min_attack", "run_sweep",
                 "write_trace_csv", "write_records_csv",
                 "write_trend_outputs"):
        monkeypatch.setattr(f"frosim.cli.{attr}", refused)
    monkeypatch.chdir(tmp_path)
    Path(name).write_bytes(INPUT_BYTES[flag])
    if out == "link.json":
        Path(out).symlink_to(name)
    listing = sorted(tmp_path.iterdir())
    assert run([command, flag, name, *rest]) == 2
    assert capsys.readouterr().err == (
        f"error: {label}: names the same file as {flag} (got {out!r})\n")
    assert Path(name).read_bytes() == INPUT_BYTES[flag]
    assert sorted(tmp_path.iterdir()) == listing


@pytest.mark.parametrize("error", [InvalidParameter("x", "bad", 1),
                                   ValueError("bad value")],
                         ids=["FrosimError", "ValueError"])
@pytest.mark.parametrize("command", ["synthesize", "sweep"])
def test_failure_while_computing_exits_2(tmp_path, capsys, monkeypatch,
                                         command, error):
    # whatever the search or sweep raises of these reads as a bad input,
    # never as exit 1 ("no attack exists") or a traceback
    def fails(*args, **kwargs):
        raise error
    monkeypatch.setattr({"synthesize": "frosim.cli.synthesize_min_attack",
                         "sweep": "frosim.cli.run_sweep"}[command], fails)
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_bytes(INPUT_BYTES["--config"])
    Path("s.json").write_bytes(INPUT_BYTES["--spec"])
    listing = sorted(tmp_path.iterdir())
    argv = {"synthesize": ["--config", "c.json", "--horizon", "12"],
            "sweep": ["--spec", "s.json", "--workers", "1"]}[command]
    assert run([command, *argv, "--out", "o"]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert sorted(tmp_path.iterdir()) == listing


@pytest.mark.parametrize("base,out,label", [
    ("grid.json", "grid.json", "--out"),
    ("r.csv.meta.json", "r.csv", "the .meta.json of --out"),
], ids=["out", "meta"])
def test_sweep_output_naming_the_base_config_file_exits_2(
        tmp_path, capsys, monkeypatch, base, out, label):
    # the spec names its grid beside it, and the output names that file by
    # another path: the sweep exits 2 before it sweeps or writes anything
    def refused(*args, **kwargs):
        raise AssertionError("swept or wrote")
    for attr in ("run_sweep", "write_records_csv"):
        monkeypatch.setattr(f"frosim.cli.{attr}", refused)
    monkeypatch.chdir(tmp_path)
    study = Path("study")
    study.mkdir()
    grid = json.dumps(config_dict()).encode()
    (study / base).write_bytes(grid)
    (study / "s.json").write_text(json.dumps({
        "base_config_file": base, "goal": {"horizon": 12}, "h_s": [2.0]}))
    listing = sorted(tmp_path.rglob("*"))
    assert run(["sweep", "--spec", str(study / "s.json"), "--workers", "1",
                "--out", str(study / out)]) == 2
    assert (f"{label}: names the same file as base_config_file"
            in capsys.readouterr().err)
    assert (study / base).read_bytes() == grid
    assert sorted(tmp_path.rglob("*")) == listing


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


class TestPythonIntegerSpellings:
    """A config built in Python with integer fields, R*T among them beyond
    what products of floats keep exact, runs as its float spelling does
    once :func:`frosim.validate_config` or a :class:`frosim.SweepSpec` has
    read it."""

    BIG = 2 ** 600

    def spelling(self, number):
        """The case-study grid with H, R, T, g4's block and kappa spelled by
        *number*."""
        grid = load_config(CASE_STUDY_GRID)
        return grid._replace(
            params=grid.params._replace(h_inertia=number(2),
                                        droop_r=number(self.BIG),
                                        governor_t=number(self.BIG)),
            generators=[grid.generators[0]._replace(p_tg=number(1)),
                        *grid.generators[1:]],
            capability=grid.capability._replace(kappa=number(60)))

    def test_validation_returns_the_float_spelling(self):
        validated = frosim.validate_config(self.spelling(int))
        assert repr(validated) == repr(self.spelling(float))
        p = validated.params
        reals = [p.h_inertia, p.droop_r, p.governor_t, p.dt, p.f_nominal,
                 *validated.capability]
        for relay in (*validated.generators, *validated.loads):
            reals += relay[2:]
        assert {type(value) for value in reals} == {float}
        assert type(p.rocof_window_m) is int

    def test_a_float_config_is_returned_itself(self):
        config = self.spelling(float)
        assert frosim.validate_config(config) is config

    def test_synthesis_and_simulation(self):
        results = []
        for number in (int, float):
            config = frosim.validate_config(self.spelling(number))
            results.append(repr((
                frosim.synthesize_min_attack(config, frosim.AttackGoal(60)),
                simulate(config, AttackSignal(-0.3), 60))))
        assert results[0] == results[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep(self, workers):
        records = []
        for number in (int, float):
            spec = frosim.SweepSpec(
                base=self.spelling(number),
                goal=frosim.AttackGoal(horizon=12),
                h_values=(2, 6.0), r_values=(0.2,), t_values=(0.2, 1),
                toi_pct_values=(2.0, 10.0), ad_pct_values=(100.0,))
            assert repr(spec.base) == repr(self.spelling(float))
            records.append(repr(frosim.run_sweep(spec, workers=workers)))
        assert records[0] == records[1]


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
    codes = [run_in_subprocess(*argv, timeout=120, cwd=alone).returncode
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
    proc = run_in_subprocess("simulate", "--config", str(cfg), "--dp-a",
                             "0.05", "--horizon", "30", "--out", str(out),
                             timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == frosim.__version__
