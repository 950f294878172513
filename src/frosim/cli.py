"""Command-line front end.

Subcommands: ``simulate`` (run one injection, write the trace CSV),
``synthesize`` (search the minimal successful injection, write result JSON),
``sweep`` (run a parameter study, write the records CSV), and ``report``
(aggregate a records CSV into trend outputs).

Exit codes are a stable contract: 0 success, 1 no attack exists, 2 bad
configuration, spec or flag (including a ``--relay-id`` that names no relay
of the grid, a ``--workers`` outside 1..cpu count and a sweep goal horizon
shorter than one ROCOF window, a ``--trace-out`` that names the ``--out``
file, a report ``--out`` that names one of its trend CSVs, and an output
that names the command's ``--config``, ``--spec``, the spec's
``base_config_file`` or ``--records``), 3 output I/O failure.  A command
that exits 3 removes every output file it created, and a ``report`` the
``--csv-dir`` parents it made.  Commands raise; :func:`run` alone maps a
failure to its exit code and stderr line.  Synthesis answers every goal
exactly and never declines, so no command exits 4.

The environment variable FRO_LOG_LEVEL (error|warn|info|debug) controls
logging verbosity.  At ``error`` and ``warn``, the default, a command loads
no :mod:`logging` and logs nothing, since frosim logs nothing above
``info``; ``info`` and ``debug`` load it and log to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import warnings
from collections import Counter
from pathlib import Path

from . import __version__
from .config import (
    _get,
    _unknown_keys,
    _warn_unknown,
    config_from_dict,
    load_config,
    require_json_type,
)
from .dynamics import (
    AttackSignal,
    SimOptions,
    _check_horizon,
    _steps,
    simulate,  # noqa: F401  (bench/tracer.py times cli.simulate)
    write_trace_csv,
)
from .errors import FrosimError, InvalidParameter
from .sweep import (
    AttackType,
    SweepMode,
    SweepSpec,
    run_sweep,
    read_records_csv,
    trend_csv_path,
    trend_report,
    write_records_csv,
    write_trend_outputs,
)
from .synth import (
    AttackGoal,
    Sign,
    TargetKind,
    _logger,
    check_relay_id,
    exhaustive_min_attack,
    synthesis_result_dict,
    synthesize_min_attack,
)

EXIT_OK = 0
EXIT_NO_ATTACK = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def parse_quantity(text: str, f_nominal: float) -> float:
    """Parse a numeric flag; an ``hz`` suffix converts to per-unit."""
    t = text.strip().lower()
    if t.endswith("hz"):
        return float(t[:-2]) / f_nominal
    if t.endswith("pu"):
        return float(t[:-2])
    return float(t)


def _same_file(a, b) -> bool:
    """Whether paths *a* and *b* name one file: equal absolute paths, or
    the same existing file."""
    return (os.path.abspath(a) == os.path.abspath(b)
            or os.path.exists(a) and os.path.exists(b)
            and os.path.samefile(a, b))


def _check_outputs(flag: str, path, *outputs) -> None:
    """Raise :class:`InvalidParameter` when one of *outputs*, ``(label,
    path)`` pairs, names the input file *path* of *flag*, which the command
    would overwrite."""
    for label, out in outputs:
        if _same_file(out, path):
            raise InvalidParameter(label, f"names the same file as {flag}",
                                   str(out))


class _Exit(Exception):
    """A command failure with its own args: exit code, then stderr line."""


@contextlib.contextmanager
def _writing(what: str, *paths):
    """Run a command's writes to *paths*: on :class:`OSError`, remove those
    of *paths* that did not exist before, in order (files, then a directory
    once it is empty), and fail with exit 3."""
    created = [Path(p) for p in paths if not os.path.lexists(p)]
    try:
        yield
    except OSError as exc:
        for path in created:
            try:
                if path.is_dir():
                    path.rmdir()
                else:
                    path.unlink(missing_ok=True)
            except OSError:
                pass
        raise _Exit(EXIT_IO, f"error writing {what}: {exc}") from exc


def _sim_options(args) -> SimOptions:
    return SimOptions(
        literal_accumulation=args.literal_accumulation,
        literal_signs=args.literal_signs,
        rescale_inertia=args.rescale_inertia,
    )


def _goal(horizon, target: TargetKind, sign: Sign, relay_id,
          attack_step) -> AttackGoal:
    """The goal of a flag set or spec; a relay id that only a ``specific``
    target reads is ignored with a warning under any other target."""
    goal = AttackGoal(horizon, target, sign, relay_id, attack_step)
    if relay_id is not None and target is not TargetKind.SPECIFIC:
        warnings.warn(f"ignoring relay_id {relay_id!r}: target is "
                      f"{target.value!r}, not 'specific'", stacklevel=3)
    return goal


def _goal_from_args(args) -> AttackGoal:
    return _goal(args.horizon, TargetKind(args.target), Sign(args.sign),
                 args.relay_id, args.attack_step)


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    dp_a = parse_quantity(args.dp_a, config.params.f_nominal)
    if not math.isfinite(dp_a):
        raise InvalidParameter("--dp-a", "must be finite", dp_a)
    attack = AttackSignal(dp_a, args.attack_step)
    # the replay loop checks the horizon only once the writer steps it,
    # after the output file exists
    _check_horizon(config, args.horizon)
    _check_outputs("--config", args.config, ("--out", args.out))
    with _writing(args.out, args.out):
        rows, events = write_trace_csv(
            _steps(config, attack, args.horizon, _sim_options(args)), args.out)
    log = _logger("frosim", "INFO")
    if log:
        log.info("trace written to %s (%d rows, %d events)", args.out, rows,
                 events)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    config = load_config(args.config)
    goal = _goal_from_args(args)
    check_relay_id(config, goal)
    tolerance = parse_quantity(args.tolerance, config.params.f_nominal)
    if not 0 < tolerance < math.inf:
        raise InvalidParameter("--tolerance", "must be finite and > 0",
                               tolerance)
    trace_out = args.trace_out or str(args.out) + ".trace.csv"
    # the result would overwrite the trace it names
    _check_outputs("--out", args.out, ("--trace-out", trace_out))
    _check_outputs("--config", args.config, ("--out", args.out),
                   ("--trace-out", trace_out))
    if args.exhaustive:
        outcome = exhaustive_min_attack(config, goal, tolerance)
    else:
        outcome = synthesize_min_attack(config, goal)

    trace_file = trace_out if outcome.success else None
    with _writing("results", *filter(None, (trace_file, args.out))):
        if outcome.success:
            write_trace_csv(outcome.vector.trace, trace_file)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(synthesis_result_dict(outcome, trace_file), fh, indent=2)
            fh.write("\n")

    if not outcome.success:
        print("no attack exists within the capability bound")
        return EXIT_NO_ATTACK
    v = outcome.vector
    print(f"success: dp_a={v.dp_a:.6g} pu trips {v.outcome.relay_id} "
          f"({v.outcome.kind.json_name}) at step {v.outcome.trip_step}")
    return EXIT_OK


#: The swept parameters: spec key and :class:`SweepSpec` field.
_SWEPT = (("h_s", "h_values"), ("r_pu", "r_values"), ("t_s", "t_values"),
          ("toi_pct", "toi_pct_values"), ("ad_pct", "ad_pct_values"))
_SPEC_KEYS = {"base_config", "base_config_file", "goal", "mode", "count",
              "seed", "tolerance", *(key for key, _ in _SWEPT)}
_GOAL_KEYS = {"horizon", "target", "sign", "relay_id", "attack_step"}


def _member(kind, value, fld: str):
    """The member of enum *kind* whose value is *value*, else
    :class:`InvalidParameter` naming *fld* and the values allowed."""
    try:
        return kind(value)
    except ValueError:
        raise InvalidParameter(fld, "must be one of " + ", ".join(
            repr(m.value) for m in kind), value) from None


def _spec_from_file(path, seed_override=None, outputs=()) -> tuple[SweepSpec, str]:
    """The spec in the JSON file at *path*, and the sha256 of its bytes.

    Unknown top-level and ``goal`` keys are ignored with a warning each, as
    :func:`~frosim.config.config_from_dict` ignores unknown config keys.
    A file that is not UTF-8 text, a missing required key and an enum
    value outside its choices raise :class:`InvalidParameter`.
    An output of *outputs*, ``(label, path)`` pairs, that names the
    ``base_config_file`` raises :class:`InvalidParameter`, as
    :func:`_check_outputs` does.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParameter("spec", "not UTF-8 text") from exc
    try:
        parsed = json.loads(text)
    except RecursionError as exc:
        raise InvalidParameter("spec", "nested too deeply") from exc
    data = require_json_type(parsed, "spec", dict)
    _warn_unknown("spec", _unknown_keys(data, _SPEC_KEYS), 2)
    if "base_config_file" in data:
        name = require_json_type(data["base_config_file"], "base_config_file", str)
        _check_outputs("base_config_file", Path(path).parent / name, *outputs)
        base = load_config(Path(path).parent / name)
    elif "base_config" in data:
        base = config_from_dict(data["base_config"])
    else:
        raise InvalidParameter("base_config", "missing required key")
    g = _get(data, "goal", dict)
    _warn_unknown("goal", _unknown_keys(g, _GOAL_KEYS), 2)
    horizon = _get(g, "horizon", int, "goal")
    for key, kind in (("attack_step", int), ("relay_id", str)):
        if key in g:
            require_json_type(g[key], f"goal.{key}", kind)
    goal = _goal(horizon,
                 _member(TargetKind, g.get("target", "any"), "goal.target"),
                 _member(Sign, g.get("sign", "positive"), "goal.sign"),
                 g.get("relay_id"), g.get("attack_step", 0))
    kwargs = {}
    for json_key, field_name in _SWEPT:
        if json_key in data:
            values = require_json_type(data[json_key], json_key, list)
            kwargs[field_name] = [require_json_type(v, f"{json_key}[{i}]", float)
                                  for i, v in enumerate(values)]
    seed = seed_override if seed_override is not None else data.get("seed", 0)
    require_json_type(seed, "seed", int)
    spec = SweepSpec(
        base=base,
        goal=goal,
        mode=_member(SweepMode, data.get("mode", "cartesian"), "mode"),
        count=data.get("count"),
        seed=seed,
        tolerance=require_json_type(data.get("tolerance", 1e-4), "tolerance",
                                    float),
        **kwargs,
    )
    # imported here so that only `sweep`, the one command that hashes a
    # spec, pays for loading hashlib
    import hashlib
    return spec, hashlib.sha256(raw).hexdigest()


def cmd_sweep(args) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise _Exit(EXIT_CONFIG, f"error: --workers must be in 1..{cpus} "
                                 f"(got {args.workers})")
    meta = str(args.out) + ".meta.json"
    outputs = (("--out", args.out), ("the .meta.json of --out", meta))
    _check_outputs("--spec", args.spec, *outputs)
    try:
        spec, spec_sha256 = _spec_from_file(args.spec, args.seed, outputs)
    except (FrosimError, OSError, ValueError) as exc:
        raise _Exit(EXIT_CONFIG, f"error: bad sweep spec: {exc!r}") from exc
    records = run_sweep(spec, workers=args.workers)
    # one pass over the records, into columns; each count below runs in C
    (*_, successes, attack_types, _, _, statuses) = zip(*records)
    with _writing(args.out, args.out, meta):
        write_records_csv(records, args.out)
        with open(meta, "w", encoding="utf-8") as fh:
            json.dump({
                "mode": spec.mode.value,
                "count": len(records),
                "seed": spec.seed,
                "tolerance": spec.tolerance,
                "workers": args.workers,
                "frosim_version": __version__,
                "spec_sha256": spec_sha256,
                "status_counts": dict(sorted(Counter(statuses).items())),
            }, fh, indent=2)
            fh.write("\n")
    print(f"{len(records)} combinations, {sum(map(bool, successes))} "
          f"successful ({attack_types.count(AttackType.ROCOF)} ROCOF, "
          f"{attack_types.count(AttackType.LS)} LS); "
          f"mode={spec.mode.value} seed={spec.seed}")
    return EXIT_OK


def cmd_report(args) -> int:
    csv_dir = Path(args.csv_dir or Path(args.out).parent)
    records = read_records_csv(args.records)
    report = trend_report(records)
    csvs = [trend_csv_path(csv_dir, name) for name in report.parameters]
    # a trend CSV would overwrite the report
    if any(_same_file(args.out, csv) for csv in csvs):
        raise InvalidParameter("--out", "names a trend CSV of --csv-dir",
                               args.out)
    _check_outputs("--records", args.records, ("--out", args.out),
                   *(("a trend CSV of --csv-dir", csv) for csv in csvs))
    # the writer makes --csv-dir and its missing parents, removed deepest first
    with _writing("report", args.out, *csvs, csv_dir, *csv_dir.parents):
        write_trend_outputs(report, args.out, csv_dir)
    print(f"{report.total_records} records, {report.total_successes} successes, "
          f"{report.excluded_records} excluded (status not ok)")
    for name, trend in report.parameters.items():
        marker = "ok" if trend.matches_expected else "MISMATCH"
        print(f"  {name}: verdict={trend.verdict} expected={trend.expected} "
              f"[{marker}]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frosim",
        description="Grid frequency-dynamics simulation and false-relay-"
                    "operation attack studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one injection and write the trace CSV")
    p.add_argument("--config", required=True, help="grid config JSON")
    p.add_argument("--dp-a", required=True,
                   help="injection magnitude, per-unit (suffix 'hz' divides "
                        "by nominal frequency)")
    p.add_argument("--attack-step", type=int, default=0)
    p.add_argument("--horizon", type=int, required=True, help="steps to simulate")
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--literal-accumulation", action="store_true",
                   help="relays re-add their block every qualifying step")
    p.add_argument("--literal-signs", action="store_true",
                   help="apply shed load with the frequency-lowering sign")
    p.add_argument("--rescale-inertia", action="store_true",
                   help="scale H by surviving generation share after trips")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synthesize", help="find the minimal successful injection")
    p.add_argument("--config", required=True)
    p.add_argument("--target", choices=[k.value for k in TargetKind], default="any")
    p.add_argument("--relay-id", default=None,
                   help="relay id for --target specific")
    p.add_argument("--sign", choices=[s.value for s in Sign], default="positive")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--attack-step", type=int, default=0)
    p.add_argument("--tolerance", default="1e-4",
                   help="resolution of --exhaustive, per-unit")
    p.add_argument("--exhaustive", action="store_true",
                   help="scan every magnitude at the tolerance resolution "
                        "instead of the exact search")
    p.add_argument("--out", required=True, help="result JSON path")
    p.add_argument("--trace-out", default=None,
                   help="winning trace CSV path (default: OUT.trace.csv)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("sweep", help="run a parameter study")
    p.add_argument("--spec", required=True, help="sweep spec JSON")
    p.add_argument("--out", required=True, help="records CSV path")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--seed", type=int, default=None,
                   help="override the spec's RANDOM seed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate sweep records into trends")
    p.add_argument("--records", required=True, help="sweep records CSV")
    p.add_argument("--out", required=True, help="trend report JSON path")
    p.add_argument("--csv-dir", default=None,
                   help="directory for per-parameter CSVs (default: next to OUT)")
    p.set_defaults(func=cmd_report)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first command, not at import: parsing leaves the parser
    # as it was, so one serves every command of the process.
    return build_parser()


def run(argv=None) -> int:
    level = os.environ.get("FRO_LOG_LEVEL", "warn").lower()
    if level in ("info", "debug"):
        # imported here: no line is logged above INFO, so no other level
        # pays for loading logging
        import logging
        logging.basicConfig(level=level.upper(),
                            format="%(levelname)s %(name)s: %(message)s")
    args = _parser().parse_args(argv)
    # the one failure path of every command
    try:
        return args.func(args)
    except _Exit as exc:
        code, line = exc.args
        print(line, file=sys.stderr)
        return code
    except (FrosimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
