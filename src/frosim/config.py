"""Static grid configuration: dynamic parameters, relay rosters, attacker capability.

All values are kept in the units they are quoted in by operators: inertia,
time constants, and the simulation step in seconds; droop and power blocks in
per-unit on the system base; relay thresholds in Hz (load shedding) and Hz/s
(ROCOF).  The frequency deviation itself is carried in per-unit of the nominal
frequency inside the dynamics engine, and thresholds are converted at the
point of comparison.

Configuration values are immutable after validation and safe to share across
concurrent workers.

JSON schema accepted by :func:`load_config` (all keys required unless a
default is given):

    {
      "frequency_nominal_hz": number (default 60),
      "dt_s": number,
      "inertia_h_s": number,
      "droop_r_pu": number,
      "governor_t_s": number,
      "rocof_window_m": integer,
      "generators": [
        {"id": str, "bus": str, "p_tg_pu": number, "rocof_thresh_hz_per_s": number}
      ],
      "loads": [
        {"id": str, "bus": str, "p_sh_pu": number, "underfreq_thresh_hz": number}
      ],
      "attacker": {
        "toi": number, "ad": number, "der_total_pu": number,
        "kappa": number (default 1)
      }
    }
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, replace

from .errors import InvalidParameter, StabilityViolation

#: Customary range for ROCOF relay settings, Hz/s.  Values outside this band
#: are accepted with a warning.
ROCOF_THRESHOLD_BAND = (0.5, 1.2)


@dataclass(frozen=True)
class GridParams:
    """Aggregate dynamic parameters of the grid.

    h_inertia      -- inertia constant H of the equivalent machine, seconds
    droop_r        -- governor droop R, per-unit frequency per per-unit power
    governor_t     -- governor time constant T, seconds
    dt             -- simulation step, seconds (default: one 60 Hz cycle)
    rocof_window_m -- number of cycles averaged by the ROCOF measurement
    f_nominal      -- nominal frequency, Hz
    """

    h_inertia: float
    droop_r: float
    governor_t: float
    dt: float = 1.0 / 60.0
    rocof_window_m: int = 6
    f_nominal: float = 60.0

    @property
    def delta_f_coefficient(self) -> float:
        """Multiplier applied to the frequency deviation each step.

        Equals ``1 - dt**2 / (4*H*R*T)``; the explicit update is stable and
        non-oscillatory only when this lies in (-1, 1].
        """
        return 1.0 - self.dt ** 2 / (4.0 * self.h_inertia * self.droop_r * self.governor_t)


@dataclass(frozen=True)
class GeneratorRelay:
    """A generator protected by a ROCOF relay.

    Tripping removes ``p_tg`` per-unit of generation.  The relay operates when
    the magnitude of the windowed frequency slope reaches ``rocof_threshold``
    (Hz/s).
    """

    id: str
    bus: str
    p_tg: float
    rocof_threshold: float


@dataclass(frozen=True)
class LoadRelay:
    """A load block protected by an under-frequency shedding relay.

    Operating sheds ``p_sh`` per-unit of load once frequency falls to
    ``underfreq_threshold`` (Hz).
    """

    id: str
    bus: str
    p_sh: float
    underfreq_threshold: float


@dataclass(frozen=True)
class AttackerCapability:
    """What the attacker can reach and how hard they can push.

    toi       -- fraction of each measurement that can be falsified undetected
    ad        -- fraction of DER measurements the attacker can access
    der_total -- total DER generation subject to manipulation, per-unit
    kappa     -- calibration factor mapping (toi, ad, der_total) onto the
                 admissible setpoint change; see :func:`capability_bound`
    """

    toi: float
    ad: float
    der_total: float
    kappa: float = 1.0


@dataclass(frozen=True)
class GridConfig:
    """Complete static description of one study grid."""

    params: GridParams
    generators: tuple[GeneratorRelay, ...]
    loads: tuple[LoadRelay, ...]
    capability: AttackerCapability

    def __post_init__(self):
        # Accept lists for convenience; store tuples so configs hash/share safely.
        if not isinstance(self.generators, tuple):
            object.__setattr__(self, "generators", tuple(self.generators))
        if not isinstance(self.loads, tuple):
            object.__setattr__(self, "loads", tuple(self.loads))


def _require(cond: bool, fld: str, message: str, value) -> None:
    if not cond:
        raise InvalidParameter(fld, message, value)


def validate_config(config: GridConfig) -> GridConfig:
    """Check every invariant of *config* and return an equal config.

    Raises :class:`InvalidParameter` naming the offending field, or
    :class:`StabilityViolation` when the step size is incompatible with the
    governor time constant.  The dynamics and rosters are checked before the
    capability, so their error is the one raised when both are invalid.
    """
    return with_valid_capability(validate_grid(config), config.capability)


def validate_grid(config: GridConfig) -> GridConfig:
    """Run the checks of :func:`validate_config` that do not read the
    capability, and return *config* itself, its capability unchecked.

    Configs that differ only in capability, as the combinations of one
    sweep (H, R, T) do, share one result and check each capability through
    :func:`with_valid_capability` or :func:`_valid_bound`.
    """
    p = config.params
    _require(p.h_inertia > 0, "h_inertia", "must be > 0", p.h_inertia)
    _require(p.droop_r > 0, "droop_r", "must be > 0", p.droop_r)
    _require(p.governor_t > 0, "governor_t", "must be > 0", p.governor_t)
    _require(p.dt > 0, "dt", "must be > 0", p.dt)
    _require(
        isinstance(p.rocof_window_m, int) and p.rocof_window_m >= 1,
        "rocof_window_m", "must be an integer >= 1", p.rocof_window_m,
    )
    _require(p.f_nominal > 0, "f_nominal", "must be > 0", p.f_nominal)
    # the quotients the step kernel derives from the params, each finite
    # (a zero divisor is an underflowed product), or every replay steps
    # into inf and NaN and reads as no attack
    four_h = 4.0 * p.h_inertia
    for name, numerator, divisor in (
            ("4*h_inertia/dt", four_h, p.dt),
            ("dt/(4*h_inertia)", p.dt, four_h),
            ("dt/(droop_r*governor_t)", p.dt, p.droop_r * p.governor_t),
            ("f_nominal/(rocof_window_m*dt)", p.f_nominal,
             p.rocof_window_m * p.dt)):
        factor = numerator / divisor if divisor else math.inf
        _require(is_finite_real(factor), name, "must be finite", factor)

    if p.dt > p.governor_t:
        raise StabilityViolation(
            f"dt={p.dt} exceeds governor_t={p.governor_t}; "
            "the explicit governor update would overshoot",
        )
    try:
        coeff = p.delta_f_coefficient
    except ZeroDivisionError:  # 4*H*R*T underflows to 0
        coeff = -math.inf
    if not (-1.0 < coeff <= 1.0):
        raise StabilityViolation(
            f"frequency-update coefficient {coeff} outside (-1, 1]; "
            "reduce dt or increase H*R*T",
            coefficient=coeff,
        )

    _require(len(config.generators) >= 1, "generators", "at least one required",
             len(config.generators))
    _require(len(config.loads) >= 1, "loads", "at least one required",
             len(config.loads))

    seen = set()
    for i, g in enumerate(config.generators):
        _require(g.p_tg > 0, f"generators[{i}].p_tg", "must be > 0", g.p_tg)
        _require(g.rocof_threshold > 0, f"generators[{i}].rocof_threshold",
                 "must be > 0", g.rocof_threshold)
        _require(g.id not in seen, f"generators[{i}].id", "must be unique", g.id)
        seen.add(g.id)
        lo, hi = ROCOF_THRESHOLD_BAND
        if not (lo <= g.rocof_threshold <= hi):
            warnings.warn(
                f"generator relay {g.id!r}: rocof_threshold "
                f"{g.rocof_threshold} Hz/s outside the customary "
                f"[{lo}, {hi}] band",
                stacklevel=3,  # the caller of validate_config
            )

    seen = set()
    for i, l in enumerate(config.loads):
        _require(l.p_sh > 0, f"loads[{i}].p_sh", "must be > 0", l.p_sh)
        _require(0 < l.underfreq_threshold < p.f_nominal,
                 f"loads[{i}].underfreq_threshold",
                 f"must lie in (0, {p.f_nominal})", l.underfreq_threshold)
        _require(l.id not in seen, f"loads[{i}].id", "must be unique", l.id)
        seen.add(l.id)

    return config


def with_valid_capability(grid: GridConfig,
                          cap: AttackerCapability) -> GridConfig:
    """*grid*, from :func:`validate_grid`, with capability *cap* after the
    capability checks of :func:`validate_config`."""
    _valid_bound(cap.toi, cap.ad, cap.der_total, cap.kappa)
    return GridConfig(grid.params, grid.generators, grid.loads, cap)


def _valid_bound(toi, ad, der_total, kappa) -> float:
    """The :func:`capability_bound` of these capability fields, after the
    capability checks of :func:`validate_config`, with no capability built."""
    _require(0 <= toi <= 1, "capability.toi", "must lie in [0, 1]", toi)
    _require(0 <= ad <= 1, "capability.ad", "must lie in [0, 1]", ad)
    _require(der_total >= 0, "capability.der_total", "must be >= 0", der_total)
    _require(kappa >= 0, "capability.kappa", "must be >= 0", kappa)
    bound = kappa * toi * ad * der_total  # as capability_bound multiplies
    _require(is_finite_real(bound), "capability",
             "bound kappa*toi*ad*der_total must be finite", bound)
    return bound


def capability_bound(cap: AttackerCapability) -> float:
    """Largest admissible injection magnitude, per-unit.

    The mapping is linear, ``kappa * toi * ad * der_total``, with ``kappa``
    as an explicit calibration knob: the fraction of reachable DER output
    the attacker can misreport translates one-for-one into a perceived
    generation change, scaled by ``kappa``.
    """
    return cap.kappa * cap.toi * cap.ad * cap.der_total


# ---------------------------------------------------------------------------
# JSON ingestion

_TOP_KEYS = {
    "frequency_nominal_hz", "dt_s", "inertia_h_s", "droop_r_pu",
    "governor_t_s", "rocof_window_m", "generators", "loads", "attacker",
}


def is_finite_real(value) -> bool:
    """A real number, not a ``bool`` (JSON ``true`` is no number), that a
    float holds finitely: NaN, the infinities and integers beyond the float
    range are not."""
    # the concrete check first: it is the common case and much cheaper
    return ((isinstance(value, (int, float)) or isinstance(value, numbers.Real))
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


_KINDS = {float: "a finite number", int: "an integer", list: "a list",
          dict: "an object", str: "a string"}


def require_json_type(value, fld: str, kind: type):
    """Return *value* if it is of the JSON *kind*, else raise
    :class:`InvalidParameter` naming *fld*.

    ``float`` admits a number that :func:`is_finite_real` accepts and
    returns it as a float, ``int`` an integer, neither a boolean; ``list``,
    ``dict`` and ``str`` are the JSON array, object and string.  A JSON
    integer read as a real runs as its float spelling does: kept an
    integer, products such as ``R*T`` of two large ones are exact and can
    outgrow what a float converts from.
    """
    if kind is float:
        if is_finite_real(value):
            return float(value)
        ok = False
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise InvalidParameter(fld, f"must be {_KINDS[kind]}", value)
    return value


def _get(d: dict, key: str, where: str, kind: type):
    if key not in d:
        raise InvalidParameter(f"{where}{key}", "missing required key", None)
    return require_json_type(d[key], f"{where}{key}", kind)


def config_from_dict(data: dict) -> GridConfig:
    """Build and validate a config from a parsed JSON object.

    Every field must have its JSON type: numbers finite and not booleans
    (read as floats, but ``rocof_window_m`` an integer), ``generators`` and
    ``loads`` lists of objects, ``id`` and ``bus`` strings, ``attacker`` an
    object.  Anything else raises :class:`InvalidParameter`.
    """
    if not isinstance(data, dict):
        raise InvalidParameter("config", "top level must be an object", type(data).__name__)
    unknown = set(data) - _TOP_KEYS
    if unknown:
        warnings.warn(f"ignoring unknown config keys: {sorted(unknown)}", stacklevel=2)

    window = _get(data, "rocof_window_m", "", int)
    require_json_type(window, "rocof_window_m", float)  # and a float holds it
    params = GridParams(
        h_inertia=_get(data, "inertia_h_s", "", float),
        droop_r=_get(data, "droop_r_pu", "", float),
        governor_t=_get(data, "governor_t_s", "", float),
        dt=_get(data, "dt_s", "", float),
        rocof_window_m=window,
        f_nominal=require_json_type(data.get("frequency_nominal_hz", 60.0),
                                    "frequency_nominal_hz", float),
    )
    gens = []
    for i, g in enumerate(_get(data, "generators", "", list)):
        where = f"generators[{i}]."
        g = require_json_type(g, f"generators[{i}]", dict)
        gens.append(GeneratorRelay(
            id=_get(g, "id", where, str),
            bus=_get(g, "bus", where, str),
            p_tg=_get(g, "p_tg_pu", where, float),
            rocof_threshold=_get(g, "rocof_thresh_hz_per_s", where, float),
        ))
    loads = []
    for i, l in enumerate(_get(data, "loads", "", list)):
        where = f"loads[{i}]."
        l = require_json_type(l, f"loads[{i}]", dict)
        loads.append(LoadRelay(
            id=_get(l, "id", where, str),
            bus=_get(l, "bus", where, str),
            p_sh=_get(l, "p_sh_pu", where, float),
            underfreq_threshold=_get(l, "underfreq_thresh_hz", where, float),
        ))
    a = _get(data, "attacker", "", dict)
    cap = AttackerCapability(
        toi=_get(a, "toi", "attacker.", float),
        ad=_get(a, "ad", "attacker.", float),
        der_total=_get(a, "der_total_pu", "attacker.", float),
        kappa=require_json_type(a.get("kappa", 1.0), "attacker.kappa", float),
    )
    return validate_config(GridConfig(params, tuple(gens), tuple(loads), cap))


def load_config(path) -> GridConfig:
    """Read, parse, and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameter("config", f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InvalidParameter("config", "nested too deeply") from exc
    return config_from_dict(data)


def with_dynamics(config: GridConfig, *, h_inertia=None, droop_r=None,
                  governor_t=None) -> GridConfig:
    """Return a copy of *config* with some dynamic parameters replaced."""
    params = config.params
    params = replace(
        params,
        h_inertia=params.h_inertia if h_inertia is None else h_inertia,
        droop_r=params.droop_r if droop_r is None else droop_r,
        governor_t=params.governor_t if governor_t is None else governor_t,
    )
    return GridConfig(params, config.generators, config.loads, config.capability)


def with_capability(config: GridConfig, *, toi=None, ad=None, der_total=None,
                    kappa=None) -> GridConfig:
    """Return a copy of *config* with some capability fields replaced."""
    cap = config.capability
    cap = AttackerCapability(
        toi=cap.toi if toi is None else toi,
        ad=cap.ad if ad is None else ad,
        der_total=cap.der_total if der_total is None else der_total,
        kappa=cap.kappa if kappa is None else kappa,
    )
    return GridConfig(config.params, config.generators, config.loads, cap)
