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
from typing import NamedTuple

from .errors import InvalidParameter, StabilityViolation

#: Customary range for ROCOF relay settings, Hz/s.  Values outside this band
#: are accepted with a warning.
ROCOF_THRESHOLD_BAND = (0.5, 1.2)


class GridParams(NamedTuple):
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


class GeneratorRelay(NamedTuple):
    """A generator protected by a ROCOF relay.

    Tripping removes ``p_tg`` per-unit of generation.  The relay operates when
    the magnitude of the windowed frequency slope reaches ``rocof_threshold``
    (Hz/s).
    """

    id: str
    bus: str
    p_tg: float
    rocof_threshold: float


class LoadRelay(NamedTuple):
    """A load block protected by an under-frequency shedding relay.

    Operating sheds ``p_sh`` per-unit of load once frequency falls to
    ``underfreq_threshold`` (Hz).
    """

    id: str
    bus: str
    p_sh: float
    underfreq_threshold: float


class AttackerCapability(NamedTuple):
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


class _GridConfig(NamedTuple):
    params: GridParams
    generators: tuple[GeneratorRelay, ...]
    loads: tuple[LoadRelay, ...]
    capability: AttackerCapability


class GridConfig(_GridConfig):
    """Complete static description of one study grid; its ``__dict__``
    (no ``__slots__``) keeps :mod:`frosim.dynamics`' step constants."""

    def __new__(cls, params, generators, loads, capability):
        # Accept lists for convenience; store tuples so configs hash/share safely.
        return super().__new__(cls, params, tuple(generators), tuple(loads),
                               capability)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace runs __new__


def _field(key: str, roster=None, index=None) -> str:
    """The name of field *key*: bare, or ``roster.key``, or, with an
    *index*, ``roster[index].key``."""
    if roster is None:
        return key
    if index is None:
        return f"{roster}.{key}"
    return f"{roster}[{index}].{key}"


def _require(cond: bool, fld: str, message: str, value, roster=None,
             index=None) -> None:
    """Raise :class:`InvalidParameter` unless *cond*, the field named as
    :func:`_field` names it, which is done only then."""
    if not cond:
        raise InvalidParameter(_field(fld, roster, index), message, value)


def validate_config(config: GridConfig) -> GridConfig:
    """Check every invariant of *config* and return *config* itself.

    Raises :class:`InvalidParameter` naming the offending field, or
    :class:`StabilityViolation` when the step size is incompatible with the
    governor time constant.  The dynamics and rosters are checked before the
    capability, so their error is the one raised when both are invalid.
    """
    validate_grid(config)
    cap = config.capability
    _valid_bound(cap.toi, cap.ad, cap.der_total, cap.kappa)
    return config


def validate_grid(config: GridConfig) -> GridConfig:
    """Run the checks of :func:`validate_config` that do not read the
    capability, and return *config* itself, its capability unchecked.

    Configs that differ only in capability, as the combinations of one
    sweep (H, R, T) do, share one result and check each capability's fields
    through :func:`_valid_bound`.
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
    # into inf and NaN and reads as no attack.  An integer field or product
    # beyond the float range in a numerator makes the quotient infinite; one
    # only in a divisor is named last, as the kernel cannot divide by it.
    # A divisor is the product of its two factors, or its first alone
    h4, dt = 4 * p.h_inertia, p.dt
    divisor_only = None
    for name, numerator, factor, other in (
            ("4*h_inertia/dt", h4, dt, None),
            ("dt/(4*h_inertia)", dt, h4, None),
            ("dt/(droop_r*governor_t)", dt, p.droop_r, p.governor_t),
            ("f_nominal/(rocof_window_m*dt)", p.f_nominal, p.rocof_window_m,
             dt)):
        try:
            quotient = numerator / (factor if other is None else factor * other)
        except ZeroDivisionError:
            quotient = math.inf
        except OverflowError:
            if is_finite_real(numerator):
                divisor_only = divisor_only or name
                continue
            quotient = math.inf
        _require(is_finite_real(quotient), name, "must be finite", quotient)
    _require(divisor_only is None, divisor_only, "must be finite", math.inf)

    if p.dt > p.governor_t:
        raise StabilityViolation(
            f"dt={p.dt} exceeds governor_t={p.governor_t}; "
            "the explicit governor update would overshoot",
        )
    try:
        coeff = p.delta_f_coefficient
    except ZeroDivisionError:  # 4*H*R*T underflows to 0
        coeff = -math.inf
    except OverflowError:  # an integer factor of 4*H*R*T beyond the floats
        raise InvalidParameter("dt**2/(4*h_inertia*droop_r*governor_t)",
                               "must be finite", math.inf) from None
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

    seen = set()  # relay ids, unique across both rosters
    lo, hi = ROCOF_THRESHOLD_BAND
    for i, g in enumerate(config.generators):
        _require(g.p_tg > 0, "p_tg", "must be > 0", g.p_tg, "generators", i)
        _require(g.rocof_threshold > 0, "rocof_threshold", "must be > 0",
                 g.rocof_threshold, "generators", i)
        _require(g.id not in seen, "id", "must be unique", g.id,
                 "generators", i)
        seen.add(g.id)
        if not (lo <= g.rocof_threshold <= hi):
            warnings.warn(
                f"generator relay {g.id!r}: rocof_threshold "
                f"{g.rocof_threshold} Hz/s outside the customary "
                f"[{lo}, {hi}] band",
                stacklevel=3,  # the caller of validate_config
            )

    for i, l in enumerate(config.loads):
        _require(l.p_sh > 0, "p_sh", "must be > 0", l.p_sh, "loads", i)
        if not 0 < l.underfreq_threshold < p.f_nominal:
            raise InvalidParameter(f"loads[{i}].underfreq_threshold",
                                   f"must lie in (0, {p.f_nominal})",
                                   l.underfreq_threshold)
        _require(l.id not in seen, "id", "must be unique", l.id, "loads", i)
        seen.add(l.id)

    return config


def _valid_bound(toi, ad, der_total, kappa) -> float:
    """The :func:`capability_bound` of these capability fields, after the
    capability checks of :func:`validate_config`, with no capability built."""
    _require(0 <= toi <= 1, "capability.toi", "must lie in [0, 1]", toi)
    _require(0 <= ad <= 1, "capability.ad", "must lie in [0, 1]", ad)
    _require(der_total >= 0, "capability.der_total", "must be >= 0", der_total)
    _require(kappa >= 0, "capability.kappa", "must be >= 0", kappa)
    try:
        bound = kappa * toi * ad * der_total  # as capability_bound multiplies
    except OverflowError:  # a float times an integer beyond the floats
        bound = None
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
_ROSTER_KEYS = (
    ("generators", {"id", "bus", "p_tg_pu", "rocof_thresh_hz_per_s"}),
    ("loads", {"id", "bus", "p_sh_pu", "underfreq_thresh_hz"}),
)
_ATTACKER_KEYS = {"toi", "ad", "der_total_pu", "kappa"}

_FLOAT_MAX = sys.float_info.max


def is_finite_real(value) -> bool:
    """A real number, not a ``bool`` (JSON ``true`` is no number), that a
    float holds finitely: NaN, the infinities and integers beyond the float
    range are not."""
    # the exact JSON types first: the common case, and much cheaper
    if type(value) is float or type(value) is int:
        return -_FLOAT_MAX <= value <= _FLOAT_MAX
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= _FLOAT_MAX)


_KINDS = {float: "a finite number", int: "an integer", list: "a list",
          dict: "an object", str: "a string"}


def require_json_type(value, fld: str, kind: type):
    """Return *value* if it is of the JSON *kind*, else raise
    :class:`InvalidParameter` naming *fld*.

    ``float`` admits a number that :func:`is_finite_real` accepts and
    returns it as a float, ``int`` an integer, neither a boolean; ``list``,
    ``dict`` and ``str`` are the JSON array, object and string.  A JSON
    integer read as a real becomes its float, so it runs as its float
    spelling does: a product such as ``R*T`` of two large ones overflows
    to ``inf``, not to an exact integer beyond the floats.
    """
    if type(value) is kind and (kind is not float
                                or -_FLOAT_MAX <= value <= _FLOAT_MAX):
        return value
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


def _get(d: dict, key: str, kind: type, roster=None, index=None):
    """``d[key]`` checked as :func:`require_json_type` checks it, the field
    named as :func:`_field` names it."""
    if key not in d:
        raise InvalidParameter(_field(key, roster, index),
                               "missing required key", None)
    value = d[key]
    if type(value) is kind and (kind is not float
                                or -_FLOAT_MAX <= value <= _FLOAT_MAX):
        return value
    return require_json_type(value, _field(key, roster, index), kind)


def _unknown_keys(data: dict, known: set, roster=None, index=None) -> list:
    """The keys of *data* outside *known*, sorted, each named as
    :func:`_field` names it."""
    if known.issuperset(data):  # the common case, and much cheaper
        return []
    return [_field(key, roster, index) for key in sorted(data.keys() - known)]


def _warn_unknown(where: str, names: list, stacklevel: int) -> None:
    """Warn once that the keys *names* of the *where* document are ignored;
    *stacklevel* counts as :func:`warnings.warn` does from the caller."""
    if names:
        warnings.warn(f"ignoring unknown {where} keys: {names}",
                      stacklevel=stacklevel + 1)


def config_from_dict(data: dict) -> GridConfig:
    """Build and validate a config from a parsed JSON object.

    Every field must have its JSON type: numbers finite and not booleans
    (read as floats, but ``rocof_window_m`` an integer), ``generators`` and
    ``loads`` lists of objects, ``id`` and ``bus`` strings, ``attacker`` an
    object.  Anything else raises :class:`InvalidParameter`.  Unknown keys,
    at the top level and in ``attacker`` and each relay object, are ignored
    with one warning that names each by its path, such as
    ``generators[0].colour``, before any field is checked.
    """
    if not isinstance(data, dict):
        raise InvalidParameter("config", "top level must be an object", type(data).__name__)
    unknown = _unknown_keys(data, _TOP_KEYS)
    for roster, known in _ROSTER_KEYS:
        relays = data.get(roster)
        if isinstance(relays, list):
            for i, relay in enumerate(relays):
                if isinstance(relay, dict):
                    unknown += _unknown_keys(relay, known, roster, i)
    if isinstance(data.get("attacker"), dict):
        unknown += _unknown_keys(data["attacker"], _ATTACKER_KEYS, "attacker")
    _warn_unknown("config", unknown, 2)

    window = _get(data, "rocof_window_m", int)
    require_json_type(window, "rocof_window_m", float)  # and a float holds it
    params = GridParams(
        _get(data, "inertia_h_s", float),
        _get(data, "droop_r_pu", float),
        _get(data, "governor_t_s", float),
        _get(data, "dt_s", float),
        window,
        require_json_type(data.get("frequency_nominal_hz", 60.0),
                          "frequency_nominal_hz", float),
    )
    gens = []
    for i, g in enumerate(_get(data, "generators", list)):
        if type(g) is not dict:
            g = require_json_type(g, f"generators[{i}]", dict)
        gens.append(GeneratorRelay(
            _get(g, "id", str, "generators", i),
            _get(g, "bus", str, "generators", i),
            _get(g, "p_tg_pu", float, "generators", i),
            _get(g, "rocof_thresh_hz_per_s", float, "generators", i),
        ))
    loads = []
    for i, l in enumerate(_get(data, "loads", list)):
        if type(l) is not dict:
            l = require_json_type(l, f"loads[{i}]", dict)
        loads.append(LoadRelay(
            _get(l, "id", str, "loads", i),
            _get(l, "bus", str, "loads", i),
            _get(l, "p_sh_pu", float, "loads", i),
            _get(l, "underfreq_thresh_hz", float, "loads", i),
        ))
    a = _get(data, "attacker", dict)
    cap = AttackerCapability(
        _get(a, "toi", float, "attacker"),
        _get(a, "ad", float, "attacker"),
        _get(a, "der_total_pu", float, "attacker"),
        require_json_type(a.get("kappa", 1.0), "attacker.kappa", float),
    )
    return validate_config(GridConfig(params, gens, loads, cap))


def load_config(path) -> GridConfig:
    """Read, parse, and validate a JSON configuration file.

    A file that is not UTF-8 text or not JSON raises
    :class:`InvalidParameter`, as :func:`config_from_dict` does for a
    malformed config.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InvalidParameter("config", "not UTF-8 text") from exc
        except json.JSONDecodeError as exc:
            raise InvalidParameter("config", f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InvalidParameter("config", "nested too deeply") from exc
    return config_from_dict(data)


def with_dynamics(config: GridConfig, *, h_inertia=None, droop_r=None,
                  governor_t=None) -> GridConfig:
    """Return a copy of *config* with some dynamic parameters replaced."""
    params = config.params
    params = params._replace(
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
