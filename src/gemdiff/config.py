"""Key-value run configuration files.

Format: one ``key = value`` pair per line, ``#`` starts a comment.  Values
are floats with an optional decimal unit suffix (``MHz``, ``us``, ``mm``,
``m^2/s``, ...) and an optional ``2pi*`` prefix supplying the cycles to
angular conversion, so quoted lab values transcribe directly::

    rabi_control = 2pi*20 MHz      # 1.2566e8 rad/s
    eta_write    = -2pi*10 MHz/m
    waist        = 1.45 mm
    stark_absorbed = true

Unit suffixes are scale factors only; angular quantities are rad/s (rad/m)
after the ``2pi*`` prefix is applied.  ``carrier_split`` may be given
instead of ``carrier_mismatch``: it is an angular frequency difference and
is divided by ``light_speed``.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

from .model import ParameterError, PhysicalParams, StorageProtocol
from .pulses import ControlProfile, SignalSpec

# Decimal scale factors; no dimensional analysis, by design.
_UNIT_SCALE = {
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12,
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9,
    "m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9,
    "m/s": 1.0, "m^2/s": 1.0, "mm^2/s": 1e-6, "cm^2/s": 1e-4,
    "m^-3": 1.0, "cm^-3": 1e6,
    "rad/s": 1.0, "rad/m": 1.0,
    "hz/m": 1.0, "khz/m": 1e3, "mhz/m": 1e6, "ghz/m": 1e9,
}

_BOOL_KEYS = {"stark_absorbed", "control_on_hold"}
_INT_KEYS = {"mode_m", "mode_n"}
_OPTIONAL_NONE = {"control_waist", "t_write", "hold_flip_time"}

_PARAM_KEYS = {
    "coupling_g", "rabi_control", "detuning", "density", "half_length",
    "carrier_mismatch", "carrier_split", "diffusivity", "light_speed",
    "stark_absorbed",
}
_PROTOCOL_KEYS = {
    "eta_write", "t_hold", "t_write", "eta_hold", "hold_flip_time",
    "control_on_hold",
}
_SIGNAL_KEYS = {"amplitude", "t_width", "t_lead", "waist", "mode_m", "mode_n"}
_CONTROL_KEYS = {"control_waist"}
_ALL_KEYS = _PARAM_KEYS | _PROTOCOL_KEYS | _SIGNAL_KEYS | _CONTROL_KEYS


def known_keys() -> frozenset:
    """Every config key resolve_values accepts (sweep axes must name one)."""
    return frozenset(_ALL_KEYS)


_VALUE_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<tau>2pi\*)?(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"\s*(?P<unit>[A-Za-z][\w^/\-]*)?$"
)


def parse_value(text: str) -> float:
    """Parse one scalar config value: [sign][2pi*]<float> [unit-suffix].

    The value must be finite, also after unit scaling (``1e308 GHz`` is not).
    """
    match = _VALUE_RE.match(text.strip())
    if match is None:
        raise ParameterError(f"cannot parse value {text!r}")
    value = float(match.group("num"))
    if match.group("sign") == "-":
        value = -value
    if match.group("tau"):
        value *= 2.0 * math.pi
    unit = match.group("unit")
    if unit is not None:
        scale = _UNIT_SCALE.get(unit.lower())
        if scale is None:
            raise ParameterError(f"unknown unit suffix {unit!r} in {text!r}")
        value *= scale
    if not math.isfinite(value):
        raise ParameterError(f"value {text!r} is not finite")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ParameterError(f"cannot parse boolean {text!r}")


def parse_pairs(lines) -> dict[str, str]:
    """Raw key -> value-text mapping from config lines; rejects duplicates."""
    raw: dict[str, str] = {}
    for idx, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParameterError(f"line {idx}: expected 'key = value', got {body!r}")
        key, _, value = body.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in raw:
            raise ParameterError(f"line {idx}: duplicate key {key!r}")
        raw[key] = value
    return raw


def resolve_values(raw: dict[str, str]) -> dict[str, object]:
    """Typed values from raw text, with unknown keys rejected."""
    values: dict[str, object] = {}
    for key, text in raw.items():
        if key not in _ALL_KEYS:
            raise ParameterError(f"unknown config key {key!r}")
        if key in _BOOL_KEYS:
            values[key] = _parse_bool(text)
        elif key in _OPTIONAL_NONE and text.lower() in ("none", "inf", "off"):
            values[key] = None
        elif key in _INT_KEYS:
            value = parse_value(text)
            if not value.is_integer():
                raise ParameterError(f"{key} must be an integer, got {text!r}")
            values[key] = int(value)
        else:
            values[key] = parse_value(text)
    return values


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run configuration plus its provenance hash."""

    params: PhysicalParams
    protocol: StorageProtocol
    signal: SignalSpec
    control: ControlProfile
    values: dict
    digest: str


def _require(values: dict, key: str) -> object:
    if key not in values:
        raise ParameterError(f"missing required config key {key!r}")
    return values[key]


def config_digest(values: dict) -> str:
    """Stable short hash of the resolved values, for output headers."""
    lines = []
    for key in sorted(values):
        value = values[key]
        rendered = repr(value) if not isinstance(value, float) else f"{value!r}"
        lines.append(f"{key}={rendered}")
    payload = "\n".join(lines).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def build_config(values: dict) -> RunConfig:
    """Construct the parameter groups from resolved config values."""
    values = dict(values)
    if "carrier_split" in values:
        if "carrier_mismatch" in values:
            raise ParameterError(
                "give either carrier_mismatch or carrier_split, not both"
            )
        light_speed = values.get("light_speed", 299_792_458.0)
        if not light_speed > 0.0:
            raise ParameterError("light_speed must be positive")
        values["carrier_mismatch"] = values.pop("carrier_split") / light_speed

    params = PhysicalParams(
        coupling_g=_require(values, "coupling_g"),
        rabi_control=_require(values, "rabi_control"),
        detuning=_require(values, "detuning"),
        density=_require(values, "density"),
        half_length=_require(values, "half_length"),
        carrier_mismatch=_require(values, "carrier_mismatch"),
        diffusivity=_require(values, "diffusivity"),
        light_speed=values.get("light_speed", 299_792_458.0),
        stark_absorbed=values.get("stark_absorbed", True),
    )
    if params.rabi_control == 0.0:
        raise ParameterError("rabi_control must be nonzero: with no control nothing is stored")
    protocol = StorageProtocol(
        eta_write=_require(values, "eta_write"),
        t_hold=_require(values, "t_hold"),
        t_write=values.get("t_write"),
        eta_hold=values.get("eta_hold", 0.0),
        hold_flip_time=values.get("hold_flip_time"),
        control_on_hold=values.get("control_on_hold", False),
    )
    signal = SignalSpec(
        amplitude=values.get("amplitude", 1.0),
        t_width=_require(values, "t_width"),
        t_lead=_require(values, "t_lead"),
        waist=_require(values, "waist"),
        mode=(values.get("mode_m", 0), values.get("mode_n", 0)),
    )
    control = ControlProfile(
        rabi_peak=params.rabi_control, waist=values.get("control_waist")
    )
    return RunConfig(
        params=params,
        protocol=protocol,
        signal=signal,
        control=control,
        values=values,
        digest=config_digest(values),
    )


def load_config(path, overrides=()) -> RunConfig:
    """Load a config file, apply ``key=value`` override strings, build groups."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = parse_pairs(handle)
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config file {path} is not UTF-8 text ({exc.reason})") from None
    for item in overrides:
        if "=" not in item:
            raise ParameterError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        raw[key.strip().lower()] = value.strip()
    return build_config(resolve_values(raw))
