"""Config parsing: values, files, overrides, digests."""

import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemdiff import ParameterError, derive_groups, load_config
from gemdiff.config import (
    build_config,
    config_digest,
    known_keys,
    parse_pairs,
    parse_value,
    resolve_values,
)

TAU = 2.0 * math.pi

BENCHMARK_CFG = Path(__file__).resolve().parent.parent / "configs" / (
    "rubidium_benchmark.cfg"
)


# ---------------------------------------------------------------------------
# scalar values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("20", 20.0),
        ("-3.5", -3.5),
        ("1e-6", 1e-6),
        ("1.45 mm", 1.45e-3),
        ("0.004 m^2/s", 0.004),
        ("40 mm^2/s", 40e-6),
        ("0.5e18 m^-3", 0.5e18),
        ("1 cm^-3", 1e6),
        ("2pi*20 MHz", TAU * 20e6),
        ("-2pi*10 MHz/m", -TAU * 10e6),
        ("+2pi*4.5 Hz", TAU * 4.5),
        ("2pi*1.5 GHz", TAU * 1.5e9),
        ("-2pi*1.5 GHz", -TAU * 1.5e9),
        ("25 us", 25e-6),
        ("400 ns", 400e-9),
    ],
)
def test_parse_value(text, expected):
    assert parse_value(text) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize(
    "text", ["", "abc", "1.2.3", "10 parsecs", "2pi* MHz", "inf", "-inf", "1e400", "1e308 GHz"]
)
def test_parse_value_rejects_garbage(text):
    with pytest.raises(ParameterError):
        parse_value(text)


# ---------------------------------------------------------------------------
# files and key resolution
# ---------------------------------------------------------------------------


def test_parse_pairs_strips_comments_and_blanks():
    raw = parse_pairs(
        [
            "# a header comment",
            "",
            "t_hold = 25 us  # trailing note",
            "waist=1.45 mm",
        ]
    )
    assert raw == {"t_hold": "25 us", "waist": "1.45 mm"}


def test_parse_pairs_rejects_duplicates_and_junk():
    with pytest.raises(ParameterError, match="duplicate"):
        parse_pairs(["t_hold = 1 us", "t_hold = 2 us"])
    with pytest.raises(ParameterError, match="key = value"):
        parse_pairs(["just some words"])


def test_resolve_values_rejects_unknown_keys():
    with pytest.raises(ParameterError, match="unknown config key"):
        resolve_values({"warp_factor": "9"})


def test_resolve_values_types():
    values = resolve_values(
        {
            "stark_absorbed": "false",
            "control_on_hold": "yes",
            "mode_m": "1",
            "control_waist": "none",
            "t_write": "inf",
            "t_hold": "10 us",
        }
    )
    assert values["stark_absorbed"] is False
    assert values["control_on_hold"] is True
    assert values["mode_m"] == 1 and isinstance(values["mode_m"], int)
    assert values["control_waist"] is None
    assert values["t_write"] is None  # "inf" still spells None for optional keys
    assert values["t_hold"] == pytest.approx(1e-5)
    with pytest.raises(ParameterError):
        resolve_values({"stark_absorbed": "maybe"})
    # an integer key takes an integral value, whatever its spelling
    assert resolve_values({"mode_n": "2e0"})["mode_n"] == 2
    with pytest.raises(ParameterError, match="mode_m must be an integer"):
        resolve_values({"mode_m": "2.5"})


def test_known_keys_cover_the_benchmark_file():
    raw = parse_pairs(BENCHMARK_CFG.read_text().splitlines())
    assert set(raw) <= known_keys()
    assert "eta_write" in known_keys()
    assert "carrier_split" in known_keys()


# ---------------------------------------------------------------------------
# building parameter groups
# ---------------------------------------------------------------------------


def test_benchmark_file_reproduces_fixture(
    bench_params, bench_protocol, bench_signal
):
    # unit parsing is float arithmetic ("5 us" is 5 * 1e-6), so fields can
    # sit one ulp from the literals in the fixtures; 1e-14 covers that
    cfg = load_config(BENCHMARK_CFG)
    for built, fixture in (
        (cfg.params, bench_params),
        (cfg.protocol, bench_protocol),
        (cfg.signal, bench_signal),
    ):
        for name in fixture.__dataclass_fields__:
            a, b = getattr(built, name), getattr(fixture, name)
            if isinstance(b, float):
                assert a == pytest.approx(b, rel=1e-14, abs=0.0), name
            else:
                assert a == b, name
    assert not cfg.control.is_homogeneous  # file carries a control waist


def test_carrier_split_is_divided_by_light_speed():
    values = resolve_values(
        {
            "coupling_g": "2pi*4.5 Hz",
            "rabi_control": "2pi*20 MHz",
            "detuning": "-2pi*1.5 GHz",
            "density": "0.5e18 m^-3",
            "half_length": "0.1 m",
            "carrier_split": "2pi*6.8 GHz",
            "diffusivity": "0.004 m^2/s",
            "eta_write": "-2pi*10 MHz/m",
            "t_hold": "0 s",
            "t_width": "1 us",
            "t_lead": "5 us",
            "waist": "1.45 mm",
        }
    )
    cfg = build_config(values)
    assert cfg.params.carrier_mismatch == pytest.approx(
        TAU * 6.8e9 / 299_792_458.0, rel=1e-15
    )


def test_carrier_split_and_mismatch_conflict():
    with pytest.raises(ParameterError, match="not both"):
        build_config({"carrier_split": 1.0, "carrier_mismatch": 1.0})


def test_missing_required_key():
    with pytest.raises(ParameterError, match="missing required"):
        build_config({"coupling_g": TAU * 4.5})


# ---------------------------------------------------------------------------
# overrides and digests
# ---------------------------------------------------------------------------


def test_overrides_apply_and_validate(tmp_path):
    cfg = load_config(BENCHMARK_CFG, overrides=["t_hold=25 us", "mode_m = 1"])
    assert cfg.protocol.t_hold == pytest.approx(25e-6)
    assert cfg.signal.mode == (1, 0)
    with pytest.raises(ParameterError, match="key=value"):
        load_config(BENCHMARK_CFG, overrides=["t_hold"])
    with pytest.raises(ParameterError, match="unknown config key"):
        load_config(BENCHMARK_CFG, overrides=["bogus=1"])


def test_digest_is_stable_and_order_free():
    a = config_digest({"x": 1.0, "y": "text"})
    b = config_digest({"y": "text", "x": 1.0})
    assert a == b
    assert len(a) == 16
    assert a != config_digest({"x": 1.0 + 1e-12, "y": "text"})


def test_benchmark_digest_pinned():
    # artifact headers quote this digest; CSV reproducibility depends on
    # the hash never drifting for fixed inputs
    assert load_config(BENCHMARK_CFG).digest == "09859cf03dac48d7"


def test_override_changes_digest():
    base = load_config(BENCHMARK_CFG)
    moved = load_config(BENCHMARK_CFG, overrides=["t_hold=1 us"])
    assert base.digest != moved.digest


_NUMERIC_KEYS = sorted(known_keys() - {"stark_absorbed", "control_on_hold", "mode_m", "mode_n"})


@settings(max_examples=200, deadline=None)
@given(
    key=st.sampled_from(_NUMERIC_KEYS),
    sign=st.sampled_from(["", "-"]),
    exponent=st.integers(min_value=-300, max_value=300),
)
@example(key="t_width", sign="", exponent=-200)
@example(key="t_width", sign="", exponent=-300)
@example(key="waist", sign="", exponent=-300)
@example(key="waist", sign="", exponent=200)
@example(key="waist", sign="", exponent=300)
def test_out_of_range_values_are_refused_or_give_finite_groups(key, sign, exponent):
    # any one numeric key at +-10^e: the config and its derived groups are
    # either refused as bad input or finite, and nothing warns on the way
    # (warnings are errors in this suite)
    raw = parse_pairs(BENCHMARK_CFG.read_text(encoding="utf-8").splitlines())
    if key == "carrier_mismatch":
        del raw["carrier_split"]  # the two conflict
    raw[key] = "%s1e%d" % (sign, exponent)
    try:
        cfg = build_config(resolve_values(raw))
        groups = derive_groups(cfg.params, cfg.protocol, cfg.signal)
    except ParameterError:
        return
    assert all(math.isfinite(value) for value in vars(groups).values()), (key, sign, exponent)
