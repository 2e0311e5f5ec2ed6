"""Experiment harness: spec validation, artifacts, CLI behaviour, determinism."""

import functools
import inspect
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gemdiff import (
    Grid1D,
    ModeGrid,
    ParameterError,
    SignalSpec,
    StorageProtocol,
    TransverseGrid,
    harness,
    run_cycle,
    run_cycle_quasi1d,
    run_cycle_realspace,
    solver1d,
)
from gemdiff.config import known_keys, load_config
from gemdiff.harness import (
    CSV_FORMAT,
    JSON_FORMAT,
    ExperimentSpec,
    RuntimeGuardError,
    _cell,
    _check,
    _estimate_cell_steps,
    _parked_lead,
    _run_tasks,
    _solve,
    main,
    run_experiment,
)
from gemdiff.pulses import ControlProfile

TAU = 2.0 * math.pi
CONFIG = Path(__file__).resolve().parent.parent / "configs" / "rubidium_benchmark.cfg"


@pytest.fixture(scope="module")
def bench_config():
    return load_config(CONFIG)


@pytest.fixture(scope="module")
def cycle_run(tmp_path_factory):
    """One cheap full CLI run shared by the artifact tests."""
    out = tmp_path_factory.mktemp("cli") / "out"
    rc = main(
        [
            "storage-cycle",
            "--config",
            str(CONFIG),
            "--out",
            str(out),
            "--fidelity",
            "coarse",
            "--threads",
            "1",
        ]
    )
    assert rc == 0
    return out / "storage-cycle"


# ---------------------------------------------------------------------------
# spec and helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(experiment="frobnicate"), "unknown experiment"),
        (dict(fidelity="ultra"), "unknown fidelity"),
        (dict(threads=0), "threads"),
        (dict(max_cell_steps=0.0), "max_cell_steps"),
        (dict(max_cell_steps=math.nan), "max_cell_steps"),
    ],
)
def test_experiment_spec_validation(bench_config, tmp_path, kwargs, match):
    base = dict(
        experiment="storage-cycle", config=bench_config, out_dir=tmp_path
    )
    base.update(kwargs)
    with pytest.raises(ParameterError, match=match):
        ExperimentSpec(**base)


def test_cell_formatting():
    assert _cell("text") == "text"
    assert _cell(None) == "nan"
    assert _cell(float("nan")) == "nan"
    assert _cell(True) == "1"
    assert _cell(False) == "0"
    assert _cell(np.int64(42)) == "42"
    assert _cell(0.1) == "0.1"
    assert _cell(1.0 / 3.0) == "0.333333333333"  # %.12g, locale-free


@pytest.mark.parametrize(
    "value, text",
    [
        (6.02214076e23, "6.02214076e+23"),
        (np.float64(2.0 / 3.0), "0.666666666667"),
        (-float("nan"), "nan"),
        (np.float64("nan"), "nan"),
        (float("inf"), "inf"),
        (-float("inf"), "-inf"),
        (-0.0, "-0"),
        (1e-300, "1e-300"),
        (np.float32(0.5), "0.5"),
        (True, "1"),
        (np.bool_(False), "0"),
        (7, "7"),
        (np.int64(-42), "-42"),
        (None, "nan"),
        ("label", "label"),
    ],
)
def test_cell_writes_each_kind_of_value_as_literal_text(value, text):
    assert _cell(value) == text


def test_check_kinds():
    assert _check("a", 1.001, 1.0, 0.01, "c")["passed"]
    assert not _check("a", 1.02, 1.0, 0.01, "c")["passed"]
    assert _check("a", 0.15, 0.1, 0.06, "c", kind="abs")["passed"]
    # an abs target within its tolerance of zero can tell nothing apart
    assert not _check("a", 0.0, 0.05, 0.06, "c", kind="abs")["passed"]
    assert _check("a", 0.5, (0.0, 1.0), 0.0, "c", kind="range")["passed"]
    assert not _check("a", 1.5, (0.0, 1.0), 0.0, "c", kind="range")["passed"]
    assert _check("a", True, True, 0.0, "c", kind="bool")["passed"]
    # non-finite values must fail, never crash the summary
    assert not _check("a", float("nan"), 1.0, 0.5, "c")["passed"]
    assert not _check("a", None, 1.0, 0.5, "c")["passed"]
    with pytest.raises(ParameterError, match="unknown check kind"):
        _check("a", 1.0, 1.0, 0.1, "c", kind="fuzzy")


def test_tasks_return_in_submission_order():
    def job(i):
        def run():
            time.sleep(0.01 * (4 - i))  # later submissions finish first
            return i

        return run

    assert _run_tasks([job(i) for i in range(4)], threads=4) == [0, 1, 2, 3]
    assert _run_tasks([job(i) for i in range(4)], threads=1) == [0, 1, 2, 3]


def test_cost_estimate_and_budget(bench_config, tmp_path, monkeypatch):
    cfg = bench_config
    coarse = dict(n_medium=128, steps_per_width=32.0)
    one = _estimate_cell_steps(partial(run_cycle, cfg.params, cfg.protocol, cfg.signal, **coarse))
    tgrid = TransverseGrid.radial(cfg.signal.waist, n_r=40)
    realspace = partial(
        run_cycle_realspace, cfg.params, cfg.protocol, cfg.signal, cfg.control, tgrid, **coarse
    )
    many = _estimate_cell_steps(realspace)
    assert many > 30.0 * one
    # an idle hold costs a few exact steps, a driven hold real stepping
    idle = StorageProtocol.standard(eta_write=cfg.protocol.eta_write, t_hold=1e-3)
    driven = replace(idle, control_on_hold=True)
    cheap = _estimate_cell_steps(partial(run_cycle, cfg.params, idle, cfg.signal, **coarse))
    dear = _estimate_cell_steps(partial(run_cycle, cfg.params, driven, cfg.signal, **coarse))
    assert dear > 10.0 * cheap
    # in real space at D > 0 too: a 30 us standard hold at steps_per_width
    # 40 is one exact step (no snapshot requested, so nothing cuts it)
    space = dict(n_medium=160, steps_per_width=40.0)
    tgrid_space = TransverseGrid.radial(cfg.signal.waist, n_r=128)
    costs = [
        _estimate_cell_steps(
            partial(
                run_cycle_realspace,
                cfg.params,
                replace(idle, t_hold=t_hold),
                cfg.signal,
                cfg.control,
                tgrid_space,
                **space,
            )
        )
        for t_hold in (0.0, 30e-6)
    ]
    n_z = Grid1D.build(cfg.params.half_length, space["n_medium"]).n_z
    assert cfg.params.diffusivity > 0.0
    assert (costs[1] - costs[0]) / (n_z * tgrid_space.n_cols) == 1

    # over the cap _solve refuses the whole list before any solver runs
    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran before the budget refusal")

    for name, binding in (("sweep-write", "run_cycle"), ("phase-profile", "run_cycle_realspace")):
        real = getattr(harness, binding)
        monkeypatch.setattr(harness, binding, functools.wraps(real)(refuse))
        spec = ExperimentSpec(
            experiment=name,
            config=cfg,
            out_dir=tmp_path / name,
            fidelity="coarse",
            max_cell_steps=1e4,
        )
        with pytest.raises(RuntimeGuardError, match="GEM_MAX_CELL_STEPS"):
            run_experiment(spec)
        monkeypatch.undo()

    # under the cap: no complaint, results in call order
    fast = dict(n_medium=64, steps_per_width=16.0)
    calls = [
        partial(run_cycle, cfg.params.with_diffusivity(diff), idle, cfg.signal, **fast)
        for diff in (0.0, 0.004)
    ]
    spec = ExperimentSpec(
        experiment="storage-cycle",
        config=cfg,
        out_dir=tmp_path,
        max_cell_steps=sum(_estimate_cell_steps(call) for call in calls),
    )
    records = _solve(spec, calls)
    assert [rec.params.diffusivity for rec in records] == [0.0, 0.004]
    with pytest.raises(RuntimeGuardError, match="exceeds the cap"):
        _solve(spec, calls + calls[:1])


def test_cost_estimate_sums_the_steps_the_solver_takes(bench_config, monkeypatch):
    # the estimate charges each planned step the state it runs on; sum the
    # cells that advance_step updates through every binding of it
    cells = []
    real = solver1d.advance_step

    def counted(sigma, *args, **kwargs):
        cells.append(sigma.size)
        return real(sigma, *args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("gemdiff"):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)

    def solved_cells(call):
        cells.clear()
        call()
        return sum(cells)

    cfg = bench_config
    fast = dict(n_medium=64, steps_per_width=16.0)
    exact = StorageProtocol.standard(eta_write=cfg.protocol.eta_write, t_hold=3e-6)
    driven = replace(exact, control_on_hold=True)
    tgrid = TransverseGrid.radial(cfg.signal.waist, n_r=16)
    control = ControlProfile.gaussian(cfg.params.rabi_control, 3e-3)
    still = cfg.params.with_diffusivity(0.0)
    rotating = StorageProtocol.gradient_through_hold(cfg.protocol.eta_write, 3e-6)
    modes = ModeGrid.build(cfg.signal.waist, n=32)
    exact_calls = [
        partial(run_cycle, cfg.params, exact, cfg.signal, **fast),
        partial(run_cycle, cfg.params, driven, cfg.signal, **fast),
        partial(run_cycle_realspace, cfg.params, exact, cfg.signal, control, tgrid, **fast),
        partial(run_cycle_realspace, still, exact, cfg.signal, control, tgrid, **fast),
        # frames inside the exact hold cut it into pieces
        partial(run_cycle, cfg.params, exact, cfg.signal, sigma_times=(1e-6, 2e-6), **fast),
        partial(run_cycle_quasi1d, cfg.params, driven, cfg.signal, modes, **fast),
        # a gradient-on hold with no diffusion acting is an exact rotation
        partial(run_cycle_realspace, still, rotating, cfg.signal, control, tgrid, **fast),
        partial(
            run_cycle, cfg.params, rotating, cfg.signal, diffusion_phases=("write", "read"), **fast
        ),
        # every undriven hold is one exact step per piece: beam-width's
        # diffusing gradient-on hold (the standard one is the third call)
        partial(run_cycle_realspace, cfg.params, rotating, cfg.signal, control, tgrid, **fast),
    ]
    # grouped and batched calls share every span up to the first that
    # tells the groups apart, and are charged that shared span once: a
    # real-space call whose groups part at the hold, and 1D rows whose
    # diffusion-free write runs on one shared row
    groups = [
        StorageProtocol.gradient_through_hold(cfg.protocol.eta_write, h) for h in (0.0, 2e-6, 4e-6)
    ]
    rows = [cfg.params.with_diffusivity(diff) for diff in (0.0, 0.004, 0.008)]
    hold_only = dict(diffusion_phases=("hold",), **fast)
    shared_calls = [
        partial(run_cycle_realspace, cfg.params, groups, cfg.signal, control, tgrid, **fast),
        partial(run_cycle, rows, exact, cfg.signal, **hold_only),
    ]
    # a call without its read ends at its mid-hold frame: the second hold
    # span and the read are neither run nor charged
    frame = dict(sigma_times=(rotating.flip_time(),), **fast)
    framed = partial(run_cycle_realspace, still, rotating, cfg.signal, control, tgrid, **frame)
    frames_only = partial(framed, read=False)
    for call in exact_calls + shared_calls + [frames_only]:
        assert _estimate_cell_steps(call) == solved_cells(call)
    assert 0 < _estimate_cell_steps(frames_only) < _estimate_cell_steps(framed)
    n_z = Grid1D.build(cfg.params.half_length, fast["n_medium"]).n_z
    dt0 = cfg.signal.t_width / fast["steps_per_width"]
    write_steps = math.ceil(groups[0].write_window(cfg.signal) / dt0)
    # the grouped call writes once on one group and fans out at the hold
    solved_cells(shared_calls[0])
    assert cells[:write_steps] == [n_z * tgrid.n_cols] * write_steps
    assert cells[write_steps] == len(groups) * n_z * tgrid.n_cols


def test_entry_points_take_only_the_options_experiments_set():
    def options(solver):
        params = inspect.signature(solver).parameters.values()
        return [p.name for p in params if p.kind in (p.KEYWORD_ONLY, p.VAR_KEYWORD)]

    common = ["n_medium", "pad_fraction", "steps_per_width"]
    assert options(run_cycle) == [*common, "diffusion_phases", "sigma_times"]
    assert options(run_cycle_realspace) == [*common, "sigma_times", "store_fields", "read"]
    # the quasi-1D route forwards run_cycle's options and takes no others
    assert list(inspect.signature(run_cycle_quasi1d).parameters) == [
        "params", "protocol", "signal", "grid", "solver_kwargs"
    ]


def test_realspace_records_do_not_depend_on_the_pool(bench_config):
    # the radial propagator's GEMM runs in concurrent threads on the pool
    cfg = bench_config
    signal = replace(cfg.signal, t_lead=2e-6, mode=(0, 0))
    protocol = StorageProtocol.gradient_through_hold(cfg.protocol.eta_write, 2e-6)
    tgrid = TransverseGrid.radial(signal.waist, n_r=24)
    calls = [
        partial(
            run_cycle_realspace,
            cfg.params,
            protocol,
            signal,
            control,
            tgrid,
            n_medium=64,
            steps_per_width=16.0,
        )
        for control in (cfg.control, ControlProfile.homogeneous(cfg.params.rabi_control))
    ]
    inline, pooled = _run_tasks(calls, threads=1), _run_tasks(calls, threads=2)
    for a, b in zip(inline, pooled):
        assert a.output_energy == b.output_energy and a.guard_ratio == b.guard_ratio
        for name in ("t_out", "f_out", "intensity"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert [t for t, _ in a.sigma_frames] == [t for t, _ in b.sigma_frames]
        for (_, frame_a), (_, frame_b) in zip(a.sigma_frames, b.sigma_frames):
            assert np.array_equal(frame_a, frame_b)


def test_only_real_space_calls_use_the_pool(bench_config, tmp_path, monkeypatch):
    seen = []

    class Dispatched(Exception):
        pass

    def spy(tasks, threads):
        seen.append((threads, len(tasks)))
        raise Dispatched  # the dispatch is all this test reads

    monkeypatch.setattr(harness, "_run_tasks", spy)
    for name in ("sweep-write", "phase-profile", "beam-width"):
        spec = ExperimentSpec(
            experiment=name, config=bench_config, out_dir=tmp_path / name, threads=4
        )
        with pytest.raises(Dispatched):
            run_experiment(spec)
    # beam-width's seven hold times per control are the groups of one call
    assert [threads for threads, _ in seen] == [1, 4, 4]
    assert [tasks for _, tasks in seen[1:]] == [2, 2]


def test_sweep_axes_name_config_keys(bench_config, tmp_path, cycle_run):
    spec = ExperimentSpec(
        experiment="sweep-hold", config=bench_config, out_dir=tmp_path, fidelity="coarse"
    )
    axes = run_experiment(spec)["sweep_axes"]
    assert axes
    for name, values in axes:
        assert name in known_keys() and len(values) > 0
    # an experiment that sweeps nothing reports no axes
    assert json.loads((cycle_run / "summary.json").read_text())["sweep_axes"] == []


def test_parked_lead_flips_the_carrier_when_needed(bench_config):
    cfg = bench_config
    trial, lead = _parked_lead(cfg.params, cfg.protocol, cfg.signal)
    assert trial.carrier_mismatch == -cfg.params.carrier_mismatch
    assert lead == pytest.approx(3.9194e-6, rel=1e-4)
    # with a negligible carrier and an inverted gradient neither
    # orientation parks: both leads come out negative
    small = replace(cfg.params, carrier_mismatch=TAU * 1e6 / cfg.params.light_speed)
    pos = StorageProtocol.standard(eta_write=-cfg.protocol.eta_write, t_hold=0.0)
    with pytest.raises(ParameterError, match="no carrier orientation"):
        _parked_lead(small, pos, cfg.signal)


# ---------------------------------------------------------------------------
# artifacts of a real run
# ---------------------------------------------------------------------------


def test_summary_is_strict_sorted_json(cycle_run):
    text = (cycle_run / "summary.json").read_text()

    def reject(token):
        raise AssertionError("non-strict JSON constant %s" % token)

    summary = json.loads(text, parse_constant=reject)
    assert summary["format"] == JSON_FORMAT
    assert summary["experiment"] == "storage-cycle"
    assert summary["fidelity"] == "coarse"
    assert summary["passed"] is True
    assert list(summary) == sorted(summary)
    assert summary["config_digest"] == "09859cf03dac48d7"
    assert summary["results"]["beta"] == pytest.approx(-3.77252, abs=1e-4)
    assert summary["results"]["eff_full"] == pytest.approx(0.92574, abs=1e-4)
    for check in summary["checks"]:
        assert check["passed"] is True
        assert check["comparison"]


def test_csv_artifacts_are_tagged_and_clean(cycle_run):
    for name in ("breakdown", "write_trace", "read_trace"):
        text = (cycle_run / (name + ".csv")).read_text()
        lines = text.splitlines()
        assert lines[0] == "# format: " + CSV_FORMAT
        assert "# experiment: storage-cycle" in lines
        assert "# dataset: " + name in lines
        assert "# config: 09859cf03dac48d7" in lines
        assert any(line.startswith("# columns: ") for line in lines)
        assert "/tmp" not in text  # no local paths in shareable artifacts
    command = [
        line
        for line in (cycle_run / "breakdown.csv").read_text().splitlines()
        if line.startswith("# command: ")
    ]
    assert command == ["# command: gem storage-cycle --fidelity coarse"]
    assert (cycle_run / "traces.svg").read_text().startswith("<svg")


def test_artifacts_are_identical_across_thread_counts(cycle_run, tmp_path, capsys):
    rc = main(
        [
            "storage-cycle",
            "--config",
            str(CONFIG),
            "--out",
            str(tmp_path),
            "--fidelity",
            "coarse",
            "--threads",
            "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS numeric_vs_full" in out
    assert "2/2 checks passed" in out
    other = tmp_path / "storage-cycle"
    names = sorted(p.name for p in cycle_run.iterdir())
    assert names == sorted(p.name for p in other.iterdir())
    for name in names:
        assert (cycle_run / name).read_bytes() == (other / name).read_bytes(), name


# ---------------------------------------------------------------------------
# CLI exit codes and environment defaults
# ---------------------------------------------------------------------------


def test_cli_reports_failed_checks(tmp_path, capsys):
    # a weak control drops the optical depth: echo leakage through the far
    # face becomes visible and its range check must fail
    rc = main(
        [
            "storage-cycle",
            "--config",
            str(CONFIG),
            "--out",
            str(tmp_path),
            "--fidelity",
            "coarse",
            "--threads",
            "1",
            "--set",
            "rabi_control=2pi*5 MHz",
        ]
    )
    assert rc == 1
    assert "FAIL echo_leakage_small" in capsys.readouterr().out


def test_cli_fails_a_check_whose_target_is_inside_its_tolerance(tmp_path, capsys):
    # a 1 s hold decays both the numeric and the closed-form ratio to ~0:
    # an absolute check against a target within its tolerance of zero
    # cannot tell a working solver from a dead one, so it must not pass
    argv = ["storage-cycle", "--config", str(CONFIG), "--out", str(tmp_path)]
    rc = main(argv + ["--fidelity", "coarse", "--threads", "1", "--set", "t_hold=1 s"])
    assert rc == 1
    assert "FAIL numeric_vs_full" in capsys.readouterr().out


def test_cli_usage_errors_exit_2(tmp_path, capsys, monkeypatch):
    rc = main(
        ["storage-cycle", "--config", str(tmp_path / "missing.cfg")]
    )
    assert rc == 2
    assert "gem:" in capsys.readouterr().err

    rc = main(
        [
            "storage-cycle",
            "--config",
            str(CONFIG),
            "--out",
            str(tmp_path),
            "--set",
            "garbage",
        ]
    )
    assert rc == 2
    assert "key=value" in capsys.readouterr().err

    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"t_hold = 1 us\n\xff\xfe\x00\x81\n")
    rc = main(["storage-cycle", "--config", str(binary), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("gem:") and "UTF-8" in err

    for threads in ("0", "-1"):
        rc = main(["storage-cycle", "--config", str(CONFIG), "--out", str(tmp_path),
                   "--threads", threads])
        assert rc == 2
        assert capsys.readouterr().err.startswith("gem: threads")

    monkeypatch.setenv("GEM_MAX_CELL_STEPS", "1000")
    rc = main(
        [
            "storage-cycle",
            "--config",
            str(CONFIG),
            "--out",
            str(tmp_path),
            "--fidelity",
            "coarse",
        ]
    )
    assert rc == 2
    assert "exceeds the cap" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", str(CONFIG)])
    assert exc.value.code == 2


@pytest.mark.parametrize("override", ["diffusivity=inf", "t_width=inf"])
def test_cli_rejects_non_finite_values(tmp_path, capsys, override):
    argv = ["storage-cycle", "--config", str(CONFIG), "--out", str(tmp_path)]
    assert main(argv + ["--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gem:") and "Traceback" not in err


@pytest.mark.parametrize(
    "override",
    [
        "t_width=-1 us",
        "waist=0",
        "amplitude=0",
        "amplitude=1e160",
        "amplitude=1e300",
        "t_lead=-1 us",
        "mode_m=-1",
        "mode_m=2.5",
        "mode_m=1e30",
        "control_waist=-1 mm",
        "rabi_control=0",
    ],
)
def test_cli_rejects_bad_signal_and_control(tmp_path, capsys, override):
    argv = ["storage-cycle", "--config", str(CONFIG), "--out", str(tmp_path)]
    assert main(argv + ["--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gem:") and "Traceback" not in err


@pytest.mark.parametrize(
    "name, value",
    [
        ("GEM_THREADS", "abc"),
        ("GEM_THREADS", "0"),
        ("GEM_THREADS", "-2"),
        ("GEM_MAX_CELL_STEPS", "x"),
        ("GEM_MAX_CELL_STEPS", "nan"),
    ],
)
def test_cli_rejects_bad_environment(tmp_path, capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert main(["storage-cycle", "--config", str(CONFIG), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gem:") and name in err


def test_environment_supplies_defaults(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GEM_FIDELITY", "coarse")
    monkeypatch.setenv("GEM_OUT", str(tmp_path / "envout"))
    monkeypatch.setenv("GEM_THREADS", "1")
    rc = main(["storage-cycle", "--config", str(CONFIG)])
    assert rc == 0
    summary = json.loads(
        (tmp_path / "envout" / "storage-cycle" / "summary.json").read_text()
    )
    assert summary["fidelity"] == "coarse"
    capsys.readouterr()


def test_module_entry_point_runs_the_cli_without_warnings():
    import gemdiff

    env = {**os.environ, "PYTHONPATH": str(Path(gemdiff.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "gemdiff", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "usage: gem" in done.stdout
    assert "RuntimeWarning" not in done.stderr
