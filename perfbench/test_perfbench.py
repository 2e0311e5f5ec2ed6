"""Tests of the benchmark itself: names, tolerance shares, and tracing.

    python3 -m pytest perfbench -q

The traced-pass tests run each workload once untraced and once traced in
this process (about a minute on two cores) and fail when a wrapped
layer is not hit where the workload must reach it, or is hit where it
must not be, so a binding the tracer missed cannot pass as a zero.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

workloads.import_gemdiff(ROOT)

# span names every traced pass of the workload must hit, and must not
SOLVER_1D = ("solver1d.advance_step", "solver1d.slave_field", "solver1d.fft", "solver1d.ifft",
             "solver1d.StepKernels.build", "pulses.sample_temporal", "model.derive_groups",
             "config.load_config")
EXPECT = {
    "sweeps-1d": (
        SOLVER_1D + ("solver1d.run_cycle", "transverse.run_cycle_quasi1d",
                     "transverse.efficiency_kspace", "harness.pool", "svgplot.line_plot",
                     "svgplot.heatmap"),
        ("transverse.solve_banded", "transverse.run_cycle_realspace",
         "transverse.intensity_and_width", "transverse.extract_phase", "analytic.phase_theta"),
    ),
    "beam-width": (
        SOLVER_1D + ("transverse.run_cycle_realspace", "transverse.solve_banded",
                     "transverse.intensity_and_width"),
        ("solver1d.run_cycle", "transverse.run_cycle_quasi1d", "transverse.extract_phase",
         "harness.pool"),
    ),
    "budget-phase": (
        SOLVER_1D + ("solver1d.run_cycle", "transverse.run_cycle_quasi1d",
                     "transverse.run_cycle_realspace", "transverse.efficiency_kspace",
                     "transverse.extract_phase", "analytic.eff_total",
                     "analytic.eff_write_exact", "analytic.hg_efficiency",
                     "analytic.phase_theta", "harness.pool", "svgplot.line_plot"),
        ("transverse.solve_banded", "transverse.intensity_and_width"),
    ),
}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.per_layer_units().items()
    )
    assert set(run.per_layer({}, 0.0)) == set(run.per_layer_units())


def test_every_workload_experiment_is_a_gem_experiment():
    from gemdiff import harness

    assert set(workloads.EXPERIMENTS) <= set(harness.EXPERIMENTS)


@pytest.mark.parametrize(
    "check, share",
    [
        ({"kind": "rel", "value": 1.01, "target": 1.0, "tolerance": 0.02, "passed": True}, 0.5),
        ({"kind": "abs", "value": 0.9, "target": 1.0, "tolerance": 0.2, "passed": True}, 0.5),
        ({"kind": "range", "value": 2.3, "target": [1.7, 2.5], "tolerance": 0.0,
          "passed": True}, 0.5),
        ({"kind": "range", "value": 0.01, "target": [0.0, 0.02], "tolerance": 0.0,
          "passed": True}, 0.5),
        ({"kind": "bool", "value": True, "target": True, "tolerance": 0.0, "passed": True}, 0.0),
        ({"kind": "bool", "value": False, "target": True, "tolerance": 0.0, "passed": False}, 1.0),
    ],
)
def test_tolerance_used(check, share):
    assert workloads.tolerance_used(check) == pytest.approx(share)


def test_seed_overrides_are_seeded_and_small():
    values = {"diffusivity": 0.004, "t_width": 1e-6}
    assert workloads.seed_overrides(0, values) == []
    first = workloads.seed_overrides(7, values)
    assert first == workloads.seed_overrides(7, values) != workloads.seed_overrides(8, values)
    for item in first:
        key, _, text = item.partition("=")
        assert abs(float(text) / values[key] - 1.0) <= workloads.PERTURBATION


def _bindings():
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "gemdiff" or name.startswith("gemdiff.")
        for key, value in vars(module).items()
        if callable(value)
    }


def test_tracer_wraps_every_binding_and_restores_them():
    from gemdiff import harness, solver1d, transverse

    before = _bindings()
    build = vars(solver1d.StepKernels)["build"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for module in (solver1d, transverse):
            assert module.advance_step.__wrapped__ is before[("gemdiff.solver1d", "advance_step")]
        assert transverse.solve_banded.__wrapped__ is not None
        assert harness.run_cycle_realspace is transverse.run_cycle_realspace
        assert sys.modules["gemdiff"].run_cycle_realspace is transverse.run_cycle_realspace
        assert hasattr(transverse.run_cycle_realspace, "__wrapped__")
        assert hasattr(solver1d.StepKernels.build, "__wrapped__")
    finally:
        tracer.restore()
    assert _bindings() == before
    assert vars(solver1d.StepKernels)["build"] is build


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def passes(request, tmp_path_factory):
    name = request.param
    threads = workloads.WORKLOADS[name]["threads"]
    out = tmp_path_factory.mktemp(name)
    plain = workloads.run_pass(ROOT, name, 0, threads, out / "plain", trace=False)
    traced = workloads.run_pass(ROOT, name, 0, threads, out / "traced", trace=True)
    return name, plain, traced


def test_traced_pass_is_correct_and_byte_identical(passes):
    _, plain, traced = passes
    for result in (plain, traced):
        for job in result["jobs"].values():
            assert "error" not in job
            assert all(check["passed"] for check in job["checks"])
    assert {job: data["digest"] for job, data in traced["jobs"].items()} == {
        job: data["digest"] for job, data in plain["jobs"].items()
    }
    assert traced["missing"] == []


def test_traced_pass_hits_the_expected_layers(passes):
    name, _, traced = passes
    layers = traced["layers"]
    hit, untouched = EXPECT[name]
    assert [span for span in hit if layers[span]["calls"] == 0] == []
    assert [span for span in untouched if layers[span]["calls"] != 0] == []
    for exp in workloads.WORKLOADS[name]["jobs"]:
        if exp != workloads.BEAM_JOB:
            assert layers["harness.experiment." + exp]["calls"] == 1


def test_pool_wait_only_where_threads_share_the_interpreter(passes):
    name, _, traced = passes
    layers = traced["layers"]
    wait = sum(stats["wait_s"] for stats in layers.values())
    solver_wall = sum(
        stats["s"] for span, stats in layers.items() if span in spans.SOLVERS
    )
    if workloads.WORKLOADS[name]["threads"] == 1:
        assert wait < 0.2 * solver_wall
    else:
        assert wait > 0.0
