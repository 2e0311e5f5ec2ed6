"""Span tracing of gemdiff layer calls from outside the package.

The package binds names with ``from .x import y``, so one function can be
reachable from several modules (``advance_step`` from ``solver1d`` and
``transverse``, ``run_cycle_realspace`` from ``transverse``, ``harness``
and the ``gemdiff`` namespace).  ``Tracer.install`` therefore replaces
every binding of each target object in every loaded ``gemdiff`` module,
not just the home one, and ``Tracer.restore`` puts the originals back.

Each span records its name, start and end (``perf_counter``), the span
that was open on the same thread when it started, and the thread CPU
time at both ends.  Spans live in per-thread column buffers, so the
threaded sweeps need no lock and rows can never interleave.
"""

from __future__ import annotations

import sys
import threading
import time
from array import array


def _sigma_size(args, kwargs) -> float:
    sigma = args[0] if args else kwargs["sigma"]
    return float(sigma.size)


# (home module, attribute path, span name, work per call or None).
# The span name is the same whichever module the call went through.
TARGETS = (
    ("gemdiff.config", "load_config", "config.load_config", None),
    ("gemdiff.model", "derive_groups", "model.derive_groups", None),
    ("gemdiff.pulses", "sample_temporal", "pulses.sample_temporal", None),
    ("gemdiff.analytic", "eff_total", "analytic.eff_total", None),
    ("gemdiff.analytic", "eff_write_exact", "analytic.eff_write_exact", None),
    ("gemdiff.analytic", "hg_efficiency", "analytic.hg_efficiency", None),
    ("gemdiff.analytic", "phase_theta", "analytic.phase_theta", None),
    ("gemdiff.solver1d", "run_cycle", "solver1d.run_cycle", None),
    ("gemdiff.solver1d", "advance_step", "solver1d.advance_step", _sigma_size),
    ("gemdiff.solver1d", "slave_field", "solver1d.slave_field", None),
    ("gemdiff.solver1d", "fft", "solver1d.fft", None),
    ("gemdiff.solver1d", "ifft", "solver1d.ifft", None),
    ("gemdiff.solver1d", "StepKernels.build", "solver1d.StepKernels.build", None),
    ("gemdiff.transverse", "solve_banded", "transverse.solve_banded", None),
    ("gemdiff.transverse", "run_cycle_quasi1d", "transverse.run_cycle_quasi1d", None),
    ("gemdiff.transverse", "run_cycle_realspace", "transverse.run_cycle_realspace", None),
    (
        "gemdiff.transverse",
        "Quasi1DRecord.efficiency_kspace",
        "transverse.efficiency_kspace",
        None,
    ),
    ("gemdiff.transverse", "intensity_and_width", "transverse.intensity_and_width", None),
    ("gemdiff.transverse", "extract_phase", "transverse.extract_phase", None),
    ("gemdiff.svgplot", "line_plot", "svgplot.line_plot", None),
    ("gemdiff.svgplot", "heatmap", "svgplot.heatmap", None),
    ("gemdiff.harness", "_run_tasks", "harness.pool", None),
)

# Spans of these names are solver calls; the outermost of each nest is
# one task of an experiment (what the thread pool schedules).
SOLVERS = (
    "solver1d.run_cycle",
    "transverse.run_cycle_quasi1d",
    "transverse.run_cycle_realspace",
)


class _Buffer:
    """Span columns of one thread; ``stack`` holds the open span rows."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.c0 = array("d")
        self.c1 = array("d")
        self.work = array("d")
        self.stack: list[int] = []


class Tracer:
    """Wraps the target callables and collects spans until ``restore``."""

    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, fn, name: str, work=None):
        """A callable that runs ``fn`` inside a span called ``name``."""
        nid = self.name_id(name)
        buffer = self._buffer
        clock = time.perf_counter
        cpu = time.thread_time

        def traced(*args, **kwargs):
            buf = buffer()
            row = len(buf.t0)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.work.append(work(args, kwargs) if work is not None else 0.0)
            buf.t1.append(0.0)
            buf.c1.append(0.0)
            buf.stack.append(row)
            buf.c0.append(cpu())
            buf.t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.t1[row] = clock()
                buf.c1[row] = cpu()
                buf.stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS) -> None:
        """Wrap every binding of every target in the loaded gemdiff modules.

        A target that no longer exists is recorded in ``missing`` and its
        metrics read zero; the benchmark's tests fail on that.
        """
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "gemdiff" or key.startswith("gemdiff."))
        ]
        for home, path, name, work in targets:
            self.name_id(name)
            owner = sys.modules.get(home)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            if owner is None or attr not in vars(owner):
                self.missing.append(home + "." + path)
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self.wrap(raw.__func__, name, work)))
                continue
            traced = self.wrap(raw, name, work)
            if len(parts) > 1:
                self._patch(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, traced)

    def restore(self) -> None:
        """Put back every original binding, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self):
        """All spans as numpy columns; ``parent`` indexes the same arrays."""
        import numpy as np

        cols = {key: [] for key in ("name", "parent", "t0", "t1", "c0", "c1", "work", "thread")}
        offset = 0
        for index, buf in enumerate(self._buffers):
            n = len(buf.t0)
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for key in ("name", "t0", "t1", "c0", "c1", "work"):
                cols[key].append(np.frombuffer(getattr(buf, key), dtype=_DTYPES[key]))
            cols["thread"].append(np.full(n, index, dtype=np.int64))
            offset += n
        return {
            key: np.concatenate(parts) if parts else np.zeros(0, dtype=_DTYPES.get(key, np.int64))
            for key, parts in cols.items()
        }


_DTYPES = {"name": "i4", "t0": "f8", "t1": "f8", "c0": "f8", "c1": "f8", "work": "f8"}


def layer_stats(names: list[str], spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, work, wait.

    Self time is a span's duration minus the durations of its children on
    the same thread.  ``wait`` sums wall minus thread CPU time over the
    outermost solver spans only.
    """
    import numpy as np

    n_names = len(names)
    dur = spans["t1"] - spans["t0"]
    parent = spans["parent"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - child
    name = spans["name"]
    solver_ids = [names.index(s) for s in SOLVERS if s in names]
    is_solver = np.isin(name, solver_ids)
    parent_solver = np.zeros(len(dur), dtype=bool)
    parent_solver[nested] = is_solver[parent[nested]]
    outer = is_solver & ~parent_solver
    idle = np.where(outer, dur - (spans["c1"] - spans["c0"]), 0.0)

    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=dur, minlength=n_names)
    self_s = np.bincount(name, weights=own, minlength=n_names)
    work = np.bincount(name, weights=spans["work"], minlength=n_names)
    wait = np.bincount(name, weights=idle, minlength=n_names)
    return {
        label: {
            "calls": int(calls[i]),
            "s": float(total[i]),
            "self_s": float(self_s[i]),
            "work": float(work[i]),
            "wait_s": float(wait[i]),
        }
        for i, label in enumerate(names)
    }
