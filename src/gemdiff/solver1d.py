"""Split-step integrator for the one-dimensional storage cycle.

The solver works in the frame where the field's linear dispersion phase
and the coherence's carrier oscillation are factored out: the field obeys
d_z E = i (g_eff N / c) sigma with no explicit phase factor, and the
coherence obeys

    d_t sigma = -i (eta(t) z + delta_res) sigma + i g_eff E
                + D (d_z + i k_matched)^2 sigma,

so the spectral diffusion kernel is exp(-D (q + k_matched)^2 dt) with q
the grid wavenumber (physical spin-wave wavenumber k = q + k_matched).
Physical-frame fields are recovered at the cell faces by the constant
phases exp(i dispersion_shift * half_length).

Each time step is a symmetric split: exact spectral diffusion half-steps
around a core, advance_step, that applies the gradient rotation and the
field drive by a midpoint rule.  The rotation sub-flow is exact, and the
field is re-slaved to the coherence at every evaluation (d_z E integrated
from the entrance face), so the only stepping error is the second-order
midpoint error of the drive coupling.  Phase boundaries land exactly
because the step size is re-fitted to each phase.

One step rule serves both routes: a driven span steps at dt0, and every
undriven span is one exact step per piece (StepKernels), cut only at
snapshot times, whatever its gradient and diffusivity.  Its transverse
part takes sub-steps near dt0, as one matrix power at the piece end.

The driver applies the diffusion half-steps around the core itself and
merges the two that meet at a step boundary nothing reads: one FFT pair
with the full-step kernel, and one transverse propagation in real space.
A boundary is read when its span is driven and its phase has a recorder,
when a snapshot is due at it, or when it ends a piece; every owed
half-step is applied before it is read.  With the drive off every column
sees the same longitudinal operator, which commutes with the transverse
one, so the transverse half-steps up to the next read boundary are
applied there in one shot.

All step kernels broadcast over leading axes of sigma, with per-row
couplings and detunings passed as (..., 1) arrays.

One driver, _drive_cycle, runs both routes on a (groups, rows, n_z) state
by the step plan of _cycle_plan.  Each group is a record: a 1D batch is G
groups of one row, a real-space call G groups of its transverse columns,
one per protocol.  Per-group values are (G, 1, 1) columns and per-row ones
(rows, 1) columns, so both broadcast without tiling.  The state starts as
one shared group and fans out along axis 0 at the first span that tells
the groups apart (_fans_out), so a write they all share runs once.  The
harness cost guard sums the same plan under the same fan-out rule, so it
charges what _drive_cycle runs.  Groups may differ in the diffusivity and,
whenever the hold is undriven, in t_hold (the hold splits at each group's
own flip time); any other difference is a ParameterError.

The only snapshots are coherence frames at requested times (sigma_times);
a spin-wave spectrum is spinwave_spectrum of a frame.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.fft import fft, ifft

from .model import (
    GuardBandError,
    ParameterError,
    PhysicalParams,
    StorageProtocol,
    derive_groups,
    stark_residual,
)
from .pulses import SignalSpec, sample_temporal

_PHASES = ("write", "hold", "read")
_GUARD_THRESHOLD = 1e-4  # largest edge/peak coherence ratio the padding may hold


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform z grid with the medium faces exactly on grid points.

    The medium occupies [-half_length, half_length]; the grid extends
    beyond it by a padding band on each side so the periodic spectral
    diffusion never wraps coherence back into the medium.  Grid sizes are
    powers of two for the FFT.
    """

    z: np.ndarray
    dz: float
    i_left: int
    i_right: int
    half_length: float

    @classmethod
    def build(
        cls, half_length: float, n_medium: int = 256, pad_fraction: float = 0.25
    ) -> "Grid1D":
        if n_medium < 16 or n_medium % 2:
            raise ParameterError("n_medium must be an even number >= 16")
        if pad_fraction <= 0.0:
            raise ParameterError("pad_fraction must be positive")
        dz = 2.0 * half_length / n_medium
        needed = n_medium * (1.0 + 2.0 * pad_fraction)
        n_z = 1 << max(5, math.ceil(math.log2(needed)))
        centre = n_z // 2
        z = (np.arange(n_z) - centre) * dz
        return cls(
            z=z,
            dz=dz,
            i_left=centre - n_medium // 2,
            i_right=centre + n_medium // 2,
            half_length=half_length,
        )

    @property
    def n_z(self) -> int:
        return self.z.size

    @property
    def medium(self) -> slice:
        """Index slice covering the medium, faces included."""
        return slice(self.i_left, self.i_right + 1)

    @cached_property
    def mask(self) -> np.ndarray:
        """1.0 inside the medium, 0.0 in the padding (read-only, built once)."""
        m = np.zeros(self.n_z)
        m[self.medium] = 1.0
        m.flags.writeable = False
        return m

    @property
    def q(self) -> np.ndarray:
        """FFT wavenumbers of the grid (rad/m, unshifted order)."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_z, self.dz)

    def guard_slices(self) -> tuple[slice, slice]:
        """Outer half of each padding band, where coherence must stay tiny."""
        left_pad = self.i_left
        right_pad = self.n_z - 1 - self.i_right
        return slice(0, left_pad // 2), slice(self.n_z - right_pad // 2, self.n_z)


def slave_field(
    sigma: np.ndarray,
    grid: Grid1D,
    coupling_eff,
    density: float,
    light_speed: float,
    fin_tilde,
) -> np.ndarray:
    """Field slaved to the coherence: E(z) = fin + i (g N / c) int sigma dz'.

    The integral runs from the entrance face; the field is constant in the
    padding (fin before the medium, the exit value after it).  Per-row
    couplings and inputs broadcast over leading axes when shaped (..., 1).
    """
    # cumulative trapezoid from the entrance face, in the operation order
    # of scipy's cumulative_trapezoid (bit-identical, without its overhead)
    y = sigma[..., grid.medium]
    cum = np.zeros(y.shape, dtype=complex)
    np.cumsum(grid.dz * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1, out=cum[..., 1:])
    e = np.empty(sigma.shape, dtype=complex)
    e[..., : grid.i_left] = fin_tilde
    e[..., grid.medium] = fin_tilde + 1j * (coupling_eff * density / light_speed) * cum
    e[..., grid.i_right + 1 :] = e[..., grid.i_right : grid.i_right + 1]
    return e


@dataclass(eq=False)
class StepKernels:
    """Precomputed factors of one piece's step size.

    dt and diffusivity are scalars, or (groups, 1, 1) columns with one value
    per group.  rot_full and rot_half are the gradient rotation times the
    light-shift residual over a step and over half a step, built
    once per piece.  before and after, the diffusion halves on either side
    of the core (full = after * before, merged at an unread boundary),
    decay the wave by exp(-D int_0^h (kappa -+ drift s)^2 ds), kappa = q +
    k_matched entering or leaving the core.  An undriven step passes its
    gradient as drift and is exact for the continuous operator (on the
    periodic grid, cutting a gradient-on piece moves the state by about
    5e-9); a driven step passes 0, the Strang halves.  Rows with no
    diffusion over the step (D = 0 or a zero-length step) are left out of
    diff_rows (None: every row diffuses) and skip the FFT pair, so they
    match a solve of their own.
    """

    dt: float | np.ndarray
    rot_full: np.ndarray
    rot_half: np.ndarray
    before: np.ndarray | None
    after: np.ndarray | None
    full: np.ndarray | None
    diff_rows: np.ndarray | None = None

    @classmethod
    def build(
        cls,
        grid: Grid1D,
        dt,
        eta: float,
        residual,
        diffusivity,
        k_matched: float,
        drift: float,
    ) -> "StepKernels":
        before = after = full = diff_rows = None
        active = np.asarray(diffusivity * dt) > 0.0
        if np.any(active):
            d, d_dt = diffusivity, dt
            if not np.all(active):
                diff_rows = np.flatnonzero(active)
                d = diffusivity[diff_rows] if np.ndim(diffusivity) else diffusivity
                d_dt = dt[diff_rows] if np.ndim(dt) else dt
            kappa, h = grid.q + k_matched, 0.5 * d_dt
            # at drift = 0 these are exp(-d kappa^2 h), bit for bit
            # products, not powers: numpy's array power may move a scalar's last bit
            core = -d * kappa**2 * h - d * drift**2 * (h * h * h) / 3.0
            tilt = d * drift * kappa * (h * h)
            before, after = np.exp(core + tilt), np.exp(core - tilt)
            full = after * before
        return cls(
            dt=dt,
            rot_full=np.exp(-1j * eta * grid.z * dt) * _rotation(residual, dt),
            rot_half=np.exp(-1j * eta * grid.z * (0.5 * dt)) * _rotation(residual, 0.5 * dt),
            before=before,
            after=after,
            full=full,
            diff_rows=diff_rows,
        )

    def diffuse(self, sigma: np.ndarray, kernel: np.ndarray | None) -> np.ndarray:
        """Exact spectral diffusion by one of before, after and full, in one FFT pair."""
        if kernel is None:
            return sigma
        if self.diff_rows is None:
            return ifft(fft(sigma, axis=-1) * kernel, axis=-1)
        out = sigma.copy()
        rows = self.diff_rows
        out[rows] = ifft(fft(sigma[rows], axis=-1) * kernel, axis=-1)
        return out


def advance_step(
    sigma: np.ndarray,
    kern: StepKernels,
    grid: Grid1D,
    *,
    coupling_eff,
    fin_now,
    fin_mid,
    drive_on: bool,
    density: float,
    light_speed: float,
) -> np.ndarray:
    """The core of one split step: gradient rotation, light shift and drive.

    The drive uses the midpoint rule: the field is slaved once at the step
    start for the predictor and once at mid-step for the corrector.  With
    the drive off the step is a pure (exact) rotation.  The exact
    diffusion half-steps around the core are the caller's (_drive_cycle).
    """
    if not drive_on:
        return kern.rot_full * sigma
    dt = kern.dt
    mask = grid.mask
    # drop each state-sized intermediate once spent and rotate fresh ones in place
    # (operand order as written, which fixes the last bits of a complex product)
    e_now = slave_field(sigma, grid, coupling_eff, density, light_speed, fin_now)
    sig_p = sigma + (0.5 * dt) * (1j * coupling_eff) * e_now * mask
    del e_now
    np.multiply(kern.rot_half, sig_p, out=sig_p)
    e_mid = slave_field(sig_p, grid, coupling_eff, density, light_speed, fin_mid)
    del sig_p
    kick = (1j * coupling_eff) * e_mid * mask
    del e_mid
    return kern.rot_full * sigma + np.multiply(dt * kern.rot_half, kick, out=kick)


@dataclass(eq=False)
class CycleRecord:
    """Everything recorded from one write / hold / read cycle.

    Field samples are in the physical frame at the cell faces; coherence
    snapshots (sigma_frames, one (t, sigma) pair per requested time) stay
    in the solver frame (multiply by exp(i k_matched z) via
    to_physical_frame for the lab-frame coherence, or take
    spinwave_spectrum of a frame for |sigma(k)|^2).
    """

    params: PhysicalParams
    protocol: StorageProtocol
    signal: SignalSpec
    grid: Grid1D
    t_write: np.ndarray
    f_in: np.ndarray
    f_trans: np.ndarray
    t_hold: np.ndarray
    f_hold_leak: np.ndarray
    t_out: np.ndarray
    f_out: np.ndarray
    sigma_end_write: np.ndarray
    sigma_end_hold: np.ndarray
    sigma_end_read: np.ndarray
    sigma_frames: list[tuple[float, np.ndarray]] = field(default_factory=list)
    input_energy: float = 0.0
    transmitted_energy: float = 0.0
    output_energy: float = 0.0
    hold_leak_energy: float = 0.0
    stored_end_write: float = 0.0
    stored_end_hold: float = 0.0
    stored_end_read: float = 0.0
    guard_ratio: dict[str, float] = field(default_factory=dict)

    @property
    def echo_peak_time(self) -> float:
        """Time of the strongest output sample."""
        return float(self.t_out[np.argmax(np.abs(self.f_out))])


def _energy(values: np.ndarray, axis: np.ndarray) -> float:
    """Trapezoid integral of |values|^2 over axis."""
    return float(np.trapezoid(np.abs(values) ** 2, axis))


def efficiency_1d(record: CycleRecord) -> float:
    """Time-integrated output over input intensity of a recorded cycle."""
    if record.input_energy == 0.0:
        raise ParameterError("cycle recorded no input energy")
    return record.output_energy / record.input_energy


def to_physical_frame(sigma: np.ndarray, grid: Grid1D, k_matched: float) -> np.ndarray:
    """Lab-frame coherence sigma_12 = exp(i k_matched z) * sigma."""
    return sigma * np.exp(1j * k_matched * grid.z)


def spinwave_spectrum(
    sigma: np.ndarray, grid: Grid1D, k_matched: float
) -> tuple[np.ndarray, np.ndarray]:
    """Spin-wave power spectrum on the physical wavenumber axis.

    Returns (k, power) with k ascending; power normalisation is arbitrary
    (fixed by the grid), adequate for centroids and drift slopes.
    """
    power = np.abs(np.fft.fftshift(fft(sigma, axis=-1), axes=-1)) ** 2
    k = np.fft.fftshift(grid.q) + k_matched
    return k, power


def spectrum_centroid(k: np.ndarray, power: np.ndarray) -> float:
    """First moment of a power spectrum."""
    total = float(np.sum(power))
    if total == 0.0:
        raise ParameterError("empty spectrum has no centroid")
    return float(np.sum(k * power) / total)


class _FrameTaker:
    """Collects group g's coherence frames as step boundaries pass.

    A snapshot time is a scalar or one time per group; a frame due at a
    boundary is taken there, at the boundary's time.
    """

    def __init__(self, g: int, sigma_times):
        self.g = g
        self.pending = sorted(_at(t, g) for t in sigma_times)
        self.sigma_frames: list[tuple[float, np.ndarray]] = []

    def due(self, t) -> bool:
        """Whether a snapshot falls due at boundary t."""
        t = _at(t, self.g)
        return bool(self.pending) and self.pending[0] <= t + 1e-12 * max(1.0, abs(t))

    def take(self, t, sigma: np.ndarray) -> None:
        t, sigma = _at(t, self.g), _row(sigma, self.g)
        eps = 1e-12 * max(1.0, abs(t))
        while self.pending and self.pending[0] <= t + eps:
            self.pending.pop(0)
            self.sigma_frames.append((t, sigma.copy()))


def _check_guard(sigma: np.ndarray, grid: Grid1D, phase: str, peak_ref: float = 0.0) -> float:
    """Coherence at the outer padding must stay below _GUARD_THRESHOLD * peak.

    The reference peak is the largest coherence seen so far in the cycle;
    without it a nearly complete readout would inflate the ratio (the
    stored wave is depleted, the harmless spectral-ringing floor in the
    padding is not).
    """
    peak = max(float(np.max(np.abs(sigma))), peak_ref)
    if peak == 0.0:
        return 0.0
    left, right = grid.guard_slices()
    edge = max(
        float(np.max(np.abs(sigma[..., left]), initial=0.0)),
        float(np.max(np.abs(sigma[..., right]), initial=0.0)),
    )
    ratio = edge / peak
    if ratio > _GUARD_THRESHOLD:
        raise GuardBandError(
            phase,
            "coherence reached the grid padding (edge/peak %.2e > %.0e); "
            "increase pad_fraction or n_medium, or shorten the cycle" % (ratio, _GUARD_THRESHOLD),
        )
    return ratio


def _inside(times, t0: float, t1: float) -> list[float]:
    """The distinct times strictly inside (t0, t1), ends excluded to round-off, sorted."""
    eps = 1e-12 * max(1.0, abs(t0), abs(t1))
    return [t for t in sorted({float(t) for t in times}) if t0 + eps < t < t1 - eps]


def _cycle_plan(
    protocols: Sequence[StorageProtocol],
    signal: SignalSpec,
    *,
    steps_per_width: float,
    cut_times=(),
) -> tuple[float, list[tuple[str, list[tuple]]]]:
    """The step plan of one cycle: the driver runs it, the cost guard sums it.

    protocols has one protocol per group, alike but for t_hold.  The base
    step is dt0 = t_width / steps_per_width, and the read window is as
    long as the write window.  Returns dt0 and, per phase, its
    constant-operator spans (start, length, eta, drive_on, pieces), each
    run as pieces (start, length, n_steps); a start or length the groups
    differ in is a per-group array.
    A driven span steps at dt0.  Every undriven span is exact at any step
    size, whatever its gradient and diffusivity: one step per piece, cut
    only at the cut_times inside it.  The hold splits into two spans at
    each group's flip time when the gradient flips there or a cut (real
    space's mid-hold snapshot, per group) falls there.
    """
    if steps_per_width <= 0.0:
        raise ParameterError("steps_per_width must be positive")
    protocol = protocols[0]  # every field but t_hold is shared
    dt0 = signal.t_width / steps_per_width
    t_window = protocol.write_window(signal)
    holds = _shared([p.t_hold for p in protocols])
    flips = _shared([p.flip_time() for p in protocols])
    cuts = [c for c in cut_times if not np.array_equal(c, flips)]  # shared times
    if np.ndim(holds):
        if protocol.control_on_hold:
            raise ParameterError("rows may differ in t_hold only when the hold is undriven")
        if _inside(cuts, 0.0, float(np.max(holds))):
            raise ParameterError("rows that differ in t_hold take no snapshot inside the hold")

    def span(start, length, eta, drive_on):
        if drive_on:
            pieces = [(start, length, max(1, math.ceil(length / dt0)))]
        else:  # a per-group span has no cut inside it (checked above)
            inside = () if np.ndim(length) else _inside(cuts, start, start + length)
            pieces = [(a, b - a, 1) for a, b in zip([start, *inside], [*inside, start + length])]
        return start, length, eta, drive_on, pieces

    hold = []
    if np.any(np.greater(holds, 0.0)):
        eta = protocol.eta_hold
        if eta != 0.0 or len(cuts) < len(cut_times):
            parts = [(0.0, flips, eta), (flips, holds - flips, -eta if eta else 0.0)]
        else:
            parts = [(0.0, holds, 0.0)]
        hold = [
            span(start, length, eta, protocol.control_on_hold)
            for start, length, eta in parts
            if not np.all(np.less_equal(length, 0.0))
        ]
    return dt0, [
        ("write", [span(-t_window, t_window, protocol.eta_write, True)]),
        ("hold", hold),
        ("read", [span(holds, t_window, -protocol.eta_write, True)]),
    ]


def _fans_out(length, diffusivity) -> bool:
    """Whether a span tells the groups apart: a per-group length or diffusivity."""
    return bool(np.ndim(length) or np.ndim(diffusivity))


def _rows_of(params, protocol) -> tuple[list, list]:
    """Per-row parameter sets and protocols; a single value serves every row."""
    param_rows = [params] if isinstance(params, PhysicalParams) else list(params)
    protocol_rows = [protocol] if isinstance(protocol, StorageProtocol) else list(protocol)
    n_rows = max(len(param_rows), len(protocol_rows))
    if len(param_rows) == 1:
        param_rows *= n_rows
    if len(protocol_rows) == 1:
        protocol_rows *= n_rows
    if n_rows == 0 or len(param_rows) != len(protocol_rows):
        raise ParameterError(
            "params and protocol rows must be non-empty and equal in number "
            "(got %d and %d)" % (len(param_rows), len(protocol_rows))
        )
    _require_shared(param_rows, "diffusivity")
    _require_shared(protocol_rows, "t_hold")
    return param_rows, protocol_rows


def _require_shared(rows, free: str) -> None:
    """Batched rows must agree in every field but `free`."""
    first = vars(rows[0])
    differ = sorted(
        {key for row in rows[1:] for key, value in vars(row).items() if value != first[key]}
        - {free}
    )
    if differ:
        raise ParameterError(
            "batched rows may differ only in %s; these differ in %s" % (free, ", ".join(differ))
        )


def _shared(values):
    """The common value of a per-row list, else the values as an array."""
    first = values[0]
    return first if all(value == first for value in values) else np.array(values, dtype=float)


def _col(values):
    """Per-group values as a (groups, 1, 1) column; a shared scalar passes through."""
    return values[:, None, None] if np.ndim(values) else values


def _at(values, g: int):
    """Group g's value of a shared scalar or a per-group array."""
    return float(values[g]) if np.ndim(values) else values


def _rotation(rate, span):
    """exp(-i rate span): np.exp for a per-row rate column, else cmath
    (a column of per-group spans gives a column of the same shape)."""
    if np.ndim(rate):
        return np.exp(-1j * rate * span)
    if np.ndim(span) == 0:
        return cmath.exp(-1j * rate * span)
    return np.array([cmath.exp(-1j * rate * s) for s in span.ravel().tolist()]).reshape(span.shape)


def _steps_by_row(samples) -> np.ndarray:
    """Per-step samples (shared scalars, or one value per group) as (groups, steps)."""
    a = np.asarray(samples)
    return a.reshape(1, -1) if a.ndim == 1 else a.T


def _row(values: np.ndarray, r: int) -> np.ndarray:
    """Entry r along axis 0 of an array whose single entry may stand for all."""
    return values[min(r, len(values) - 1)]


def _transverse_halves(transverse, step, dt0: float, drive_on: bool):
    """across(sigma, n): n owed transverse half-steps of one piece's step.

    Driven, a half is one half-step of step / 2.  Undriven, the piece is one
    step of length T, and a half is ceil(T / dt0) sub-steps near dt0, one
    matrix power, by an operator per group when the groups' steps differ
    (a zero-length step leaves its group as it is).
    """
    if drive_on:
        return transverse(0.5 * step).propagate
    lengths = np.ravel(step).tolist()
    subs = [math.ceil(length / dt0 * (1.0 - 1e-12)) for length in lengths]  # round-off
    ops = [transverse(0.5 * (length / n)) if n else None for length, n in zip(lengths, subs)]
    if np.ndim(step) == 0:
        return lambda sigma, halves: ops[0].propagate(sigma, halves * subs[0])
    return lambda sigma, halves: np.stack(
        [op.propagate(group, halves * n) if n else group for op, group, n in zip(ops, sigma, subs)]
    )


def _drive_cycle(
    params: PhysicalParams,
    protocols: Sequence[StorageProtocol],
    signal: SignalSpec,
    grid: Grid1D,
    *,
    n_rows: int,
    rabi,
    diffs,
    fin_write,
    recorders,
    transverse=None,
    diffusion_phases: tuple[str, ...] = _PHASES,
    sigma_times,
    steps_per_width: float,
):
    """Run the write / hold / read phases of _cycle_plan on a (groups, rows, n_z) state.

    One group of n_rows rows per protocol; the state fans out from one
    shared group at the first span with a per-group length or diffusivity.
    rabi (scalar or (n_rows, 1) column) sets the coupling and light-shift
    residual, diffs (scalar or one value per group) the diffusivity, and
    fin_write(t) the entrance-face input.  recorders[phase](t, exit) gets
    the solver-frame exit field, (groups, n_rows), at each boundary of a
    driven span; t, like a sigma_times entry, is a scalar or one per
    group.  In the diffusion_phases diffusion acts along z by diffs and
    across rows by transverse(dt_half), whose propagate(sigma, n) applies
    n half-steps: an undriven piece of length T takes n = 2 ceil(T / dt0)
    of them at its end.

    Returns (ends, guards, takers): the state at the end of each phase,
    and per group its guard ratios and its _FrameTaker.
    """
    for name in diffusion_phases:
        if name not in _PHASES:
            raise ParameterError("unknown diffusion phase %r" % (name,))
    dt0, plan = _cycle_plan(
        protocols, signal, steps_per_width=steps_per_width, cut_times=sigma_times
    )
    coupling = params.coupling_g * rabi / params.detuning
    residuals = stark_residual(params, rabi), stark_residual(params, 0.0 * rabi)
    n_groups = len(protocols)
    takers = [_FrameTaker(g, sigma_times) for g in range(n_groups)]
    want_frames = bool(takers[0].pending)
    sigma = np.zeros((1, n_rows, grid.n_z), dtype=complex)
    density, light_speed = params.density, params.light_speed

    def mark(t, drive_on, fin_fn, recorder):
        """Record the state at a step boundary and take the snapshots due."""
        if recorder is not None and drive_on:
            e = slave_field(sigma, grid, coupling, density, light_speed, fin_fn(t))
            recorder(t, e[..., grid.i_right])
        if want_frames:
            for taker in takers:
                taker.take(t, sigma)

    ends, peaks, guards = {}, [0.0] * n_groups, [{} for _ in range(n_groups)]
    for phase, spans in plan:
        fin_fn = fin_write if phase == "write" else (lambda t: 0.0j)
        recorder = recorders.get(phase)
        diffusing = phase in diffusion_phases
        diffusivity = diffs if diffusing else 0.0
        for span_start, length, eta, drive_on, pieces in spans:
            residual = residuals[0] if drive_on else residuals[1]
            if _fans_out(length, diffusivity) and len(sigma) < n_groups:
                sigma = np.repeat(sigma, n_groups, axis=0)  # the groups part ways here
            mark(span_start, drive_on, fin_fn, recorder)
            recorded = drive_on and recorder is not None
            for start, piece, n_steps in pieces:
                step = piece / n_steps
                drift = 0.0 if drive_on else eta
                kern = StepKernels.build(
                    grid, _col(step), eta, residual, _col(diffusivity), params.k_matched, drift
                )
                across = None
                if transverse is not None and diffusing:
                    across = _transverse_halves(transverse, step, dt0, drive_on)
                owed_z, owed_t = False, 0  # owed along z: the after half; transverse: halves
                t = start
                for j in range(n_steps):
                    sigma = kern.diffuse(sigma, kern.full if owed_z else kern.before)
                    owed_t += 1
                    if across is not None and drive_on:  # the drive tells the rows apart
                        sigma, owed_t = across(sigma, owed_t), 0
                    sigma = advance_step(
                        sigma,
                        kern,
                        grid,
                        coupling_eff=coupling,
                        fin_now=fin_fn(t),
                        fin_mid=fin_fn(t + 0.5 * step),
                        drive_on=drive_on,
                        density=density,
                        light_speed=light_speed,
                    )
                    owed_z, owed_t = True, owed_t + 1
                    t = start + (j + 1) * step
                    # an unread boundary merges the halves on either side of it
                    if j == n_steps - 1 or recorded or any(taker.due(t) for taker in takers):
                        sigma = kern.diffuse(sigma, kern.after)
                        if across is not None:
                            sigma = across(sigma, owed_t)
                        owed_z, owed_t = False, 0
                        mark(t, drive_on, fin_fn, recorder)
        for g in range(n_groups):
            view = _row(sigma, g)
            peaks[g] = max(peaks[g], float(np.max(np.abs(view))))
            guards[g][phase] = _check_guard(view, grid, phase, peaks[g])
        ends[phase] = sigma  # no step writes into a state in place
    return ends, guards, takers


def run_cycle(
    params: PhysicalParams | Sequence[PhysicalParams],
    protocol: StorageProtocol | Sequence[StorageProtocol],
    signal: SignalSpec,
    *,
    n_medium: int = 256,
    pad_fraction: float = 0.25,
    steps_per_width: float = 100.0,
    diffusion_phases: tuple[str, ...] = _PHASES,
    sigma_times=(),
) -> CycleRecord | list[CycleRecord]:
    """Integrate one full write / hold / read cycle and record it.

    The write phase covers [-t_write, 0] with the input envelope injected
    at the entrance face, the hold [0, t_hold] (gradient and control per
    the protocol), and the read [t_hold, t_hold + t_write] with the
    gradient reversed; t_write is the protocol's write window.  The base
    step is t_width / steps_per_width.  diffusion_phases restricts which
    phases see the diffusion operator, which isolates per-phase decay (the
    collapse sweeps use it); physical runs keep all three.  sigma_times
    requests coherence frames (CycleRecord.sigma_frames); a spin-wave
    spectrum is spinwave_spectrum of a frame.

    Batched rows: params and protocol may each be a sequence (a single
    value serves every row), and a list of records comes back in row
    order; a single PhysicalParams with a single StorageProtocol returns
    one CycleRecord.  Each row is a group of the driver's state.  Rows may
    differ only in diffusivity, and rows may differ in t_hold whenever the
    hold is undriven and takes no snapshot; any other difference raises
    ParameterError.  A span whose operator every row shares, such as a
    write with diffusion off, is solved once.

    Raises GuardBandError if coherence reaches the outer padding band.
    """
    single = isinstance(params, PhysicalParams) and isinstance(protocol, StorageProtocol)
    param_rows, protocol_rows = _rows_of(params, protocol)
    for row_params, row_protocol in zip(param_rows, protocol_rows):
        derive_groups(row_params, row_protocol, signal)  # validates gradient and widths
    params = param_rows[0]  # every field but the diffusivity is shared
    face_phase = cmath.exp(1j * params.dispersion_shift * params.half_length)
    samples = {phase: ([], []) for phase in _PHASES}  # step times, exit fields

    def recorder(phase):
        times, fields = samples[phase]

        def record(t, exit_field):
            # physical-frame exit field per row, as scalar products: numpy's
            # vector complex multiply may fuse multiply-adds and move last bits
            times.append(t)
            fields.append([face_phase * value for value in exit_field[:, 0]])

        return record

    grid = Grid1D.build(params.half_length, n_medium, pad_fraction)
    ends, guards, takers = _drive_cycle(
        params,
        protocol_rows,
        signal,
        grid,
        n_rows=1,
        rabi=params.rabi_control,
        diffs=_shared([p.diffusivity for p in param_rows]),
        fin_write=lambda t: face_phase * complex(sample_temporal(signal, t)),
        recorders={phase: recorder(phase) for phase in _PHASES},
        steps_per_width=steps_per_width,
        diffusion_phases=diffusion_phases,
        sigma_times=sigma_times,
    )

    t_w = samples["write"][0]
    t_write_axis = np.array(t_w)
    f_in = np.array([complex(sample_temporal(signal, t)) for t in t_w])
    f_trans = _steps_by_row(samples["write"][1])
    t_hold_axis, f_hold = (_steps_by_row(s) for s in samples["hold"])
    t_out, f_out = (_steps_by_row(s) for s in samples["read"])

    stored_scale = params.density / params.light_speed

    records = []
    for r, taker in enumerate(takers):  # a group of one row per record
        row_trans, row_hold, row_out = (_row(f, r) for f in (f_trans, f_hold, f_out))
        row_t_hold, row_t_out = _row(t_hold_axis, r), _row(t_out, r)
        end_write, end_hold, end_read = (_row(ends[phase], r)[0] for phase in _PHASES)
        records.append(
            CycleRecord(
                params=param_rows[r],
                protocol=protocol_rows[r],
                signal=signal,
                grid=grid,
                t_write=t_write_axis,
                f_in=f_in,
                f_trans=row_trans,
                t_hold=row_t_hold,
                f_hold_leak=row_hold,
                t_out=row_t_out,
                f_out=row_out,
                sigma_end_write=end_write,
                sigma_end_hold=end_hold,
                sigma_end_read=end_read,
                sigma_frames=[(t, frame[0]) for t, frame in taker.sigma_frames],
                input_energy=_energy(f_in, t_write_axis),
                transmitted_energy=_energy(row_trans, t_write_axis),
                output_energy=_energy(row_out, row_t_out),
                hold_leak_energy=_energy(row_hold, row_t_hold),  # 0.0 with no samples
                stored_end_write=stored_scale * _energy(end_write, grid.z),
                stored_end_hold=stored_scale * _energy(end_hold, grid.z),
                stored_end_read=stored_scale * _energy(end_read, grid.z),
                guard_ratio=guards[r],
            )
        )
    return records[0] if single else records
