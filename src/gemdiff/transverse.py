"""Transverse dynamics: exact mode decomposition and real-space solvers.

Two complementary routes:

* run_cycle_quasi1d - for a homogeneous control field the transverse
  Fourier modes decouple exactly: rescaling the coherence by e^(gamma t)
  with gamma = D k_perp^2 maps every mode onto the same 1D problem, so a
  single longitudinal solve serves all modes and each one just carries
  the decay e^(-gamma (2 t + t_hold)) at read offset t.

* run_cycle_realspace - for a transversely varying control field the
  columns stop being equivalent (local Rabi frequency shifts both the
  coupling and the two-photon detuning), so the cycle is stepped on an
  explicit transverse grid.  It runs on the shared cycle driver of
  solver1d, with the columns as the rows of one group per protocol
  (column-local coupling and light shift) and a transverse diffusion
  operator, whose half-steps the driver applies with the longitudinal
  ones around each step core, merged across the boundaries nothing
  reads.  Protocols that differ only in t_hold share one write.  An
  axisymmetric problem runs on a radial finite-volume grid: conservative
  Crank-Nicolson diffusion, whose half-step is a propagator matrix built
  once per step size and applied as one real GEMM per group (n merged
  half-steps are its cached n-th power).  The general case runs on a
  Cartesian grid with spectral transverse diffusion (n half-steps are
  one FFT pair).

Beam observables (intensity profile, fitted width, spin-wave phase maps,
effective diffusion rate) are extracted from the records here as well.
Diffraction is neglected throughout: the field propagates along z only,
which is what decouples the columns.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.fft import fft2, ifft2
from scipy.linalg import solve_banded
from scipy.optimize import curve_fit

from .model import (
    ParameterError,
    PhysicalParams,
    StorageProtocol,
    derive_groups,
)
from .pulses import ControlProfile, SignalSpec, control_rabi, sample_temporal, sample_transverse
from .solver1d import (
    CycleRecord,
    Grid1D,
    _drive_cycle,
    _energy,
    _row,
    _rows_of,
    _shared,
    _steps_by_row,
    advance_step,  # noqa: F401  (the real-space step core; perfbench traces it per module)
    run_cycle,
)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _edge_amplitude_ok(values: np.ndarray, threshold: float = 1e-6) -> bool:
    """True when the outermost samples stay below threshold * peak."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return True
    edge = max(
        float(np.max(np.abs(values[0]))),
        float(np.max(np.abs(values[-1]))),
        float(np.max(np.abs(values[..., 0]))),
        float(np.max(np.abs(values[..., -1]))),
    )
    return edge <= threshold * peak


@dataclass(frozen=True, eq=False)
class ModeGrid:
    """Square transverse Fourier grid for the quasi-1D decomposition."""

    x: np.ndarray
    y: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    window: float

    @classmethod
    def build(
        cls,
        waist: float,
        mode: tuple[int, int] = (0, 0),
        n: int = 64,
        window_factor: float = 8.0,
    ) -> "ModeGrid":
        """Grid sized for a given beam: window >= 6 waists, spectrum resolved.

        Raises when the sampled mode does not decay to 1e-6 of its peak at
        both the window edge and the Nyquist edge of the k grid.
        """
        if window_factor < 6.0:
            raise ParameterError("transverse window must span at least 6 waists")
        if n < 8 or n % 2:
            raise ParameterError("transverse grid size must be an even number >= 8")
        window = window_factor * waist
        dx = window / n
        axis = (np.arange(n) - n // 2) * dx
        k_axis = 2.0 * math.pi * np.fft.fftfreq(n, dx)
        probe = SignalSpec(
            amplitude=1.0, t_width=1.0, t_lead=0.0, waist=waist, mode=mode
        )
        samples = sample_transverse(probe, axis[:, None], axis[None, :])
        if not _edge_amplitude_ok(samples):
            raise ParameterError(
                "transverse window too small for mode %r (edge amplitude above "
                "1e-6 of peak); increase window_factor" % (mode,)
            )
        spectrum = np.fft.fftshift(fft2(samples))
        if not _edge_amplitude_ok(spectrum):
            raise ParameterError(
                "transverse grid too coarse for mode %r (spectrum not resolved "
                "to 1e-6 at Nyquist); increase n" % (mode,)
            )
        return cls(x=axis, y=axis, kx=k_axis, ky=k_axis, window=window)

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def k_squared(self) -> np.ndarray:
        """kx^2 + ky^2 mesh in FFT order."""
        return self.kx[:, None] ** 2 + self.ky[None, :] ** 2


@dataclass(frozen=True, eq=False)
class TransverseGrid:
    """Real-space transverse grid: radial (axisymmetric) or Cartesian.

    Radial grids are staggered, r_j = (j + 1/2) dr, which gives the
    finite-volume diffusion operator its natural no-flux condition at the
    axis and makes every cell weight 2 pi r_j dr.
    """

    kind: str
    r: np.ndarray
    dr: float
    x: np.ndarray | None = None
    y: np.ndarray | None = None

    @classmethod
    def radial(
        cls, waist: float, n_r: int = 96, window_factor: float = 8.0
    ) -> "TransverseGrid":
        if window_factor < 6.0:
            raise ParameterError("transverse window must span at least 6 waists")
        if n_r < 8:
            raise ParameterError("radial grid needs at least 8 cells")
        window = window_factor * waist
        dr = window / n_r
        r = (np.arange(n_r) + 0.5) * dr
        return cls(kind="radial", r=r, dr=dr)

    @classmethod
    def cartesian(
        cls, waist: float, n: int = 64, window_factor: float = 8.0
    ) -> "TransverseGrid":
        if window_factor < 6.0:
            raise ParameterError("transverse window must span at least 6 waists")
        if n < 8 or n % 2:
            raise ParameterError("cartesian grid size must be an even number >= 8")
        window = window_factor * waist
        dx = window / n
        axis = (np.arange(n) - n // 2) * dx
        r = np.sqrt(axis[:, None] ** 2 + axis[None, :] ** 2).ravel()
        return cls(kind="cartesian", r=r, dr=dx, x=axis, y=axis)

    @property
    def n_cols(self) -> int:
        return self.r.size

    @property
    def weights(self) -> np.ndarray:
        """Transverse quadrature weight of each column (area element)."""
        if self.kind == "radial":
            return 2.0 * math.pi * self.r * self.dr
        return np.full(self.n_cols, self.dr * self.dr)


# ---------------------------------------------------------------------------
# quasi-1D decomposition (homogeneous control)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Quasi1DRecord:
    """One shared 1D cycle plus per-mode transverse decay factors.

    The mode with transverse wavenumber k_perp sees the shared output
    scaled by exp(-gamma (2 t + t_hold)), gamma = D k_perp^2, t the read
    offset; everything else is the mode amplitude.  Efficiencies follow by
    quadrature over the mode spectrum, in k space directly or in real
    space via the inverse transform (the two agree by Parseval).
    """

    base: CycleRecord
    mode_grid: ModeGrid
    mode_amp: np.ndarray
    gamma: np.ndarray

    @classmethod
    def from_bases(
        cls, bases: Sequence[CycleRecord], signal: SignalSpec, grid: ModeGrid
    ) -> list["Quasi1DRecord"]:
        """Wrap 1D cycles with the mode spectrum of signal on grid.

        The longitudinal cycle does not depend on the transverse mode, so
        one base can serve several modes (each wrapped on its own grid).
        """
        samples = sample_transverse(signal, grid.x[:, None], grid.y[None, :])
        mode_amp = fft2(samples) * grid.dx * grid.dx
        k_squared = grid.k_squared()
        return [
            cls(
                base=base,
                mode_grid=grid,
                mode_amp=mode_amp,
                gamma=base.params.diffusivity * k_squared,
            )
            for base in bases
        ]

    @property
    def read_offsets(self) -> np.ndarray:
        return self.base.t_out - self.base.protocol.t_hold

    def perp_factor(self, gamma) -> np.ndarray:
        """Transverse decay factor for one gamma over the read window."""
        t = self.read_offsets
        return np.exp(-np.asarray(gamma) * (2.0 * t + self.base.protocol.t_hold))

    def f_out_mode(self, i: int, j: int) -> np.ndarray:
        """Output field record of mode (kx[i], ky[j])."""
        return self.base.f_out * (self.mode_amp[i, j] * self.perp_factor(self.gamma[i, j]))

    def _spectral_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique gamma values and their spectral weights sum |amp|^2."""
        gam = self.gamma.ravel()
        weight = np.abs(self.mode_amp.ravel()) ** 2
        uniq, inverse = np.unique(gam, return_inverse=True)
        sums = np.zeros(uniq.size)
        np.add.at(sums, inverse, weight)
        return uniq, sums

    def efficiency_kspace(self) -> float:
        """Cycle efficiency by quadrature over the mode spectrum."""
        uniq, weight = self._spectral_weights()
        out_t = np.abs(self.base.f_out) ** 2
        factors = np.exp(
            -2.0 * uniq[:, None] * (2.0 * self.read_offsets + self.base.protocol.t_hold)
        )
        out = np.trapezoid(factors * out_t, self.base.t_out, axis=-1)
        total_out = float(np.sum(weight * out))
        total_in = float(np.sum(weight)) * self.base.input_energy
        return total_out / total_in

    def efficiency_realspace(self) -> float:
        """Same efficiency via the inverse transform (Parseval route)."""
        dx = self.mode_grid.dx
        total_out = float(np.sum(self.intensity_realspace()[1])) * dx**2
        profile = ifft2(self.mode_amp) / dx**2
        total_in = (
            float(np.sum(np.abs(profile) ** 2)) * dx**2 * self.base.input_energy
        )
        return total_out / total_in

    def intensity_realspace(self) -> tuple[np.ndarray, np.ndarray]:
        """Time-integrated output intensity I(x, y) on the real-space grid."""
        spec = self.mode_amp[..., None] * np.exp(
            -self.gamma[..., None]
            * (2.0 * self.read_offsets + self.base.protocol.t_hold)
        )
        # ifft2 undoes the forward transform of the centred samples, so the
        # result is indexed by the grid axes directly (no shift needed)
        fields = ifft2(spec, axes=(0, 1)) / self.mode_grid.dx**2
        out_sq = np.abs(fields) ** 2 * np.abs(self.base.f_out) ** 2
        return self.mode_grid.x, np.trapezoid(out_sq, self.base.t_out, axis=-1)


def run_cycle_quasi1d(
    params: PhysicalParams | Sequence[PhysicalParams],
    protocol: StorageProtocol | Sequence[StorageProtocol],
    signal: SignalSpec,
    grid: ModeGrid,
    **solver_kwargs,
) -> Quasi1DRecord | list[Quasi1DRecord]:
    """Full 3D cycle for a homogeneous control via one 1D solve.

    The tilded longitudinal system is identical for every transverse
    Fourier mode, so exactly one solver1d cycle is run; each mode then
    carries its own decay factor.  The control is the homogeneous
    params.rabi_control; a transversely varying control breaks the
    equivalence and goes through run_cycle_realspace.  solver_kwargs are
    run_cycle's keyword options.  params and protocol may be row sequences
    under the batching rules of run_cycle; each row's base is then wrapped
    on its own, one record per row.
    """
    base = run_cycle(params, protocol, signal, **solver_kwargs)
    if isinstance(base, CycleRecord):
        return Quasi1DRecord.from_bases([base], signal, grid)[0]
    return Quasi1DRecord.from_bases(base, signal, grid)


# ---------------------------------------------------------------------------
# real-space transverse solver (inhomogeneous control)
# ---------------------------------------------------------------------------


class _RadialDiffusion:
    """Conservative Crank-Nicolson half-step for radial diffusion.

    Finite-volume discretization of (1/r) d/dr (r d/dr) on the staggered
    grid; no-flux at the axis (built in by r_{-1/2} = 0) and at the outer
    edge.  Unconditionally stable; second order in dr and dt.  The
    half-step is the real n_r x n_r propagator P = (I - A)^-1 (I + A),
    built by one banded solve; n half-steps are the matrix power P^n
    (cached per n), applied as one real GEMM on the complex state viewed
    as float.
    """

    def __init__(self, grid: TransverseGrid, diffusivity: float, dt_half: float):
        r = grid.r
        dr = grid.dr
        lower_face = r - 0.5 * dr
        upper_face = r + 0.5 * dr
        lower_face[0] = 0.0
        coef = 0.5 * diffusivity * dt_half
        a = coef * (lower_face / (r * dr * dr))
        c = coef * (upper_face / (r * dr * dr))
        c[-1] = 0.0
        implicit = np.array([np.r_[0.0, -c[:-1]], 1.0 + a + c, np.r_[-a[1:], 0.0]])
        explicit = np.diag(1.0 - a - c) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
        self._powers = {1: solve_banded((1, 1), implicit, explicit)}

    def propagate(self, sigma: np.ndarray, n_halves: int = 1) -> np.ndarray:
        """n_halves half-steps on sigma of shape (..., n_r, n_z), one GEMM per group."""
        if n_halves not in self._powers:
            self._powers[n_halves] = np.linalg.matrix_power(self._powers[1], n_halves)
        flat = np.ascontiguousarray(sigma).view(float)
        return np.matmul(self._powers[n_halves], flat).view(complex)


class _CartesianDiffusion:
    """Spectral transverse diffusion on the Cartesian grid.

    n half-steps are one FFT pair with the kernel exp(-D k^2 n dt_half),
    cached per n.
    """

    def __init__(self, grid: TransverseGrid, diffusivity: float, dt_half: float):
        n = grid.x.size
        kx = 2.0 * math.pi * np.fft.fftfreq(n, grid.dr)
        k_sq = kx[:, None] ** 2 + kx[None, :] ** 2
        self._n = n
        self._rate = -diffusivity * k_sq
        self._dt_half = dt_half
        self._kernels = {}

    def propagate(self, sigma: np.ndarray, n_halves: int = 1) -> np.ndarray:
        """n_halves half-steps on sigma of shape (..., n_x * n_y, n_z)."""
        if n_halves not in self._kernels:
            self._kernels[n_halves] = np.exp(self._rate * (n_halves * self._dt_half))[..., None]
        n = self._n
        cube = sigma.reshape(*sigma.shape[:-2], n, n, sigma.shape[-1])
        cube = ifft2(fft2(cube, axes=(-3, -2)) * self._kernels[n_halves], axes=(-3, -2))
        return cube.reshape(sigma.shape)


@dataclass(eq=False)
class RealspaceRecord:
    """Record of a transverse real-space cycle.

    Fields are sampled at the medium exit face per transverse column;
    intensity is the time-integrated |f_out|^2 per column.  Coherence
    snapshots have shape (n_cols, n_z) in the solver frame.
    """

    params: PhysicalParams
    protocol: StorageProtocol
    signal: SignalSpec
    control: ControlProfile
    grid: Grid1D
    tgrid: TransverseGrid
    t_out: np.ndarray
    f_out: np.ndarray
    intensity: np.ndarray
    intensity_in: np.ndarray
    input_energy: float
    output_energy: float
    sigma_frames: list[tuple[float, np.ndarray]] = field(default_factory=list)
    guard_ratio: dict[str, float] = field(default_factory=dict)

    @property
    def efficiency(self) -> float:
        if self.input_energy == 0.0:
            raise ParameterError("cycle recorded no input energy")
        return self.output_energy / self.input_energy


def _realspace_plan(protocols, sigma_times) -> list:
    """Real space's snapshot times: the requested ones and each group's mid-hold one."""
    flips = _shared([p.flip_time() for p in protocols])
    return [*sigma_times, flips] if np.ndim(flips) else [*{*sigma_times, flips}]


def run_cycle_realspace(
    params: PhysicalParams,
    protocol: StorageProtocol | Sequence[StorageProtocol],
    signal: SignalSpec,
    control: ControlProfile,
    tgrid: TransverseGrid,
    *,
    n_medium: int = 192,
    pad_fraction: float = 0.25,
    steps_per_width: float = 64.0,
    sigma_times=(),
    store_fields=None,
) -> RealspaceRecord | list[RealspaceRecord]:
    """Full cycle on an explicit transverse grid with a local control field.

    The cycle runs on the cycle driver shared with solver1d.run_cycle,
    with the transverse columns as the rows of one group per protocol:
    column-local coupling and light shift, and a transverse operator.
    Diffusion acts in every phase, with run_cycle's step and read window.
    protocol may be a sequence under run_cycle's rule: only t_hold may
    differ, and the hold must be undriven.  The groups share one write and
    part ways at the hold; one record per protocol comes back.  The radial
    grid requires an axisymmetric input mode.  A coherence snapshot at
    each group's mid-hold is always recorded (the phase-map extraction
    needs it); extra snapshot times may be requested by sigma_times.
    Every record keeps its exit fields (store_fields is ignored).
    """
    single = isinstance(protocol, StorageProtocol)
    _, protocols = _rows_of(params, protocol)
    if tgrid.kind == "radial" and signal.mode != (0, 0):
        raise ParameterError(
            "radial grid is restricted to the axisymmetric (0,0) mode; "
            "use a cartesian grid for mode %r" % (signal.mode,)
        )
    if abs(control.rabi_peak - params.rabi_control) > 1e-9 * abs(params.rabi_control):
        raise ParameterError(
            "control.rabi_peak must match params.rabi_control (the light-shift "
            "bias and far-detuning checks are anchored to it)"
        )
    for row in protocols:
        derive_groups(params, row, signal)

    face_phase = cmath.exp(1j * params.dispersion_shift * params.half_length)
    if tgrid.kind == "radial":
        profile = sample_transverse(signal, tgrid.r[:, None], np.zeros((1, 1)))[:, 0]
    else:
        profile = sample_transverse(
            signal, tgrid.x[:, None], tgrid.y[None, :]
        ).ravel()
    profile = profile[:, None]

    times, exits = [], []  # per read boundary: its time and exit field, per group

    def record_read(t, exit_field: np.ndarray) -> None:
        times.append(t)
        exits.append(face_phase * exit_field)

    diffusion = _RadialDiffusion if tgrid.kind == "radial" else _CartesianDiffusion
    grid = Grid1D.build(params.half_length, n_medium, pad_fraction)
    _, guards, takers = _drive_cycle(
        params,
        protocols,
        signal,
        grid,
        n_rows=tgrid.n_cols,
        rabi=control_rabi(control, tgrid.r)[:, None],  # column-local control
        diffs=params.diffusivity,
        fin_write=lambda t: face_phase * complex(sample_temporal(signal, t)) * profile,
        recorders={"read": record_read},
        transverse=(
            partial(diffusion, tgrid, params.diffusivity) if params.diffusivity > 0.0 else None
        ),
        steps_per_width=steps_per_width,
        sigma_times=_realspace_plan(protocols, sigma_times),
    )

    t_write = np.linspace(-protocols[0].write_window(signal), 0.0, 2049)
    intensity_in = np.abs(profile[:, 0]) ** 2 * _energy(sample_temporal(signal, t_write), t_write)
    input_energy = float(np.sum(tgrid.weights * intensity_in))
    t_out = _steps_by_row(times)
    f_out = np.moveaxis(np.array(exits), 0, -1)  # (groups, n_cols, steps)

    records = []
    for g, (row, taker) in enumerate(zip(protocols, takers)):
        t_g, out_sq = _row(t_out, g), [np.abs(_row(e, g)) ** 2 for e in exits]
        intensity, energy_out = np.zeros(tgrid.n_cols), 0.0
        for k in range(1, t_g.size):  # trapezoid panels in time order
            panel = 0.5 * (t_g[k] - t_g[k - 1]) * (out_sq[k] + out_sq[k - 1])
            intensity += panel
            energy_out += float(np.sum(tgrid.weights * panel))
        records.append(
            RealspaceRecord(
                params=params,
                protocol=row,
                signal=signal,
                control=control,
                grid=grid,
                tgrid=tgrid,
                t_out=t_g,
                f_out=_row(f_out, g),
                intensity=intensity,
                intensity_in=intensity_in,
                input_energy=input_energy,
                output_energy=energy_out,
                sigma_frames=taker.sigma_frames,
                guard_ratio=guards[g],
            )
        )
    return records[0] if single else records


# ---------------------------------------------------------------------------
# beam observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BeamProfile:
    """Radial intensity profile with fitted and moment widths.

    width is the scale of the fitted I0 exp(-r^2 / (2 w^2)); width_moment
    is sqrt(<r^2>/2), which equals the fitted width for an exact Gaussian.
    fit_ok is False when the least-squares fit failed to converge, in
    which case width falls back to the moment value.
    """

    r: np.ndarray
    intensity: np.ndarray
    width: float
    width_moment: float
    fit_residual: float
    fit_ok: bool
    asymmetry: float | None = None


def _radial_profile(record: RealspaceRecord) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Column intensities mapped to radius; asymmetry norm on 2D grids."""
    if record.tgrid.kind == "radial":
        return record.tgrid.r, record.intensity, None
    n = record.tgrid.x.size
    image = record.intensity.reshape(n, n)
    peak = float(np.max(image))
    asym = 0.0
    if peak > 0.0:
        # x -> -x on the centred even grid is flip plus one-cell roll (the
        # axis runs -n/2 .. n/2 - 1; the domain is periodic for the
        # spectral transverse step, so the wrap is exact)
        for other in (
            image.T,
            np.roll(image[::-1, :], 1, axis=0),
            np.roll(image[:, ::-1], 1, axis=1),
        ):
            asym = max(asym, float(np.max(np.abs(image - other))) / peak)
    return record.tgrid.r, record.intensity, asym


def intensity_and_width(record: RealspaceRecord) -> BeamProfile:
    """Fit the time-integrated output intensity to a Gaussian profile.

    Primary width from least squares on I(r) = I0 exp(-r^2/(2 w^2));
    second-moment width reported alongside as a diagnostic.  If the fit
    fails, the moment width is returned with fit_ok = False.
    """
    r, intensity, asym = _radial_profile(record)
    weights = record.tgrid.weights
    total = float(np.sum(weights * intensity))
    if total <= 0.0:
        raise ParameterError("output intensity is empty; nothing to fit")
    moment = math.sqrt(float(np.sum(weights * intensity * r**2)) / total / 2.0)

    def model(r_, i0, w):
        return i0 * np.exp(-(r_**2) / (2.0 * w**2))

    try:
        popt, _ = curve_fit(
            model,
            r,
            intensity,
            p0=(float(np.max(intensity)), moment),
            maxfev=10000,
        )
        width = abs(float(popt[1]))
        resid = intensity - model(r, *popt)
        fit_residual = float(np.sqrt(np.mean(resid**2))) / float(np.max(intensity))
        fit_ok = True
    except RuntimeError:
        width = moment
        fit_residual = math.nan
        fit_ok = False
    return BeamProfile(
        r=r,
        intensity=intensity,
        width=width,
        width_moment=moment,
        fit_residual=fit_residual,
        fit_ok=fit_ok,
        asymmetry=asym,
    )


@dataclass(frozen=True, eq=False)
class PhaseMap:
    """Spin-wave phase difference theta(r, z) at one snapshot time."""

    t: float
    r: np.ndarray
    z: np.ndarray
    theta: np.ndarray

    def at_z(self, z_value: float) -> tuple[np.ndarray, np.ndarray]:
        """theta(r) at the grid plane nearest z_value (NaN where masked)."""
        idx = int(np.argmin(np.abs(self.z - z_value)))
        return self.r, self.theta[:, idx]


def _find_frame(record: RealspaceRecord, t: float) -> np.ndarray:
    for ft, frame in record.sigma_frames:
        if abs(ft - t) <= 1e-9 * max(abs(t), 1e-12) + 1e-15:
            return frame
    raise ParameterError(
        "no coherence snapshot at t = %.6g; request it via sigma_times" % t
    )


def extract_phase(
    record_inhomo: RealspaceRecord,
    record_homo: RealspaceRecord,
    t: float | None = None,
) -> PhaseMap:
    """Phase difference of the stored spin wave, inhomogeneous minus homogeneous.

    Both records must hold coherence snapshots at the comparison time
    (default: mid-hold, which run_cycle_realspace always records).  The
    phase is unwrapped radially outward from the axis, and samples where
    either coherence falls below 1e-6 of its peak are NaN-masked.
    """
    if record_inhomo.tgrid.kind != record_homo.tgrid.kind:
        raise ParameterError("phase extraction needs records on matching grids")
    when = t if t is not None else record_inhomo.protocol.flip_time()
    sig_i = _find_frame(record_inhomo, when)
    sig_h = _find_frame(record_homo, when)
    med = record_inhomo.grid.medium
    sig_i = sig_i[:, med]
    sig_h = sig_h[:, med]
    cross = sig_i * np.conj(sig_h)
    theta = np.unwrap(np.angle(cross), axis=0)
    bad = (np.abs(sig_i) < 1e-6 * np.max(np.abs(sig_i))) | (
        np.abs(sig_h) < 1e-6 * np.max(np.abs(sig_h))
    )
    theta = np.where(bad, np.nan, theta)
    z = record_inhomo.grid.z[med]
    return PhaseMap(t=when, r=record_inhomo.tgrid.r, z=z, theta=theta)


def fit_effective_diffusion(t_holds, widths_squared) -> float:
    """Apparent diffusion rate: least-squares slope of w^2 versus hold time."""
    t_holds = np.asarray(t_holds, dtype=float)
    widths_squared = np.asarray(widths_squared, dtype=float)
    if t_holds.size < 4:
        raise ParameterError("effective-diffusion fit needs at least 4 hold times")
    slope, _ = np.polyfit(t_holds, widths_squared, 1)
    return float(slope)
