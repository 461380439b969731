"""Pseudo-spectral evolution on a periodic torus.

The Cauchy problem is evolved by exact Fourier-multiplier application:
each mode xi of the torus [-L, L)^n carries the closed-form kernels
K0hat(t, |xi|), K1hat(t, |xi|), so the linear flow has no
time-discretisation error at all.  The semi-linear problem is stepped
with an exponential Duhamel (variation-of-constants) integrator: the
linear part is propagated exactly over each step and the nonlinearity
enters through midpoint quadrature of the Duhamel integral with the
exact kernel as weight.  Observed orders are about 2 for f = |u|^p and
1 for f = |u_t|^p.  Real fields are carried as rfftn half spectra, and
the 3/2 padding de-aliases quadratic products only.

The torus is a desk-scale stand-in for R^n: decay measurements are only
meaningful while the solution remains well inside the box and the
frequency spacing pi/L resolves the surviving low-frequency content.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .dispersion import cutoff_chi, kernel_dt_values, kernel_values
from .params import ModelParams

__all__ = [
    "TorusGrid", "Field", "Snapshot", "Trajectory", "BlowUpError",
    "make_grid", "riesz_apply", "linear_evolve", "semilinear_solve",
    "lq_norm", "gevrey_energy", "gaussian_field", "zero_field",
    "write_norms_csv", "dump_field", "load_field",
]


@dataclass(frozen=True)
class TorusGrid:
    """Periodic lattice on [-L, L)^n with its frequency lattice.

    Frequencies are xi_k = pi k / L for k = -N/2 .. N/2 - 1 (numpy FFT
    ordering along each axis).
    """

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError("n must be 1, 2, or 3")
        if self.N < 16 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two >= 16")
        if self.L <= 0:
            raise ValueError("L must be positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def x(self) -> np.ndarray:
        """Per-axis physical coordinates."""
        return -self.L + self.dx * np.arange(self.N)

    @property
    def xi(self) -> np.ndarray:
        """Per-axis frequencies in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)

    @property
    def rho(self) -> np.ndarray:
        """|xi| over the full n-dimensional frequency lattice."""
        return self._abs_xi(self.xi)

    @property
    def rho_half(self) -> np.ndarray:
        """|xi| over the rfftn half lattice (xi >= 0 on the last axis)."""
        return self._abs_xi(2.0 * np.pi * np.fft.rfftfreq(self.N, d=self.dx))

    def _abs_xi(self, last: np.ndarray) -> np.ndarray:
        axes = np.meshgrid(*([self.xi] * (self.n - 1)), last, indexing="ij")
        return np.sqrt(sum(a * a for a in axes))

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*([self.x] * self.n), indexing="ij"))


@dataclass(frozen=True)
class Field:
    """A grid function in physical or spectral representation.

    Spectral values follow the unnormalised numpy fftn convention;
    ifftn recovers physical values, which real fields hold as float64.
    """

    grid: TorusGrid
    values: np.ndarray
    space: str  # "physical" | "spectral"

    def __post_init__(self):
        if self.space not in ("physical", "spectral"):
            raise ValueError("space must be 'physical' or 'spectral'")
        expected = (self.grid.N,) * self.grid.n
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")

    def to_spectral(self) -> "Field":
        if self.space == "spectral":
            return self
        return Field(self.grid, np.fft.fftn(self.values), "spectral")

    def to_physical(self) -> "Field":
        if self.space == "physical":
            return self
        return Field(self.grid, np.fft.ifftn(self.values), "physical")


@dataclass(frozen=True)
class Snapshot:
    """State (u, u_t) at one time."""

    t: float
    u: Field
    ut: Field

    def __post_init__(self):
        if self.u.grid != self.ut.grid:
            raise ValueError("u and ut must share one grid")


@dataclass(frozen=True)
class Trajectory:
    snapshots: tuple[Snapshot, ...]
    params: ModelParams

    def __post_init__(self):
        ts = [s.t for s in self.snapshots]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("snapshot times must be strictly increasing")


class BlowUpError(RuntimeError):
    """Raised when a monitored norm exceeds its ceiling during stepping."""

    def __init__(self, t: float, q: float, norm: float, ceiling: float):
        self.t, self.q, self.norm, self.ceiling = t, q, norm, ceiling
        super().__init__(
            f"L^{q} norm {norm:.3e} exceeded ceiling {ceiling:.3e} at t = {t:.6g}")


def make_grid(n: int, L: float, N: int) -> TorusGrid:
    """Build a periodic grid; rejects odd N and unsupported dimensions."""
    return TorusGrid(n=n, L=float(L), N=int(N))


def zero_field(grid: TorusGrid) -> Field:
    return Field(grid, np.zeros((grid.N,) * grid.n), "physical")


def gaussian_field(grid: TorusGrid, amplitude: float = 1.0,
                   width: float = 1.0) -> Field:
    """Centered Gaussian amplitude * exp(-|x|^2 / width^2) on the lattice."""
    mesh = grid.meshgrid()
    r2 = sum(x * x for x in mesh)
    return Field(grid, amplitude * np.exp(-r2 / width**2), "physical")


def riesz_apply(field: Field, a: float) -> Field:
    """Apply |D|^a: multiply spectral coefficients by |xi|^a.

    The zero mode maps to zero for a > 0; a = 0 is the identity; a < 0
    is rejected (the torus zero mode has no negative-order Riesz image).
    """
    if a < 0:
        raise ValueError("negative Riesz order not supported on the torus")
    if a == 0:
        return field
    spec = field.to_spectral()
    rho = spec.grid.rho
    mult = np.zeros_like(rho)
    nonzero = rho > 0
    mult[nonzero] = rho[nonzero] ** a
    out = Field(spec.grid, spec.values * mult, "spectral")
    return out.to_physical() if field.space == "physical" else out


def linear_evolve(data: Snapshot, t: float, params: ModelParams) -> Snapshot:
    """Exact linear flow: v = K0hat v0 + K1hat v1 modewise, likewise v_t."""
    grid = data.u.grid
    rho = grid.rho
    v0 = data.u.to_spectral().values
    v1 = data.ut.to_spectral().values
    k0, k1 = kernel_values(t, rho, params)
    dk0, dk1 = kernel_dt_values(t, rho, params)
    v = k0 * v0 + k1 * v1
    vt = dk0 * v0 + dk1 * v1
    return Snapshot(
        t=data.t + t,
        u=Field(grid, v, "spectral"),
        ut=Field(grid, vt, "spectral"),
    )


def _irfft(v: np.ndarray, size: int, out=None) -> np.ndarray:
    """Real field on the size^n lattice from its rfftn half spectrum."""
    return np.fft.irfftn(v, (size,) * v.ndim, tuple(range(v.ndim)), out=out)


def _pad_half(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Zero-pad the N^n half spectrum v into the M^n one `out`, which is
    zero outside the blocks [:h], [-h:] of each leading axis and [:h + 1]
    of the last (h = N/2); Nyquist modes go half to +N/2, half to -N/2."""
    n, N, M = v.ndim, 2 * (v.shape[-1] - 1), 2 * (out.shape[-1] - 1)
    h = N // 2
    lead = np.r_[0:h, M - h:M]
    out[np.ix_(*([lead] * (n - 1)), np.arange(h + 1))] = v * (M / N) ** n
    out[..., h] *= 0.5
    for axis in range(n - 1):
        rows = np.moveaxis(out, axis, 0)
        rows[M - h] *= 0.5
        rows[h] = rows[M - h]
    return out


def _truncate_half(f: np.ndarray, N: int) -> np.ndarray:
    """Inverse of _pad_half; a leading axis's Nyquist row averages -N/2
    and +N/2 (irfftn does so for the last axis)."""
    n, M, h = f.ndim, 2 * (f.shape[-1] - 1), N // 2
    lead = np.r_[0:h, M - h:M, h]
    out = f[np.ix_(*([lead] * (n - 1)), np.arange(h + 1))] * (N / M) ** n
    for axis in range(n - 1):
        rows = np.moveaxis(out, axis, 0)
        rows[h] = 0.5 * (rows[h] + rows[N])
    return out[(slice(0, N),) * (n - 1)]


def _parseval_l2(v: np.ndarray, grid: TorusGrid) -> float:
    """Lattice L^2 norm by Parseval; interior last-axis bins count twice."""
    power = v.real ** 2 + v.imag ** 2
    energy = 2.0 * power.sum() - power[..., 0].sum() - power[..., -1].sum()
    return float(np.sqrt(grid.dx ** grid.n * energy / grid.N ** grid.n))


def _real_values(field: Field) -> np.ndarray:
    """Physical values of a real field (spectral: up to rounding)."""
    u = field.to_physical().values
    slack = 1e-12 * np.max(np.abs(u)) if field.space == "spectral" else 0.0
    if np.iscomplexobj(u) and np.max(np.abs(u.imag)) > slack:
        raise ValueError("semilinear_solve needs real data, but a field "
                         "has a nonzero imaginary part")
    return u.real.copy()


def semilinear_solve(
    data: Snapshot,
    params: ModelParams,
    nonlinearity: str,
    t_end: float,
    dt: float,
    store_every: int = 1,
    norm_ceiling: float = 1e6,
    ceiling_q: float = 2.0,
) -> Trajectory:
    """Exponential Duhamel stepping of u_tt + (-Lap)^sigma u
    + mu (-Lap)^delta u_t = f: |u|^p ("abs_u_p"), |u_t|^p ("abs_ut_p")
    or 0 ("none"), on real data with t_end / dt an integer (to 1e-9).

    Each step propagates (u, u_t), as rfftn half spectra, with the exact
    linear kernels and takes the Duhamel integral by the midpoint rule
    with f at the linearly predicted midpoint; exact when f = 0.  The
    predictor drops the O(dt) forcing, which u_t feels at first order:
    halving dt from 0.2 (n = 1, N = 512, t = 4, p = 3) gives observed
    orders of about 2 for "abs_u_p" and 1 for "abs_ut_p".  Integer p is
    taken on a 3/2-padded lattice, which de-aliases quadratic products
    only.  Snapshots hold real physical Fields.  Raises BlowUpError when
    the L^q norm (q = 2 by Parseval) exceeds norm_ceiling.
    """
    if nonlinearity not in ("abs_u_p", "abs_ut_p", "none"):
        raise ValueError(f"unknown nonlinearity {nonlinearity!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = round(t_end / dt)
    if steps < 0 or abs(t_end / dt - steps) > 1e-9 * t_end / dt:
        raise ValueError(f"t_end / dt = {t_end / dt:.12g} must be a "
                         "non-negative integer")
    if store_every < 1:
        raise ValueError(f"store_every = {store_every} must be >= 1")
    if nonlinearity != "none" and params.p is None:
        raise ValueError("nonlinearity requires params.p")

    grid = data.u.grid
    rho = grid.rho_half
    p = float(params.p) if params.p is not None else 0.0
    dealias = nonlinearity != "none" and p == int(p)
    # Work buffers on the (3/2-padded when de-aliasing) product lattice;
    # `padded` stays zero outside the low blocks that _pad_half writes.
    M = 3 * grid.N // 2 if dealias else grid.N
    phys = np.empty((M,) * grid.n)
    padded, power = (np.zeros((M,) * (grid.n - 1) + (M // 2 + 1,),
                              dtype=complex) for _ in range(2))

    k0_h, k1_h = kernel_values(dt / 2.0, rho, params)
    dk0_h, dk1_h = kernel_dt_values(dt / 2.0, rho, params)
    k0_f, k1_f = kernel_values(dt, rho, params)
    dk0_f, dk1_f = kernel_dt_values(dt, rho, params)
    mid0, mid1 = (k0_h, k1_h) if nonlinearity == "abs_u_p" else (dk0_h, dk1_h)
    weight_u, weight_ut = dt * k1_h, dt * dk1_h

    u0, ut0 = _real_values(data.u), _real_values(data.ut)
    v, vt = np.fft.rfftn(u0), np.fft.rfftn(ut0)
    snapshots = [Snapshot(data.t, Field(grid, u0, "physical"),
                          Field(grid, ut0, "physical"))]
    for step in range(1, steps + 1):
        v_new = k0_f * v + k1_f * vt
        vt_new = dk0_f * v + dk1_f * vt
        if nonlinearity != "none":
            mid = mid0 * v + mid1 * vt
            _irfft(_pad_half(mid, padded) if dealias else mid, M, out=phys)
            np.abs(phys, out=phys)
            np.power(phys, p, out=phys)
            np.fft.rfftn(phys, out=power)
            f_mid = _truncate_half(power, grid.N) if dealias else power
            v_new += weight_u * f_mid
            vt_new += weight_ut * f_mid
        v, vt = v_new, vt_new
        t = data.t + step * dt

        store = step % store_every == 0 or step == steps
        u = _irfft(v, grid.N) if store or ceiling_q != 2 else None
        norm = (_parseval_l2(v, grid) if ceiling_q == 2
                else lq_norm(Field(grid, u, "physical"), ceiling_q))
        if not np.isfinite(norm) or norm > norm_ceiling:
            raise BlowUpError(t=t, q=ceiling_q, norm=float(norm),
                              ceiling=norm_ceiling)
        if store:
            ut = Field(grid, _irfft(vt, grid.N), "physical")
            snapshots.append(Snapshot(t, Field(grid, u, "physical"), ut))
    return Trajectory(snapshots=tuple(snapshots), params=params)


def lq_norm(field: Field, q: float) -> float:
    """Lattice L^q norm: (dx^n sum |u|^q)^{1/q}; q = inf is the lattice max."""
    if q < 1:
        raise ValueError("q must be >= 1 (or inf)")
    u = field.to_physical().values
    if np.isinf(q):
        return float(np.max(np.abs(u)))
    dxn = field.grid.dx ** field.grid.n
    return float((dxn * np.sum(np.abs(u) ** q)) ** (1.0 / q))


def gevrey_energy(snapshot: Snapshot, c: float, params: ModelParams) -> float:
    """High-frequency spectral energy with Gevrey weight exp(2 c rho^{2 delta} t):

        sum over modes of exp(2 c rho^{2 delta} t) (1 - chi(rho))
            (rho^{2 sigma} |v|^2 + |v_t|^2)

    normalised like an L^2 integral.  For the linear flow this stays
    bounded when c is below the high-band envelope rate mu/2.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    grid = snapshot.u.grid
    rho = grid.rho
    v = snapshot.u.to_spectral().values
    vt = snapshot.ut.to_spectral().values
    weight = np.exp(2.0 * c * rho ** (2.0 * params.delta_f) * snapshot.t)
    band = 1.0 - np.asarray(cutoff_chi(rho))
    dens = rho ** (2.0 * params.sigma_f) * np.abs(v) ** 2 + np.abs(vt) ** 2
    norm_factor = grid.dx ** grid.n / grid.N ** grid.n
    return float(norm_factor * np.sum(weight * band * dens))


def write_norms_csv(trajectory: Trajectory, path: str,
                    q_list: Sequence[float] = (2.0,),
                    s_riesz: float = 0.0) -> None:
    """CSV export: one row per snapshot with the configured norms."""
    header_qs = ",".join(f"norm_L{q:g}" for q in q_list)
    lines = ["# schema=1",
             f"t,{header_qs},norm_riesz_s,norm_ut"]
    for snap in trajectory.snapshots:
        cells = [f"{snap.t:.12g}"]
        for q in q_list:
            cells.append(f"{lq_norm(snap.u, q):.12e}")
        cells.append(f"{lq_norm(riesz_apply(snap.u, s_riesz), 2.0):.12e}")
        cells.append(f"{lq_norm(snap.ut, 2.0):.12e}")
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_DUMP_MAGIC = b"SGL1"


def dump_field(field: Field, t: float, path: str) -> None:
    """Flat binary dump: magic, n, N, L, t, then row-major complex pairs
    (little-endian float64)."""
    phys = field.to_physical()
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(struct.pack("<iidd", phys.grid.n, phys.grid.N,
                             phys.grid.L, t))
        interleaved = np.empty(phys.values.size * 2, dtype="<f8")
        interleaved[0::2] = phys.values.real.ravel()
        interleaved[1::2] = phys.values.imag.ravel()
        fh.write(interleaved.tobytes())


def load_field(path: str) -> tuple[Field, float]:
    """Read a dump_field file back into a physical-space Field."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _DUMP_MAGIC:
            raise ValueError("not a field dump file")
        n, N, L, t = struct.unpack("<iidd", fh.read(24))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    values = (raw[0::2] + 1j * raw[1::2]).reshape((N,) * n)
    return Field(make_grid(n, L, N), values, "physical"), t
