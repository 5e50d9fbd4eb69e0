"""Grid backend: exact three-shear FFT evolution of psi(q, q', x).

The interaction g1*p*x + g2*q'*k contains no kinetic term, so each of
its two terms generates an exact shear: the g1 term is diagonal after
an FFT along the q axis, the g2 term after an FFT along the x axis.
Their commutator [g1 p x, g2 q' k] = i hbar g1 g2 p q' commutes with
both, so the propagator factors exactly into the two shears and one
central phase, diagonal after the same FFT along q.  Four FFTs reach
any time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

AXIS_NAMES = ("q", "qprime", "x")


class DomainTooSmallError(ValueError):
    """Initial state too wide for the configured box (aliasing guard)."""


class ConfigurationError(ValueError):
    """Evolution parameters violate the per-step shear bound."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid over (q, q', x), each axis [-L, L)."""

    points_per_axis: tuple[int, int, int] = (64, 64, 64)
    half_widths: tuple[float, float, float] = (8.0, 8.0, 8.0)
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "points_per_axis", tuple(int(n) for n in self.points_per_axis))
        object.__setattr__(self, "half_widths", tuple(float(l) for l in self.half_widths))
        if len(self.points_per_axis) != 3 or len(self.half_widths) != 3:
            raise ValueError("points_per_axis and half_widths need 3 values")
        for n in self.points_per_axis:
            if n < 32 or (n & (n - 1)) != 0:
                raise ValueError("points_per_axis must be powers of two >= 32")
        if not all(0 < l < np.inf for l in self.half_widths):
            raise ValueError("half_widths must be positive and finite")
        if not 0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")

    def axis(self, i: int) -> np.ndarray:
        n, l = self.points_per_axis[i], self.half_widths[i]
        return -l + (2.0 * l / n) * np.arange(n)

    def wavenumbers(self, i: int) -> np.ndarray:
        n, l = self.points_per_axis[i], self.half_widths[i]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * l / n)

    def steps(self) -> tuple[float, float, float]:
        return tuple(2.0 * l / n for n, l in
                     zip(self.points_per_axis, self.half_widths))

    @property
    def cell_volume(self) -> float:
        h = self.steps()
        return h[0] * h[1] * h[2]

    def coordinate_field(self, i: int) -> np.ndarray:
        shape = [1, 1, 1]
        shape[i] = self.points_per_axis[i]
        return self.axis(i).reshape(shape)


@dataclass(frozen=True)
class GridState:
    """Complex amplitude on the grid, axis order (q, q', x), stored
    C-contiguous."""

    spec: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.ascontiguousarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape != self.spec.points_per_axis:
            raise ValueError("amplitude shape does not match the grid spec")

    @property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.spec.cell_volume)

    def require_normalized(self, tol: float = 1e-10) -> None:
        if abs(self.norm - 1.0) > tol:
            raise ValueError(f"state norm {self.norm} deviates from 1")


@dataclass(frozen=True)
class EnsembleRepresentation:
    """Hybrid ensemble of a grid state: density P, its support mask, and
    the phase gradients dS/d(axis), each computed on first request."""

    state: GridState
    density: np.ndarray
    support_mask: np.ndarray
    _gradients: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @property
    def spec(self) -> GridSpec:
        return self.state.spec

    def total_probability(self) -> float:
        return float(np.sum(self.density) * self.spec.cell_volume)

    def phase_gradient(self, axis: int) -> np.ndarray:
        """Gauge-safe hbar*Im(psi* dpsi/daxis)/P, set to 0 off the mask.

        No phase unwrapping is performed.
        """
        if axis not in self._gradients:
            psi = self.state.amplitudes
            num = self.spec.hbar * np.imag(
                np.conj(psi) * _spectral_derivative(psi, self.spec, axis))
            grad = np.zeros_like(self.density)
            np.divide(num, self.density, out=grad, where=self.support_mask)
            self._gradients[axis] = grad
        return self._gradients[axis]


def init_product_gaussian(spec: GridSpec,
                          means=(0.0, 0.0, 0.0),
                          widths=(None, None, None),
                          tilts=(0.0, 0.0, 0.0),
                          chirps=(0.0, 0.0, 0.0)) -> GridState:
    """Normalized product of Gaussians with optional plane-wave tilts.

    A width of None means the vacuum width sqrt(hbar/2).  The tilt k0
    multiplies by exp(i k0 coordinate), centering the conjugate-variable
    marginal at hbar*k0; the chirp gamma multiplies by
    exp(i gamma coordinate^2 / (2 hbar)), planting a symmetrized
    position-momentum correlation gamma*width^2.  A non-finite
    parameter raises ValueError; a mean outside the axis range [-L, L)
    raises DomainTooSmallError, since the periodic box would wrap it.
    """
    factors = []
    for i in range(3):
        w = widths[i] if widths[i] is not None else np.sqrt(spec.hbar / 2.0)
        if not np.all(np.isfinite((means[i], w, tilts[i], chirps[i]))):
            raise ValueError(f"axis {AXIS_NAMES[i]}: mean, width, tilt and "
                             f"chirp must be finite")
        if w <= 0:
            raise ValueError("widths must be positive")
        if not -spec.half_widths[i] <= means[i] < spec.half_widths[i]:
            raise DomainTooSmallError(
                f"axis {AXIS_NAMES[i]}: mean {means[i]} lies outside "
                f"[-{spec.half_widths[i]}, {spec.half_widths[i]})")
        if spec.half_widths[i] < 8.0 * w:
            raise DomainTooSmallError(
                f"axis {AXIS_NAMES[i]}: half-width {spec.half_widths[i]} "
                f"< 8 x initial std {w}")
        u = spec.axis(i) - means[i]
        amp = np.exp(-u * u / (4.0 * w * w)
                     + 1j * tilts[i] * spec.axis(i)
                     + 0.5j * chirps[i] * u * u / spec.hbar)
        factors.append(amp)
    psi = factors[0][:, None, None] * factors[1][None, :, None] * factors[2][None, None, :]
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * spec.cell_volume)
    return GridState(spec, psi)


def split_step_evolve(state: GridState, g1: float, g2: float,
                      dt: float, steps: int) -> GridState:
    """Exact evolution to t = dt*steps under exp(-it(g1 p x + g2 q' k)/hbar).

    [A, B] = i hbar g1 g2 p q' for A = g1 p x, B = g2 q' k is central, so
    U(t) = exp(-itA/hbar) exp(i g1 g2 t^2 p q'/(2 hbar)) exp(-itB/hbar)
    exactly: B is diagonal after an FFT along x, A and the central
    factor after one FFT along q.  dt and steps enter only through t
    and the per-step shear guard; what remains is the grid's band limit.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps == 0:
        return state
    spec = state.spec
    # per-step shear displacement must stay below the box size
    if abs(dt * g1) * spec.half_widths[2] > spec.half_widths[0] or \
       abs(dt * g2) * spec.half_widths[1] > spec.half_widths[2]:
        raise ConfigurationError("per-step shear exceeds the domain size; "
                                 "reduce dt or enlarge the box")
    t = dt * steps
    kq = spec.wavenumbers(0)[:, None, None]
    kx = spec.wavenumbers(2)[None, None, :]
    x = spec.coordinate_field(2)
    qp = spec.coordinate_field(1)
    # each phase factor spans two axes; multiplying in place builds no
    # full-size phase array, and every transform after the first writes
    # into the one array the first allocated
    psi = np.fft.fft(state.amplitudes, axis=2)
    psi *= np.exp(-1j * g2 * t * qp * kx)
    np.fft.ifft(psi, axis=2, out=psi)
    np.fft.fft(psi, axis=0, out=psi)
    psi *= np.exp(-1j * g1 * t * kq * x)
    psi *= np.exp(0.5j * g1 * g2 * t * t * kq * qp)
    return GridState(spec, np.fft.ifft(psi, axis=0, out=psi))


def _spectral_derivative(psi: np.ndarray, spec: GridSpec, axis: int) -> np.ndarray:
    k = spec.wavenumbers(axis)
    shape = [1, 1, 1]
    shape[axis] = k.size
    # transforming back in place saves allocating, and faulting in, a
    # second full-size array
    psi_k = np.fft.fft(psi, axis=axis)
    psi_k *= 1j * k.reshape(shape)
    return np.fft.ifft(psi_k, axis=axis, out=psi_k)


def apply_operator(psi: np.ndarray, spec: GridSpec, symbol: str) -> np.ndarray:
    """Apply one canonical operator (position multiply or -i hbar d/daxis)."""
    positions = {"q": 0, "q'": 1, "x": 2}
    momenta = {"p": 0, "p'": 1, "k": 2}
    if symbol in positions:
        return spec.coordinate_field(positions[symbol]) * psi
    if symbol in momenta:
        d = _spectral_derivative(psi, spec, momenta[symbol])
        d *= -1j * spec.hbar
        return d
    raise ValueError(f"unknown canonical symbol {symbol!r}")


def to_ensemble(state: GridState, epsilon: float | None = None,
                ) -> EnsembleRepresentation:
    """Density P = |psi|^2 and its support mask P > epsilon.

    Default epsilon is 1e-12 * max(P).  Phase gradients are computed
    per axis on request, by `EnsembleRepresentation.phase_gradient`.
    """
    density = np.abs(state.amplitudes) ** 2
    if epsilon is None:
        epsilon = 1e-12 * density.max()
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return EnsembleRepresentation(state, density, density > epsilon)


def grid_moments(state: GridState) -> tuple[np.ndarray, np.ndarray]:
    """Means and symmetrized 6x6 covariance in the canonical ordering.

    The symmetrized second moment of Hermitian A, B is Re<A psi|B psi>.
    Each block comes from real fields built once, with one spectral
    derivative d_j psi per axis (3 FFTs and 3 inverse FFTs in all):

    - positions: the density P = |psi|^2, through its 1-D and 2-D
      marginals;
    - momentum means and position-momentum moments: the currents
      J_j = hbar Im(psi* d_j psi), since Re<x_i psi|p_j psi> is the
      integral of x_i J_j;
    - momentum-momentum moments: hbar^2 Re<d_i psi|d_j psi>.
    """
    spec = state.spec
    psi = state.amplitudes
    dv, hbar = spec.cell_volume, spec.hbar
    axes = [spec.axis(a) for a in range(3)]
    derivs = [_spectral_derivative(psi, spec, a) for a in range(3)]
    means = np.empty(6)
    second = np.empty((6, 6))

    def put(i, j, value):
        second[i, j] = second[j, i] = value * dv

    # axis a's position has canonical index 2a, its momentum 2a + 1
    density = np.abs(psi)
    density *= density
    planes = {(0, 1): density.sum(axis=2), (0, 2): density.sum(axis=1),
              (1, 2): density.sum(axis=0)}
    lines = (planes[0, 1].sum(axis=1), planes[0, 1].sum(axis=0),
             planes[0, 2].sum(axis=0))
    for a in range(3):
        means[2 * a] = axes[a] @ lines[a] * dv
        put(2 * a, 2 * a, (axes[a] * axes[a]) @ lines[a])
    for (a, b), plane in planes.items():
        put(2 * a, 2 * b, axes[a] @ plane @ axes[b])
    # Re<d_i psi|d_j psi> is the dot product of the (re, im) float views,
    # taken row by row with einsum and the rows summed pairwise.  BLAS
    # is avoided: its threaded zdotc (np.vdot) rounds differently with
    # the thread count, and took 5-8 ms instead of 0.2 ms per call on a
    # loaded 2-core host.
    rows = [d.view(np.float64).reshape(-1, 2 * psi.shape[2]) for d in derivs]
    for j in range(3):
        for i in range(j + 1):
            put(2 * i + 1, 2 * j + 1,
                hbar * hbar * np.einsum("ij,ij->i", rows[i], rows[j]).sum())
    psi_conj = np.conj(psi)
    for j, d in enumerate(derivs):
        # d_j psi is not needed again, so psi* d_j psi takes its place
        current = np.multiply(psi_conj, d, out=d).imag
        plane = current.sum(axis=2)
        current_lines = [hbar * line for line in (
            plane.sum(axis=1), plane.sum(axis=0), current.sum(axis=(0, 1)))]
        means[2 * j + 1] = current_lines[0].sum() * dv
        for a in range(3):
            put(2 * a, 2 * j + 1, axes[a] @ current_lines[a])
    return means, second - np.outer(means, means)


def momentum_marginal(state: GridState, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of the conjugate momentum along one axis.

    Returns (momentum values, density), sorted and normalized to unit
    integral; momentum = hbar * wavenumber.
    """
    spec = state.spec
    n = spec.points_per_axis[axis]
    h = spec.steps()[axis]
    psi_k = np.fft.fft(state.amplitudes, axis=axis)
    other = tuple(a for a in range(3) if a != axis)
    prob = np.sum(np.abs(psi_k) ** 2, axis=other)
    k = spec.wavenumbers(axis)
    order = np.argsort(k)
    p = spec.hbar * k[order]
    prob = prob[order]
    dp = spec.hbar * 2.0 * np.pi / (n * h)
    prob = prob / (np.sum(prob) * dp)
    return p, prob


# ---------------------------------------------------------------------------
# Flat binary dump: 3 int64 sizes, 3 float64 half-widths, float64 hbar,
# then interleaved re/im float64 in row-major order (all little-endian).
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<3q4d")


def save_grid_state(state: GridState, path) -> None:
    spec = state.spec
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(*spec.points_per_axis, *spec.half_widths, spec.hbar))
        inter = np.empty(state.amplitudes.size * 2)
        inter[0::2] = state.amplitudes.real.ravel()
        inter[1::2] = state.amplitudes.imag.ravel()
        fh.write(inter.astype("<f8").tobytes())


def load_grid_state(path) -> GridState:
    """Read a state written by `save_grid_state`; ValueError if corrupt."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        payload = fh.read()
    if len(header) != _HEADER.size:
        raise ValueError(f"grid state file has a {len(header)}-byte header, "
                         f"expected {_HEADER.size}")
    *sizes, l0, l1, l2, hbar = _HEADER.unpack(header)
    spec = GridSpec(tuple(sizes), (l0, l1, l2), hbar)
    nq, nqp, nx = spec.points_per_axis
    expected = 16 * nq * nqp * nx
    if len(payload) != expected:
        raise ValueError(f"grid state file has {len(payload)} payload bytes, "
                         f"expected {expected}")
    inter = np.frombuffer(payload, dtype="<f8")
    psi = (inter[0::2] + 1j * inter[1::2]).reshape(spec.points_per_axis)
    return GridState(spec, psi)
