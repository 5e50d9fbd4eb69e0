"""Grid backend: exact three-shear FFT evolution of psi(q, q', x).

The interaction g1*p*x + g2*q'*k contains no kinetic term, so each of
its two terms generates an exact shear: the g1 term is diagonal after
an FFT along the q axis, the g2 term after an FFT along the x axis.
Their commutator [g1 p x, g2 q' k] = i hbar g1 g2 p q' commutes with
both, so the propagator factors exactly into the two shears and one
central phase, diagonal after the same FFT along q.  Four FFTs take any
state to any time, and one takes a product state (`product_pieces`).
"""

from __future__ import annotations

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


def gaussian_factors(spec: GridSpec, means=(0.0, 0.0, 0.0),
                     widths=(None, None, None), tilts=(0.0, 0.0, 0.0),
                     chirps=(0.0, 0.0, 0.0)) -> list[np.ndarray]:
    """The three normalized 1-D Gaussian factors along q, q' and x.

    A width of None means the vacuum width sqrt(hbar/2).  The tilt k0
    multiplies by exp(i k0 coordinate), centering the conjugate-variable
    marginal at hbar*k0; the chirp gamma multiplies by
    exp(i gamma coordinate^2 / (2 hbar)), planting a symmetrized
    position-momentum correlation gamma*width^2.  A non-finite
    parameter raises ValueError; a mean outside the axis range [-L, L)
    raises DomainTooSmallError, since the periodic box would wrap it,
    and so does a half-width below 8 widths.
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
        amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * spec.steps()[i])
        factors.append(amp)
    return factors


def init_product_gaussian(spec: GridSpec, **params) -> GridState:
    """The product of `gaussian_factors(spec, **params)`, built one q slab
    at a time (numpy buffers a broadcast product of the whole grid)."""
    a, b, c = gaussian_factors(spec, **params)
    psi = np.empty(spec.points_per_axis, dtype=complex)
    for i, a_i in enumerate(a):
        np.multiply.outer(a_i * b, c, out=psi[i])
    return GridState(spec, psi)


def check_shear(spec: GridSpec, g1: float, g2: float, dt: float) -> None:
    """ConfigurationError unless each shear of one dt step displaces by
    less than the box size."""
    if abs(dt * g1) * spec.half_widths[2] > spec.half_widths[0] or \
       abs(dt * g2) * spec.half_widths[1] > spec.half_widths[2]:
        raise ConfigurationError("per-step shear exceeds the domain size; "
                                 "reduce dt or enlarge the box")


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
    check_shear(spec, g1, g2, dt)
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


def product_pieces(spec: GridSpec, factors, g1: float, g2: float,
                   t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The product psi_Q(q) psi_Q'(q') phi(x) of `factors` at time t, as
    2-D pieces: L(k_q, q') = F[psi_Q] exp(i g1 g2 t^2 k_q q'/2), f(q', x)
    the x-shear of psi_Q' phi, and S(k_q, x) = exp(-i g1 t k_q x), the
    three shears of `split_step_evolve`.  In the (p, q', x) representation
    the state is L[:, :, None] f[None] S[:, None, :].  Apply no guard."""
    a, b, c = factors
    kq, qp = spec.wavenumbers(0)[:, None], spec.axis(1)[:, None]
    kx, x = spec.wavenumbers(2)[None, :], spec.axis(2)[None, :]
    lq = np.fft.fft(a)[:, None] * np.exp(0.5j * g1 * g2 * t * t * kq * qp.T)
    f = np.fft.fft(c)[None, :] * np.exp(-1j * g2 * t * qp * kx)
    f *= b[:, None]
    np.fft.ifft(f, axis=1, out=f)
    return lq, f, np.exp(-1j * g1 * t * kq * x)


def assemble_product(spec: GridSpec, pieces, out: np.ndarray | None = None,
                     derivative: bool = False) -> np.ndarray:
    """psi(t), or with `derivative` d_0 psi(t), from `product_pieces`: one
    inverse FFT along q of their product (times i k_q), built in `out`
    (allocated if not given), the only full-size array."""
    lq, f, s = pieces
    if derivative:
        lq = lq * (1j * spec.wavenumbers(0))[:, None]
    if out is None:
        out = np.empty(spec.points_per_axis, dtype=complex)
    np.copyto(out, f[None])
    out *= lq[:, :, None]
    out *= s[:, None, :]
    return np.fft.ifft(out, axis=0, out=out)


def _spectral_derivative(psi: np.ndarray, spec: GridSpec, axis: int,
                         out: np.ndarray | None = None) -> np.ndarray:
    k = spec.wavenumbers(axis)
    shape = [1, 1, 1]
    shape[axis] = k.size
    # transforming back in place saves allocating, and faulting in, a
    # second full-size array
    psi_k = np.fft.fft(psi, axis=axis, out=out)
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


def grid_moments(state: GridState, work: np.ndarray | None = None,
                 pool=None, d0_given: bool = False,
                 ) -> tuple[np.ndarray, np.ndarray]:
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

    d_j psi is built in work[j] of `work`, a C-contiguous complex array
    of shape (3,) + points_per_axis (allocated if not given; one buffer
    may serve many calls), unless `d0_given` says work[0] holds d_0 psi.
    The rest is summed over two q halves, on disjoint slabs of `work`;
    with `pool`, an executor, the second runs on it, and the call returns
    or raises once both are done.  The halves' sums are added in a fixed
    order, so the moments are the same doubles with or without a pool.
    """
    spec, psi = state.spec, state.amplitudes
    if work is None:
        work = np.empty((3,) + psi.shape, dtype=complex)
    if not d0_given:
        _spectral_derivative(psi, spec, 0, out=work[0])
    n, q = psi.shape[0] // 2, spec.axis(0)
    halves = [(psi[h], work[:, h], spec, q[h])
              for h in (slice(n), slice(n, None))]
    if pool is None:
        parts = [_slab_moments(*half) for half in halves]
    else:
        pending = pool.submit(_slab_moments, *halves[1])
        try:
            parts = [_slab_moments(*halves[0])]
        finally:
            # the worker writes into work: wait for it, even if this raised
            pending.exception()
        parts.append(pending.result())
    (means, second), (means_2, second_2) = parts
    means, second = means + means_2, second + second_2
    return means, second - np.outer(means, means)


def _slab_moments(psi: np.ndarray, work: np.ndarray, spec: GridSpec,
                  q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The means and raw second moments of a q slab at coordinates q,
    given d_0 psi in work[0]: the slab's share of `grid_moments`' sums.
    Only the slab of `work` is written."""
    dv, hbar = spec.cell_volume, spec.hbar
    axes = [q, spec.axis(1), spec.axis(2)]
    means = np.empty(6)
    second = np.empty((6, 6))

    def put(i, j, value):
        second[i, j] = second[j, i] = value * dv

    # axis a's position has canonical index 2a, its momentum 2a + 1.  The
    # density takes the first half of d_2 psi's place, and is not needed
    # once its planes are summed
    density = work[2].view(np.float64).reshape(-1)[:psi.size].reshape(psi.shape)
    np.abs(psi, out=density)
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
    for a in (1, 2):
        _spectral_derivative(psi, spec, a, out=work[a])
    # Re<d_i psi|d_j psi> is the dot product of the (re, im) float views,
    # row by row with einsum, the rows summed pairwise: BLAS zdotc rounds
    # with the thread count, and took 5-8 ms, not 0.2, on 2 loaded cores
    rows = [d.view(np.float64).reshape(-1, 2 * psi.shape[2]) for d in work]
    for j in range(3):
        for i in range(j + 1):
            put(2 * i + 1, 2 * j + 1,
                hbar * hbar * np.einsum("ij,ij->i", rows[i], rows[j]).sum())
    # d_j psi is not needed again, so the current Im(psi* d_j psi) =
    # Re psi Im d_j psi - Im psi Re d_j psi is formed in its imaginary
    # part, with no conj(psi) and no Python loop (a loop over q slabs
    # beside the other thread waited on the GIL)
    for j, d in enumerate(work):
        np.multiply(d.real, psi.imag, out=d.real)
        np.multiply(d.imag, psi.real, out=d.imag)
        current = np.subtract(d.imag, d.real, out=d.imag)
        plane = current.sum(axis=2)
        current_lines = [hbar * line for line in (
            plane.sum(axis=1), plane.sum(axis=0), current.sum(axis=(0, 1)))]
        means[2 * j + 1] = current_lines[0].sum() * dv
        for a in range(3):
            put(2 * a, 2 * j + 1, axes[a] @ current_lines[a])
    return means, second
