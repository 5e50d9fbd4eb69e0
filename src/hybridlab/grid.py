"""Grid backend: exact three-shear FFT evolution of psi(q, q', x).

The interaction g1*p*x + g2*q'*k contains no kinetic term, so each of
its two terms generates an exact shear: the g1 term is diagonal after
an FFT along the q axis, the g2 term after an FFT along the x axis.
Their commutator [g1 p x, g2 q' k] = i hbar g1 g2 p q' commutes with
both, so the propagator factors exactly into the two shears and one
central phase, diagonal after the same FFT along q.  Four FFTs take any
state to any time; a product state's pieces need none at full size
(`product_pieces`), and `grid_moments` takes its moments from them,
`product_moments` at many times.
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
    raises DomainTooSmallError, since the periodic box would wrap it, and
    so do a momentum mean hbar*k0 outside the grid's band
    [-hbar k_N, hbar k_N) (k_N = pi/h, the Nyquist wavenumber), which the
    grid would alias, a half-width below 8 widths and a factor too
    narrow to be nonzero at any grid point.
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
        nyquist = np.pi / spec.steps()[i]
        if not -nyquist <= tilts[i] < nyquist:
            raise DomainTooSmallError(
                f"axis {AXIS_NAMES[i]}: momentum mean {spec.hbar * tilts[i]} "
                f"lies outside the grid's band [-{spec.hbar * nyquist}, "
                f"{spec.hbar * nyquist})")
        if spec.half_widths[i] < 8.0 * w:
            raise DomainTooSmallError(
                f"axis {AXIS_NAMES[i]}: half-width {spec.half_widths[i]} "
                f"< 8 x initial std {w}")
        u = spec.axis(i) - means[i]
        amp = np.exp(-u * u / (4.0 * w * w)
                     + 1j * tilts[i] * spec.axis(i)
                     + 0.5j * chirps[i] * u * u / spec.hbar)
        norm = np.sum(np.abs(amp) ** 2) * spec.steps()[i]
        if norm == 0:
            raise DomainTooSmallError(
                f"axis {AXIS_NAMES[i]}: the factor of width {w} underflows "
                "at every grid point; refine the grid")
        amp /= np.sqrt(norm)
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


def product_moments(spec: GridSpec, factors, g1: float, g2: float,
                    times) -> tuple[np.ndarray, np.ndarray]:
    """`grid_moments` of the product of `factors` at each of `times`, as
    (n, 6) means and (n, 6, 6) covariances, each sample from its
    `product_pieces`.  One worker thread takes the second half of the
    slabs of both phases of every call; chi, the only full-size array,
    is reused from sample to sample, and the moments are the doubles a
    serial loop gives.  The worker is joined before the call returns or
    raises."""
    # imported here: importing the package should not pay for it
    from concurrent.futures import ThreadPoolExecutor

    # allocated on this thread: full-size arrays that the worker
    # allocated and freed itself stayed in its own malloc arena, and in
    # some runs raised the peak RSS by 14 MiB
    chi = np.empty(spec.points_per_axis, complex)
    means, cov = np.empty((len(times), 6)), np.empty((len(times), 6, 6))
    with ThreadPoolExecutor(max_workers=1) as pool:
        for i, t in enumerate(times):
            pieces = product_pieces(spec, factors, g1, g2, t)
            means[i], cov[i] = grid_moments(spec, pieces, chi, pool)
    return means, cov


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


# complex values of one slab of a field: 256 KiB, so that a slab of chi
# and the three scratch slabs of one thread stay in a core's cache
_SLAB_VALUES = 2 ** 14


def _slabs(n: int, plane: int) -> list[slice]:
    """The slabs `grid_moments` walks along an axis of n points whose
    planes hold `plane` values: about _SLAB_VALUES values each where the
    planes allow, and at least two slabs to each half of the axis, so
    that a thread's scratch stays below a field's size."""
    m = min(n // 4, max(1, _SLAB_VALUES // plane))
    return [slice(a, a + m) for a in range(0, n, m)]


# values of numpy's buffer for a broadcast operand, while the slabs run
_BUFFER_VALUES = 2048

# the (i, j) of the six Re<a_i|a_j> of (chi, e_1, e_2), i <= j
_PAIRS = [(i, j) for j in range(3) for i in range(j + 1)]


def grid_moments(spec: GridSpec, pieces, chi: np.ndarray | None = None,
                 pool=None) -> tuple[np.ndarray, np.ndarray]:
    """Means and symmetrized 6x6 covariance, in the canonical ordering, of
    the product state whose `product_pieces` are `pieces`.

    psi is never built.  In the mixed (k_q, q', x) representation the
    state is Phi = L f S, and the transform along q is unitary up to a
    factor 1/n_q (Parseval), so each symmetrized second moment
    Re<A psi|B psi> is a sum over the fields A and B make of Phi: p is
    hbar k_q, q' and x multiply, p' and k give hbar e_j, with e_j the
    derivative along q' or x without its factor i (one FFT pair each),
    and q gives chi = F_q[q F_q^-1 Phi].  So

    - moments of p, q' and x come from |Phi|^2 = |L|^2 |f|^2, which is
      2-D, summed over x with weights 1, x and x^2;
    - the currents Re(Phi* e_j) and Re(chi* Phi), summed over x into
      (k_q, q') planes and with weight x, give the means of q, p' and k
      and their moments with p, q' and x;
    - Re<e_i|e_j>, Re<chi|e_j> and <chi|chi> give the rest.

    chi needs the whole q axis and is the only full-size array: `chi` if
    given (a complex array of the grid's shape, overwritten), else
    allocated here.  Phase 1 builds it from Phi one q' slab at a time;
    phase 2 builds Phi again one k_q slab at a time and takes the sums,
    in three slabs of scratch.  With `pool`, an executor, the second
    half of each phase's slabs runs on it, in scratch of its own, and
    the call returns or raises once both halves are done.  Each half
    sums its slabs in order and the halves are added in a fixed order,
    so the moments are the same doubles with or without a pool.
    """
    lq, f, _ = pieces
    n0, n1, n2 = spec.points_per_axis
    if chi is None:
        chi = np.empty(spec.points_per_axis, complex)
    by_qp, by_kq = _slabs(n1, n0 * n2), _slabs(n0, n1 * n2)
    size = max(n0 * by_qp[0].stop * n2, by_kq[0].stop * n1 * n2)
    # the halves share one scratch, or with a pool have one each, both
    # allocated on this thread (see product_moments); the phases share it
    scratch = [np.empty((3, size), complex)
               for _ in range(1 if pool is None else 2)]
    _in_halves(pool, by_qp, scratch, _chi_slabs, pieces, chi, spec)
    # (k_q, q') planes, each slab writing its own rows: Re(chi* Phi) and
    # the currents Re(Phi* e_j), summed over x
    planes = np.empty((3, n0, n1))
    (x_sums, dots), (x_sums_2, dots_2) = _in_halves(
        pool, by_kq, scratch, _moment_slabs, pieces, chi, spec, planes)
    x_sums, dots = x_sums + x_sums_2, dots + dots_2
    # the 2-D sums below need no scratch: free it before their
    # temporaries
    del scratch

    w, hbar = spec.cell_volume / n0, spec.hbar
    kq, qp, x = hbar * spec.wavenumbers(0), spec.axis(1), spec.axis(2)
    ones_k, ones_q = np.ones(n0), np.ones(n1)
    lines = np.einsum("jk,rk->rj", (f.conj() * f).real,
                      (np.ones(n2), x, x * x))
    density, density_x, density_xx = (lq.conj() * lq).real * lines[:, None]
    means = np.empty(6)
    second = np.empty((6, 6))

    def total(plane, wk=ones_k, wq=ones_q):
        return np.einsum("i,ij,j->", wk, plane, wq)

    def put(i, j, value):
        second[i, j] = second[j, i] = value * w

    # p, q' and x (canonical 1, 2 and 4)
    means[1] = total(density, kq) * w
    means[2] = total(density, wq=qp) * w
    means[4] = total(density_x) * w
    put(1, 1, total(density, kq * kq))
    put(1, 2, total(density, kq, qp))
    put(1, 4, total(density_x, kq))
    put(2, 2, total(density, wq=qp * qp))
    put(2, 4, total(density_x, wq=qp))
    put(4, 4, total(density_xx))
    # q, p' and k (canonical 0, 3 and 5): chi and hbar e_j
    index, scale = (0, 3, 5), (1.0, hbar, hbar)
    for a, (i, c) in enumerate(zip(index, scale)):
        plane = c * planes[a]
        means[i] = total(plane) * w
        put(1, i, total(plane, kq))
        put(2, i, total(plane, wq=qp))
        put(4, i, c * x_sums[a])
    for n, (a, b) in enumerate(_PAIRS):
        put(index[a], index[b], scale[a] * scale[b] * dots[n])
    return means, second - np.outer(means, means)


def _in_halves(pool, slabs, scratch, fn, *args):
    """fn(*args, half, buf) for both halves of `slabs`, the second on
    `pool` if given, each with its own scratch buffer `buf` if there are
    two; returns both results once both halves are done."""
    mid = len(slabs) // 2
    halves = [(*args, half, buf) for half, buf in
              zip((slabs[:mid], slabs[mid:]), (scratch[0], scratch[-1]))]

    def run(half):
        # numpy buffers each broadcast operand of a ufunc, 8192 values by
        # default: two threads' 128 KiB buffers beside the scratch took
        # the peak at 64^3 past a field + 2 MiB; 2048 cost no time
        with np.errstate():
            np.setbufsize(_BUFFER_VALUES)
            return fn(*half)

    if pool is None:
        return [run(half) for half in halves]
    pending = pool.submit(run, halves[1])
    try:
        first = run(halves[0])
    finally:
        # the worker writes into shared arrays: wait for it, even if
        # this raised
        pending.exception()
    return [first, pending.result()]


def _phi(out: np.ndarray, lq: np.ndarray, f: np.ndarray,
         s: np.ndarray) -> None:
    """Phi = L f S on a slab, in `out`, from slices of the pieces that
    broadcast to its shape: both phases build the same doubles."""
    np.multiply(lq, f, out=out)
    out *= s


def _chi_slabs(pieces, chi: np.ndarray, spec: GridSpec, slabs,
               scratch: np.ndarray) -> None:
    """Phase 1 of `grid_moments`: writes chi = F_q[q F_q^-1 Phi] over the
    q' `slabs`, each built from the pieces in scratch[0] and transformed
    along q there."""
    lq, f, s = pieces
    n0, n2 = s.shape
    q = spec.axis(0)[:, None, None]
    for sl in slabs:
        phi = scratch[0, :n0 * (sl.stop - sl.start) * n2].reshape(n0, -1, n2)
        _phi(phi, lq[:, sl, None], f[sl], s[:, None, :])
        np.fft.ifft(phi, axis=0, out=phi)
        phi_v = phi.view(np.float64)
        phi_v *= q
        np.fft.fft(phi, axis=0, out=chi[:, sl])


def _moment_slabs(pieces, chi: np.ndarray, spec: GridSpec,
                  planes: np.ndarray, slabs, scratch: np.ndarray):
    """Phase 2 of `grid_moments`: walks the k_q `slabs` in order with Phi,
    e_1 and e_2 in the three slabs of `scratch`, writes their rows of
    `planes` and returns the sums of x Re(chi* Phi) and x Re(Phi* e_j)
    and the six Re<a_i|a_j> of (chi, e_1, e_2).

    e_j is built with the real wavenumbers, and every sum is of
    contiguous float views, x interleaved with (re, im), so each is a
    dot product of (re, im) pairs.  A slab of chi is used last here:
    Re(chi* Phi) is formed in its place."""
    lq, f, s = pieces
    n1, n2 = f.shape
    x = np.repeat(spec.axis(2), 2)
    k = {1: spec.wavenumbers(1)[:, None], 2: np.repeat(spec.wavenumbers(2), 2)}
    x_sums, dots = np.zeros(3), np.zeros(6)
    for sl in slabs:
        e = scratch[:, :(sl.stop - sl.start) * n1 * n2].reshape(3, -1, n1, n2)
        ev = e.view(np.float64)
        _phi(e[0], lq[sl, :, None], f, s[sl, None, :])
        for j in (1, 2):
            np.fft.fft(e[0], axis=j, out=e[j])
            ev[j] *= k[j]
            np.fft.ifft(e[j], axis=j, out=e[j])
        fields = (chi[sl].view(np.float64), ev[1], ev[2])
        rows = [v.reshape(-1, 2 * n2) for v in fields]
        # each row's dot, with einsum: BLAS ddot rounds with the thread
        # count, and took 5-8 ms, not 0.2, on 2 loaded cores
        for n, (a, b) in enumerate(_PAIRS):
            dots[n] += np.einsum("ij,ij->i", rows[a], rows[b]).sum()
        for a, v in enumerate(fields):
            v *= ev[0]
            v.sum(axis=2, out=planes[a][sl])
            x_sums[a] += np.einsum("ik,k->i", rows[a], x).sum()
    return x_sums, dots
