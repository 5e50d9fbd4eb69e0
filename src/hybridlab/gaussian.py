"""Exact Gaussian phase-space backend.

The three-mode system (probe Q, probe Q', mediator C) is tracked through
a 6-vector of means and a 6x6 covariance matrix in the canonical ordering
(q, p, q', p', x, k).  The interaction Hamiltonian is quadratic, so the
evolution is an exact symplectic linear map and every diagnostic
(entanglement, probe cross-correlation, CHSH, moment tomography)
reduces to linear algebra on the moments.  The generator M = Omega G
of either variant obeys M^3 = lam M, so one closed form,
exp(M t) = I + f M + g M^2, propagates both to any time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from math import inf, sin, sinh, sqrt

import numpy as np

# Canonical index layout, fixed project-wide.
IDX_Q, IDX_P, IDX_QP, IDX_PP, IDX_X, IDX_K = range(6)
MODE_SLICES = {"Q": slice(0, 2), "Qprime": slice(2, 4), "C": slice(4, 6)}


class PhysicalityError(ValueError):
    """Covariance matrix violates the uncertainty relation."""


class DegenerateDesignError(ValueError):
    """Moment-inversion design matrix is rank deficient, or too ill-posed
    for the rounding of the probe moments."""


class NonFiniteResultError(ValueError):
    """A result came out infinite or NaN: a numerical guard violation."""


class NonSymplecticError(ValueError):
    """Propagator fails its symplecticity check (couplings or time too large)."""


def symplectic_form(n_modes: int = 3) -> np.ndarray:
    """Block-diagonal symplectic form diag([[0,1],[-1,0]] x n_modes)."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        out[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = j
    return out


OMEGA = symplectic_form(3)
PHYSICALITY_TOL = 1e-10
# the largest share of a recovered mediator moment's scale that the
# rounding of its tomography fit may move it by
MAX_LOST_PRECISION = 1e-6


class HamiltonianVariant(Enum):
    EQ1 = "EQ1"            # g1*p*x + g2*q'*k
    PAPER_HEFF = "PAPER_HEFF"  # g1*p*x + g2*q*k


@dataclass(frozen=True)
class PhaseSpaceState:
    """Gaussian state: means, symmetrized covariance, and hbar; means of
    shape (n, 6) and covariance (n, 6, 6) stack n states of one hbar."""

    means: np.ndarray
    covariance: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))
        m, v = self.means, self.covariance
        if m.ndim not in (1, 2) or m.shape[-1:] != (6,) or v.shape != m.shape + (6,):
            raise ValueError("expected a 6-vector of means and a 6x6 covariance, "
                             "or a stack of n of each")
        if not 0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")
        if not (np.isfinite(m).all() and np.isfinite(v).all()):
            raise ValueError("means and covariance must be finite")
        i, j = np.triu_indices(6, 1)
        if not (np.abs(v[..., i, j] - v[..., j, i]) <= 1e-12).all():
            raise ValueError("covariance must be symmetric to 1e-12")

    @cached_property
    def _min_eig(self) -> np.ndarray:
        """Least eigenvalue of covariance + i(hbar/2)Omega, per state."""
        m = self.covariance + 0.5j * self.hbar * OMEGA
        return np.linalg.eigvalsh(m).min(axis=-1)

    def require_physical(self) -> None:
        """Raise unless covariance + i(hbar/2)Omega is PSD (to
        PHYSICALITY_TOL), naming the min eig of the first state that is not."""
        min_eig = np.ravel(self._min_eig)
        bad = min_eig[min_eig < -PHYSICALITY_TOL]
        if bad.size:
            raise PhysicalityError("covariance violates uncertainty relation "
                                   f"(min eig {bad[0]:.3e})")

    def reduced(self, modes: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Means and covariance of the listed modes (others traced out)."""
        idx = np.concatenate([np.arange(6)[MODE_SLICES[m]] for m in modes])
        return self.means[..., idx], self.covariance[..., idx[:, None], idx]


def _per_state(x):
    """A diagnostic's value: a float for one state, an array for a stack."""
    return x if np.ndim(x) else float(x)


def mode_covariance(width: float, chirp: float = 0.0,
                    hbar: float = 1.0) -> np.ndarray:
    """Single-mode pure-Gaussian covariance for position std `width`.

    `chirp` is the quadratic phase coefficient gamma; it plants the
    symmetrized position-momentum correlation gamma*width^2.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    vq = width * width
    cov = chirp * vq
    vp = hbar * hbar / (4.0 * vq) + chirp * chirp * vq
    return np.array([[vq, cov], [cov, vp]])


def product_state(widths=(None, None, None), means=(0.0, 0.0, 0.0),
                  tilts=(0.0, 0.0, 0.0), chirps=(0.0, 0.0, 0.0),
                  hbar: float = 1.0) -> PhaseSpaceState:
    """Product of three pure Gaussian modes in the canonical ordering.

    A width of None means the vacuum width sqrt(hbar/2).  Tilts are
    plane-wave wavenumbers, so the momentum mean of mode j is
    hbar*tilts[j]; chirps plant within-mode position-momentum
    correlations (for the mediator this is the <xk> control knob).
    """
    mu = np.zeros(6)
    cov = np.zeros((6, 6))
    for j in range(3):
        w = widths[j] if widths[j] is not None else np.sqrt(hbar / 2.0)
        mu[2 * j] = means[j]
        mu[2 * j + 1] = hbar * tilts[j]
        cov[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = mode_covariance(
            w, chirp=chirps[j], hbar=hbar)
    return PhaseSpaceState(mu, cov, hbar)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = (1/2) v^T G v; G is derived from (g1, g2, variant)."""

    g1: float
    g2: float
    variant: HamiltonianVariant = HamiltonianVariant.EQ1

    def __post_init__(self):
        if not isinstance(self.variant, HamiltonianVariant):
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def gmatrix(self) -> np.ndarray:
        g = np.zeros((6, 6))
        g[IDX_P, IDX_X] = g[IDX_X, IDX_P] = self.g1
        j = IDX_QP if self.variant is HamiltonianVariant.EQ1 else IDX_Q
        g[j, IDX_K] = g[IDX_K, j] = self.g2
        return g


def _sinhc(z: float) -> float:
    """sinh(sqrt z)/sqrt z, continued to sin(sqrt -z)/sqrt -z for z < 0."""
    y = sqrt(abs(z))
    return 1.0 if y == 0.0 else (sinh(y) if z > 0.0 else sin(y)) / y


def _shear_coefficients(lam: float, t: float) -> tuple[float, float]:
    z = lam * t * t
    try:
        return t * _sinhc(z), 0.5 * t * t * _sinhc(0.25 * z) ** 2
    except (OverflowError, ValueError):
        # sinh overflows, or lam t^2 did and sin(inf) is a domain error:
        # an S that the symplecticity check refuses as an overflow
        return inf, inf


def symplectic_propagator(h: QuadraticHamiltonian, t) -> np.ndarray:
    """exp(M t) = I + f M + g M^2 for M = Omega G, as M^3 = lam M.

    lam = 0 for EQ1 and g1*g2 for PAPER_HEFF.  f = sinh(sqrt(lam) t)/sqrt(lam)
    = t sinhc(lam t^2) and g = 2 sinh^2(sqrt(lam) t/2)/lam = (t^2/2)
    sinhc(lam t^2/4)^2, so nothing cancels as lam t^2 -> 0.  For an array
    of times S has t's shape plus (6, 6), with f and g taken per time
    from the scalar `_sinhc`.  At the first time where |S^T Omega S - Omega|
    exceeds 1e-10, a finite deviation raises NonSymplecticError, and one
    that doubles cannot hold (S, sinh or S^T Omega S overflows) raises
    OverflowError naming the time.
    """
    lam = h.g1 * h.g2 if h.variant is HamiltonianVariant.PAPER_HEFF else 0.0
    t = np.asarray(t, dtype=float)
    m = OMEGA @ h.gmatrix
    # f and g per time, shaped to scale the 6x6 matrices
    fg = np.array([_shear_coefficients(lam, x) for x in t.ravel().tolist()])
    f, g = fg.T.reshape((2,) + t.shape + (1, 1))
    # I + f M + g M^2 in place, in that order, holding few stack-sized arrays;
    # S or S^T Omega S may overflow, and 0 * inf give NaN
    with np.errstate(over="ignore", invalid="ignore"):
        s = f * m
        s += np.eye(6)
        s += g * (m @ m)
        deviation = np.swapaxes(s, -1, -2) @ OMEGA @ s
        deviation -= OMEGA
    worst = np.ravel(np.abs(deviation, out=deviation).max(axis=(-2, -1)))
    first = np.argmin(worst <= 1e-10)  # 0 when every time passes
    if not worst[first] <= 1e-10:
        if np.isfinite(worst[first]):
            raise NonSymplecticError("matrix is not symplectic to 1e-10")
        raise OverflowError(f"the propagator overflows at t = {np.ravel(t)[first]:.17g}")
    return s


def evolve_gaussian(state: PhaseSpaceState, h: QuadraticHamiltonian,
                    t) -> PhaseSpaceState:
    """Propagate means and covariance, m -> Sm and V -> S V S^T, to the
    time t; for an array of times, the stack of states at those times.
    Moments that doubles cannot hold raise OverflowError naming the first
    such time, with no RuntimeWarning."""
    state.require_physical()
    with np.errstate(over="ignore", invalid="ignore"):
        means, cov = evolved_moments(state, symplectic_propagator(h, t))
    finite = np.isfinite(means).all(-1) & np.isfinite(cov).all((-2, -1))
    if not finite.all():
        bad = np.ravel(t)[np.argmin(np.ravel(finite))]
        raise OverflowError(f"the Gaussian moments overflow at t = {bad:.17g}")
    return PhaseSpaceState(means, cov, state.hbar)


def evolved_moments(state: PhaseSpaceState, s: np.ndarray):
    """S m and the symmetric part of S V S^T (of each S of a stack), which
    rounding leaves asymmetric beyond PhaseSpaceState's 1e-12 guard at
    large couplings."""
    v = s @ state.covariance @ np.swapaxes(s, -1, -2)
    v += np.swapaxes(v, -1, -2)
    v *= 0.5
    return s @ state.means, v


def _symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    n = cov.shape[-1] // 2
    om = symplectic_form(n)
    ev = np.abs(np.linalg.eigvals(1j * om @ cov))
    # eigenvalues come in +/- pairs; average each pair
    return np.sort(ev).reshape(ev.shape[:-1] + (n, 2)).mean(axis=-1)


def _balanced(cov: np.ndarray) -> np.ndarray:
    """cov with each mode scaled by q/s, p s, a symplectic map, so its
    symplectic eigenvalues are cov's: unbalanced, eigvals reads a mode
    with variances 1e300 and 2.5e-301 as a zero eigenvalue.  s is
    (Var q / Var p)^(1/4) rounded to a power of two, from the variances'
    binary exponents, so the scaling is exact, nothing overflows, and a
    mode whose variances lie within a factor of 4 is left as it is."""
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    exponent = np.frexp(var)[1]
    # int32, the type of ldexp's own loop: an int64 exponent is cast, and
    # its first call faulted in about 200 KiB of numpy's code
    s = np.ldexp(1.0, np.rint((exponent[..., 0::2] - exponent[..., 1::2])
                              / 4.0).astype(np.int32))
    w = np.stack([1.0 / s, s], axis=-1).reshape(var.shape)
    return w[..., :, None] * cov * w[..., None, :]


def _check_modes(sides) -> list[str]:
    """The names of a bipartition (two nonempty, disjoint lists of modes;
    a CHSH pair a, b is [a], [b]), side by side, else ValueError."""
    sides = [list(side) for side in sides]
    names = [m for side in sides for m in side]
    if len(sides) != 2 or not all(sides) or len(set(names)) != len(names) \
            or not all(m in MODE_SLICES for m in names):
        raise ValueError(f"expected two distinct modes, or two nonempty, disjoint "
                         f"lists of modes, of {sorted(MODE_SLICES)}; got {sides!r}")
    return names


def logarithmic_negativity(state: PhaseSpaceState,
                           bipartition: tuple[list[str], list[str]] = (["Q"], ["Qprime"]),
                           ):
    """PPT log-negativity of a Gaussian bipartition, natural-log units.

    Modes outside the bipartition are traced out; the partial transpose
    flips the momentum rows/columns of the second side.  The sum over
    nu < hbar/2 adds 0 for each other nu, and is +0.0 if there is none.
    """
    modes = _check_modes(bipartition)
    state.require_physical()
    flip = np.ones(2 * len(modes))
    flip[2 * len(bipartition[0]) + 1 :: 2] = -1.0
    nu = _symplectic_eigenvalues(
        _balanced(np.diag(flip) @ state.reduced(modes)[1] @ np.diag(flip)))
    half = 0.5 * state.hbar
    # a zero eigenvalue gives inf, which the caller's finite check refuses
    with np.errstate(divide="ignore"):
        neg = -sum(np.log(np.where(v < half, v, half) / half)
                   for v in np.moveaxis(nu, -1, 0))
    return _per_state(np.where(neg > 0.0, neg, 0.0))


def witness_expectation(state: PhaseSpaceState):
    """The symmetrized probe cross-correlation <q p' + q' p>: covariance
    entries plus mean products.

    Not an entanglement witness: it has no separable bound, and from a
    zero-mean product state it reads -g1 g2 t^2 c_xk (c_xk the
    mediator's <xk>), nonzero on states whose probe pair the model
    proves separable.
    """
    state.require_physical()
    m, v = state.means, state.covariance
    # mean products may overflow; the caller's finite check refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        return _per_state(v[..., IDX_Q, IDX_PP] + m[..., IDX_Q] * m[..., IDX_PP]
                          + v[..., IDX_QP, IDX_P] + m[..., IDX_QP] * m[..., IDX_P])


# ---------------------------------------------------------------------------
# Displaced-parity CHSH
# ---------------------------------------------------------------------------

# The quadratic form's terms in the scalar order, diagonal first: term t
# is (c_t * d[I_t]) * d[J_t], with I the first ten entries, J the last ten.
_TERMS = np.array([0, 1, 2, 3, 0, 0, 0, 1, 1, 2,
                   0, 1, 2, 3, 1, 2, 3, 2, 3, 3])
# Coordinate i = 4g + 2s + k of four settings is component k (Re, Im) of
# setting s of side g (alpha, beta).  Term 2b + a of B = E11 + E21 + E12
# - E22, E(alpha_a, beta_b), reads the coordinates in row 2b + a.
_CHSH_PAIRS = np.array([[0, 1, 4, 5], [2, 3, 4, 5], [0, 1, 6, 7], [2, 3, 6, 7]])


def _chsh_constants(state: PhaseSpaceState, modes: list[str]) -> np.ndarray:
    """The 12 numbers the parity correlator of the centred two-mode state
    reads, along the last axis, per state of a stack: the inverse
    covariance entries c_t, the displacement scale and the norm.
    E does not depend on hbar, so they are taken in its units (V/hbar):
    an extreme hbar cannot overflow the norm or underflow the
    determinant.  The means only shift the settings (`_chsh_means`)."""
    v = state.reduced(modes)[1] / state.hbar
    norm = np.pi ** 2 / ((2.0 * np.pi) ** 2 * np.sqrt(np.linalg.det(v)))
    return np.concatenate([np.linalg.inv(v)[..., _TERMS[:10], _TERMS[10:]],
                           np.stack([np.full_like(norm, np.sqrt(2.0)), norm], axis=-1)],
                          axis=-1)


def _chsh_means(state: PhaseSpaceState, modes: list[str]) -> np.ndarray:
    """The 4 means of the modes in units of sqrt(hbar), along the last
    axis: a setting x of the state as given is the setting
    x - means/scale of its centred copy."""
    return state.reduced(modes)[0] / np.sqrt(state.hbar)


def _chsh_correlator(c: np.ndarray, norm, d: np.ndarray) -> np.ndarray:
    """The displaced-parity correlation E (the Wigner function, scaled to
    1 for the two-mode vacuum at zero displacement) of a centred state at
    the scaled displacements d, shape (4, ...), for the term constants c,
    shape (10, ...), and the norm, each broadcast against d.  Each term is
    (c_t * d_i) * d_j and numpy reduces the leading axis row after row,
    so the sums run left to right as in the unrolled scalar form.  np.exp
    gives each element the bits it gives that element alone, whatever
    the array's length, stride or shape, so a start's E does not depend
    on the batch around it, and `chsh_displaced_parity` gives it back."""
    g = d[_TERMS]
    t = np.multiply(g[:10], c, out=g[:10])
    t *= g[10:]
    arg = -0.5 * (np.add.reduce(t[:4]) + 2.0 * np.add.reduce(t[4:]))
    return norm * np.exp(arg, out=arg)


def _chsh_terms(p: np.ndarray, d: np.ndarray):
    """The four terms E of B, shape (4, ...), and B, from the constants p
    (12 along the first axis) at the scaled displacements d of each
    term's coordinates, shape (4, 4, ...)."""
    e = _chsh_correlator(p[:10, None], p[11], d)
    return e, e[0] + e[1] + e[2] - e[3]


def chsh_displaced_parity(state: PhaseSpaceState,
                          settings: tuple[complex, complex, complex, complex],
                          modes: tuple[str, str] = ("Q", "Qprime")) -> float:
    """CHSH combination B = E11 + E21 + E12 - E22 over parity correlations
    at the four settings (alpha1, alpha2, beta1, beta2), displacements of
    the state as given: the terms and sum of `optimize_chsh` at
    d = scale * x - mean.  On a zero-mean state it returns the optimum at
    the optimizer's settings bit for bit; on a displaced one, to the
    rounding of the settings' shift.  Any other number of settings is a
    ValueError."""
    settings = tuple(settings)
    if len(settings) != 4:
        raise ValueError("expected four settings (alpha1, alpha2, beta1, beta2); "
                         f"got {len(settings)}")
    modes = _check_modes([m] for m in modes)
    state.require_physical()
    p = _chsh_constants(state, modes)
    x = np.array([[s.real, s.imag] for s in settings]).ravel()
    _, b = _chsh_terms(p, p[10] * x[_CHSH_PAIRS.T] - _chsh_means(state, modes)[:, None])
    return float(b)


# The most states one CHSH ascent batches.  On 65 states of a t <= 4 run,
# chunks of 1, 8, 16, 32 and 64 took 0.39, 0.21, 0.21, 0.20 and 0.19 s; on
# 257, chunks of 16, 32, 64 and 128 took 0.80, 0.77, 0.79 and 0.79 s.  A
# step holds per start an 8x8 Hessian, its eigenvectors and a few arrays
# of their size: 800 starts peaked at 2.5 MiB (tracemalloc), for any run
# of up to 10**6 samples.
_CHSH_CHUNK = 32
_CHSH_GRID = np.linspace(-0.6, 0.6, 5)
# Term t of B enters with sign _CHSH_SIGNS[t], and entry (i, j) of the
# inverse covariance is constant _CHSH_INVERSE[i, j].
_CHSH_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])[:, None]
_CHSH_INVERSE = np.array([[0, 4, 5, 6], [4, 1, 7, 8], [5, 7, 2, 9], [6, 8, 9, 3]])
# The most steps of one ascent: no start of the 133 states measured in
# CHANGES.md took more than 53.
_CHSH_STEPS = 100
_Settings = tuple[complex, complex, complex, complex]


def optimize_chsh(state: PhaseSpaceState,
                  modes: tuple[str, str] = ("Q", "Qprime"),
                  ) -> tuple[float, _Settings]:
    """Multi-start damped-Newton ascent over the four displacement settings.

    A setting x reads the state only through scale * x - mean, so the
    ascent runs on the centred state: the optimum is a function of the
    covariance alone.  Starts, relative to the state's mean: alpha1 =
    beta1 = 0 with (alpha2, beta2) on a 5x5 grid of imaginary
    displacements in [-0.6, 0.6].  Each correlator is a Gaussian,
    E = norm exp(-d^T C d / 2) at d = scale * x, so the gradient and
    Hessian of B over the 8 real coordinates are exact.  Each start takes
    Levenberg-Marquardt steps s = (m I - H)^-1 grad B, with m = max(top
    eigenvalue of H, 0) + mu * (largest |eigenvalue|), and keeps a step
    only if it raises B and leaves each E at most its peak, norm; mu
    falls by 0.3 on a kept step and rises by 10 on a refused one.  A
    start stops when a kept step gains at most 4 eps B, its step falls
    below 1e-12, or mu passes 1e12, and after _CHSH_STEPS steps at most.
    The first start, in grid order, with the largest B wins; since the
    (0, 0) start only rises, the optimum is at least B(0) = 2 E(0, 0).
    The value is the correlator at the winning settings, which are then
    shifted back by mean/scale (means in units of sqrt(hbar), scale
    sqrt 2), so they name displacements of the state as given.

    This is the one-state case of `optimize_chsh_many`, which runs the
    starts of up to _CHSH_CHUNK states in one batched ascent.  Every
    operation on a start reads that start alone, so the result does not
    depend on which states share its batch.
    """
    return optimize_chsh_many(state, modes)[0]


def optimize_chsh_many(state: PhaseSpaceState,
                       modes: tuple[str, str] = ("Q", "Qprime"),
                       ) -> list[tuple[float, _Settings]]:
    """`optimize_chsh` of each state of a stack, from one batched ascent
    per chunk of at most _CHSH_CHUNK states.  Modes and physicality are
    checked for every state before any ascent."""
    modes = _check_modes([m] for m in modes)
    state.require_physical()
    consts = _chsh_constants(state, modes).reshape(-1, 12)
    shift = _chsh_means(state, modes).reshape(-1, 4) / np.sqrt(2.0)
    return [best for i in range(0, len(consts), _CHSH_CHUNK)
            for best in _chsh_descent(consts[i:i + _CHSH_CHUNK],
                                      shift[i:i + _CHSH_CHUNK])]


def _chsh_step(p: np.ndarray, x: np.ndarray, e: np.ndarray,
               mu: np.ndarray) -> np.ndarray:
    """The Levenberg-Marquardt step (m I - H)^-1 grad B of each start,
    shape (8, n), from the terms e at x.  With u = C d, a term's gradient
    over its four coordinates is -scale E u and its Hessian
    scale^2 E (u u^T - C).  Every sum runs over a leading axis, so each
    start's step reads that start alone."""
    scale, c = p[10], p[_CHSH_INVERSE]
    d = scale * x[_CHSH_PAIRS.T]
    # u u^T overflows once |C| passes about 1e150 (a probe width of 1e77),
    # where E has underflowed to 0: such a term adds nothing.  A start with
    # a gradient or Hessian that is still not finite takes no step and ends
    # at its current B; a damping that overflows blocks its eigenvector.
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.add.reduce(c[:, :, None] * d[:, None], axis=0)
        w = _CHSH_SIGNS * e
        g_terms = -scale * w * u
        h_terms = np.where(w != 0.0, scale * scale * w * (u[:, None] * u[None]
                                                          - c[:, :, None]), 0.0)
        grad, hess = np.zeros(x.shape), np.zeros((8,) + x.shape)
        for t, idx in enumerate(_CHSH_PAIRS):
            grad[idx] += g_terms[:, t]
            hess[idx[:, None], idx] += h_terms[:, :, t]
        bad = ~(np.isfinite(grad).all(axis=0) & np.isfinite(hess).all(axis=(0, 1)))
        grad[:, bad], hess[:, :, bad] = 0.0, 0.0
        lam, v = np.linalg.eigh(hess.transpose(2, 0, 1))
        lam, v = lam.T, v.transpose(1, 2, 0)
        damp = np.maximum(lam[-1], 0.0) + mu * np.maximum(lam[-1], -lam[0]) - lam
        along = np.add.reduce(v * grad[:, None], axis=0)
        along = np.divide(along, damp, out=np.zeros_like(along), where=damp > 0.0)
    return np.add.reduce(v.transpose(1, 0, 2) * along[:, None], axis=0)


def _chsh_descent(consts: list[np.ndarray], shift: np.ndarray,
                  ) -> list[tuple[float, _Settings]]:
    """The batched ascent of `optimize_chsh` over the 25 starts of each
    state whose `_chsh_constants` are listed, one result per state, its
    settings shifted by the state's row of shift (Re, Im of alpha, beta)."""
    per_state = _CHSH_GRID.size ** 2
    n = len(consts) * per_state
    # p: the constants as rows over the starts, of length 1 for one state
    p = np.repeat(np.array(consts).T, 1 if len(consts) == 1 else per_state, axis=1)
    x = np.zeros((8, n))
    x[3] = np.tile(np.repeat(_CHSH_GRID, _CHSH_GRID.size), len(consts))
    x[7] = np.tile(_CHSH_GRID, _CHSH_GRID.size * len(consts))
    e, b = _chsh_terms(p, p[10] * x[_CHSH_PAIRS.T])
    best_x, best_b = np.empty((8, n)), np.empty(n)
    mu, live = np.full(n, 1e-3), np.arange(n)
    for _ in range(_CHSH_STEPS):
        step = _chsh_step(p, x, e, mu)
        trial = x + step
        # a trial that overflows the quadratic form reads E = 0 or NaN, and
        # B (above 0 from the start: E11, at E's peak, is at least E22)
        # refuses it; so does a term above its peak norm: a negative form,
        # the rounding of a flat direction B would follow out to inf
        with np.errstate(over="ignore", invalid="ignore"):
            e_new, b_new = _chsh_terms(p, p[10] * trial[_CHSH_PAIRS.T])
        up = (b_new > b) & (e_new <= p[11]).all(axis=0)
        done = up & (b_new - b <= 4.0 * np.finfo(float).eps * b_new)
        x, e, b = np.where(up, trial, x), np.where(up, e_new, e), np.where(up, b_new, b)
        mu = np.where(up, 0.3 * mu, 10.0 * mu)
        done |= (np.abs(step).max(axis=0) < 1e-12) | (mu > 1e12)
        if done.any():
            best_x[:, live[done]], best_b[live[done]] = x[:, done], b[done]
            keep = ~done
            live, x, e, b, mu = live[keep], x[:, keep], e[:, keep], b[keep], mu[keep]
            p = p[:, keep] if p.shape[1] > 1 else p
            if not live.size:
                break
    best_x[:, live], best_b[live] = x, b
    # the first start of each state with its largest B
    wins = np.arange(0, n, per_state) + best_b.reshape(-1, per_state).argmax(axis=1)
    x = best_x[:, wins] + shift.T[[0, 1, 0, 1, 2, 3, 2, 3]]
    return [(float(v), tuple(map(complex, xs[0::2], xs[1::2])))
            for v, xs in zip(best_b[wins], x.T)]


# ---------------------------------------------------------------------------
# Mediator moment tomography
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MediatorEstimate:
    """Least-squares estimate of the mediator's first and second moments."""

    mean_x: float
    mean_k: float
    var_x: float
    var_k: float
    cov_xk: float
    residual: float

    def __post_init__(self):
        if not (self.var_x >= -1e-9 and self.var_k >= -1e-9):
            raise PhysicalityError("fitted variances are negative beyond fit noise")
        if self.var_x * self.var_k - self.cov_xk * self.cov_xk < -1e-9:
            raise PhysicalityError("fitted second moments are inconsistent")


# the rows of `probe_moments`, as tomography names them
PROBE_MOMENTS = ("mean q", "mean p", "mean q'", "mean p'", "var q", "var p",
                 "var q'", "var p'", "cov(q, p)", "cov(q', p')", "cov(q, p')")


def probe_moments(state: PhaseSpaceState) -> np.ndarray:
    """The probe moments tomography reads, one row each over a stack: the
    means and variances of q, p, q', p', then cov(q, p), (q', p'), (q, p')."""
    m, v = state.means, state.covariance
    return np.array([m[..., IDX_Q], m[..., IDX_P], m[..., IDX_QP], m[..., IDX_PP],
                     v[..., IDX_Q, IDX_Q], v[..., IDX_P, IDX_P],
                     v[..., IDX_QP, IDX_QP], v[..., IDX_PP, IDX_PP],
                     v[..., IDX_Q, IDX_P], v[..., IDX_QP, IDX_PP],
                     v[..., IDX_Q, IDX_PP]])


def _fit(column: np.ndarray, series: np.ndarray, subtracted: np.ndarray,
         size=None) -> tuple[float, float, float]:
    """The slope of series - subtracted on the design [1, column], the fit
    residual, and how far rounding can move the slope: eps per unit of
    |series| + size at each sample (size bounds the subtracted terms, and
    is |subtracted| if not given), carried through the design's lever
    arm, the slope's row of its pseudo-inverse."""
    design = np.column_stack([np.ones_like(column), column])
    sol, res, rank, _ = np.linalg.lstsq(design, series - subtracted, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateDesignError("design matrix is rank deficient")
    size = np.abs(subtracted) if size is None else size
    lost = np.finfo(float).eps * np.abs(np.linalg.pinv(design)[1]) @ (
        np.abs(series) + size)
    return float(sol[1]), float(np.sqrt(res[0])), float(lost)


def mediator_moment_inversion(times, moments: np.ndarray, g1: float, g2: float,
                              ) -> MediatorEstimate:
    """Recover the mediator's moments from probe moment time series: the
    rows of `probe_moments`, measured at the sample times.

    Assumes the initial state is a product of (Q, Q', C) so all
    cross-subsystem covariances vanish at t=0; the closed-form EQ1
    propagator then makes each probe moment an affine function of the
    unknown mediator moments, solved by linear least squares.  A probe
    moment, a conserved one's mean over time or a recovered moment that
    is not finite raises NonFiniteResultError; a recovered moment that
    the rounding of its fit could move by more than MAX_LOST_PRECISION
    of its scale (its variance, or the root of the variances for a mean
    or cov_xk) raises DegenerateDesignError.
    """
    if g1 == 0.0 or g2 == 0.0:
        raise ValueError("tomography needs both couplings nonzero")
    t = np.asarray(times, dtype=float)
    if np.unique(t).size < 3:
        raise DegenerateDesignError("need at least 3 distinct sample times")
    a = 0.5 * g1 * g2
    at2, a2t4 = a * t * t, a * a * t ** 4

    bad = np.argwhere(~np.isfinite(moments.T))
    if bad.size:
        j, i = bad[0]
        raise NonFiniteResultError(
            f"probe moment {PROBE_MOMENTS[i]} is {moments[i, j]} at t = {t[j]:.17g}")
    (mean_q, mean_p, mean_q2, mean_p2, var_q, var_p, var_q2, var_p2,
     cov_qp, cov_q2p2, cov_q_p2) = moments
    # Conserved probe quantities, read off the series directly; finite
    # moments can sum past the largest double
    with np.errstate(over="ignore", invalid="ignore"):
        bars = [x.mean() for x in (mean_q2, mean_p, var_q2, var_p, cov_qp, cov_q2p2)]
    for row, bar in zip((2, 1, 6, 5, 8, 9), bars):
        if not np.isfinite(bar):
            raise NonFiniteResultError(
                f"the mean of probe moment {PROBE_MOMENTS[row]} over time is {bar}")
    q2bar, pbar, var_q2bar, var_pbar, cov_qpbar, cov_q2p2bar = bars

    # per moment: the design column, and the probe series less the
    # conserved terms it carries, with the size of those terms
    fits = {
        "mean_x": (g1 * t, mean_q, at2 * q2bar),
        "mean_k": (-g2 * t, mean_p2, at2 * pbar),
        "var_x": (g1 * g1 * t * t, var_q, a2t4 * var_q2bar),
        "var_k": (g2 * g2 * t * t, var_p2, a2t4 * var_pbar),
        "cov_xk": (-g1 * g2 * t * t, cov_q_p2, at2 * (cov_qpbar + cov_q2p2bar),
                   np.abs(at2) * (abs(cov_qpbar) + abs(cov_q2p2bar))),
    }
    slopes, resid, lost = zip(*(_fit(*fit) for fit in fits.values()))
    est = MediatorEstimate(*slopes, residual=float(np.sqrt(sum(r ** 2 for r in resid))))
    for f in fields(est):
        value = getattr(est, f.name)
        if not np.isfinite(value):
            raise NonFiniteResultError(f"recovered {f.name} is {value}")
    var_x, var_k = abs(est.var_x), abs(est.var_k)
    scales = (sqrt(var_x), sqrt(var_k), var_x, var_k, sqrt(var_x * var_k))
    for name, err, scale in zip(fits, lost, scales):
        if not err <= MAX_LOST_PRECISION * scale:
            raise DegenerateDesignError(
                f"recovered {name} lost its precision: rounding of the probe "
                f"moments can move it by {err:.3g}, above "
                f"{MAX_LOST_PRECISION:g} of its scale {scale:.3g}")
    return est
