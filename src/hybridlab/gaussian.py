"""Exact Gaussian phase-space backend.

The three-mode system (probe Q, probe Q', mediator C) is tracked through
a 6-vector of means and a 6x6 covariance matrix in the canonical ordering
(q, p, q', p', x, k).  The interaction Hamiltonian is quadratic, so the
evolution is an exact symplectic linear map and every diagnostic
(entanglement, witness, CHSH, moment tomography) reduces to linear
algebra on the moments.  The generator M = Omega G of either variant
obeys M^3 = lam M, so one closed form, exp(M t) = I + f M + g M^2,
propagates both to any time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import exp, sin, sinh, sqrt

import numpy as np

# Canonical index layout, fixed project-wide.
IDX_Q, IDX_P, IDX_QP, IDX_PP, IDX_X, IDX_K = range(6)
MODE_SLICES = {"Q": slice(0, 2), "Qprime": slice(2, 4), "C": slice(4, 6)}


class PhysicalityError(ValueError):
    """Covariance matrix violates the uncertainty relation."""


class DegenerateDesignError(ValueError):
    """Moment-inversion design matrix is rank deficient."""


def symplectic_form(n_modes: int = 3) -> np.ndarray:
    """Block-diagonal symplectic form diag([[0,1],[-1,0]] x n_modes)."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        out[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = j
    return out


OMEGA = symplectic_form(3)


class HamiltonianVariant(Enum):
    EQ1 = "EQ1"            # g1*p*x + g2*q'*k
    PAPER_HEFF = "PAPER_HEFF"  # g1*p*x + g2*q*k


@dataclass(frozen=True)
class PhaseSpaceState:
    """Gaussian state: means, symmetrized covariance, and hbar."""

    means: np.ndarray
    covariance: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))
        if self.means.shape != (6,) or self.covariance.shape != (6, 6):
            raise ValueError("expected a 6-vector of means and a 6x6 covariance")
        if not 0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")
        if not (np.isfinite(self.means).all()
                and np.isfinite(self.covariance).all()):
            raise ValueError("means and covariance must be finite")
        if np.abs(self.covariance - self.covariance.T).max() > 1e-12:
            raise ValueError("covariance must be symmetric to 1e-12")

    def require_physical(self, tol: float = 1e-10) -> None:
        """Raise unless covariance + i(hbar/2)Omega is PSD (up to tol)."""
        m = self.covariance + 0.5j * self.hbar * OMEGA
        min_eig = np.linalg.eigvalsh(m).min()
        if min_eig < -tol:
            raise PhysicalityError(
                f"covariance violates uncertainty relation (min eig {min_eig:.3e})"
            )

    def reduced(self, modes: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Means and covariance of the listed modes (others traced out)."""
        idx = np.concatenate([np.arange(6)[MODE_SLICES[m]] for m in modes])
        return self.means[idx], self.covariance[np.ix_(idx, idx)]


def vacuum_state(hbar: float = 1.0) -> PhaseSpaceState:
    """Three-mode vacuum: zero means, covariance (hbar/2) I."""
    return PhaseSpaceState(np.zeros(6), 0.5 * hbar * np.eye(6), hbar)


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


def build_hamiltonian(g1: float, g2: float,
                      variant: HamiltonianVariant = HamiltonianVariant.EQ1,
                      ) -> QuadraticHamiltonian:
    """Interaction g1*p*x plus g2*q'*k (EQ1) or g2*q*k (PAPER_HEFF)."""
    return QuadraticHamiltonian(g1, g2, variant)


@dataclass(frozen=True)
class SymplecticMatrix:
    """Linear phase-space propagator, S^T Omega S = Omega."""

    entries: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", s)
        if np.abs(s.T @ OMEGA @ s - OMEGA).max() > 1e-10:
            raise ValueError("matrix is not symplectic to 1e-10")


def _sinhc(z: float) -> float:
    """sinh(sqrt z)/sqrt z, continued to sin(sqrt -z)/sqrt -z for z < 0."""
    y = sqrt(abs(z))
    return 1.0 if y == 0.0 else (sinh(y) if z > 0.0 else sin(y)) / y


def symplectic_propagator(h: QuadraticHamiltonian, t: float) -> SymplecticMatrix:
    """exp(M t) = I + f M + g M^2 for M = Omega G, as M^3 = lam M.

    lam = 0 for EQ1 and g1*g2 for PAPER_HEFF.  f = sinh(sqrt(lam) t)/sqrt(lam)
    = t sinhc(lam t^2) and g = 2 sinh^2(sqrt(lam) t/2)/lam = (t^2/2)
    sinhc(lam t^2/4)^2, so nothing cancels as lam t^2 -> 0.
    """
    lam = h.g1 * h.g2 if h.variant is HamiltonianVariant.PAPER_HEFF else 0.0
    z = lam * t * t
    m = OMEGA @ h.gmatrix
    f = t * _sinhc(z)
    g = 0.5 * t * t * _sinhc(0.25 * z) ** 2
    return SymplecticMatrix(np.eye(6) + f * m + g * (m @ m))


def evolve_gaussian(state: PhaseSpaceState, h: QuadraticHamiltonian,
                    t: float) -> PhaseSpaceState:
    """Propagate means and covariance: m -> Sm, V -> S V S^T.

    S V S^T is symmetric only up to rounding, which at large couplings
    exceeds PhaseSpaceState's 1e-12 guard, so its symmetric part is
    returned.
    """
    state.require_physical()
    s = symplectic_propagator(h, t).entries
    v = s @ state.covariance @ s.T
    return PhaseSpaceState(s @ state.means, 0.5 * (v + v.T), state.hbar)


def _symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    n = cov.shape[0] // 2
    om = symplectic_form(n)
    ev = np.abs(np.linalg.eigvals(1j * om @ cov))
    # eigenvalues come in +/- pairs; average each pair
    return np.sort(ev).reshape(n, 2).mean(axis=1)


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
                           ) -> float:
    """PPT log-negativity of a Gaussian bipartition, natural-log units.

    Modes outside the bipartition are traced out; the partial transpose
    flips the momentum rows/columns of the second side.
    """
    modes = _check_modes(bipartition)
    state.require_physical()
    _, cov = state.reduced(modes)
    flip = np.ones(2 * len(modes))
    flip[2 * len(bipartition[0]) + 1 :: 2] = -1.0
    cov_pt = np.diag(flip) @ cov @ np.diag(flip)
    nu = _symplectic_eigenvalues(cov_pt)
    half = 0.5 * state.hbar
    neg = -sum(np.log(v / half) for v in nu if v < half)
    return max(0.0, float(neg))


def two_mode_squeezed_state(r: float, hbar: float = 1.0) -> PhaseSpaceState:
    """Two-mode squeezed vacuum on (Q, Q'); mediator left in vacuum."""
    c = 0.5 * hbar * np.cosh(2 * r)
    s = 0.5 * hbar * np.sinh(2 * r)
    cov = 0.5 * hbar * np.eye(6)
    cov[0:2, 0:2] = c * np.eye(2)
    cov[2:4, 2:4] = c * np.eye(2)
    cov[0:2, 2:4] = cov[2:4, 0:2] = s * np.diag([1.0, -1.0])
    return PhaseSpaceState(np.zeros(6), cov, hbar)


def witness_expectation(state: PhaseSpaceState) -> float:
    """Symmetrized <q p' + q' p>, covariance entries plus mean products."""
    state.require_physical()
    m, v = state.means, state.covariance
    return float(v[IDX_Q, IDX_PP] + m[IDX_Q] * m[IDX_PP]
                 + v[IDX_QP, IDX_P] + m[IDX_QP] * m[IDX_P])


def entangling_time_scan(state: PhaseSpaceState, g1: float, g2: float,
                         times: np.ndarray,
                         variant: HamiltonianVariant = HamiltonianVariant.EQ1,
                         threshold: float = 1e-9) -> float | None:
    """Smallest scanned time with E_N(Q|Q') above threshold, else None."""
    h = build_hamiltonian(g1, g2, variant)
    for t in np.asarray(times, dtype=float):
        if logarithmic_negativity(evolve_gaussian(state, h, t)) > threshold:
            return float(t)
    return None


# ---------------------------------------------------------------------------
# Displaced-parity CHSH
# ---------------------------------------------------------------------------

class _ParityCorrelator:
    """Precomputed two-mode displaced-parity correlation E(alpha, beta).

    E is proportional to the Wigner function at the displacement point,
    normalized so the two-mode vacuum at zero displacement gives 1.
    """

    def __init__(self, means: np.ndarray, cov: np.ndarray, hbar: float):
        self.means = means
        self.inv = np.linalg.inv(cov)
        self.scale = np.sqrt(2.0 * hbar)
        self.norm = (np.pi * hbar) ** 2 / (
            (2.0 * np.pi) ** 2 * np.sqrt(np.linalg.det(cov)))

    def __call__(self, alpha: complex, beta: complex) -> float:
        delta = np.array([alpha.real, alpha.imag, beta.real, beta.imag])
        delta = self.scale * delta - self.means
        return float(self.norm * np.exp(-0.5 * delta @ self.inv @ delta))


def chsh_displaced_parity(state: PhaseSpaceState,
                          settings: tuple[complex, complex, complex, complex],
                          modes: tuple[str, str] = ("Q", "Qprime")) -> float:
    """CHSH combination B = E11 + E21 + E12 - E22 over parity correlations."""
    modes = _check_modes([m] for m in modes)
    state.require_physical()
    means, cov = state.reduced(modes)
    e = _ParityCorrelator(means, cov, state.hbar)
    a1, a2, b1, b2 = settings
    return e(a1, b1) + e(a2, b1) + e(a1, b2) - e(a2, b2)


def optimize_chsh(state: PhaseSpaceState,
                  modes: tuple[str, str] = ("Q", "Qprime"),
                  ) -> tuple[float, tuple[complex, complex, complex, complex]]:
    """Multi-start coordinate descent over the four displacement settings.

    Starts: alpha1 = beta1 = 0 with (alpha2, beta2) on a 5x5 grid of
    imaginary displacements in [-0.6, 0.6].  Each start is refined by
    cyclic coordinate descent over the 8 real parameters: per sweep,
    each coordinate tries +step, then -step from the resulting point,
    and a trial is taken only if it raises B by more than 1e-15; a
    sweep that takes nothing halves the step, down to 1e-6.  The 25
    starts run in lockstep as arrays, each with its own step, and a
    start leaves the batch once its step is spent.  Each start follows
    the path of its own scalar descent, in the same floating-point
    operations, so the result is deterministic.  The first start, in
    grid order, with the largest B wins.
    """
    modes = _check_modes([m] for m in modes)
    state.require_physical()
    means, cov = state.reduced(modes)
    corr = _ParityCorrelator(means, cov, state.hbar)
    c00, c01, c02, c03 = (float(v) for v in corr.inv[0])
    _, c11, c12, c13 = (float(v) for v in corr.inv[1])
    c22, c23, c33 = float(corr.inv[2, 2]), float(corr.inv[2, 3]), float(corr.inv[3, 3])
    m = [float(v) for v in means]
    scale, norm = float(corr.scale), float(corr.norm)

    def correlator(d0, d1, d2, d3):
        # E at the scaled, offset displacements d, elementwise.  The
        # quadratic form keeps its unrolled operation order, and math.exp,
        # which differs from np.exp in the last bit for some arguments,
        # keeps every start on its scalar path.
        quad = (c00 * d0 * d0 + c11 * d1 * d1 + c22 * d2 * d2 + c33 * d3 * d3
                + 2.0 * (c01 * d0 * d1 + c02 * d0 * d2 + c03 * d0 * d3
                         + c12 * d1 * d2 + c13 * d1 * d3 + c23 * d2 * d3))
        arg = -0.5 * quad
        return norm * np.fromiter(map(exp, arg.ravel().tolist()), float,
                                  arg.size).reshape(arg.shape)

    # x[g, s, c] is component c (Re, Im) of setting s of side g (alpha,
    # beta), over the starts; coordinate 4g + 2s + c of the scalar descent.
    # d = scale * x - mean is what the correlator reads, and e[b, a] caches
    # E(alpha_a, beta_b), term 2b + a of B = E11 + E21 + E12 - E22.
    grid = np.linspace(-0.6, 0.6, 5)
    n = grid.size * grid.size
    x = np.zeros((2, 2, 2, n))
    x[0, 1, 1], x[1, 1, 1] = np.repeat(grid, grid.size), np.tile(grid, grid.size)
    d = scale * x - np.array(m).reshape(2, 1, 2, 1)
    e = correlator(d[0, :, 0], d[0, :, 1], d[1, :, 0, None], d[1, :, 1, None])
    cur = e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]
    step = np.full(n, 0.25)
    live = np.arange(n)
    best_x, best_val = np.empty((8, n)), np.empty(n)
    while live.size:
        improved = np.zeros(live.size, dtype=bool)
        # +step; -step from the old point; -step from the +step point,
        # which rounding need not bring back to the old point
        trial = np.empty((3, live.size))
        # the correlator's arguments for the 2 changed terms x 3 trials,
        # contiguous, since numpy broadcasts strided operands more slowly
        args = np.empty((4, 2, 3, live.size))
        for g, s, c in np.ndindex(2, 2, 2):
            xi = x[g, s, c]
            np.add(xi, step, out=trial[0])
            np.subtract(xi, step, out=trial[1])
            np.subtract(trial[0], step, out=trial[2])
            d_trial = scale * trial - m[2 * g + c]
            # a move of side g's setting s changes only the two terms that
            # pair it with either setting of the other side: `cached`
            same, other = (args[:2], args[2:]) if g == 0 else (args[2:], args[:2])
            same[c] = d_trial
            same[1 - c] = d[g, s, 1 - c]
            other[0] = d[1 - g, :, 0, None]
            other[1] = d[1 - g, :, 1, None]
            new = correlator(*args)
            cached = e[:, s] if g == 0 else e[s]
            terms = [e[0, 0], e[0, 1], e[1, 0], e[1, 1]]
            changed = (s, 2 + s) if g == 0 else (2 * s, 2 * s + 1)
            terms[changed[0]], terms[changed[1]] = new
            val = terms[0] + terms[1] + terms[2] - terms[3]
            take_up = val[0] > cur + 1e-15
            after_up = np.where(take_up, val[0], cur)
            take_down = np.where(take_up, val[2], val[1]) > after_up + 1e-15
            pick = np.where(take_down, np.where(take_up, 2, 1),
                            np.where(take_up, 0, -1))
            cols = np.flatnonzero(pick >= 0)
            if cols.size:
                p = pick[cols]
                xi[cols] = trial[p, cols]
                d[g, s, c, cols] = d_trial[p, cols]
                cached[:, cols] = new[:, p, cols]
                cur[cols] = val[p, cols]
                improved[cols] = True
        step = np.where(improved, step, 0.5 * step)
        done = step <= 1e-6
        if done.any():
            best_x[:, live[done]] = x[..., done].reshape(8, -1)
            best_val[live[done]] = cur[done]
            keep = ~done
            live, x, d, e, cur, step = (live[keep], x[..., keep], d[..., keep],
                                        e[..., keep], cur[keep], step[keep])
    k = int(np.argmax(best_val))
    bx = best_x[:, k]
    return float(best_val[k]), (complex(bx[0], bx[1]), complex(bx[2], bx[3]),
                                complex(bx[4], bx[5]), complex(bx[6], bx[7]))


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
        if self.var_x * self.var_k - self.cov_xk ** 2 < -1e-9:
            raise PhysicalityError("fitted second moments are inconsistent")


@dataclass
class ProbeMomentSeries:
    """First and second moments of the probe variables at sample times.

    Suffix 2 marks the second probe Q'; within-probe covariances are
    symmetrized.  All arrays share the shape of `times`.
    """

    times: np.ndarray
    mean_q: np.ndarray
    mean_p: np.ndarray
    mean_q2: np.ndarray
    mean_p2: np.ndarray
    var_q: np.ndarray
    var_p: np.ndarray
    var_q2: np.ndarray
    var_p2: np.ndarray
    cov_qp: np.ndarray
    cov_q2p2: np.ndarray
    cov_q_p2: np.ndarray

    @staticmethod
    def from_states(times, states: list[PhaseSpaceState]) -> "ProbeMomentSeries":
        m = np.array([s.means for s in states])
        v = np.array([s.covariance for s in states])
        return ProbeMomentSeries(
            times=np.asarray(times, dtype=float),
            mean_q=m[:, IDX_Q], mean_p=m[:, IDX_P],
            mean_q2=m[:, IDX_QP], mean_p2=m[:, IDX_PP],
            var_q=v[:, IDX_Q, IDX_Q], var_p=v[:, IDX_P, IDX_P],
            var_q2=v[:, IDX_QP, IDX_QP], var_p2=v[:, IDX_PP, IDX_PP],
            cov_qp=v[:, IDX_Q, IDX_P], cov_q2p2=v[:, IDX_QP, IDX_PP],
            cov_q_p2=v[:, IDX_Q, IDX_PP],
        )

    def with_noise(self, sigma: float, seed: int = 0) -> "ProbeMomentSeries":
        rng = np.random.default_rng(seed)
        kwargs = {"times": self.times}
        for name in ("mean_q", "mean_p", "mean_q2", "mean_p2", "var_q",
                     "var_p", "var_q2", "var_p2", "cov_qp", "cov_q2p2",
                     "cov_q_p2"):
            arr = getattr(self, name)
            kwargs[name] = arr + rng.normal(0.0, sigma, size=arr.shape)
        return ProbeMomentSeries(**kwargs)


def _lstsq(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    sol, res, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateDesignError("design matrix is rank deficient")
    resid = float(np.sqrt(res[0])) if res.size else float(
        np.linalg.norm(design @ sol - y))
    return sol, resid


def mediator_moment_inversion(series: ProbeMomentSeries, g1: float, g2: float,
                              ) -> MediatorEstimate:
    """Recover the mediator's moments from probe moment time series.

    Assumes the initial state is a product of (Q, Q', C) so all
    cross-subsystem covariances vanish at t=0; the closed-form EQ1
    propagator then makes each probe moment an affine function of the
    unknown mediator moments, solved by linear least squares.
    """
    if g1 == 0.0 or g2 == 0.0:
        raise ValueError("tomography needs both couplings nonzero")
    t = np.asarray(series.times, dtype=float)
    if np.unique(t).size < 3:
        raise DegenerateDesignError("need at least 3 distinct sample times")
    a = 0.5 * g1 * g2
    ones = np.ones_like(t)

    # Conserved probe quantities, read off the series directly.
    q2bar = series.mean_q2.mean()
    pbar = series.mean_p.mean()
    var_q2bar = series.var_q2.mean()
    var_pbar = series.var_p.mean()
    cov_qpbar = series.cov_qp.mean()
    cov_q2p2bar = series.cov_q2p2.mean()

    (_, mean_x), r1 = _lstsq(np.column_stack([ones, g1 * t]),
                             series.mean_q - a * t * t * q2bar)
    (_, mean_k), r2 = _lstsq(np.column_stack([ones, -g2 * t]),
                             series.mean_p2 - a * t * t * pbar)
    (_, var_x), r3 = _lstsq(np.column_stack([ones, g1 * g1 * t * t]),
                            series.var_q - a * a * t ** 4 * var_q2bar)
    (_, var_k), r4 = _lstsq(np.column_stack([ones, g2 * g2 * t * t]),
                            series.var_p2 - a * a * t ** 4 * var_pbar)
    (_, cov_xk), r5 = _lstsq(np.column_stack([ones, -g1 * g2 * t * t]),
                             series.cov_q_p2 - a * t * t * (cov_qpbar + cov_q2p2bar))
    total = float(np.sqrt(r1 ** 2 + r2 ** 2 + r3 ** 2 + r4 ** 2 + r5 ** 2))
    return MediatorEstimate(mean_x=float(mean_x), mean_k=float(mean_k),
                            var_x=float(var_x), var_k=float(var_k),
                            cov_xk=float(cov_xk), residual=total)
