import sys

import numpy as np
import pytest

from hybridlab.brackets import functional_gradients
from hybridlab.gaussian import (
    HamiltonianVariant,
    PhaseSpaceState,
    QuadraticHamiltonian,
    evolve_gaussian,
    logarithmic_negativity,
)
from hybridlab.grid import (GridSpec, GridState, init_product_gaussian,
                            split_step_evolve)
from hybridlab.observables import (ObservableKind, ObservableSpec,
                                   apply_quantum, classical_partial)

# Committed benchmark inputs, shared by module and acceptance tests:
# squeezed/tilted probes plus a mediator with planted <xk> correlation.
BENCH_WIDTHS = (0.9, 0.6, 0.8)
BENCH_MEANS = (0.5, 0.0, 0.0)
BENCH_TILTS = (0.4, 0.0, 0.0)
BENCH_CHIRPS = (0.0, 0.3, 0.4)
BENCH_COUPLINGS = (1.0, 1.0)
BENCH_TIME = 1.0
# the bracket pairs of the 128^3 benchmark workload
BENCH_BRACKET_PAIRS = ("Q[ sym(p'*p') ]|C[ u*u ]", "C[ x*x ]|C[ u*u ]",
                       "Q[ q*q ]|Q[ sym(q*p) ]",
                       "Q[ sym(q*p'*x) ]|Q[ sym(p*k) ]")


def vacuum_state(hbar: float = 1.0) -> PhaseSpaceState:
    """Three-mode vacuum: zero means, covariance (hbar/2) I."""
    return PhaseSpaceState(np.zeros(6), 0.5 * hbar * np.eye(6), hbar)


def stack(states) -> PhaseSpaceState:
    """The listed states, of one hbar, as one stacked PhaseSpaceState."""
    states = list(states)
    return PhaseSpaceState(np.reshape([s.means for s in states], (-1, 6)),
                           np.reshape([s.covariance for s in states], (-1, 6, 6)),
                           states[0].hbar if states else 1.0)


def grid_norm(state: GridState) -> float:
    """Total probability of a grid state's amplitudes."""
    return float(np.sum(np.abs(state.amplitudes) ** 2) * state.spec.cell_volume)


def two_mode_squeezed_state(r: float, hbar: float = 1.0) -> PhaseSpaceState:
    """Two-mode squeezed vacuum on (Q, Q'); mediator left in vacuum."""
    c = 0.5 * hbar * np.cosh(2 * r)
    s = 0.5 * hbar * np.sinh(2 * r)
    cov = 0.5 * hbar * np.eye(6)
    cov[0:2, 0:2] = c * np.eye(2)
    cov[2:4, 2:4] = c * np.eye(2)
    cov[0:2, 2:4] = cov[2:4, 0:2] = s * np.diag([1.0, -1.0])
    return PhaseSpaceState(np.zeros(6), cov, hbar)


def classical_poisson(a: ObservableSpec, b: ObservableSpec) -> ObservableSpec:
    """{f, g} in the (x, u) pair: f_x g_u - f_u g_x."""
    def product(f, g, sign):
        return tuple((sign * cf * cg, ff + fg)
                     for cf, ff in f.terms for cg, fg in g.terms)

    return ObservableSpec(ObservableKind.CLASSICAL, product(
        classical_partial(a, "x"), classical_partial(b, "u"), 1.0) + product(
        classical_partial(a, "u"), classical_partial(b, "x"), -1.0))


def quantum_commutator_over_ihbar(a: ObservableSpec, b: ObservableSpec,
                                  state: GridState) -> np.ndarray:
    """([A, B]/(i hbar)) psi with A, B Weyl-symmetrized."""
    psi_b = apply_quantum(b, state)
    psi_a = apply_quantum(a, state)
    ab = apply_quantum(a, GridState(state.spec, psi_b))
    ba = apply_quantum(b, GridState(state.spec, psi_a))
    return (ab - ba) / (1j * state.spec.hbar)


def initial_grid(config) -> GridState:
    """A scenario config's initial product state on its grid."""
    means, widths, tilts, chirps = config.mode_params()
    spec = GridSpec(config.grid_points, config.grid_half_widths, config.hbar)
    return init_product_gaussian(spec, means=means, widths=widths,
                                 tilts=tilts, chirps=chirps)


def entangling_time_scan(state: PhaseSpaceState, g1: float, g2: float,
                         times: np.ndarray,
                         variant: HamiltonianVariant = HamiltonianVariant.EQ1,
                         threshold: float = 1e-9) -> float | None:
    """Smallest scanned time with E_N(Q|Q') above threshold, else None."""
    h = QuadraticHamiltonian(g1, g2, variant)
    for t in np.asarray(times, dtype=float):
        if logarithmic_negativity(evolve_gaussian(state, h, t)) > threshold:
            return float(t)
    return None


@pytest.fixture(scope="session")
def bench_spec():
    return GridSpec((64, 64, 64), (12.0, 8.0, 10.0))


@pytest.fixture(scope="session")
def product_grid_state(bench_spec):
    return init_product_gaussian(bench_spec, means=BENCH_MEANS,
                                 widths=BENCH_WIDTHS, tilts=BENCH_TILTS,
                                 chirps=BENCH_CHIRPS)


@pytest.fixture(scope="session")
def evolved_grid_state(product_grid_state):
    g1, g2 = BENCH_COUPLINGS
    steps = 32
    return split_step_evolve(product_grid_state, g1, g2,
                             BENCH_TIME / steps, steps)


@pytest.fixture
def short_switch_interval():
    """Switch threads every microsecond, so that an unsafe overlap of the
    two threads would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the numpy FFTs called while the test runs, in order."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    return calls


def half_resolution_estimates(ens, pairs, values):
    """|full - half| for each bracket: the midpoint sum over the support
    mask against the same sum on every second cell per axis, times 8.

    A Richardson-style reference kept in the tests only: the library
    returns the full-resolution sum, and `values` (its brackets of
    `pairs`) must equal the sums recomputed here from
    `functional_gradients`.  Each observable's gradients are built once.
    """
    mask, dv = ens.support_mask, ens.spec.cell_volume
    gradients = {}
    estimates = []
    for (a, b), value in zip(pairs, values, strict=True):
        for obs in (a, b):
            if obs not in gradients:
                gradients[obs] = functional_gradients(ens, obs)
        ga, gb = gradients[a], gradients[b]
        integrand = ga.d_dP * gb.d_dS - ga.d_dS * gb.d_dP
        full = float(np.sum(integrand[mask]) * dv)
        assert full == value, (str(a), str(b), full, value)
        sub = integrand[::2, ::2, ::2]
        half = float(np.sum(sub[mask[::2, ::2, ::2]]) * 8.0 * dv)
        estimates.append(abs(full - half))
    return estimates
