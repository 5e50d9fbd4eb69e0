import numpy as np
import pytest

from hybridlab.brackets import functional_gradients
from hybridlab.grid import GridSpec, init_product_gaussian, split_step_evolve

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
