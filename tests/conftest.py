import numpy as np
import pytest

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
