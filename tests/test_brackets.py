import math
import tracemalloc

import numpy as np
import pytest

from hybridlab.brackets import (
    _NORMAL_MOMENTS,
    _PureGaussian,
    GaussianBracketError,
    HermiticityError,
    SupportOverlapError,
    classical_functional,
    continuity_rate_field,
    ensemble_hamiltonian_value,
    factorization_probe,
    functional_gradients,
    gaussian_brackets,
    hybrid_bracket,
    hybrid_brackets,
    quantum_functional,
    separability_probe,
)
from hybridlab.cli import main as cli_main
from hybridlab.gaussian import (
    HamiltonianVariant,
    PhaseSpaceState,
    QuadraticHamiltonian,
    evolve_gaussian,
    product_state,
)
from hybridlab.grid import (
    GridSpec,
    GridState,
    grid_moments,
    init_product_gaussian,
    split_step_evolve,
    to_ensemble,
)
from hybridlab.observables import (
    MAX_FACTORS_PER_MODE,
    classical,
    classical_value,
    parse_observable,
    quantum,
)

from hybridlab.scenario import parse_config

from conftest import (BENCH_BRACKET_PAIRS, BENCH_CHIRPS, BENCH_COUPLINGS,
                      BENCH_MEANS, BENCH_TILTS, BENCH_TIME, BENCH_WIDTHS,
                      classical_poisson, half_resolution_estimates,
                      quantum_commutator_over_ihbar, vacuum_state)


@pytest.fixture(scope="module")
def smooth_state():
    """Well-resolved product state for variational derivative checks."""
    spec = GridSpec((32, 32, 32), (8.0, 8.0, 8.0))
    return init_product_gaussian(spec, means=(0.3, 0.0, -0.2),
                                 widths=(1.0, 1.0, 1.0),
                                 tilts=(0.2, 0.0, 0.3),
                                 chirps=(0.0, 0.1, 0.2))


def rebuild(state, density, phase):
    psi = np.sqrt(density) * np.exp(1j * phase / state.spec.hbar)
    return GridState(state.spec, psi)


def density_and_phase(state):
    return np.abs(state.amplitudes) ** 2, \
        state.spec.hbar * np.angle(state.amplitudes)


def smooth_bump(spec):
    fields = [np.exp(-(spec.coordinate_field(i) - 0.4 * i) ** 2 / 2.0)
              for i in range(3)]
    return fields[0] * fields[1] * fields[2]


class TestFunctionalValues:
    def test_classical_moments(self, smooth_state):
        ens = to_ensemble(smooth_state, epsilon=1e-10)
        means, cov = grid_moments(smooth_state)
        assert classical_functional(ens, classical("x")) \
            == pytest.approx(means[4], abs=1e-8)
        # <u> equals <k>: the phase gradient carries the mean momentum
        assert classical_functional(ens, classical("u")) \
            == pytest.approx(means[5], abs=1e-6)
        val = classical_functional(ens, classical("x*x"))
        assert val == pytest.approx(cov[4, 4] + means[4] ** 2, abs=1e-5)

    def test_quantum_matches_grid_moments(self, smooth_state):
        means, cov = grid_moments(smooth_state)
        assert quantum_functional(smooth_state, quantum("q")) \
            == pytest.approx(means[0], abs=1e-12)
        assert quantum_functional(smooth_state, quantum("sym(q*p)")) \
            == pytest.approx(cov[0, 1] + means[0] * means[1], abs=1e-10)

    def test_kind_mismatch_rejected(self, smooth_state):
        ens = to_ensemble(smooth_state)
        with pytest.raises(TypeError):
            classical_functional(ens, quantum("q"))
        with pytest.raises(TypeError):
            quantum_functional(smooth_state, classical("x"))


class TestFunctionalGradients:
    """Directional finite-difference checks of the variational derivatives."""

    STEP = 1e-5

    def directional_p(self, state, obs, functional):
        density, phase = density_and_phase(state)
        # scale by the density so the perturbed P stays positive everywhere
        delta = density * smooth_bump(state.spec) \
            * state.spec.coordinate_field(2)
        grad = functional_gradients(to_ensemble(state, epsilon=1e-10), obs)
        plus = functional(rebuild(state, density + self.STEP * delta, phase))
        minus = functional(rebuild(state, density - self.STEP * delta, phase))
        fd = (plus - minus) / (2.0 * self.STEP)
        analytic = float(np.sum(grad.d_dP * delta) * state.spec.cell_volume)
        return fd, analytic

    def directional_s(self, state, obs, functional):
        density, phase = density_and_phase(state)
        delta = smooth_bump(state.spec)
        grad = functional_gradients(to_ensemble(state, epsilon=1e-10), obs)
        plus = functional(rebuild(state, density, phase + self.STEP * delta))
        minus = functional(rebuild(state, density, phase - self.STEP * delta))
        fd = (plus - minus) / (2.0 * self.STEP)
        analytic = float(np.sum(grad.d_dS * delta) * state.spec.cell_volume)
        return fd, analytic

    @pytest.mark.parametrize("expr", ["x", "u", "x*u", "u*u"])
    def test_classical_gradients(self, smooth_state, expr):
        obs = classical(expr)

        def functional(st):
            return classical_functional(to_ensemble(st, epsilon=1e-10), obs)

        fd, analytic = self.directional_p(smooth_state, obs, functional)
        assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-9)
        fd, analytic = self.directional_s(smooth_state, obs, functional)
        assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-9)

    @pytest.mark.parametrize("expr", ["q", "sym(q*p)", "x*x", "sym(q'*k)"])
    def test_quantum_gradients(self, smooth_state, expr):
        obs = quantum(expr)

        def functional(st):
            return quantum_functional(st, obs, imag_tol=1e-6)

        fd, analytic = self.directional_p(smooth_state, obs, functional)
        assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-9)
        fd, analytic = self.directional_s(smooth_state, obs, functional)
        assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestSectorIsomorphism:
    """The bracket restricted to one sector reproduces that sector's algebra."""

    CLASSICAL_FAMILY = ["x", "u", "x*u", "x*x", "u*u"]
    QUANTUM_FAMILY = ["q", "p", "sym(q*p)", "q*q", "p*p"]

    def test_classical_family(self, smooth_state):
        ens = to_ensemble(smooth_state, epsilon=1e-10)
        pairs = [(classical(fe), classical(ge))
                 for fe in self.CLASSICAL_FAMILY
                 for ge in self.CLASSICAL_FAMILY]
        values = hybrid_brackets(ens, pairs)
        estimates = half_resolution_estimates(ens, pairs, values)
        for (f, g), value, est in zip(pairs, values, estimates):
            target = classical_functional(ens, classical_poisson(f, g))
            assert abs(value - target) < max(1e-6, 10.0 * est), (f, g)

    def test_quantum_family(self, smooth_state):
        ens = to_ensemble(smooth_state, epsilon=1e-10)
        dv = smooth_state.spec.cell_volume
        pairs = [(quantum(me), quantum(ne))
                 for me in self.QUANTUM_FAMILY for ne in self.QUANTUM_FAMILY]
        values = hybrid_brackets(ens, pairs)
        estimates = half_resolution_estimates(ens, pairs, values)
        for (m, n), value, est in zip(pairs, values, estimates):
            comm = quantum_commutator_over_ihbar(m, n, smooth_state)
            target = float(np.real(
                np.sum(np.conj(smooth_state.amplitudes) * comm)) * dv)
            assert abs(value - target) < max(1e-5, 10.0 * est), (m, n)

    def test_antisymmetry(self, smooth_state):
        a, b = quantum("q*q"), quantum("sym(q*p)")
        ens = to_ensemble(smooth_state, epsilon=1e-10)
        ab = hybrid_bracket(ens, a, b)
        ba = hybrid_bracket(ens, b, a)
        assert ab == pytest.approx(-ba, abs=1e-10)


class TestSeparabilityProbe:
    PAIR = (quantum("sym(p'*p')"), classical("u*u"))

    def test_product_state_is_local(self, smooth_state):
        ens = to_ensemble(smooth_state, 1e-10)
        value = separability_probe(ens, *self.PAIR)
        [est] = half_resolution_estimates(ens, [self.PAIR], [value])
        assert abs(value) <= max(1e-8, 10.0 * est)

    def test_evolved_state_is_nonlocal(self, evolved_grid_state):
        ens = to_ensemble(evolved_grid_state)
        value = separability_probe(ens, *self.PAIR)
        [est] = half_resolution_estimates(ens, [self.PAIR], [value])
        assert abs(value) > 10.0 * est
        assert abs(value) > 0.1

    def test_mediator_support_rejected(self, smooth_state):
        with pytest.raises(SupportOverlapError):
            separability_probe(to_ensemble(smooth_state), quantum("x"),
                               classical("u"))

    def test_two_probe_support_rejected(self, smooth_state):
        with pytest.raises(SupportOverlapError):
            separability_probe(to_ensemble(smooth_state),
                               quantum("sym(q*p')"), classical("u"))


class TestHamiltonianConsistency:
    def test_ensemble_value_matches_quantum_expectation(self, smooth_state):
        g1, g2 = 0.8, -0.5
        ens = to_ensemble(smooth_state, epsilon=1e-10)
        via_ensemble = ensemble_hamiltonian_value(ens, g1, g2)
        h = quantum(f"{g1}*sym(p*x) + {g2}*sym(q'*k)")
        via_quantum = quantum_functional(smooth_state, h)
        assert abs(via_quantum) > 1e-3
        assert via_ensemble == pytest.approx(via_quantum, abs=1e-6)


class TestContinuityEquation:
    def rate_residual(self, state, g1, g2, dt):
        stepped = split_step_evolve(state, g1, g2, dt, 1)
        p0 = np.abs(state.amplitudes) ** 2
        p1 = np.abs(stepped.amplitudes) ** 2
        fd = (p1 - p0) / dt
        half = split_step_evolve(state, g1, g2, 0.5 * dt, 1)
        rate = continuity_rate_field(half, g1, g2)
        return np.abs(fd - rate).max()

    def test_density_rate_matches_functional_derivative(self,
                                                        product_grid_state):
        g1, g2 = BENCH_COUPLINGS
        r1 = self.rate_residual(product_grid_state, g1, g2, 0.04)
        r2 = self.rate_residual(product_grid_state, g1, g2, 0.02)
        r3 = self.rate_residual(product_grid_state, g1, g2, 0.01)
        assert r1 < 1e-3
        # centered difference about the midpoint state converges as dt^2
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)
        assert r2 / r3 == pytest.approx(4.0, rel=0.2)


class TestFactorization:
    def test_product_state_factorizes(self, smooth_state):
        e_m, e_mp, e_joint = factorization_probe(
            smooth_state, quantum("q"), quantum("p'"))
        assert e_joint == pytest.approx(e_m * e_mp, abs=1e-10)

    def test_evolved_state_does_not_factorize(self, evolved_grid_state):
        e_m, e_mp, e_joint = factorization_probe(
            evolved_grid_state, quantum("q"), quantum("p'"))
        assert abs(e_joint - e_m * e_mp) > 0.01

    def test_overlapping_support_rejected(self, smooth_state):
        with pytest.raises(SupportOverlapError):
            factorization_probe(smooth_state, quantum("q"), quantum("q*p"))


class TestGuards:
    def test_hermiticity_guard(self, smooth_state):
        with pytest.raises(HermiticityError):
            quantum_functional(smooth_state, quantum("sym(q*p)"),
                               imag_tol=1e-30)


def test_classical_gradient_flux_form(smooth_state):
    # dA/dS for f = u is -dP/dx, checked against the exact product form
    ens = to_ensemble(smooth_state, epsilon=1e-10)
    grad = functional_gradients(ens, classical("u"))
    spec = smooth_state.spec
    from hybridlab.grid import _spectral_derivative
    expected = -np.real(_spectral_derivative(ens.density.astype(complex),
                                             spec, 2))
    expected = np.where(ens.support_mask, expected, 0.0)
    np.testing.assert_allclose(grad.d_dS, expected, atol=1e-10)


def test_pairs_share_one_ensemble(evolved_grid_state):
    # u = dS/dx, cached by the first classical pair, serves the later
    # pairs unchanged: each bracket equals its value on a fresh ensemble
    pairs = [(classical("x*x"), classical("u*u")),
             (quantum("sym(p'*p')"), classical("u*u")),
             (quantum("sym(q*p'*x)"), quantum("sym(p*k)"))]
    shared = to_ensemble(evolved_grid_state)
    for a, b in pairs:
        fresh = hybrid_bracket(to_ensemble(evolved_grid_state), a, b)
        assert hybrid_bracket(shared, a, b) == fresh


def test_cubic_bracket_memory_peak(product_grid_state):
    # traced allocations of one ensemble and one cubic quantum bracket at
    # 64^3.  The bound is their peak when apply_quantum ran all n! orders
    # and the gradients were masked into copies: 23587636 bytes, 5.62
    # complex fields.  Per-mode orders and in-place masking peak at 4.65.
    a, b = quantum("sym(q*p'*x)"), quantum("sym(p*k)")
    tracemalloc.start()
    try:
        hybrid_bracket(to_ensemble(product_grid_state), a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 23587636


def parse_pairs(pairs):
    return [tuple(parse_observable(s) for s in p.split("|")) for p in pairs]


@pytest.mark.parametrize("pairs", [
    BENCH_BRACKET_PAIRS,
    ("Q[ sym(q*p) ]|Q[ sym(q*p) ]",),
    ("Q[ sym(q*p) ]|C[ u*u ]", "Q[ q*q ]|Q[ sym(q*p) ]",
     "C[ x ]|C[ u ]", "Q[ sym(q*p) ]|C[ x ]"),
], ids=["benchmark", "same_spec_both_sides", "one_spec_in_three_pairs"])
def test_batched_brackets_equal_per_pair(evolved_grid_state, monkeypatch,
                                         pairs):
    # each distinct observable's gradients are built once and serve every
    # pair that uses it, with each bracket as computed on its own
    specs = parse_pairs(pairs)
    single = [hybrid_bracket(to_ensemble(evolved_grid_state), a, b)
              for a, b in specs]
    built = []

    def counted(ens, obs):
        built.append(obs)
        return functional_gradients(ens, obs)

    monkeypatch.setattr("hybridlab.brackets.functional_gradients", counted)
    batched = hybrid_brackets(to_ensemble(evolved_grid_state), specs)
    assert batched == single and all(type(v) is float for v in batched)
    assert sorted(map(str, built)) \
        == sorted({str(obs) for pair in specs for obs in pair})


@pytest.mark.parametrize("expr", ["x*x", "2"])
def test_u_free_classical_gradient_skips_transform(smooth_state, fft_calls,
                                                   expr):
    # df/du = 0, so dA/dS is zero without transforming a zero flux
    ens = to_ensemble(smooth_state)
    ens.phase_gradient(2)
    fft_calls.clear()
    grad = functional_gradients(ens, classical(expr))
    assert fft_calls == []
    assert grad.d_dS.shape == ens.density.shape and not grad.d_dS.any()


@pytest.mark.parametrize("expr", ["x*x", "2"])
def test_u_free_classical_observable_reads_no_u(smooth_state, fft_calls, expr):
    # f without u never reads u = dS/dx, so a fresh ensemble builds none
    obs = classical(expr)
    ens = to_ensemble(smooth_state)
    fft_calls.clear()
    grad = functional_gradients(ens, obs)
    value = classical_functional(ens, obs)
    assert fft_calls == []
    # the values are those computed with the u field at hand
    x = np.broadcast_to(ens.spec.coordinate_field(2), ens.density.shape)
    want = classical_value(obs, x, ens.phase_gradient(2))
    mask = ens.support_mask
    assert value == float(np.sum(ens.density[mask] * want[mask])
                          * ens.spec.cell_volume)
    want[~mask] = 0.0
    assert np.array_equal(grad.d_dP, want)


def test_benchmark_pairs_memory_peak(product_grid_state):
    # traced allocations of one ensemble and the benchmark's four pairs at
    # 64^3.  One pair at a time, as run_scenario called them before the
    # pairs shared gradients, they peaked at 21621140 bytes.  A gradient
    # or integrand kept past its last use would add a 2 MiB field; the
    # 4 KiB allowance is for the batched call's dict and results.
    pairs = parse_pairs(BENCH_BRACKET_PAIRS)
    tracemalloc.start()
    try:
        hybrid_brackets(to_ensemble(product_grid_state), pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 21621140 + 4096


# ---------------------------------------------------------------------------
# Exact brackets of pure Gaussian states
# ---------------------------------------------------------------------------

POS, MOM = [0, 2, 4], [1, 3, 5]
# the item-3 pairs: higher degree than the benchmark's
HIGH_DEGREE_PAIRS = ("Q[ sym(q*q*p*p) ]|C[ x*u*u ]",
                     "Q[ sym(p'*p'*x) ]|C[ u*u*u ]")


def random_product(rng):
    """A random pure product state: (means, widths, tilts, chirps)."""
    return (tuple(rng.uniform(-0.5, 0.5, 3)), tuple(rng.uniform(0.6, 0.9, 3)),
            tuple(rng.uniform(-0.5, 0.5, 3)), tuple(rng.uniform(-0.3, 0.3, 3)))


def evolved_gaussian(params, g1, g2, t, hbar=1.0,
                     variant=HamiltonianVariant.EQ1):
    means, widths, tilts, chirps = params
    state = product_state(widths=widths, means=means, tilts=tilts,
                          chirps=chirps, hbar=hbar)
    return evolve_gaussian(state, QuadraticHamiltonian(g1, g2, variant), t)


def closed_forms(state):
    """The benchmark pairs' brackets from the moments (q, p, q', p', x, k).

    {Q[p'^2], C[u^2]} = -hbar^2 (Sigma^-1)_{q'x} (Sigma^-1 C)_{q'x}; the
    others are Wigner averages of Poisson brackets: {x^2, u^2} = 4 x u,
    {q^2, qp} = 2 q^2 and {q p' x, p k} = p' x k + q p' p.
    """
    m, v, hbar = state.means, state.covariance, state.hbar

    def third(i, j, k):
        return (m[i] * m[j] * m[k] + m[i] * v[j, k] + m[j] * v[i, k]
                + m[k] * v[i, j])

    sigma_inv = np.linalg.inv(v[np.ix_(POS, POS)])
    b = sigma_inv @ v[np.ix_(POS, MOM)]
    return [-hbar * hbar * sigma_inv[1, 2] * b[1, 2],
            4.0 * (v[4, 5] + m[4] * m[5]),
            2.0 * (v[0, 0] + m[0] * m[0]),
            third(3, 4, 5) + third(0, 3, 1)]


def gaussian_average(spec, mean, cov, order=12):
    """E[f(a, b)] of a classical spec f(x, u) over a bivariate normal,
    by Gauss-Hermite quadrature (exact for degree < 2 order)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    z0, z1 = np.meshgrid(nodes, nodes, indexing="ij")
    low = np.linalg.cholesky(cov)
    a = mean[0] + low[0, 0] * z0
    b = mean[1] + low[1, 0] * z0 + low[1, 1] * z1
    w = np.outer(weights, weights) / (2.0 * np.pi)
    return float(np.sum(w * classical_value(spec, a, b)))


# the Q(q, p) family written as classical polynomials in (x, u) = (q, p),
# so that classical_poisson gives their Poisson brackets
AS_CLASSICAL = {"q": "x", "p": "u", "sym(q*p)": "x*u", "q*q": "x*x",
                "p*p": "u*u"}


@pytest.fixture(scope="module")
def random_gaussians():
    rng = np.random.default_rng(12)
    states = []
    for hbar in (1.0, 0.7):
        for _ in range(3):
            params = random_product(rng)
            g1, g2 = rng.uniform(-1.5, 1.5, 2)
            states.append(evolved_gaussian(params, g1, g2,
                                           rng.uniform(0.0, 2.0), hbar))
    return states


class TestGaussianBrackets:
    def test_benchmark_pairs_match_closed_forms(self, random_gaussians):
        pairs = parse_pairs(BENCH_BRACKET_PAIRS)
        for state in random_gaussians:
            exact = gaussian_brackets(state, pairs)
            assert all(type(v) is float for v in exact)
            assert exact == pytest.approx(closed_forms(state), rel=1e-11,
                                          abs=1e-12)

    def test_classical_sector_is_poisson(self, random_gaussians):
        family = TestSectorIsomorphism.CLASSICAL_FAMILY
        pairs = [(classical(f), classical(g)) for f in family for g in family]
        for state in random_gaussians:
            m, v = state.means, state.covariance
            # (x, u) is jointly normal under P: u = k + (Sigma^-1 C delta)_x
            b = np.linalg.solve(v[np.ix_(POS, POS)], v[np.ix_(POS, MOM)])
            var_u = (v[np.ix_(POS, POS)] @ b)[:, 2] @ b[:, 2]
            cov = np.array([[v[4, 4], v[4, 5]], [v[4, 5], var_u]])
            for (f, g), value in zip(pairs, gaussian_brackets(state, pairs)):
                target = gaussian_average(classical_poisson(f, g),
                                          m[4:6], cov)
                assert value == pytest.approx(target, rel=1e-11,
                                              abs=1e-12), (f, g)

    def test_quantum_sector_is_commutator(self, random_gaussians):
        # the family is at most quadratic, so <[A, B]>/(i hbar) is the
        # Wigner average of the Poisson bracket of the Weyl symbols
        family = TestSectorIsomorphism.QUANTUM_FAMILY
        names = [(a, b) for a in family for b in family]
        pairs = [(quantum(a), quantum(b)) for a, b in names]
        for state in random_gaussians:
            values = gaussian_brackets(state, pairs)
            for (a, b), value in zip(names, values):
                bracket = classical_poisson(classical(AS_CLASSICAL[a]),
                                            classical(AS_CLASSICAL[b]))
                target = gaussian_average(bracket, state.means[0:2],
                                          state.covariance[0:2, 0:2])
                assert value == pytest.approx(target, rel=1e-11,
                                              abs=1e-12), (a, b)

    def test_grid_agreement_on_resolved_states(self, bench_spec,
                                               evolved_grid_state):
        # 64^3 resolves these states up to t = 1: the grid brackets agree
        # with the closed form to its band-limit floor
        pairs = parse_pairs(BENCH_BRACKET_PAIRS + HIGH_DEGREE_PAIRS)
        rng = np.random.default_rng(5)
        cases = [((BENCH_MEANS, BENCH_WIDTHS, BENCH_TILTS, BENCH_CHIRPS),
                  *BENCH_COUPLINGS, BENCH_TIME, evolved_grid_state)]
        for t in (0.5, 1.0):
            params = random_product(rng)
            g1, g2 = rng.uniform(-1.0, 1.0, 2)
            means, widths, tilts, chirps = params
            grid = init_product_gaussian(bench_spec, means=means,
                                         widths=widths, tilts=tilts,
                                         chirps=chirps)
            grid = split_step_evolve(grid, g1, g2, t / 8, 8)
            cases.append((params, g1, g2, t, grid))
        for params, g1, g2, t, grid in cases:
            exact = gaussian_brackets(evolved_gaussian(params, g1, g2, t),
                                      pairs)
            on_grid = hybrid_brackets(to_ensemble(grid), pairs)
            assert on_grid == pytest.approx(exact, rel=1e-5, abs=1e-5)

    def test_mixed_covariance_refused(self):
        state = evolved_gaussian(random_product(np.random.default_rng(3)),
                                 1.0, 1.0, 1.0)
        cov = state.covariance.copy()
        cov[4:6, 4:6] *= 1.01          # a slightly thermal mediator
        mixed = PhaseSpaceState(state.means, cov, state.hbar)
        mixed.require_physical()
        with pytest.raises(ValueError, match="mixed"):
            gaussian_brackets(mixed, parse_pairs(("C[ x ]|C[ u ]",)))

    def test_ill_conditioned_covariance_refused(self):
        # at g1 = 1e8 the position covariance is singular to double
        # precision: the brackets would lose every digit
        state = evolved_gaussian(random_product(np.random.default_rng(3)),
                                 1e8, 1.0, 0.5)
        with pytest.raises(GaussianBracketError, match="ill-conditioned"):
            gaussian_brackets(state, parse_pairs(("Q[ q*q ]|Q[ sym(q*p) ]",)))

    def test_no_pairs_no_checks(self):
        assert gaussian_brackets(vacuum_state(), []) == []

    def test_zero_mean_overflowing_pair_gives_zero(self, tmp_path):
        # {q^2, p} = 2 q: each term is 1e400 <q> = 0 while q has zero
        # mean.  The full sum over monomial pairs also added 1e400 times
        # odd moments 0, which is nan, and the run exited 3
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("total_time = 1\ndt = 0.25\nsample_every = 1\n"
                       "c_xk = 0.2\ndiagnostics = \n"
                       "bracket_pairs = Q[ 1e200*q*q ]|Q[ 1e200*p ]\n")
        out = tmp_path / "zero.csv"
        assert cli_main(["brackets", "--config", str(cfg),
                         "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 5
        assert all(value == "0" for _, value in rows)

    def test_heff_brackets_run_exits_0(self, tmp_path):
        # the grid supports only EQ1, but exact brackets need no grid
        cfg = tmp_path / "heff.cfg"
        cfg.write_text("variant = PAPER_HEFF\ntotal_time = 1\ndt = 0.25\n"
                       "sample_every = 1\nq_mean = 0.3\nc_xk = 0.2\n"
                       "diagnostics = \n"
                       "bracket_pairs = Q[ q*q ]|Q[ sym(q*p) ]\n")
        out = tmp_path / "heff.csv"
        assert cli_main(["brackets", "--config", str(cfg),
                         "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "t,bracket_0"
        config = parse_config(cfg.read_text())
        for line in lines[1:]:
            t, value = map(float, line.split(","))
            state = evolve_gaussian(config.initial_gaussian(),
                                    config.hamiltonian(), t)
            q2 = state.covariance[0, 0] + state.means[0] ** 2
            assert value == pytest.approx(2.0 * q2, rel=1e-12)


# ---------------------------------------------------------------------------
# Pruned moment sums against the full double loop
# ---------------------------------------------------------------------------

def normal_moment(n):
    """E[z^n] of a standard normal z: (n - 1)!! for even n, else 0."""
    return 0 if n % 2 else math.prod(range(n - 1, 0, -2))


def full_expect_product(self, a, b):
    """E_P[a b] summed over every pair of monomials, odd moments
    included: the oracle for `_PureGaussian.expect_product`, which skips
    the pairs whose moment is zero."""
    total = 0.0
    for (a0, a1, a2), ca in a.items():
        for (b0, b1, b2), cb in b.items():
            total += ca * cb * (normal_moment(a0 + b0)
                                * normal_moment(a1 + b1)
                                * normal_moment(a2 + b2))
    return total


def full_brackets(state, pairs):
    """gaussian_brackets with every monomial pair summed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_PureGaussian, "expect_product", full_expect_product)
        return gaussian_brackets(state, pairs)


README_PAIR = "Q[ sym(p'*p') ]|C[ u*u ]"
# at most MAX_FACTORS_PER_MODE factors on each mode
CAP_PAIRS = ("C[ x*x*x*x*u*u*u*u ]|C[ u*u*u*u*u*u*u*u ]",
             "Q[ sym(q*q*q*q*p*p*p*p) ]|C[ x*x*x*x*x*x*x*x ]",
             "Q[ sym(q*p*q*q'*p'*q'*x*k*x) ]|Q[ sym(p*p*p'*k) ]")


def oracle_states():
    """Displaced, tilted and chirped states, evolved under both
    variants and at three values of hbar."""
    rng = np.random.default_rng(21)
    states = [product_state(widths=(0.8, 0.7, 0.9), means=(0.3, -0.2, 0.1),
                            tilts=(0.1, 0.2, -0.3), chirps=(0.0, 0.1, 0.2))]
    for hbar, variant in ((1.0, HamiltonianVariant.EQ1),
                          (2.0, HamiltonianVariant.EQ1),
                          (0.7, HamiltonianVariant.PAPER_HEFF),
                          (2.0, HamiltonianVariant.PAPER_HEFF)):
        g1, g2 = rng.uniform(-1.5, 1.5, 2)
        states.append(evolved_gaussian(random_product(rng), g1, g2,
                                       rng.uniform(0.5, 2.0), hbar, variant))
    return states


@pytest.mark.parametrize("pairs", [
    BENCH_BRACKET_PAIRS + (README_PAIR,) + HIGH_DEGREE_PAIRS, CAP_PAIRS],
    ids=["benchmark_readme_high_degree", "factor_caps"])
def test_pruned_brackets_equal_full_sum(pairs):
    # skipped terms are finite times 0, and the kept ones are added in
    # the full loop's order: every bracket is the same double
    pairs = parse_pairs(pairs)
    for state in oracle_states():
        pruned = gaussian_brackets(state, pairs)
        assert pruned == full_brackets(state, pairs)
        assert all(math.isfinite(v) for v in pruned)


def test_moment_table_covers_the_factor_caps():
    # a capped quantum monomial has degree at most 3 MAX_FACTORS_PER_MODE
    # in z, and a bracket multiplies two of them
    assert len(_NORMAL_MOMENTS) == 2 * 3 * MAX_FACTORS_PER_MODE + 1
    assert list(_NORMAL_MOMENTS) == [normal_moment(n)
                                     for n in range(len(_NORMAL_MOMENTS))]
    n = MAX_FACTORS_PER_MODE
    spec = quantum("*".join(["q"] * n + ["q'"] * n + ["x"] * n))
    state = oracle_states()[1]
    d_dp, _ = _PureGaussian(state.means, state.covariance, state.hbar).gradients(spec)
    assert max(max(e) for e in d_dp) == 3 * n
    # the bracket of two functions of position vanishes
    assert gaussian_brackets(state, [(spec, spec)]) == [0.0]
