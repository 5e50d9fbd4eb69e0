import tracemalloc

import numpy as np
import pytest

from hybridlab.brackets import (
    BracketResult,
    HermiticityError,
    SupportOverlapError,
    classical_functional,
    continuity_rate_field,
    ensemble_hamiltonian_value,
    factorization_probe,
    functional_gradients,
    hybrid_bracket,
    hybrid_brackets,
    quantum_functional,
    separability_probe,
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
    classical,
    classical_poisson,
    parse_observable,
    quantum,
    quantum_commutator_over_ihbar,
)

from conftest import BENCH_BRACKET_PAIRS, BENCH_COUPLINGS


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
        for fe in self.CLASSICAL_FAMILY:
            for ge in self.CLASSICAL_FAMILY:
                f, g = classical(fe), classical(ge)
                result = hybrid_bracket(ens, f, g)
                target = classical_functional(ens, classical_poisson(f, g))
                tol = max(1e-6, 10.0 * result.quadrature_error_estimate)
                assert abs(result.value - target) < tol, (fe, ge)

    def test_quantum_family(self, smooth_state):
        ens = to_ensemble(smooth_state, epsilon=1e-10)
        dv = smooth_state.spec.cell_volume
        for me in self.QUANTUM_FAMILY:
            for ne in self.QUANTUM_FAMILY:
                m, n = quantum(me), quantum(ne)
                result = hybrid_bracket(ens, m, n)
                comm = quantum_commutator_over_ihbar(m, n, smooth_state)
                target = float(np.real(
                    np.sum(np.conj(smooth_state.amplitudes) * comm)) * dv)
                tol = max(1e-5, 10.0 * result.quadrature_error_estimate)
                assert abs(result.value - target) < tol, (me, ne)

    def test_antisymmetry(self, smooth_state):
        a, b = quantum("q*q"), quantum("sym(q*p)")
        ens = to_ensemble(smooth_state, epsilon=1e-10)
        ab = hybrid_bracket(ens, a, b)
        ba = hybrid_bracket(ens, b, a)
        assert ab.value == pytest.approx(-ba.value, abs=1e-10)


class TestSeparabilityProbe:
    def test_product_state_is_local(self, smooth_state):
        result = separability_probe(to_ensemble(smooth_state, 1e-10),
                                    quantum("sym(p'*p')"), classical("u*u"))
        assert abs(result.value) <= max(
            1e-8, 10.0 * result.quadrature_error_estimate)

    def test_evolved_state_is_nonlocal(self, evolved_grid_state):
        result = separability_probe(to_ensemble(evolved_grid_state),
                                    quantum("sym(p'*p')"), classical("u*u"))
        assert abs(result.value) > 10.0 * result.quadrature_error_estimate
        assert abs(result.value) > 0.1

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
    def test_bracket_result_validation(self):
        with pytest.raises(ValueError):
            BracketResult(float("inf"), 0.0)
        with pytest.raises(ValueError):
            BracketResult(0.0, -1.0)

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
    assert hybrid_brackets(to_ensemble(evolved_grid_state), specs) == single
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
