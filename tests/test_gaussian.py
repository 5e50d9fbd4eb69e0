from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from hybridlab.gaussian import (
    OMEGA,
    DegenerateDesignError,
    HamiltonianVariant,
    NonSymplecticError,
    PhaseSpaceState,
    PhysicalityError,
    QuadraticHamiltonian,
    evolve_gaussian,
    logarithmic_negativity,
    mediator_moment_inversion,
    mode_covariance,
    probe_moments,
    product_state,
    symplectic_propagator,
    witness_expectation,
    _balanced,
    _symplectic_eigenvalues,
)

from conftest import (entangling_time_scan, stack, two_mode_squeezed_state,
                      vacuum_state)
from fock_oracle import tmsv_log_negativity, evolved_probe_log_negativity


def expm_oracle(g1, g2, t, variant=HamiltonianVariant.EQ1):
    return expm(OMEGA @ QuadraticHamiltonian(g1, g2, variant).gmatrix * t)


each_variant = pytest.mark.parametrize("variant", list(HamiltonianVariant),
                                       ids=lambda v: v.value)


class TestBuildHamiltonian:
    def test_zero_couplings(self):
        assert np.all(QuadraticHamiltonian(0.0, 0.0).gmatrix == 0.0)

    def test_single_term(self):
        g = QuadraticHamiltonian(1.0, 0.0).gmatrix
        expected = np.zeros((6, 6))
        expected[1, 4] = expected[4, 1] = 1.0
        np.testing.assert_array_equal(g, expected)

    def test_pairwise_coupling_entries(self):
        g = QuadraticHamiltonian(1.0, 1.0).gmatrix
        nonzero = set(zip(*np.nonzero(g)))
        assert nonzero == {(1, 4), (4, 1), (2, 5), (5, 2)}

    def test_heff_variant_couples_q(self):
        g = QuadraticHamiltonian(1.0, 1.0, HamiltonianVariant.PAPER_HEFF).gmatrix
        nonzero = set(zip(*np.nonzero(g)))
        assert nonzero == {(1, 4), (4, 1), (0, 5), (5, 0)}

    def test_gmatrix_is_derived_from_the_couplings(self):
        h = replace(QuadraticHamiltonian(1.0, 1.0), g2=-1.5,
                    variant=HamiltonianVariant.PAPER_HEFF)
        assert h.gmatrix[0, 5] == h.gmatrix[5, 0] == -1.5
        assert h.gmatrix[2, 5] == 0.0
        with pytest.raises(AttributeError):
            h.gmatrix = np.eye(6)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            QuadraticHamiltonian(1.0, 1.0, "EQ1")

    @each_variant
    def test_generator_cube_identity(self, variant):
        # M^3 = lam M, lam = 0 (EQ1) or g1 g2 (PAPER_HEFF): the identity the
        # closed-form propagator rests on.
        rng = np.random.default_rng(11)
        for _ in range(20):
            g1, g2 = rng.uniform(-2.0, 2.0, 2)
            m = OMEGA @ QuadraticHamiltonian(g1, g2, variant).gmatrix
            lam = g1 * g2 if variant is HamiltonianVariant.PAPER_HEFF else 0.0
            np.testing.assert_allclose(m @ m @ m, lam * m, atol=1e-14)


class TestSymplecticPropagator:
    def test_zero_time_is_identity(self):
        s = symplectic_propagator(QuadraticHamiltonian(1.0, 1.0), 0.0)
        np.testing.assert_allclose(s, np.eye(6), atol=1e-15)

    def test_single_coupling_shear(self):
        s = symplectic_propagator(QuadraticHamiltonian(1.0, 0.0), 2.0)
        np.testing.assert_allclose(s, expm_oracle(1.0, 0.0, 2.0), atol=1e-13)
        off = s - np.eye(6)
        nonzero = set(zip(*np.nonzero(np.abs(off) > 1e-14)))
        assert nonzero == {(0, 4), (5, 1)}
        assert off[0, 4] == pytest.approx(2.0)
        assert off[5, 1] == pytest.approx(-2.0)

    def test_closed_form_matches_expm(self):
        s = symplectic_propagator(QuadraticHamiltonian(1.0, 1.0), 1.0)
        np.testing.assert_allclose(s, expm_oracle(1.0, 1.0, 1.0), atol=1e-13)
        assert s[0, 2] == pytest.approx(0.5)
        assert s[3, 1] == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_symplectic_and_unit_determinant(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            g1, g2, t = rng.uniform(-2.0, 2.0, 3)
            s = symplectic_propagator(QuadraticHamiltonian(g1, g2), t)
            assert np.abs(s.T @ OMEGA @ s - OMEGA).max() < 1e-10
            assert abs(np.linalg.det(s) - 1.0) < 1e-10

    @each_variant
    def test_random_draws_against_expm(self, variant):
        # expm's own error on these draws is about 1.4e-13 of max|S|
        rng = np.random.default_rng(2024)
        for g1, g2, t in rng.uniform(-2.0, 2.0, (250, 3)):
            s = symplectic_propagator(QuadraticHamiltonian(g1, g2, variant), t)
            oracle = expm_oracle(g1, g2, t, variant)
            assert np.abs(s - oracle).max() <= 1e-12 * np.abs(s).max()

    @each_variant
    @pytest.mark.parametrize("g1,g2,t", [
        (1.3, 0.0, 1.7),        # g1 g2 = 0
        (0.0, -1.1, -0.9),
        (1.5, -1.2, 1.9),       # g1 g2 < 0: oscillating for PAPER_HEFF
        (-0.7, 1.8, 2.0),
        (1.5, 1.2, 1.9),        # g1 g2 > 0: growing for PAPER_HEFF
        (1e-9, 1e-9, 1.5),      # |g1 g2| <= 1e-18
        (1e-9, -1e-9, -1.5),
        (1e-300, 1e-300, 2.0),  # g1 g2 underflows to 0
    ])
    def test_edge_couplings_against_expm(self, variant, g1, g2, t):
        s = symplectic_propagator(QuadraticHamiltonian(g1, g2, variant), t)
        oracle = expm_oracle(g1, g2, t, variant)
        assert np.abs(s - oracle).max() <= 1e-12 * np.abs(s).max()


    @each_variant
    @pytest.mark.filterwarnings("error")
    def test_nan_propagator_fails_the_check(self, variant):
        # M @ M overflows and 0 * inf makes S NaN at t = 0: the test
        # |deviation| > 1e-10 passed it, with two RuntimeWarnings
        h = QuadraticHamiltonian(1e160, 1e160, variant)
        with pytest.raises(OverflowError,
                           match=r"^the propagator overflows at t = 0$"):
            symplectic_propagator(h, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("g2,t,shown", [
        (1e154, 0.25, "0.25"),      # sinh(sqrt(g1 g2) t) overflows
        # g1 g2 t^2 overflows to -inf, and sin(inf) is a ValueError
        (-1e300, 1e5, "100000")])
    def test_overflowing_heff_coefficients_name_the_time(self, g2, t, shown):
        h = QuadraticHamiltonian(1.0, g2, HamiltonianVariant.PAPER_HEFF)
        with pytest.raises(OverflowError,
                           match=f"^the propagator overflows at t = {shown}$"):
            symplectic_propagator(h, np.array([0.0, t, 2 * t]))

    def test_rounding_error_is_not_an_overflow(self):
        # a finite deviation above 1e-10 keeps its own error
        h = QuadraticHamiltonian(1.0, 1e150)
        with pytest.raises(NonSymplecticError, match="not symplectic to 1e-10"):
            symplectic_propagator(h, np.array([0.0, 3 / 64]))


class TestEvolveGaussian:
    @pytest.mark.filterwarnings("error")
    def test_overflow_names_the_first_time(self):
        # the symmetric part of V(2) overflows, while V(0) and V(1) fit
        cov = 0.5 * np.eye(6)
        cov[4, 4] = 5e307
        state = PhaseSpaceState(np.zeros(6), cov)
        with pytest.raises(OverflowError,
                           match=r"^the Gaussian moments overflow at t = 2$"):
            evolve_gaussian(state, QuadraticHamiltonian(1.0, 1.0),
                            np.array([0.0, 1.0, 2.0, 3.0]))
        with pytest.raises(OverflowError, match=r"at t = 3$"):
            evolve_gaussian(state, QuadraticHamiltonian(1.0, 1.0), 3.0)

    def test_zero_time_unchanged(self):
        st = vacuum_state()
        out = evolve_gaussian(st, QuadraticHamiltonian(1.0, 1.0), 0.0)
        np.testing.assert_allclose(out.means, st.means, atol=1e-15)
        np.testing.assert_allclose(out.covariance, st.covariance, atol=1e-14)

    def test_displaced_mean_maps_through_propagator(self):
        st = PhaseSpaceState(np.array([1.0, 0, 0, 0, 0, 0]), 0.5 * np.eye(6))
        out = evolve_gaussian(st, QuadraticHamiltonian(1.0, 1.0), 1.0)
        expected = expm_oracle(1.0, 1.0, 1.0) @ st.means
        np.testing.assert_allclose(out.means, expected, atol=1e-14)
        # q-displacement alone is conserved: only x gains g2 t q' = 0 terms
        np.testing.assert_allclose(out.means, st.means, atol=1e-14)

    def test_vacuum_cross_covariance(self):
        out = evolve_gaussian(vacuum_state(), QuadraticHamiltonian(1.0, 1.0), 1.0)
        assert out.covariance[0, 2] == pytest.approx(0.25, abs=1e-14)

    def test_physicality_preserved(self):
        rng = np.random.default_rng(3)
        st = product_state(widths=(0.4, 1.3, 0.8), chirps=(0.5, -0.2, 0.9))
        for _ in range(20):
            g1, g2, t = rng.uniform(-2.0, 2.0, 3)
            out = evolve_gaussian(st, QuadraticHamiltonian(g1, g2), t)
            m = out.covariance + 0.5j * out.hbar * OMEGA
            assert np.linalg.eigvalsh(m).min() >= -1e-10

    def test_rejects_nonphysical_input(self):
        bad = PhaseSpaceState(np.zeros(6), 0.01 * np.eye(6))
        with pytest.raises(PhysicalityError):
            evolve_gaussian(bad, QuadraticHamiltonian(1.0, 1.0), 1.0)


class TestStateInvariants:
    def test_asymmetric_covariance_rejected(self):
        cov = 0.5 * np.eye(6)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError):
            PhaseSpaceState(np.zeros(6), cov)

    @pytest.mark.parametrize("hbar", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_hbar_rejected(self, hbar):
        with pytest.raises(ValueError, match="hbar"):
            PhaseSpaceState(np.zeros(6), 0.5 * np.eye(6), hbar)

    @pytest.mark.parametrize("means,cov", [
        (np.zeros(5), np.eye(5)), (np.zeros(6), np.eye(5)),
        (np.zeros((2, 6)), np.eye(6)), (np.zeros((2, 6)), np.zeros((3, 6, 6))),
        (np.zeros((1, 2, 6)), np.zeros((1, 2, 6, 6)))])
    def test_shapes_must_be_one_state_or_a_stack(self, means, cov):
        with pytest.raises(ValueError, match="stack of n"):
            PhaseSpaceState(means, cov)

    def test_stack_names_its_first_unphysical_state(self):
        # rows 1 and 2 fail; the message gives row 1's min eig, not the least
        st = stack([vacuum_state(), PhaseSpaceState(np.zeros(6), 0.4 * np.eye(6)),
                    PhaseSpaceState(np.zeros(6), 0.3 * np.eye(6))])
        with pytest.raises(PhysicalityError, match=r"^covariance violates "
                           r"uncertainty relation \(min eig -1\.000e-01\)$"):
            st.require_physical()

    def test_one_eigen_solve_per_state_object(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        ev = evolve_gaussian(vacuum_state(), QuadraticHamiltonian(1.0, 1.0),
                             np.linspace(0.0, 2.0, 5))
        for _ in range(3):
            ev.require_physical()
            logarithmic_negativity(ev)
        assert calls == [(6, 6), (5, 6, 6)]

    def test_hbar_scaling(self):
        st = vacuum_state(hbar=2.0)
        st.require_physical()
        assert logarithmic_negativity(two_mode_squeezed_state(0.5, hbar=2.0)) \
            == pytest.approx(1.0, abs=1e-12)


class TestLogarithmicNegativity:
    def test_product_state_is_separable(self):
        st = product_state(widths=(0.4, 1.1, 0.7), chirps=(0.3, 0.0, -0.5))
        assert logarithmic_negativity(st) == 0.0

    @pytest.mark.parametrize("width", [1e150, 1e-150])
    def test_far_apart_variances(self, width):
        # variances 1e300 and 2.5e-301 (or the reverse): eigvals of the
        # unbalanced i Omega V read a zero symplectic eigenvalue, E_N = inf
        st = product_state(widths=(width, None, None))
        v = st.reduced(["Q", "Qprime"])[1]
        assert _symplectic_eigenvalues(v)[0] == 0.0
        np.testing.assert_allclose(_symplectic_eigenvalues(_balanced(v)),
                                   [0.5, 0.5], rtol=1e-15)
        assert 0.0 <= logarithmic_negativity(st) <= 1e-15

    def test_balancing_is_exact(self):
        # s is a power of two: a mode whose variances lie within a factor
        # of 4 is not scaled, and a mode scaled by hand is scaled back to
        # the same doubles
        v = two_mode_squeezed_state(0.5).reduced(["Q", "Qprime"])[1]
        assert np.array_equal(_balanced(v), v)
        w = np.array([2.0 ** -300, 2.0 ** 300, 1.0, 1.0])
        assert np.array_equal(_balanced(w[:, None] * v * w[None, :]), v)

    def test_two_mode_squeezed_equals_2r(self):
        val = logarithmic_negativity(two_mode_squeezed_state(0.5))
        assert val == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    def test_weak_squeezing_survives_the_rounding_cut(self, hbar):
        # r = 1e-8 puts one nu hbar r below hbar/2, far above the few eps
        # of rounding that the sum treats as hbar/2
        val = logarithmic_negativity(two_mode_squeezed_state(1e-8, hbar))
        assert val == pytest.approx(2e-8, rel=1e-6)

    def test_two_mode_squeezed_vs_fock_oracle(self):
        val = logarithmic_negativity(two_mode_squeezed_state(0.5))
        assert val == pytest.approx(tmsv_log_negativity(0.5, cutoff=40),
                                    abs=1e-4)

    def test_evolution_never_entangles_probes(self):
        # The generated probe-probe correlations are same-sign in q and p
        # (det of the cross block > 0), which PPT classifies as separable
        # for every product Gaussian input; the scan must come back empty.
        times = np.linspace(0.05, 2.5, 50)
        for widths in [(None, None, None), (0.5, 1.0, 0.5), (1.2, 0.45, 0.9)]:
            st = product_state(widths=widths)
            assert entangling_time_scan(st, 1.0, 1.0, times) is None

    def test_evolved_state_agrees_with_fock_oracle(self):
        st = product_state(widths=(0.5, 1.0, 0.5))
        ev = evolve_gaussian(st, QuadraticHamiltonian(1.0, 1.0), 1.5)
        gauss = logarithmic_negativity(ev)
        fock = evolved_probe_log_negativity(1.0, 1.0, 1.5,
                                            widths=(0.5, 1.0, 0.5), cutoff=14)
        assert gauss == pytest.approx(fock, abs=1e-3)

    def test_mediator_bipartition_is_entangled(self):
        # Entanglement does form across Q|C: the witnessed non-classical
        # correlations live between each probe and the mediator.
        ev = evolve_gaussian(vacuum_state(), QuadraticHamiltonian(1.0, 1.0), 1.5)
        assert logarithmic_negativity(ev, (["Q"], ["C"])) > 0.1

    def test_invariant_under_local_symplectics(self):
        ev = evolve_gaussian(product_state(widths=(0.5, 1.0, 0.5)),
                             QuadraticHamiltonian(1.0, 1.0), 1.0)
        base = logarithmic_negativity(ev, (["Q"], ["Qprime", "C"]))
        assert base > 0.0
        theta, r = 0.7, 0.4
        rot = np.array([[np.cos(theta), np.sin(theta)],
                        [-np.sin(theta), np.cos(theta)]])
        sq = np.diag([np.exp(r), np.exp(-r)])
        local = np.eye(6)
        local[0:2, 0:2] = rot
        local[2:4, 2:4] = sq
        local[4:6, 4:6] = sq @ rot
        st2 = PhaseSpaceState(local @ ev.means, local @ ev.covariance @ local.T)
        assert logarithmic_negativity(st2, (["Q"], ["Qprime", "C"])) \
            == pytest.approx(base, abs=1e-9)

    def test_sides_in_either_order(self):
        ev = evolve_gaussian(product_state(widths=(0.5, 1.0, 0.5)),
                             QuadraticHamiltonian(1.0, 1.0), 1.0)
        base = logarithmic_negativity(ev, (["Q"], ["Qprime", "C"]))
        assert logarithmic_negativity(ev, (["Qprime", "C"], ["Q"])) \
            == pytest.approx(base, abs=1e-12)
        assert logarithmic_negativity(ev, (["C", "Qprime"], ["Q"])) \
            == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("bipartition", [
        (["Q"], ["Q"]),            # overlapping sides: gave 54.2 on the vacuum
        (["Q"], ["Z"]),            # unknown mode: gave KeyError
        ([], ["Q"]),               # empty side
        (["Q", "Q"], ["C"]),       # repeated mode
        (["Q"], ["Qprime"], ["C"]),
    ])
    def test_bad_bipartition_rejected(self, bipartition):
        with pytest.raises(ValueError, match="disjoint"):
            logarithmic_negativity(vacuum_state(), bipartition)


class TestWitness:
    def test_vacuum_zero(self):
        assert witness_expectation(vacuum_state()) == 0.0

    def test_evolved_vacuum_zero(self):
        ev = evolve_gaussian(vacuum_state(), QuadraticHamiltonian(1.0, 1.0), 1.0)
        assert witness_expectation(ev) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.0])
    def test_mediator_correlation_drives_witness(self, t):
        c = 0.2
        w = 0.8
        st = product_state(widths=(None, None, w), chirps=(0.0, 0.0, c / w**2))
        assert st.covariance[4, 5] == pytest.approx(c)
        ev = evolve_gaussian(st, QuadraticHamiltonian(1.0, 1.0), t)
        assert witness_expectation(ev) == pytest.approx(-t * t * c, abs=1e-12)

    @pytest.mark.parametrize("g1,g2", [(0.0, 1.3), (0.9, 0.0)])
    def test_invariant_without_both_couplings(self, g1, g2):
        st = product_state(widths=(0.6, 1.2, 0.9))
        for t in (0.5, 1.0, 2.0):
            ev = evolve_gaussian(st, QuadraticHamiltonian(g1, g2), t)
            assert witness_expectation(ev) == pytest.approx(0.0, abs=1e-12)


class TestMediatorMomentInversion:
    def planted_series(self, noise=0.0, times=None, **mediator):
        g1 = g2 = 1.0
        chirp = mediator.get("cov_xk", 0.0) / mediator.get("width", 0.8) ** 2
        st = product_state(
            widths=(0.7, 1.1, mediator.get("width", 0.8)),
            means=(0.3, -0.2, mediator.get("mean_x", 0.0)),
            tilts=(0.1, 0.0, mediator.get("tilt", 0.0)),
            chirps=(0.0, 0.0, chirp))
        if times is None:
            times = np.linspace(0.25, 2.0, 8)
        moments = probe_moments(evolve_gaussian(st, QuadraticHamiltonian(g1, g2), times))
        if noise:
            moments = moments + np.random.default_rng(5).normal(0.0, noise, moments.shape)
        return st, (times, moments)

    def test_noiseless_mean_recovery(self):
        st, series = self.planted_series(mean_x=0.7, tilt=-0.3)
        est = mediator_moment_inversion(*series, 1.0, 1.0)
        assert est.mean_x == pytest.approx(0.7, abs=1e-8)
        assert est.mean_k == pytest.approx(-0.3, abs=1e-8)
        assert est.residual < 1e-10

    def test_noiseless_second_moment_recovery(self):
        st, series = self.planted_series(width=0.9, cov_xk=0.25)
        est = mediator_moment_inversion(*series, 1.0, 1.0)
        assert est.var_x == pytest.approx(st.covariance[4, 4], abs=1e-8)
        assert est.var_k == pytest.approx(st.covariance[5, 5], abs=1e-8)
        assert est.cov_xk == pytest.approx(0.25, abs=1e-8)

    def test_all_zero_series(self):
        times = np.linspace(0.25, 2.0, 6)
        est = mediator_moment_inversion(times, np.zeros((11, times.size)), 1.0, 1.0)
        for name in ("mean_x", "mean_k", "var_x", "var_k", "cov_xk"):
            assert getattr(est, name) == pytest.approx(0.0, abs=1e-12)

    def test_noisy_variance_within_one_percent(self):
        # planted Var k = 0.9 via width chosen so hbar^2/(4 w^2) = 0.9
        w = np.sqrt(1.0 / (4.0 * 0.9))
        st, series = self.planted_series(width=w, noise=1e-4)
        assert st.covariance[5, 5] == pytest.approx(0.9)
        est = mediator_moment_inversion(*series, 1.0, 1.0)
        assert est.var_k == pytest.approx(0.9, rel=0.01)
        assert est.residual > 0.0

    @pytest.mark.parametrize("width", [1e5, 1e20])
    def test_lost_precision_refused(self, width):
        # Var q = width^2 swamps the g1^2 t^2 Var x it carries: var_x was
        # recovered with its digits lost and returned
        st = product_state(widths=(width, 1.1, 0.8))
        times = np.linspace(0.25, 2.0, 8)
        moments = probe_moments(evolve_gaussian(st, QuadraticHamiltonian(1.0, 1.0),
                                                times))
        with pytest.raises(DegenerateDesignError,
                           match="^recovered var_x lost its precision"):
            mediator_moment_inversion(times, moments, 1.0, 1.0)

    def test_noise_is_not_lost_precision(self):
        # the bound is the rounding of the probe moments, not the fit
        # residual: noise of half the planted variances leaves an estimate
        _, series = self.planted_series(noise=0.3)
        est = mediator_moment_inversion(*series, 1.0, 1.0)
        assert est.residual > 1.0

    def test_degenerate_times_rejected(self):
        _, series = self.planted_series(times=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(DegenerateDesignError):
            mediator_moment_inversion(*series, 1.0, 1.0)

    def test_zero_coupling_rejected(self):
        _, series = self.planted_series()
        with pytest.raises(ValueError):
            mediator_moment_inversion(*series, 0.0, 1.0)


def test_mode_covariance_chirp_plants_correlation():
    cov = mode_covariance(0.8, chirp=0.5)
    assert cov[0, 1] == pytest.approx(0.5 * 0.64)
    # pure state: det = hbar^2/4
    assert np.linalg.det(cov) == pytest.approx(0.25)
