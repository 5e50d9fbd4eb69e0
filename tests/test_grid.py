import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hybridlab import grid as gr

from hybridlab.gaussian import (
    QuadraticHamiltonian,
    evolve_gaussian,
    product_state,
)
from hybridlab.grid import (
    _spectral_derivative,
    ConfigurationError,
    DomainTooSmallError,
    GridSpec,
    GridState,
    apply_operator,
    assemble_product,
    gaussian_factors,
    grid_moments,
    init_product_gaussian,
    product_moments,
    product_pieces,
    split_step_evolve,
    to_ensemble,
)

from conftest import (
    BENCH_CHIRPS,
    BENCH_COUPLINGS,
    BENCH_MEANS,
    BENCH_TILTS,
    BENCH_TIME,
    BENCH_WIDTHS,
    grid_norm,
)


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.fixture
def fft_points(monkeypatch):
    """Points transformed while the test runs, per (name, axis)."""
    points = Counter()

    def counted(name, fn):
        def wrapper(a, *args, axis=-1, **kwargs):
            points[name, axis % a.ndim] += a.size
            return fn(a, *args, axis=axis, **kwargs)
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    return points


class TestGridSpec:
    def test_axis_spacing_and_range(self):
        spec = GridSpec((64, 64, 64), (8.0, 8.0, 8.0))
        q = spec.axis(0)
        assert q[0] == -8.0
        assert q[-1] == pytest.approx(8.0 - 0.25)
        np.testing.assert_allclose(np.diff(q), 0.25)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec((48, 64, 64), (8.0, 8.0, 8.0))

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            GridSpec((16, 64, 64), (8.0, 8.0, 8.0))

    def test_cell_volume(self):
        spec = GridSpec((64, 32, 32), (8.0, 4.0, 4.0))
        assert spec.cell_volume == pytest.approx(0.25 ** 3)


class TestInitProductGaussian:
    def test_unit_norm(self):
        spec = GridSpec((64, 64, 64), (8.0, 8.0, 8.0))
        st = init_product_gaussian(spec, means=(0.5, 0.0, 0.0),
                                   widths=(0.9, 0.6, 0.8),
                                   tilts=(0.4, 0.0, 0.0),
                                   chirps=(0.0, 0.3, 0.4))
        assert abs(grid_norm(st) - 1.0) <= 1e-10

    def test_moments_match_requested_parameters(self):
        spec = GridSpec((64, 64, 64), (10.0, 10.0, 10.0))
        st = init_product_gaussian(spec, means=(0.5, -0.3, 0.2),
                                   widths=(0.9, 0.6, 0.8),
                                   tilts=(0.4, 0.0, -0.2),
                                   chirps=(0.0, 0.3, 0.4))
        means, cov = grid_moments(st)
        np.testing.assert_allclose(
            means, [0.5, 0.4, -0.3, 0.0, 0.2, -0.2], atol=1e-10)
        # Var(position) = w^2, Var(momentum) = hbar^2/(4w^2) + chirp^2 w^2
        for pos, mom, w, c in ((0, 1, 0.9, 0.0), (2, 3, 0.6, 0.3),
                               (4, 5, 0.8, 0.4)):
            assert cov[pos, pos] == pytest.approx(w * w, abs=1e-10)
            assert cov[mom, mom] == pytest.approx(
                0.25 / (w * w) + (c * w) ** 2, abs=1e-10)
            assert cov[pos, mom] == pytest.approx(c * w * w, abs=1e-10)

    def test_domain_guard(self):
        spec = GridSpec((64, 64, 64), (8.0, 8.0, 8.0))
        with pytest.raises(DomainTooSmallError):
            init_product_gaussian(spec, widths=(1.5, None, None))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("param", ["means", "widths", "tilts", "chirps"])
    def test_rejects_nonfinite_parameters(self, param, bad):
        spec = GridSpec((32, 32, 32), (8.0, 8.0, 8.0))
        with pytest.raises(ValueError):
            init_product_gaussian(spec, **{param: (0.5, bad, 0.5)})

    @pytest.mark.parametrize("mean", [8.0, -8.1, 30.0, 100.0])
    def test_rejects_mean_outside_box(self, mean):
        # the periodic box would wrap such a state round to the other side
        spec = GridSpec((32, 32, 32), (14.0, 6.0, 8.0))
        with pytest.raises(DomainTooSmallError):
            init_product_gaussian(spec, means=(0.0, 0.0, mean))

    def test_rejects_factor_that_underflows(self):
        # the narrow factor is 0 at every grid point, so its norm is 0:
        # refused before the division gave NaN amplitudes
        spec = GridSpec((32, 32, 32), (14.0, 6.0, 10.0))
        with pytest.raises(DomainTooSmallError, match="axis q: the factor"):
            gaussian_factors(spec, means=(0.2, 0.0, 0.0),
                             widths=(0.001, None, None))

    def test_accepts_mean_at_lower_edge(self):
        spec = GridSpec((32, 32, 32), (8.0, 8.0, 8.0))
        init_product_gaussian(spec, means=(0.0, -8.0, 0.0))

    def test_product_of_normalized_factors(self):
        spec = GridSpec((32, 64, 32), (8.0, 6.0, 8.0), hbar=0.7)
        params = dict(means=(0.5, -0.3, 0.2), widths=(0.9, 0.6, None),
                      tilts=(0.4, 0.0, -0.2), chirps=(0.3, -0.2, 0.4))
        factors = gaussian_factors(spec, **params)
        for f, h in zip(factors, spec.steps()):
            assert np.sum(np.abs(f) ** 2) * h == pytest.approx(1.0, abs=1e-14)
        a, b, c = factors
        np.testing.assert_array_equal(
            init_product_gaussian(spec, **params).amplitudes,
            a[:, None, None] * b[None, :, None] * c[None, None, :])

    def test_peak_is_one_state(self):
        # only the product is built at full size: normalizing the product
        # as a whole held two states (1051648 bytes at 32^3)
        spec = GridSpec((32, 32, 32), (8.0, 8.0, 8.0))
        params = dict(means=(0.5, -0.3, 0.2), widths=(0.9, 0.6, 0.8),
                      tilts=(0.4, 0.0, -0.2), chirps=(0.3, -0.2, 0.4))
        init_product_gaussian(spec, **params)
        peak = traced_peak(lambda: init_product_gaussian(spec, **params))
        assert peak <= 16 * 32 ** 3 + 2 ** 16


class TestSplitStepEvolve:
    def test_zero_steps_identity(self):
        spec = GridSpec((32, 32, 32), (8.0, 8.0, 8.0))
        st = init_product_gaussian(spec)
        out = split_step_evolve(st, 1.0, 1.0, 0.1, 0)
        assert out is st

    def test_norm_conserved(self, evolved_grid_state):
        assert abs(grid_norm(evolved_grid_state) - 1.0) <= 1e-9

    def test_conserved_quantities(self, product_grid_state, evolved_grid_state):
        m0, c0 = grid_moments(product_grid_state)
        m1, c1 = grid_moments(evolved_grid_state)
        # p, q' and their fluctuations commute with the interaction
        assert m1[1] == pytest.approx(m0[1], abs=1e-9)
        assert m1[2] == pytest.approx(m0[2], abs=1e-9)
        assert c1[1, 1] == pytest.approx(c0[1, 1], abs=1e-8)
        assert c1[2, 2] == pytest.approx(c0[2, 2], abs=1e-8)

    def test_matches_phase_space_backend(self, evolved_grid_state):
        g1, g2 = BENCH_COUPLINGS
        st = product_state(widths=BENCH_WIDTHS, means=BENCH_MEANS,
                           tilts=BENCH_TILTS, chirps=BENCH_CHIRPS)
        ref = evolve_gaussian(st, QuadraticHamiltonian(g1, g2), BENCH_TIME)
        means, cov = grid_moments(evolved_grid_state)
        assert np.abs(means - ref.means).max() < 1e-6
        assert np.abs(cov - ref.covariance).max() < 1e-6

    def test_fft_count_does_not_grow_with_steps(self, product_grid_state,
                                                fft_calls):
        counts = []
        for steps in (1, 64):
            fft_calls.clear()
            split_step_evolve(product_grid_state, 1.0, 1.0, 1.0 / 64, steps)
            counts.append(len(fft_calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("t", [0.25, 2.0])
    def test_in_place_transforms_match_out_of_place(self, product_grid_state,
                                                    fft_calls, t):
        # the last three transforms write into the array the first one
        # allocated; the amplitudes are those of the out-of-place
        # composition bit for bit, and the input state is left alone
        g1, g2 = BENCH_COUPLINGS
        before = product_grid_state.amplitudes.copy()
        expected = out_of_place_evolve(product_grid_state, g1, g2, t)
        fft_calls.clear()
        got = split_step_evolve(product_grid_state, g1, g2, t / 8, 8)
        assert sorted(fft_calls) == ["fft"] * 2 + ["ifft"] * 2
        assert np.array_equal(got.amplitudes, expected)
        assert np.array_equal(product_grid_state.amplitudes, before)

    def test_one_call_matches_composed_calls(self, product_grid_state):
        # U(t1 + t2) = U(t1) U(t2) holds on the grid while every state on
        # the way is resolved; by t = 2 this box's band limit shows (the
        # two differ by 2e-6 there, while the moments of both still agree)
        g1, g2 = BENCH_COUPLINGS
        dt, steps = 1.0 / 32, 32
        once = split_step_evolve(product_grid_state, g1, g2, dt, steps)
        state = product_grid_state
        for _ in range(steps):
            state = split_step_evolve(state, g1, g2, dt, 1)
        assert np.abs(state.amplitudes - once.amplitudes).max() <= 1e-11

    def test_shear_guard(self):
        spec = GridSpec((32, 32, 32), (8.0, 8.0, 8.0))
        st = init_product_gaussian(spec)
        with pytest.raises(ConfigurationError):
            split_step_evolve(st, 1.0, 1.0, 1.5, 4)

    def test_momentum_marginal_invariant(self, product_grid_state,
                                         evolved_grid_state):
        # p commutes with the interaction, so its distribution is conserved:
        # |FFT along q|^2 summed over q' and x, as a density in p, where the
        # momentum spacing is hbar * pi / L
        spec = product_grid_state.spec
        dp = spec.hbar * np.pi / spec.half_widths[0]
        marginals = []
        for state in (product_grid_state, evolved_grid_state):
            prob = np.sum(np.abs(np.fft.fft(state.amplitudes, axis=0)) ** 2,
                          axis=(1, 2))
            marginals.append(prob / (np.sum(prob) * dp))
        np.testing.assert_allclose(marginals[0], marginals[1], atol=1e-9)


# (spec, initial-state parameters, couplings): the bench state at 64^3,
# an uneven grid at hbar = 2, and 32^3 at hbar = 0.7 with a negative g2
PRODUCT_CASES = {
    "bench_64": (GridSpec((64, 64, 64), (12.0, 8.0, 10.0)),
                 dict(means=BENCH_MEANS, widths=BENCH_WIDTHS,
                      tilts=BENCH_TILTS, chirps=BENCH_CHIRPS),
                 BENCH_COUPLINGS),
    "uneven_hbar2": (GridSpec((32, 64, 128), (10.0, 8.0, 12.0), hbar=2.0),
                     dict(means=(0.5, -0.4, 0.3), widths=(None, 0.9, 1.1),
                          tilts=(0.3, 0.1, -0.2), chirps=(0.1, 0.2, 0.3)),
                     (1.0, 0.8)),
    "hbar07_negative_g2": (GridSpec((32, 32, 32), (8.0, 8.0, 8.0), hbar=0.7),
                           dict(means=(0.5, -0.3, 0.2), widths=(None,) * 3,
                                tilts=(0.4, 0.2, -0.2),
                                chirps=(0.3, -0.2, 0.4)),
                           (1.0, -1.3)),
}


def derivative_pieces(spec, pieces):
    """The pieces of d_0 psi: L times i k_q."""
    lq, f, s = pieces
    return lq * (1j * spec.wavenumbers(0))[:, None], f, s


class TestProductBuild:
    @pytest.mark.parametrize("t", [0.0, 0.25, 1.0, 2.0])
    @pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
    def test_equals_split_step_evolve(self, case, t):
        # the pieces are split_step_evolve's three shears applied to the
        # factors they act on, so psi(t) and d_0 psi(t) agree with it to
        # rounding, resolved or not
        spec, params, (g1, g2) = PRODUCT_CASES[case]
        pieces = product_pieces(spec, gaussian_factors(spec, **params),
                                g1, g2, t)
        want = split_step_evolve(init_product_gaussian(spec, **params),
                                 g1, g2, t / 8, 8).amplitudes
        got = assemble_product(spec, pieces)
        assert np.abs(got - want).max() <= 1e-13
        d0 = assemble_product(spec, derivative_pieces(spec, pieces))
        assert np.abs(d0 - _spectral_derivative(want, spec, 0)).max() <= 1e-13

    def test_one_full_size_transform(self, fft_points):
        # psi(t) is one inverse FFT along q; the rest are 1-D and 2-D
        spec, params, (g1, g2) = PRODUCT_CASES["uneven_hbar2"]
        factors = gaussian_factors(spec, **params)
        pieces = product_pieces(spec, factors, g1, g2, 1.0)
        assert fft_points == {("fft", 0): 32 + 128, ("ifft", 1): 64 * 128}
        fft_points.clear()
        out = np.empty(spec.points_per_axis, dtype=complex)
        peak = traced_peak(lambda: assemble_product(spec, pieces, out))
        assert fft_points == {("ifft", 0): out.size}
        assert peak < out.nbytes // 4

    @pytest.mark.parametrize("case", ["uneven_hbar2", "hbar07_negative_g2"])
    def test_threads_give_the_serial_doubles(self, case, short_switch_interval):
        # the worker builds d_0 psi and takes the second half of the q
        # slabs (on the uneven grid, q is the shortest axis: 16 planes a
        # thread, in slabs of 2); a serial loop of the same build and
        # grid_moments without a pool gives the same doubles
        spec, params, (g1, g2) = PRODUCT_CASES[case]
        factors = gaussian_factors(spec, **params)
        times = [0.0, 0.5, 1.0]
        means, cov = product_moments(spec, factors, g1, g2, times)
        for i, t in enumerate(times):
            pieces = product_pieces(spec, factors, g1, g2, t)
            state = GridState(spec, assemble_product(spec, pieces))
            d0 = assemble_product(spec, derivative_pieces(spec, pieces))
            want_means, want_cov = grid_moments(state, d0)
            assert np.array_equal(means[i], want_means)
            assert np.array_equal(cov[i], want_cov)

    def test_peak_is_psi_and_d0(self):
        # psi and d_0 psi are the only full-size arrays; the two threads'
        # scratch slabs, the (q, q') planes and numpy's buffers fit in
        # 2 MiB at 64^3
        spec, params, (g1, g2) = PRODUCT_CASES["bench_64"]
        factors = gaussian_factors(spec, **params)
        product_moments(spec, factors, g1, g2, [0.0])
        peak = traced_peak(
            lambda: product_moments(spec, factors, g1, g2, [0.0, 1.0]))
        assert peak <= 2 * 16 * 64 ** 3 + 2 ** 21


def out_of_place_evolve(state, g1, g2, t):
    """The three-shear propagator with a fresh array for every transform."""
    spec = state.spec
    kq = spec.wavenumbers(0)[:, None, None]
    kx = spec.wavenumbers(2)[None, None, :]
    x = spec.coordinate_field(2)
    qp = spec.coordinate_field(1)
    psi = np.fft.fft(state.amplitudes, axis=2)
    psi *= np.exp(-1j * g2 * t * qp * kx)
    psi = np.fft.fft(np.fft.ifft(psi, axis=2), axis=0)
    psi *= np.exp(-1j * g1 * t * kq * x)
    psi *= np.exp(0.5j * g1 * g2 * t * t * kq * qp)
    return np.fft.ifft(psi, axis=0)


def six_field_moments(state):
    """Reference moments: apply each of the six canonical operators to psi
    and take Re<A psi|B psi> for every pair."""
    spec, psi = state.spec, state.amplitudes
    dv = spec.cell_volume
    fields = [apply_operator(psi, spec, s)
              for s in ("q", "p", "q'", "p'", "x", "k")]
    means = np.array([np.real(np.sum(np.conj(psi) * f)) * dv for f in fields])
    cov = np.empty((6, 6))
    for i in range(6):
        for j in range(i, 6):
            second = np.real(np.sum(np.conj(fields[i]) * fields[j])) * dv
            cov[i, j] = cov[j, i] = second - means[i] * means[j]
    return means, cov


@pytest.fixture(scope="module")
def uneven_hbar2_state():
    spec, params, (g1, g2) = PRODUCT_CASES["uneven_hbar2"]
    pieces = product_pieces(spec, gaussian_factors(spec, **params), g1, g2, 1.0)
    return GridState(spec, assemble_product(spec, pieces))


@pytest.fixture(scope="module")
def chirped_32_state():
    spec = GridSpec((32, 32, 32), (10.0, 8.0, 8.0))
    state = init_product_gaussian(spec, means=(0.5, -0.3, 0.2),
                                  widths=(0.9, 0.6, 0.8),
                                  tilts=(0.4, 0.0, -0.2),
                                  chirps=(0.3, -0.2, 0.4))
    return split_step_evolve(state, 1.0, 1.0, 1.0 / 8, 4)


HBAR2_WIDTHS = (1.2, 0.9, 1.1)


@pytest.fixture(scope="module")
def hbar2_product_state():
    spec = GridSpec((64, 64, 64), (16.0, 12.0, 16.0), hbar=2.0)
    return init_product_gaussian(spec, means=BENCH_MEANS, widths=HBAR2_WIDTHS,
                                 tilts=BENCH_TILTS, chirps=BENCH_CHIRPS)


@pytest.fixture(scope="module")
def hbar2_evolved_state(hbar2_product_state):
    return split_step_evolve(hbar2_product_state, *BENCH_COUPLINGS,
                             BENCH_TIME / 32, 32)


class TestGridMoments:
    @pytest.mark.parametrize("fixture", [
        "product_grid_state", "evolved_grid_state", "chirped_32_state",
        "hbar2_product_state", "hbar2_evolved_state", "uneven_hbar2_state"])
    def test_matches_six_field_oracle(self, fixture, request):
        state = request.getfixturevalue(fixture)
        means, cov = grid_moments(state)
        ref_means, ref_cov = six_field_moments(state)
        tol = 1e-12 * np.abs(ref_cov).max() + 1e-14
        assert np.abs(means - ref_means).max() <= tol
        assert np.abs(cov - ref_cov).max() <= tol
        assert np.array_equal(cov, cov.T)

    def test_fortran_ordered_amplitudes(self, evolved_grid_state):
        spec, psi = evolved_grid_state.spec, evolved_grid_state.amplitudes
        state = GridState(spec, np.asfortranarray(psi))
        means, cov = grid_moments(state)
        ref_means, ref_cov = grid_moments(evolved_grid_state)
        np.testing.assert_array_equal(means, ref_means)
        np.testing.assert_array_equal(cov, ref_cov)

    def test_hbar2_matches_phase_space_backend(self, hbar2_evolved_state):
        st = product_state(widths=HBAR2_WIDTHS, means=BENCH_MEANS,
                           tilts=BENCH_TILTS, chirps=BENCH_CHIRPS, hbar=2.0)
        ref = evolve_gaussian(st, QuadraticHamiltonian(*BENCH_COUPLINGS),
                              BENCH_TIME)
        means, cov = grid_moments(hbar2_evolved_state)
        assert np.abs(means - ref.means).max() < 1e-6
        assert np.abs(cov - ref.covariance).max() < 1e-6

    def test_three_fft_pairs(self, evolved_grid_state, fft_points):
        # one forward and one inverse transform of every point along each
        # axis; along q' and x each q slab is transformed apart
        grid_moments(evolved_grid_state)
        size = evolved_grid_state.amplitudes.size
        assert fft_points == {(name, axis): size for name in ("fft", "ifft")
                              for axis in range(3)}

    def test_peak_is_d0(self, evolved_grid_state):
        # d_0 psi is the only full-size array the call allocates; the rest
        # runs in slabs of scratch, about 1 MiB beside d_0 psi at 64^3
        grid_moments(evolved_grid_state)
        peak = traced_peak(lambda: grid_moments(evolved_grid_state))
        assert peak <= evolved_grid_state.amplitudes.nbytes + 2 ** 21

    def test_given_d0(self, evolved_grid_state):
        # with d_0 psi passed in, no full-size array is allocated, not
        # even a real one (half of psi's bytes; the scratch and planes take
        # about 1 MiB at 64^3), and the moments are the same doubles as
        # when the call builds it
        psi, spec = evolved_grid_state.amplitudes, evolved_grid_state.spec
        d0 = _spectral_derivative(psi, spec, 0)
        want = grid_moments(evolved_grid_state)
        got = []
        for _ in range(2):
            peak = traced_peak(
                lambda: got.append(grid_moments(evolved_grid_state, d0)))
            assert peak < psi.nbytes // 2
        for means, cov in got:
            np.testing.assert_array_equal(means, want[0])
            np.testing.assert_array_equal(cov, want[1])

    def test_d0_from_the_caller(self, evolved_grid_state, fft_points):
        # a given d0 is read as d_0 psi: no transform runs along q, and
        # the moments are those of the d_0 psi given
        psi, spec = evolved_grid_state.amplitudes, evolved_grid_state.spec
        d0 = _spectral_derivative(psi, spec, 0)
        fft_points.clear()
        grid_moments(evolved_grid_state, d0)
        assert {axis for _, axis in fft_points} == {1, 2}
        d0[:] = np.nan
        means, cov = grid_moments(evolved_grid_state, d0)
        assert np.isnan(means[1]) and not np.isnan(means[0])

    def test_pool_gives_the_same_doubles(self, evolved_grid_state,
                                         short_switch_interval):
        psi, spec = evolved_grid_state.amplitudes, evolved_grid_state.spec
        d0 = _spectral_derivative(psi, spec, 0)
        want = grid_moments(evolved_grid_state, d0)
        with ThreadPoolExecutor(max_workers=1) as pool:
            got = [grid_moments(evolved_grid_state, d0, pool)
                   for _ in range(3)]
        for means, cov in got:
            np.testing.assert_array_equal(means, want[0])
            np.testing.assert_array_equal(cov, want[1])

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_half_error_raised_after_both_halves(self, evolved_grid_state,
                                                 monkeypatch, failing):
        # an error in either half leaves the call as itself, and only
        # once the worker's half is done, so it writes into no buffer
        # that the caller has taken back
        error = MemoryError(f"{failing} half")
        slab_sums, caller = gr._slab_sums, threading.current_thread()
        finished = []

        def half(*args):
            on_caller = threading.current_thread() is caller
            if on_caller == (failing == "caller"):
                raise error
            time.sleep(0.05)
            result = slab_sums(*args)
            finished.append(on_caller)
            return result

        monkeypatch.setattr(gr, "_slab_sums", half)
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(MemoryError) as info:
                grid_moments(evolved_grid_state, pool=pool)
            assert info.value is error
            assert finished == [failing == "worker"]


class TestEnsembleRepresentation:
    def test_density_normalized(self, evolved_grid_state):
        ens = to_ensemble(evolved_grid_state)
        total = np.sum(ens.density) * ens.spec.cell_volume
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_tilt_appears_as_uniform_gradient(self):
        spec = GridSpec((64, 64, 64), (8.0, 8.0, 8.0))
        st = init_product_gaussian(spec, tilts=(0.7, 0.0, 0.0))
        ens = to_ensemble(st, epsilon=1e-4)
        grad = ens.phase_gradient(0)[ens.support_mask]
        np.testing.assert_allclose(grad, 0.7, atol=1e-9)

    def test_chirp_appears_as_linear_gradient(self):
        spec = GridSpec((64, 64, 64), (8.0, 8.0, 8.0))
        st = init_product_gaussian(spec, chirps=(0.0, 0.0, 0.5))
        ens = to_ensemble(st, epsilon=1e-4)
        x = spec.coordinate_field(2) * np.ones(spec.points_per_axis)
        grad = ens.phase_gradient(2)
        np.testing.assert_allclose(grad[ens.support_mask],
                                   0.5 * x[ens.support_mask], atol=1e-9)

    def test_mask_suppresses_low_density_cells(self, evolved_grid_state):
        ens = to_ensemble(evolved_grid_state, epsilon=1e-6)
        assert 0.0 < ens.support_mask.mean() < 1.0
        assert np.all(ens.phase_gradient(0)[~ens.support_mask] == 0.0)

    def test_rejects_nonpositive_epsilon(self, product_grid_state):
        with pytest.raises(ValueError):
            to_ensemble(product_grid_state, epsilon=0.0)


def test_grid_state_shape_mismatch():
    spec = GridSpec((32, 32, 32), (8.0, 8.0, 8.0))
    with pytest.raises(ValueError):
        GridState(spec, np.zeros((32, 32, 16), dtype=complex))
