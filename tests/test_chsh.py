import numpy as np
import pytest

from hybridlab import gaussian
from hybridlab.gaussian import (
    _CHSH_CHUNK,
    _chsh_constants,
    _chsh_correlator,
    PhaseSpaceState,
    QuadraticHamiltonian,
    chsh_displaced_parity,
    evolve_gaussian,
    optimize_chsh,
    optimize_chsh_many,
    product_state,
)

from conftest import stack, two_mode_squeezed_state, vacuum_state
from test_acceptance import random_separable_two_mode


def brute_force_chsh(state, modes=("Q", "Qprime"), span=0.9, coarse=7):
    """Dense-grid oracle: coarse 8-D scan then local grid refinement."""
    axes = [np.linspace(-span, span, coarse)] * 8

    def evaluate(params):
        a1 = complex(params[0], params[1])
        a2 = complex(params[2], params[3])
        b1 = complex(params[4], params[5])
        b2 = complex(params[6], params[7])
        return chsh_displaced_parity(state, (a1, a2, b1, b2), modes)

    best = None
    best_params = None
    # coarse pass restricted to imaginary displacements, which is where
    # the optimum sits for the states exercised here (real parts refine in)
    for a2i in axes[3]:
        for b2i in axes[7]:
            for a1i in axes[1]:
                for b1i in axes[5]:
                    params = np.array(
                        [0.0, a1i, 0.0, a2i, 0.0, b1i, 0.0, b2i])
                    val = evaluate(params)
                    if best is None or val > best:
                        best, best_params = val, params
    step = 2.0 * span / (coarse - 1)
    params = best_params
    while step > 1e-4:
        improved = True
        while improved:
            improved = False
            for i in range(8):
                for sign in (1.0, -1.0):
                    trial = params.copy()
                    trial[i] += sign * step
                    val = evaluate(trial)
                    if val > best + 1e-15:
                        best, params, improved = val, trial, True
        step *= 0.5
    return best


def scalar_correlator(c, norm, d0, d1, d2, d3):
    """E of the centred state at the scaled displacements d, in the
    unrolled operation order optimize_chsh keeps; c lists the quadratic
    form's constants c00, c11, c22, c33, c01, c02, c03, c12, c13, c23."""
    c00, c11, c22, c33, c01, c02, c03, c12, c13, c23 = c
    quad = (c00 * d0 * d0 + c11 * d1 * d1 + c22 * d2 * d2 + c33 * d3 * d3
            + 2.0 * (c01 * d0 * d1 + c02 * d0 * d2 + c03 * d0 * d3
                     + c12 * d1 * d2 + c13 * d1 * d3 + c23 * d2 * d3))
    return norm * np.exp(-0.5 * quad)


def scalar_constants(state, modes=("Q", "Qprime")):
    """The centred correlator's constants as floats, in units of hbar: c
    in scalar_correlator's order, the displacement scale and the norm."""
    v = state.reduced(list(modes))[1] / state.hbar
    inv = np.linalg.inv(v)
    c = [float(inv[i, j]) for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 1),
                                       (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    norm = np.pi ** 2 / ((2.0 * np.pi) ** 2 * np.sqrt(np.linalg.det(v)))
    return c, float(np.sqrt(2.0)), float(norm)


def scalar_optimize_chsh(state, modes=("Q", "Qprime")):
    """Lower-bound oracle: the compass search optimize_chsh once ran.

    From the 25 starts of optimize_chsh, one start at a time, each
    coordinate tries +step, then -step, and a trial is taken if it raises
    B by more than 1e-15; a sweep that takes nothing halves the step,
    from 0.25 down to 1e-6.  The winner's settings are then shifted back
    by mean/scale, the means in units of sqrt(hbar).  It misses the
    optimum by up to 12% on some states, so optimize_chsh must reach at
    least its value, not equal it.
    """
    grid = np.linspace(-0.6, 0.6, 5)
    c, scale, norm = scalar_constants(state, modes)

    def efun(ar, ai, br, bi):
        return scalar_correlator(c, norm, scale * ar, scale * ai,
                                 scale * br, scale * bi)

    def value(x):
        return (efun(x[0], x[1], x[4], x[5]) + efun(x[2], x[3], x[4], x[5])
                + efun(x[0], x[1], x[6], x[7]) - efun(x[2], x[3], x[6], x[7]))

    best_val, best_x = -np.inf, None
    for va in grid:
        for vb in grid:
            x = np.array([0.0, 0.0, 0.0, va, 0.0, 0.0, 0.0, vb])
            cur = value(x)
            step = 0.25
            while step > 1e-6:
                improved = False
                for i in range(8):
                    for sgn in (1.0, -1.0):
                        trial = x.copy()
                        trial[i] += sgn * step
                        tv = value(trial)
                        if tv > cur + 1e-15:
                            x, cur, improved = trial, tv, True
                if not improved:
                    step *= 0.5
            if cur > best_val:
                best_val, best_x = cur, x
    means = state.reduced(list(modes))[0] / np.sqrt(state.hbar)
    shift = [float(m) / scale for m in means]
    x = [float(xi) + shift[j] for xi, j in zip(best_x, (0, 1, 0, 1, 2, 3, 2, 3))]
    return float(best_val), (complex(x[0], x[1]), complex(x[2], x[3]),
                             complex(x[4], x[5]), complex(x[6], x[7]))


_REFERENCES = {}


def cached_reference(state, modes=("Q", "Qprime")):
    """scalar_optimize_chsh, computed once per state and modes."""
    key = (state.means.tobytes(), state.covariance.tobytes(), state.hbar, modes)
    if key not in _REFERENCES:
        _REFERENCES[key] = scalar_optimize_chsh(state, modes)
    return _REFERENCES[key]


def exactness_cases():
    """(state, modes) on which optimize_chsh is held to the references:
    the compass oracle is fast on each of them."""
    probes = ("Q", "Qprime")
    cases = [pytest.param(vacuum_state(), probes, id="vacuum")]
    # the squeezings of the benchmark
    cases += [pytest.param(two_mode_squeezed_state(r), probes, id=f"squeezed_r{r}")
              for r in (0.3, 0.5, 0.7, 0.9)]
    h = QuadraticHamiltonian(1.0, 1.0)
    for widths in [(None, None, None), (0.5, 1.0, 0.5)]:
        for t in (0.5, 1.0, 2.0):
            st = evolve_gaussian(product_state(widths=widths), h, t)
            cases.append(pytest.param(st, probes, id=f"evolved_{widths[0]}_t{t}"))
    cases.append(pytest.param(evolve_gaussian(vacuum_state(), h, 1.0),
                              ("Q", "C"), id="mixed_Q_C"))
    rng = np.random.default_rng(7)
    cases += [pytest.param(random_separable_two_mode(rng), probes, id=f"separable_{i}")
              for i in range(10)]
    return cases


class TestParityCorrelation:
    def test_vacuum_zero_displacement(self):
        b = chsh_displaced_parity(vacuum_state(), (0j, 0j, 0j, 0j))
        assert b == pytest.approx(2.0, abs=1e-12)

    def test_large_displacement_decays(self):
        # E11 and E12 are suppressed; E21 = 1 and E22 = 1 cancel
        b = chsh_displaced_parity(vacuum_state(), (4 + 0j, 0j, 0j, 0j))
        assert b == pytest.approx(0.0, abs=1e-6)

    def test_setting_symmetry(self):
        st = two_mode_squeezed_state(0.3)
        settings = (0.1 + 0.2j, -0.3j, 0.15j, 0.2 - 0.1j)
        flipped = tuple(-s for s in settings)
        assert chsh_displaced_parity(st, flipped) \
            == pytest.approx(chsh_displaced_parity(st, settings), abs=1e-12)


class TestOptimizer:
    def test_vacuum_stays_classical(self):
        val, _ = optimize_chsh(vacuum_state())
        assert val == pytest.approx(2.0, abs=1e-6)

    def test_squeezed_vacuum_violates(self):
        val, settings = optimize_chsh(two_mode_squeezed_state(0.3))
        assert val > 2.0
        assert chsh_displaced_parity(two_mode_squeezed_state(0.3), settings) \
            == pytest.approx(val, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        st = two_mode_squeezed_state(0.3)
        val, _ = optimize_chsh(st)
        oracle = brute_force_chsh(st)
        assert val >= oracle - 1e-6
        assert val == pytest.approx(oracle, abs=1e-3)

    def test_evolved_probe_pair_never_violates(self):
        h = QuadraticHamiltonian(1.0, 1.0)
        for widths in [(None, None, None), (0.5, 1.0, 0.5)]:
            st = product_state(widths=widths)
            for t in (0.5, 1.0, 2.0):
                val, _ = optimize_chsh(evolve_gaussian(st, h, t))
                assert val <= 2.0 + 1e-6

    def test_entangled_but_mixed_pair_stays_classical(self):
        # Q|C is negativity-entangled after evolution, but tracing out the
        # second probe leaves a mixed pair whose parity correlations are
        # too weak for a violation.
        from hybridlab.gaussian import logarithmic_negativity
        ev = evolve_gaussian(vacuum_state(), QuadraticHamiltonian(1.0, 1.0), 1.0)
        assert logarithmic_negativity(ev, (["Q"], ["C"])) > 0.5
        val, _ = optimize_chsh(ev, modes=("Q", "C"))
        assert val < 2.0

    def test_repeated_calls_agree(self):
        st = two_mode_squeezed_state(0.5)
        assert optimize_chsh(st) == optimize_chsh(st)


def scalar_value(state, settings, modes=("Q", "Qprime")):
    """B of a zero-mean state at the settings, from scalar_correlator and
    summed as E11 + E21 + E12 - E22."""
    c, scale, norm = scalar_constants(state, modes)
    a1, a2, b1, b2 = settings

    def e(a, b):
        return scalar_correlator(c, norm, scale * a.real, scale * a.imag,
                                 scale * b.real, scale * b.imag)
    return e(a1, b1) + e(a2, b1) + e(a1, b2) - e(a2, b2)


def assert_at_least_compass(results, states, modes=("Q", "Qprime")):
    """Each optimum is at least the scalar compass search's, which stays
    a lower-bound oracle, to 1e-12 relative."""
    for (val, _), st in zip(results, states, strict=True):
        ref_val, _ = cached_reference(st, modes)
        assert val >= ref_val - 1e-12 * max(1.0, abs(ref_val))


@pytest.mark.parametrize("state,modes", exactness_cases())
def test_lockstep_descent_equals_scalar_reference(state, modes):
    # The optimum is the scalar form of B at the returned settings, bit for
    # bit (read on the centred copy, where the settings carry no shift),
    # and it is at least the scalar compass search's optimum.
    val, settings = optimize_chsh(state, modes)
    assert type(val) is float
    assert all(type(s) is complex for s in settings)
    centred = PhaseSpaceState(np.zeros(6), state.covariance, state.hbar)
    c_val, c_settings = optimize_chsh(centred, modes)
    assert c_val == val == scalar_value(centred, c_settings, modes)
    assert_at_least_compass([(val, settings)], [state], modes)


@pytest.mark.parametrize("state,modes", exactness_cases())
def test_optimum_is_a_local_maximum(state, modes):
    # read with chsh_displaced_parity alone: no step of 1e-6 along any one
    # of the 8 real coordinates raises B by more than 1e-12 relative
    val, settings = optimize_chsh(state, modes)
    x = np.array([[s.real, s.imag] for s in settings]).ravel()
    at = chsh_displaced_parity(state, settings, modes)
    for i in range(8):
        for sign in (1.0, -1.0):
            trial = x.copy()
            trial[i] += sign * 1e-6
            moved = tuple(map(complex, trial[0::2], trial[1::2]))
            assert chsh_displaced_parity(state, moved, modes) - at \
                <= 1e-12 * max(1.0, abs(val))


def test_batched_optimum_equals_one_state_optimum():
    # the probe-pair cases as one batch, then repeated past the chunk size
    # so that a chunk boundary falls inside the list: each state's optimum
    # is the one it has alone
    states = [case.values[0] for case in exactness_cases()
              if case.values[1] == ("Q", "Qprime")]
    alone = [optimize_chsh(st) for st in states]
    assert optimize_chsh_many(stack(states)) == alone
    reps = _CHSH_CHUNK // len(states) + 1
    assert len(states) * reps > _CHSH_CHUNK
    assert optimize_chsh_many(stack(states * reps)) == alone * reps
    assert_at_least_compass(alone, states)


def test_batched_optimum_equals_one_state_optimum_on_probe_and_mediator():
    # the (Q, C) pair of every state of the probe-pair cases that is not a
    # product of (Q, Q') and a vacuum mediator, and of the mixed case
    states = [case.values[0] for case in exactness_cases()
              if case.id.startswith(("evolved", "mixed"))]
    alone = [optimize_chsh(st, ("Q", "C")) for st in states]
    assert optimize_chsh_many(stack(states), ("Q", "C")) == alone
    assert_at_least_compass(alone, states, ("Q", "C"))


@pytest.mark.parametrize("shape", [(-1,), (-1, 1), (-1, 2, 5, 1)],
                         ids=["flat", "last_axis_1", "descent_like"])
@pytest.mark.parametrize("per_start", [False, True], ids=["lone", "per_start"])
def test_correlator_keeps_scalar_operation_order(per_start, shape):
    # The sums of the quadratic form come from numpy's reduction order: a
    # numpy that reordered them would fail here.  10**4 displacements of
    # either sign, magnitudes from 1e-150 to 1e150.  Per-start constants
    # scale each term c_ij d_i d_j to order one, so that the sums round at
    # every magnitude; the lone state, with every mode correlated, has
    # constants of order one, so half of its points are drawn of order one
    # too.
    rng = np.random.default_rng(11)
    n = 10_000
    u = rng.uniform(-150.0, 150.0, (4, n))
    if per_start:
        i, j = np.array([[0, 1, 2, 3, 0, 0, 0, 1, 1, 2],
                         [0, 1, 2, 3, 1, 2, 3, 2, 3, 3]])
        c = rng.normal(size=(10, n)) * 10.0 ** -(u[i] + u[j])
        c[:4] = np.abs(c[:4])
        norm = rng.uniform(0.5, 2.0, n)
        c_in, norm_in = c.reshape(10, *shape), norm.reshape(shape)
    else:
        u[:, ::2] = rng.uniform(-3.0, 0.5, (4, n // 2))
        a = rng.normal(scale=0.5, size=(6, 6))
        st = PhaseSpaceState(np.zeros(6), 0.5 * np.eye(6) + a @ a.T)
        p = _chsh_constants(st, ["Q", "Qprime"])
        ref_c, ref_scale, ref_norm = scalar_constants(st)
        assert p.tolist() == [*ref_c, ref_scale, ref_norm]
        c, norm = np.repeat(p[:10, None], n, axis=1), np.full(n, ref_norm)
        c_in, norm_in = p[:10].reshape(10, *[1] * len(shape)), p[11]
    d = rng.choice([-1.0, 1.0], (4, n)) * 10.0 ** u
    ref = np.array([scalar_correlator(c[:, k].tolist(), norm[k], *d[:, k].tolist())
                    for k in range(n)])
    # most points of order one have an exp argument that rounding moves
    assert np.isfinite(ref).all() and np.mean((ref > 0) & (ref != norm)) > 0.3
    got = _chsh_correlator(c_in, norm_in, d.reshape(4, *shape))
    assert np.array_equal(got.ravel(), ref)


def test_np_exp_gives_each_element_its_own_bits():
    # A state's optimum is the scalar form of B at its settings, and does
    # not depend on which states share its batch, only if np.exp gives an
    # element the bits it gives that element alone, whatever the array
    # around it: its length (SIMD loops peel short tails), stride,
    # memory offset, an in-place output and 0-d input.  10**5 arguments
    # in the ascent's range (-50, 0], of every magnitude.
    rng = np.random.default_rng(5)
    n = 100_000
    args = np.concatenate([rng.uniform(-50.0, 0.0, n // 2),
                           -(10.0 ** rng.uniform(-12.0, np.log10(50.0), n // 2 - 1)),
                           [0.0]])
    rng.shuffle(args)
    ref = np.array([np.exp(x) for x in args])
    assert np.array_equal(np.exp(args), ref)
    for length in range(1, 34):
        starts = rng.integers(0, n - length, 3000)
        got = np.concatenate([np.exp(args[i:i + length]) for i in starts])
        assert np.array_equal(got, ref[starts[:, None] + np.arange(length)].ravel())
    for step in (2, 3, 5, 8):
        for offset in range(step):
            assert np.array_equal(np.exp(args[offset::step]), ref[offset::step])
    inplace = args.copy()
    assert np.exp(inplace, out=inplace) is inplace
    assert np.array_equal(inplace, ref)
    inplace = args.copy()
    view = inplace[1::3]
    np.exp(view, out=view)
    assert np.array_equal(inplace[1::3], ref[1::3])
    assert np.array_equal(inplace[0::3], args[0::3])
    for x, r in zip(args[:2000], ref[:2000]):
        assert np.exp(np.array(x)) == r and np.exp(float(x)) == r


def test_displaced_parity_gives_the_optimum_bit_for_bit():
    # a separate matrix form of E was one ulp off at r = 0.7 and 0.9
    for st in (vacuum_state(), two_mode_squeezed_state(0.7), two_mode_squeezed_state(0.9)):
        val, settings = optimize_chsh(st)
        assert chsh_displaced_parity(st, settings) == val


@pytest.mark.parametrize("state,modes", [
    case for case in exactness_cases() if case.id.startswith("separable")])
def test_displaced_optimum_is_the_centred_one_shifted(state, modes):
    # the descent runs on the centred state and shifts the settings by
    # mean/scale, in the arithmetic of optimize_chsh_many
    val, settings = optimize_chsh(state, modes)
    centred = PhaseSpaceState(np.zeros(6), state.covariance, state.hbar)
    c_val, c_settings = optimize_chsh(centred, modes)
    assert state.means.any() and val == c_val
    m = state.reduced(list(modes))[0] / np.sqrt(state.hbar) / np.sqrt(2.0)
    assert settings == tuple(complex(s.real + m[j], s.imag + m[j + 1])
                             for s, j in zip(c_settings, (0, 0, 2, 2)))
    # scale * (x + mean/scale) - mean gives back scale * x only to the
    # rounding of the shift
    assert chsh_displaced_parity(state, settings, modes) == pytest.approx(
        val, rel=1e-12, abs=0)


def test_empty_batch():
    assert optimize_chsh_many(stack([])) == []


BAD_MODES = [("Q",), ("Q", "Qprime", "C"), ("Q", "Q"), ("Q", "Z"), ()]


@pytest.mark.parametrize("modes", BAD_MODES)
@pytest.mark.parametrize("call", [
    lambda st, modes: optimize_chsh(st, modes),
    lambda st, modes: chsh_displaced_parity(st, (0j, 0j, 0j, 0j), modes),
], ids=["optimize_chsh", "chsh_displaced_parity"])
def test_modes_must_be_two_distinct_names(call, modes):
    with pytest.raises(ValueError, match="two distinct modes"):
        call(vacuum_state(), modes)


@pytest.mark.parametrize("states", [[], [vacuum_state()] * 3], ids=["empty", "three"])
@pytest.mark.parametrize("modes", BAD_MODES)
def test_batch_checks_modes_before_any_descent(monkeypatch, states, modes):
    def fail(*args):
        pytest.fail("bad modes must be refused before any descent")

    monkeypatch.setattr(gaussian, "_chsh_descent", fail)
    with pytest.raises(ValueError, match="two distinct modes"):
        optimize_chsh_many(stack(states), modes)


@pytest.mark.parametrize("settings", [(0j, 0j, 0j), (0j,) * 5, ()],
                         ids=["three", "five", "none"])
def test_displaced_parity_takes_four_settings(settings):
    # three settings raised IndexError, and five read 2.0 on the vacuum
    with pytest.raises(ValueError, match="expected four settings"):
        chsh_displaced_parity(vacuum_state(), settings)
