"""The stacked Gaussian trajectory against the per-state path it replaced.

`evolve_gaussian` with an array of times gives one PhaseSpaceState whose
means and covariance stack the sampled states, and every diagnostic
reads that stack.  The oracle below keeps the per-state arithmetic: S(t)
from the scalar closed form at each time, S V S^T as one 6x6 product,
E_N, the witness and the CHSH constants state by state, and the eleven
tomography noise draws field by field.  Every number must be the same
double, and every report cell the same text.
"""

import numpy as np
import pytest

from hybridlab.brackets import gaussian_brackets
from hybridlab.gaussian import (
    IDX_P, IDX_PP, IDX_Q, IDX_QP, MODE_SLICES, OMEGA, _NU_ROUNDING,
    HamiltonianVariant, PhaseSpaceState, QuadraticHamiltonian, _chsh_constants, _sinhc,
    evolve_gaussian, logarithmic_negativity, mediator_moment_inversion,
    optimize_chsh_many, product_state, symplectic_form, symplectic_propagator,
    witness_expectation,
)
from hybridlab.observables import parse_observable
from hybridlab.scenario import _evolved, _num, parse_config, run_scenario, tomography_demo

from conftest import (BENCH_BRACKET_PAIRS, BENCH_CHIRPS, BENCH_MEANS,
                      BENCH_TILTS, BENCH_WIDTHS, stack)

BIPARTITIONS = [(["Q"], ["Qprime"]), (["Q"], ["C"]), (["Q"], ["Qprime", "C"])]
PAIRS = [tuple(parse_observable(s) for s in pair.split("|"))
         for pair in BENCH_BRACKET_PAIRS]


def reference_propagator(h, t):
    lam = h.g1 * h.g2 if h.variant is HamiltonianVariant.PAPER_HEFF else 0.0
    z = lam * t * t
    m = OMEGA @ h.gmatrix
    f = t * _sinhc(z)
    g = 0.5 * t * t * _sinhc(0.25 * z) ** 2
    return np.eye(6) + f * m + g * (m @ m)


def reference_evolve(state, h, t):
    """(S, means, covariance) at one time, one 6x6 product at a time."""
    s = reference_propagator(h, t)
    v = s @ state.covariance @ s.T
    return s, s @ state.means, 0.5 * (v + v.T)


def reference_min_eig(cov, hbar):
    return np.linalg.eigvalsh(cov + 0.5j * hbar * OMEGA).min()


def reference_log_negativity(cov, hbar, bipartition):
    modes = [m for side in bipartition for m in side]
    idx = np.concatenate([np.arange(6)[MODE_SLICES[m]] for m in modes])
    flip = np.ones(idx.size)
    flip[2 * len(bipartition[0]) + 1 :: 2] = -1.0
    cov_pt = np.diag(flip) @ cov[np.ix_(idx, idx)] @ np.diag(flip)
    n = idx.size // 2
    # each mode scaled by q/s, p s, s the power of two nearest to
    # (Var q / Var p)^(1/4) in binary exponent: exact, so the order of
    # the products does not matter
    w = []
    for var_q, var_p in np.diag(cov_pt).reshape(n, 2):
        shift = np.rint((np.frexp(var_q)[1] - np.frexp(var_p)[1]) / 4.0)
        w += [2.0 ** -shift, 2.0 ** shift]
    cov_pt = np.outer(w, w) * cov_pt
    ev = np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ cov_pt))
    nu = np.sort(ev).reshape(n, 2).mean(axis=1)
    half = 0.5 * hbar
    # a nu within its rounding of hbar/2 is hbar/2
    cut = half - _NU_ROUNDING * np.finfo(float).eps * np.abs(cov_pt).max()
    return max(0.0, float(-sum(np.log(v / half) for v in nu if v < cut)))


def reference_witness(m, v):
    return float(v[IDX_Q, IDX_PP] + m[IDX_Q] * m[IDX_PP]
                 + v[IDX_QP, IDX_P] + m[IDX_QP] * m[IDX_P])


def reference_chsh_constants(v, hbar, modes=("Q", "Qprime")):
    idx = np.concatenate([np.arange(6)[MODE_SLICES[mode]] for mode in modes])
    v = v[np.ix_(idx, idx)] / hbar
    norm = np.pi ** 2 / ((2.0 * np.pi) ** 2 * np.sqrt(np.linalg.det(v)))
    inv = np.linalg.inv(v)
    terms = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 2),
             (1, 3), (2, 3)]
    return np.concatenate([[inv[i, j] for i, j in terms], [np.sqrt(2.0), norm]])


def reference_probe_series(means, covs):
    """The eleven probe fields, as columns of the per-state moments."""
    m, v = np.array(means), np.array(covs)
    return [m[:, IDX_Q], m[:, IDX_P], m[:, IDX_QP], m[:, IDX_PP],
            v[:, IDX_Q, IDX_Q], v[:, IDX_P, IDX_P], v[:, IDX_QP, IDX_QP],
            v[:, IDX_PP, IDX_PP], v[:, IDX_Q, IDX_P], v[:, IDX_QP, IDX_PP],
            v[:, IDX_Q, IDX_PP]]


def assert_stack_matches(state, h, times, pairs=PAIRS):
    """Every stacked diagnostic of `state` at `times` equals the per-state
    oracle's, bit for bit."""
    stacked = evolve_gaussian(state, h, times)
    assert np.array_equal(symplectic_propagator(h, times),
                          [reference_propagator(h, t) for t in times.tolist()])
    ref = [reference_evolve(state, h, t) for t in times.tolist()]
    assert np.array_equal(stacked.means, [m for _, m, _ in ref])
    assert np.array_equal(stacked.covariance, [v for _, _, v in ref])
    assert np.array_equal(stacked._min_eig,
                          [reference_min_eig(v, state.hbar) for _, _, v in ref])
    for bipartition in BIPARTITIONS:
        got = logarithmic_negativity(stacked, bipartition)
        want = [reference_log_negativity(v, state.hbar, bipartition)
                for _, _, v in ref]
        assert [_num(x) for x in got] == [_num(x) for x in want]
    assert witness_expectation(stacked).tolist() == [
        reference_witness(m, v) for _, m, v in ref]
    for modes in (("Q", "Qprime"), ("Q", "C")):
        assert np.array_equal(_chsh_constants(stacked, list(modes)), [
            reference_chsh_constants(v, state.hbar, modes) for _, _, v in ref])
    assert gaussian_brackets(stacked, pairs) == [
        gaussian_brackets(PhaseSpaceState(m, v, state.hbar), pairs)
        for _, m, v in ref]


def config_text(**values) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


README = dict(g1=1, g2=1, total_time=2, dt=0.03125, sample_every=8,
              grid_points="64,64,64", grid_half_widths="14,6,10", c_xk=0.2)
SCENARIOS = {
    "readme": dict(README, diagnostics="negativity,witness,chsh",
                   bracket_pairs=";".join(BENCH_BRACKET_PAIRS)),
    "paper_heff": dict(variant="PAPER_HEFF", g1=0.7, g2=1.3, total_time=3,
                       dt=0.0625, sample_every=2, q_width=0.6, q_mean=0.4,
                       qprime_tilt=0.3, c_xk=0.3,
                       diagnostics="negativity,witness,chsh",
                       bracket_pairs=";".join(BENCH_BRACKET_PAIRS)),
    "bench_fixture": dict(q_width=BENCH_WIDTHS[0], qprime_width=BENCH_WIDTHS[1],
                          c_width=BENCH_WIDTHS[2], q_mean=BENCH_MEANS[0],
                          q_tilt=BENCH_TILTS[0], total_time=2.5, dt=0.25,
                          sample_every=1, diagnostics="negativity,witness,chsh",
                          bracket_pairs=";".join(BENCH_BRACKET_PAIRS)),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_equals_per_state_path(name):
    config = parse_config(config_text(**SCENARIOS[name]))
    report = run_scenario(config)
    gauss0, h = config.initial_gaussian(), config.hamiltonian()
    times = [step * config.dt for step in config.sample_steps()]
    ref = [reference_evolve(gauss0, h, t)[1:] for t in times]
    # the descent does not depend on batching (test_chsh.py), so one
    # descent over the oracle's states gives their optima
    chsh = optimize_chsh_many(stack(PhaseSpaceState(m, v) for m, v in ref))
    rows = [[t, reference_log_negativity(v, config.hbar, BIPARTITIONS[0]),
             reference_witness(m, v), value,
             *gaussian_brackets(PhaseSpaceState(m, v), PAIRS)]
            for t, (m, v), (value, _) in zip(times, ref, chsh, strict=True)]
    assert report.columns == ["t", "logneg_q_qprime", "witness", "chsh_opt"] + [
        f"bracket_{i}" for i in range(len(PAIRS))]
    assert [[_num(x) for x in row] for row in report.rows] == [
        [_num(x) for x in row] for row in rows]
    assert_stack_matches(gauss0, h, _evolved(config)[0])


def test_negativity_cell_without_terms_is_zero_not_minus_zero():
    # with unit probe widths no symplectic eigenvalue falls below hbar/2,
    # so E_N sums no logarithm; max(0, -0.0) on the stack would write -0
    config = parse_config(config_text(q_width=1, qprime_width=1, total_time=1,
                                      dt=0.25, sample_every=1,
                                      diagnostics="negativity"))
    lines = [l for l in run_scenario(config).to_csv().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "t,logneg_q_qprime"
    assert [l.split(",")[1] for l in lines[1:]] == ["0"] * 5


def test_product_state_cell_is_exact_zero():
    # the README state at t = 0 is a product: its probe block's nu read
    # 0.49999999999999983 and 0.49999999999999994, below hbar/2 by
    # rounding alone, and the cell read 4.4408920985006262e-16
    config = parse_config(config_text(**dict(README, diagnostics="negativity")))
    lines = [l for l in run_scenario(config).to_csv().splitlines()
             if not l.startswith("#")]
    assert lines[:2] == ["t,logneg_q_qprime", "0,0"]


ACCEPTANCE_STATES = {
    # test_2's probe-probe separability scan
    "separability": (product_state(widths=(0.5, 1.0, 0.5)),
                     np.linspace(0.05, 2.5, 50)),
    # the committed benchmark inputs, from t = 0
    "bench": (product_state(widths=BENCH_WIDTHS, means=BENCH_MEANS,
                            tilts=BENCH_TILTS, chirps=BENCH_CHIRPS),
              np.linspace(0.0, 2.0, 33)),
    # test_6's planted mediator
    "tomography": (product_state(widths=(0.7, 1.1, 0.8), means=(0.3, -0.2, 0.5),
                                 tilts=(0.1, 0.0, -0.3), chirps=(0.0, 0.0, 0.5)),
                   np.linspace(0.25, 2.0, 8)),
    # test_7's planted witness
    "witness": (product_state(widths=(None, None, 0.8),
                              chirps=(0.0, 0.0, 0.2 / 0.64)),
                np.linspace(0.0, 2.0, 41)),
}


@pytest.mark.parametrize("variant", list(HamiltonianVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("name", sorted(ACCEPTANCE_STATES))
def test_acceptance_states_equal_per_state_path(name, variant):
    state, times = ACCEPTANCE_STATES[name]
    assert_stack_matches(state, QuadraticHamiltonian(1.0, 1.0, variant), times)


def test_one_time_is_the_one_state_case():
    state, times = ACCEPTANCE_STATES["bench"]
    h = QuadraticHamiltonian(1.0, 1.0)
    stacked = evolve_gaussian(state, h, times)
    for i, t in enumerate(times.tolist()):
        one = evolve_gaussian(state, h, t)
        assert one.means.shape == (6,) and one.covariance.shape == (6, 6)
        assert np.array_equal(one.means, stacked.means[i])
        assert np.array_equal(one.covariance, stacked.covariance[i])
        assert logarithmic_negativity(one) == logarithmic_negativity(stacked)[i]
        assert witness_expectation(one) == witness_expectation(stacked)[i]


@pytest.mark.parametrize("noise,seed", [(0.0, 0), (1e-3, 17), (1e-4, 3)])
def test_tomography_equals_per_state_path(noise, seed):
    config = parse_config(config_text(total_time=2, dt=0.125, sample_every=1,
                                      c_mean=0.5, c_width=0.8, c_xk=0.2,
                                      tomo_noise=noise, seed=seed))
    gauss0, h = config.initial_gaussian(), config.hamiltonian()
    times = [step * config.dt for step in config.sample_steps()]
    times = np.array([t for t in times if t > 0])
    ref = [reference_evolve(gauss0, h, t) for t in times.tolist()]
    fields = reference_probe_series([m for _, m, _ in ref], [v for _, _, v in ref])
    if noise:
        rng = np.random.default_rng(seed)
        fields = [f + rng.normal(0.0, noise, size=f.shape) for f in fields]
    # the fields as strided rows, as the per-state series held them
    want = mediator_moment_inversion(times, np.column_stack(fields).T, 1.0, 1.0)
    assert tomography_demo(config).recovered == want
