import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridlab import gaussian as ga
from hybridlab import grid as gr
from hybridlab.cli import main
from hybridlab.grid import GridSpec
from hybridlab.scenario import (
    _backend_residual,
    _evolved,
    _num,
    _require_finite,
    ConfigError,
    NonFiniteResultError,
    ScenarioConfig,
    ScenarioReport,
    format_config,
    parse_config,
    run_scenario,
    tomography_demo,
    validate_backends,
)

from conftest import BENCH_BRACKET_PAIRS, initial_grid

FAST_GRID = "grid_points = 32,32,32\ngrid_half_widths = 10,6,8\n"
# 21 factors on mode Q: enumerating their 21! orders never finished
FACTORIAL_PAIR = ("Q[ sym(q*q*q*q*q*q*q*q*q*q*q*p*p*p*p*p*p*p*p*p*p) ]"
                  "|C[ u ]")
README_CONFIG = {
    "g1": "1", "g2": "1", "total_time": "2", "dt": "0.03125",
    "sample_every": "8", "grid_points": "64,64,64",
    "grid_half_widths": "14,6,10", "c_xk": "0.2",
    "diagnostics": "negativity,witness,validate",
    "bracket_pairs": "Q[ sym(p'*p') ]|C[ u*u ]",
}


# 9 samples, no grid
CHSH_CONFIG = ("total_time = 1\ndt = 0.125\nsample_every = 1\n"
               "diagnostics = negativity,witness,chsh\n")


def config_text(values) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def zero_symplectic_eigenvalues(monkeypatch):
    """Read every symplectic eigenvalue as 0, as eigvals read a mode whose
    variances lie far apart before each mode was balanced: E_N = inf."""
    monkeypatch.setattr(ga, "_symplectic_eigenvalues",
                        lambda cov: np.zeros(cov.shape[:-2]
                                             + (cov.shape[-1] // 2,)))


# configs whose Gaussian trajectory doubles cannot hold at some sample,
# with the config error `simulate` reports
NOT_SYMPLECTIC = "matrix is not symplectic to 1e-10"
LOWER = ": lower g1, g2, total_time, c_xk or the widths"
OVERFLOW_CONFIGS = {
    "g1_1e200": (config_text(dict(README_CONFIG, g1="1e200")), NOT_SYMPLECTIC),
    "g1_1e300": (config_text(dict(README_CONFIG, g1="1e300")), NOT_SYMPLECTIC),
    "c_xk_width_1": ("c_xk = 1e154\nc_width = 1\ntotal_time = 0.5\ndt = 0.25\n",
                     "the Gaussian moments overflow at t = 0" + LOWER),
    "heff_sinh": ("variant = PAPER_HEFF\ng2 = 1e154\ntotal_time = 0.5\ndt = 0.25\n",
                  "the propagator overflows at t = 0.5" + LOWER),
    "intermediate_sample": ("g2 = 1e150\ntotal_time = 1\nsample_every = 3\n",
                            NOT_SYMPLECTIC),
    # M @ M overflowed and 0 * inf made S NaN, which passed the 1e-10
    # check with two RuntimeWarnings; the config then blamed c_xk or
    # the widths
    **{f"couplings_1e160_{variant}_t{t}": (
        f"g1 = 1e160\ng2 = 1e160\nvariant = {variant}\ntotal_time = {t}\n",
        "the propagator overflows at t = 0" + LOWER)
       for variant in ("EQ1", "PAPER_HEFF") for t in (0, 1)},
}


def gaussian_samples(config):
    """(means, covariance) of each sampled Gaussian state, in order."""
    _, gauss = _evolved(config)
    return list(zip(gauss.means, gauss.covariance))


def fast_config(extra=""):
    return parse_config(
        "total_time = 0.5\n"
        "dt = 0.125\n"
        "sample_every = 1\n"
        + FAST_GRID + extra)


class TestParseConfig:
    def test_defaults(self):
        assert parse_config("") == ScenarioConfig()

    def test_comments_and_blanks(self):
        config = parse_config("# leading comment\n\ng1 = 2.0  # trailing\n")
        assert config.g1 == 2.0

    def test_tuple_values(self):
        config = parse_config("grid_points = 32,64,32\n"
                              "grid_half_widths = 4,8,4\n")
        assert config.grid_points == (32, 64, 32)
        assert config.grid_half_widths == (4.0, 8.0, 4.0)

    def test_none_width(self):
        assert parse_config("q_width = none\n").q_width is None
        assert parse_config("q_width = 0.7\n").q_width == 0.7

    def test_bracket_pairs_split_on_semicolon(self):
        config = parse_config(
            "bracket_pairs = Q[ q ]|Q[ p ]; C[ x ]|C[ u ]\n")
        assert len(config.bracket_pairs) == 2

    def test_round_trip(self):
        config = parse_config("g1 = 0.3\nq_tilt = -0.25\nc_xk = 0.2\n"
                              "diagnostics = negativity,witness,chsh\n"
                              "bracket_pairs = Q[ q*q ]|C[ u ]\n"
                              "variant = PAPER_HEFF\n")
        assert parse_config(format_config(config)) == config

    @pytest.mark.parametrize("text,fragment", [
        ("bogus = 1\n", "unknown key"),
        ("g1 = 1\ng1 = 2\n", "duplicate"),
        ("just words\n", "key = value"),
        ("dt = -0.1\n", "dt"),
        ("dt = 2\ntotal_time = 1\n", "dt"),
        ("sample_every = 0\n", "sample_every"),
        ("variant = OTHER\n", "variant"),
        ("diagnostics = negativity,bogus\n", "diagnostic"),
        ("bracket_pairs = Q[ q ]\n", "SPEC|SPEC"),
        ("bracket_pairs = Q[ ?? ]|C[ x ]\n", "unexpected"),
        ("bracket_pairs = Q[ q ]|Q[ p ]; Q[ ?? ]|C[ x ]\n",
         re.escape("bracket pair 'Q[ ?? ]|C[ x ]': unexpected")),
        ("g1 = abc\n", "bad value"),
        ("dt = none\n", "bad value"),
        ("q_width = 1e-200\n", "underflows"),
        ("q_width = 1e200\n", "finite"),
        ("total_time = 1\ndt = 0.3\n", "whole number"),
        # 1e9 + 0.4 steps: within 1e-9 per step, but not a whole count
        ("total_time = 1\ndt = 9.999999996e-10\n", "whole number"),
        ("total_time = 1\ndt = 1.1102230246251565e-16\n", "2\\*\\*53"),
    ])
    def test_rejections_mention_cause(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [
        "c_xk = 1e154\n",                 # the vacuum width's p variance overflows
        "hbar = 5e-324\nc_xk = 1\n",      # the vacuum width is 0: c_xk / 0
        "hbar = 5e-324\n",                # 0 / 0
    ])
    def test_nonfinite_initial_moments_rejected_without_warning(self, text):
        # each used to leak a RuntimeWarning from numpy scalar arithmetic
        with pytest.raises(ConfigError, match="initial Gaussian moments are not finite"):
            parse_config(text)

    def test_step_count_just_below_2_to_53_accepted(self):
        # 2**52 steps of 2**-52: the step list is never built here
        config = parse_config("total_time = 1\ndt = 2.220446049250313e-16\n")
        assert config.total_time / config.dt == 2.0 ** 52

    @pytest.mark.parametrize("total_time,sample_every,count", [
        ("999999", "1", 10 ** 6),
        ("2999997", "3", 10 ** 6),
        ("2999995", "3", 10 ** 6),      # the last step is appended
        ("5", "3", 3),
    ])
    def test_sample_count(self, total_time, sample_every, count):
        config = parse_config(f"total_time = {total_time}\ndt = 1\n"
                              f"sample_every = {sample_every}\n")
        samples = config.sample_steps()
        assert samples[-1] == int(total_time)
        assert len(samples) == count

    @pytest.mark.parametrize("total_time,dt,sample_every", [
        ("1000000", "1", "1"),
        ("2999999", "1", "3"),
        ("1", "2.220446049250313e-16", "1"),    # 2**52 + 1 samples
    ])
    def test_more_than_a_million_samples_rejected(self, total_time, dt,
                                                  sample_every):
        config = parse_config(f"total_time = {total_time}\ndt = {dt}\n"
                              f"sample_every = {sample_every}\n")
        with pytest.raises(ConfigError, match="samples"):
            config.sample_steps()

    def test_line_numbers_in_errors(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("g1 = 1\ng2 = 1\nbogus = 1\n")

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(
        st.sampled_from([f.name for f in fields(ScenarioConfig)]),
        st.one_of(st.floats().map(repr),
                  st.integers(-2 ** 70, 2 ** 70).map(str),
                  st.lists(st.one_of(st.integers(-64, 128), st.floats()),
                           max_size=4).map(lambda v: ",".join(map(str, v))),
                  st.sampled_from(["none", "", "64,64,64", "14,6,10",
                                   "EQ1", "negativity,witness",
                                   "Q[ q ]|C[ u ]", FACTORIAL_PAIR])),
        max_size=8))
    def test_parsed_config_builds_or_is_rejected(self, values):
        try:
            config = parse_config(config_text(values))
        except ConfigError:
            return
        config.initial_gaussian()
        GridSpec(config.grid_points, config.grid_half_widths, config.hbar)


def chsh_column(text):
    """The chsh_opt cells of run_scenario on a config."""
    report = run_scenario(parse_config(text))
    col = report.columns.index("chsh_opt")
    return [row[col] for row in report.rows]


# the probes' means only shift the CHSH settings: each config below has
# the covariances of the same config with every mean and tilt 0
DISPLACED_CHSH = ("total_time = 1\ndt = 0.25\nsample_every = 1\nc_xk = 0.2\n"
                  "diagnostics = chsh\n")
MEAN_KEYS = ("q_mean", "qprime_mean", "c_mean", "q_tilt", "qprime_tilt", "c_tilt")


class TestDisplacedChsh:
    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.sampled_from(MEAN_KEYS),
                           st.floats(-1e150, 1e150), min_size=1))
    # 1e154 squared overflowed in the correlator, once per round, and the
    # column read 0
    @example({"q_tilt": -1e154})
    def test_optimum_equals_the_centred_copys(self, means):
        centred = chsh_column(DISPLACED_CHSH)
        assert chsh_column(DISPLACED_CHSH + config_text(means)) == centred

    def test_displaced_probe_column_is_the_centred_one(self, tmp_path):
        # with q_mean = 7 the column read 1.0e-21, 1.7e-20 and 1.3e-17 at
        # t = 0, 0.25 and 0.5, with exit 0
        def cells(extra):
            cfg, out = tmp_path / "chsh.cfg", tmp_path / "chsh.csv"
            cfg.write_text(DISPLACED_CHSH + extra)
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
            assert rows[0] == "t,chsh_opt"
            return [r.split(",")[1] for r in rows[1:]]

        column = cells("q_mean = 7\n")
        assert column == cells("") and column[0] == "2"

    def test_displaced_descent_is_not_slow(self):
        # a start far from the mean sees E of about 0 and descends by
        # tiny steps: the 17 rows took about 80 s of CPU time
        config = parse_config("g2 = 7\nc_width = 0.3\nqprime_mean = 1\n"
                              "total_time = 4\ndt = 0.25\nsample_every = 1\n"
                              "diagnostics = chsh\n")
        start = time.process_time()
        assert len(run_scenario(config).rows) == 17
        assert time.process_time() - start < 5.0


# the compass search that the CHSH ascent replaced missed these optima by
# up to 12%
MISSED_CHSH = ("g2 = 7\nc_width = 0.3\ntotal_time = 4\ndt = 0.25\nsample_every = 1\n"
               "diagnostics = chsh\n")


class TestChshAscent:
    def test_reaches_the_optima_the_compass_missed(self):
        # the compass read 0.08739, 0.04811 and 0.01673 at t = 1.25, 2 and
        # 4, where 200 random Nelder-Mead starts reach 0.09903, 0.05364 and
        # 0.01788
        report = run_scenario(parse_config(MISSED_CHSH))
        column = {round(row[0], 12): row[1] for row in report.rows}
        assert column[1.25] >= 0.0990
        assert column[2.0] >= 0.0536
        assert column[4.0] >= 0.0178

    def test_every_start_stops_before_the_step_cap(self, tmp_path, monkeypatch):
        # with c_xk = 0.2 the compass took 21 s on these 17 rows; the
        # ascent's work is bounded by its count of steps, which every
        # start ends early on its own
        steps, descent, step = [], ga._chsh_descent, ga._chsh_step

        def counted_descent(*args):
            steps.append(0)
            return descent(*args)

        def counted_step(*args):
            steps[-1] += 1
            return step(*args)

        monkeypatch.setattr(ga, "_chsh_descent", counted_descent)
        monkeypatch.setattr(ga, "_chsh_step", counted_step)
        cfg, out = tmp_path / "chsh.cfg", tmp_path / "chsh.csv"
        cfg.write_text(MISSED_CHSH + "c_xk = 0.2\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(steps) == 1 and 0 < steps[0] < ga._CHSH_STEPS

    @staticmethod
    def column(tmp_path, text):
        cfg, out = tmp_path / "chsh.cfg", tmp_path / "chsh.csv"
        cfg.write_text(text + "diagnostics = chsh\ndt = 0.25\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "t,chsh_opt"
        return [float(r.split(",")[1]) for r in rows[1:]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q_width", ["1e150", "1e80"])
    def test_far_apart_variances_keep_the_hessian_finite(self, tmp_path, capsys,
                                                         q_width):
        # C_pp of about 4 q_width^2 made u u^T overflow where E had
        # underflowed to 0, and 0 * inf put NaN in the Hessian, with two
        # RuntimeWarnings
        column = self.column(tmp_path, f"q_width = {q_width}\nc_xk = 0\n"
                                       "total_time = 0.5\n")
        assert capsys.readouterr().err == ""
        assert len(column) == 2 and column[0] == pytest.approx(2.0, abs=1e-12)

    def test_a_flat_direction_does_not_run_off_to_inf(self, tmp_path):
        # with q_width = 1e20 the inverse covariance has an eigenvalue of
        # -1.5e-40 where the true one is about +1e-40 and E is flat; the
        # ascent followed it, and B read inf at t = 0.75 (exit 3)
        text = "g2 = 7\nc_xk = 0\ntotal_time = 1\nsample_every = 1\n"
        column = self.column(tmp_path, text + "q_width = 1e20\n")
        assert column == pytest.approx(self.column(tmp_path, text + "q_width = 1e10\n"),
                                       rel=1e-9)


class TestRunScenario:
    def test_columns_follow_diagnostics(self):
        config = fast_config("diagnostics = negativity,witness\n"
                             "bracket_pairs = Q[ q ]|Q[ p ]\n")
        report = run_scenario(config)
        assert report.columns == ["t", "logneg_q_qprime", "witness",
                                  "bracket_0"]
        assert [r[0] for r in report.rows] == [0.0, 0.125, 0.25, 0.375, 0.5]

    def test_witness_column_tracks_planted_correlation(self):
        config = fast_config("diagnostics = witness\nc_xk = 0.2\n")
        report = run_scenario(config)
        for row in report.rows:
            t = row[0]
            assert row[1] == pytest.approx(-t * t * 0.2, abs=1e-12)

    def test_header_echo_reparses_to_same_config(self):
        config = fast_config("diagnostics = witness\n")
        report = run_scenario(config)
        echo = "\n".join(l for l in report.header_lines if " = " in l
                         and not l.startswith("max_mask"))
        assert parse_config(echo) == config

    def test_csv_deterministic(self, tmp_path):
        config = fast_config("diagnostics = negativity,witness\n")
        a = run_scenario(config).to_csv()
        b = run_scenario(config).to_csv()
        assert a == b

    def test_bracket_column_tracks_canonical_pair(self):
        config = fast_config("diagnostics = \n"
                             "bracket_pairs = C[ x ]|C[ u ]\n")
        report = run_scenario(config)
        assert report.columns == ["t", "bracket_0"]
        for row in report.rows:
            assert row[1] == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("diagnostics", ["", "negativity"],
                             ids=["no_diagnostics", "with_negativity"])
    def test_bracket_only_run_builds_no_grid(self, monkeypatch, fft_calls,
                                             diagnostics):
        # every bracket column comes from the Gaussian closed form: only
        # validate builds, propagates or samples a grid
        def fail(*args, **kwargs):
            pytest.fail("a bracket-only run must build no grid")

        for name in ("gaussian_factors", "init_product_gaussian",
                     "product_pieces", "split_step_evolve", "to_ensemble"):
            monkeypatch.setattr(gr, name, fail)
        config = fast_config(f"diagnostics = {diagnostics}\nbracket_pairs = "
                             + ";".join(BENCH_BRACKET_PAIRS) + "\n")
        report = run_scenario(config)
        assert len(report.rows) == 5 and fft_calls == []
        assert not any(l.startswith("max_mask_fraction")
                       for l in report.header_lines)

    def test_chsh_column_is_each_states_optimum(self):
        config = parse_config(CHSH_CONFIG)
        report = run_scenario(config)
        col = report.columns.index("chsh_opt")
        samples = gaussian_samples(config)
        assert len(report.rows) == len(samples) >= 9
        for row, (means, cov) in zip(report.rows, samples):
            assert row[col] == ga.optimize_chsh(ga.PhaseSpaceState(means, cov))[0]

    def test_chsh_column_from_one_descent_per_chunk(self, monkeypatch):
        # run_scenario hands the stack of every sampled state to one
        # optimize_chsh_many call, which alone splits it into chunks, and
        # calls the one-state optimize_chsh never: no per-row loop comes back
        calls = []
        optimize_chsh_many = ga.optimize_chsh_many

        def moments(state):
            return state.means.tolist(), state.covariance.tolist()

        def counted(state, *args, **kwargs):
            calls.append(moments(state))
            return optimize_chsh_many(state, *args, **kwargs)

        def fail(*args, **kwargs):
            pytest.fail("run_scenario must not call the one-state optimize_chsh")

        monkeypatch.setattr(ga, "optimize_chsh_many", counted)
        monkeypatch.setattr(ga, "optimize_chsh", fail)
        config = parse_config(CHSH_CONFIG)
        rows = run_scenario(config).rows
        states = moments(_evolved(config)[1])
        assert len(states[0]) == 9 and calls == [states]
        monkeypatch.setattr(ga, "_CHSH_CHUNK", 4)
        assert run_scenario(config).rows == rows
        assert calls == [states, states]

    def test_grid_diagnostics_reject_heff_variant(self, monkeypatch):
        # a config error, found before any Gaussian cell is computed
        def fail(*args, **kwargs):
            pytest.fail("the variant must stop the run before any cell")

        config = fast_config("variant = PAPER_HEFF\n"
                             "diagnostics = validate\n"
                             "bracket_pairs = C[ x ]|C[ u ]\n")
        monkeypatch.setattr(ga, "evolve_gaussian", fail)
        with pytest.raises(ConfigError, match="EQ1 variant"):
            run_scenario(config)


def residuals(config):
    """Sample times and per-sample cross-backend residuals of one pass."""
    times, gauss = _evolved(config)
    return times.tolist(), _backend_residual(config, times, gauss).tolist()


def moment_residual(grid, gauss):
    """One sample's residual, from its two (means, covariance) pairs."""
    (m, v), (gm, gv) = grid, gauss
    return float(max(np.abs(m - gm).max(), np.abs(v - gv).max()))


def sampled_grid_moments(config):
    """`gr.product_moments` of the config's initial factors at its sample
    times, as a list of (means, covariance) pairs."""
    spec = GridSpec(config.grid_points, config.grid_half_widths, config.hbar)
    factors = gr.gaussian_factors(spec, *config.mode_params())
    times = [step * config.dt for step in config.sample_steps()]
    return list(zip(*gr.product_moments(spec, factors, config.g1, config.g2,
                                        times)))


# the README config at 32^3 and t <= 0.5, and a config whose sample_every
# does not divide its 8 steps, so the last sample is appended
REPLAY_CONFIGS = {
    "readme_short": dict(README_CONFIG, grid_points="32,32,32",
                         total_time="0.5"),
    "appended_sample": dict(README_CONFIG, grid_points="32,32,32",
                            total_time="0.5", dt="0.0625", sample_every="3"),
}


def serial_moments(config):
    """The grid moments at the sample times from a serial loop of the same
    per-sample build and `grid_moments` without a pool: the oracle for
    `gr.product_moments`, which splits each sample across two threads."""
    spec = GridSpec(config.grid_points, config.grid_half_widths, config.hbar)
    means, widths, tilts, chirps = config.mode_params()
    factors = gr.gaussian_factors(spec, means, widths, tilts, chirps)
    out = []
    for step in config.sample_steps():
        lq, f, s = gr.product_pieces(spec, factors, config.g1, config.g2,
                                     step * config.dt)
        d0 = gr.assemble_product(
            spec, (lq * (1j * spec.wavenumbers(0))[:, None], f, s))
        state = gr.GridState(spec, gr.assemble_product(spec, (lq, f, s)))
        out.append(gr.grid_moments(state, d0))
    return out


def chained_moments(config):
    """The grid moments at the sample times from propagating the initial
    grid state from sample to sample, and taking each sample's moments
    with `grid_moments` alone."""
    samples = config.sample_steps()
    grid_state, prev, out = initial_grid(config), 0, []
    for step in samples:
        if step > prev:
            grid_state = gr.split_step_evolve(grid_state, config.g1, config.g2,
                                              config.dt, step - prev)
            prev = step
        out.append(gr.grid_moments(grid_state))
    return out


# and, at the README's 64^3, the first three samples of its trajectory
ORACLE_CONFIGS = dict(REPLAY_CONFIGS, every_step=dict(
    README_CONFIG, grid_points="32,32,32", total_time="0.25",
    sample_every="1"), readme_64=dict(README_CONFIG, total_time="0.5"))


class TestGridMoments:
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_equal_to_serial_loop(self, name, short_switch_interval):
        config = parse_config(config_text(ORACLE_CONFIGS[name]))
        got, want = sampled_grid_moments(config), serial_moments(config)
        assert len(got) == len(want) == len(config.sample_steps())
        for (means, cov), (ref_means, ref_cov) in zip(got, want):
            assert np.array_equal(means, ref_means)
            assert np.array_equal(cov, ref_cov)

    def test_residuals_match_chained_propagation(self):
        # building each sample directly at its time, rather than
        # propagating from the last sample, moves the README trajectory's
        # residuals only by the grid's band-limit floor: they agree to
        # 1e-14 up to t = 1.5 and to 2e-10 at t = 2
        config = parse_config(config_text(README_CONFIG))
        times, got = residuals(config)
        want = [moment_residual(moments, sample) for sample, moments
                in zip(gaussian_samples(config), chained_moments(config),
                       strict=True)]
        assert times[-1] == 2.0 and len(got) == len(want) == 9
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9

    def test_one_buffer_for_the_trajectory(self, monkeypatch):
        # every sample is built in the one psi buffer and the one d_0 psi
        # buffer that the calling thread allocated, so the worker
        # allocates no full-size field: it assembles d_0 psi and takes the
        # second half of every call's q slabs, while each grid_moments
        # call is made on the calling thread
        calls, assembled = [], []
        grid_moments, assemble = gr.grid_moments, gr.assemble_product

        def recorded(state, d0, pool):
            calls.append((state.amplitudes, d0, pool,
                          threading.current_thread()))
            return grid_moments(state, d0, pool)

        def recorded_assemble(spec, pieces, out):
            assembled.append((out, threading.current_thread()))
            return assemble(spec, pieces, out)

        monkeypatch.setattr(gr, "grid_moments", recorded)
        monkeypatch.setattr(gr, "assemble_product", recorded_assemble)
        config = parse_config(config_text(ORACLE_CONFIGS["every_step"]))
        assert len(sampled_grid_moments(config)) == len(calls) == 9
        psi, d0, pool = calls[0][:3]
        for field in (psi, d0):
            assert field.shape == (32, 32, 32) and field.dtype == complex
        caller = threading.current_thread()
        assert all(a is psi and d is d0 and p is pool and t is caller
                   for a, d, p, t in calls)
        own = [out for out, thread in assembled if thread is caller]
        worker = [(out, thread) for out, thread in assembled
                  if thread is not caller]
        assert len(own) == len(worker) == 9
        assert all(out is psi for out in own)
        assert all(out is d0 for out, _ in worker)
        assert len({thread for _, thread in worker}) == 1

    @pytest.mark.parametrize("thread", ["caller", "worker"])
    @pytest.mark.parametrize("stage", ["build", "half"])
    def test_error_in_either_thread(self, monkeypatch, stage, thread):
        # one thread fails at the second sample, in its build of psi or
        # d_0 psi, or in its q half of the moments, while the other is
        # still at work: the call raises that error as itself, after the
        # other thread is done, leaves no thread and does not hang
        error = MemoryError(f"{thread} {stage} at the second sample")
        target = {"build": "assemble_product", "half": "_slab_sums"}[stage]
        original = getattr(gr, target)
        calls, finished = [], []

        def failing(*args, **kwargs):
            on_caller = threading.current_thread() is runner
            calls.append(on_caller)
            if on_caller == (thread == "caller") and len(calls) > 2:
                raise error
            if on_caller != (thread == "caller") and len(calls) > 2:
                time.sleep(0.05)
            result = original(*args, **kwargs)
            finished.append(on_caller)
            return result

        monkeypatch.setattr(gr, target, failing)
        config = parse_config(config_text(ORACLE_CONFIGS["every_step"]))
        raised = []

        def run():
            try:
                sampled_grid_moments(config)
            except BaseException as exc:
                raised.append(exc)

        start = threading.active_count()
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(30)
        assert not runner.is_alive()
        assert len(raised) == 1 and raised[0] is error
        # the other thread finished its part of the second sample
        assert len(calls) == 4 and len(finished) == 3
        assert threading.active_count() == start

    @pytest.mark.parametrize("overrides,exception", [
        ({"total_time": "3", "dt": "1.5"}, gr.ConfigurationError),
        ({"c_mean": "30"}, gr.DomainTooSmallError),
        ({"c_width": "4"}, gr.DomainTooSmallError),
    ], ids=["shear", "mean_outside_box", "narrow_box"])
    def test_guards_before_any_grid(self, overrides, exception):
        # the guards of the initial state and of the per-step shear stop
        # validate before any full-size array is allocated
        config = parse_config(config_text(dict(README_CONFIG, **overrides)))
        tracemalloc.start()
        try:
            with pytest.raises(exception):
                validate_backends(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 64 ** 3 // 4

    def test_no_shear_guard_without_steps(self):
        # a run of no steps never propagates, so a dt whose shear would
        # exceed the box is no error, as it was not with split_step_evolve
        config = parse_config(config_text(dict(README_CONFIG, total_time="0",
                                               dt="1.5", grid_points="32,32,32")))
        assert len(residuals(config)[1]) == 1

    def test_peak_memory(self):
        # the split allocates no full-size field: the peak is psi, d_0 psi
        # and an allowance for each thread's three scratch slabs (8 planes
        # each, 384 KiB at 32^3), the (q, q') planes and numpy's buffers;
        # a further full-size field, 256 KiB real or 512 KiB complex at
        # 32^3, would not fit in it beside them
        config = parse_config(config_text(REPLAY_CONFIGS["readme_short"]))
        sampled_grid_moments(config)
        tracemalloc.start()
        try:
            assert len(sampled_grid_moments(config)) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        state = 16 * 32 ** 3
        assert peak <= 2 * state + 2 ** 20

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_run_leaves_no_thread(self, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text(REPLAY_CONFIGS["readme_short"]))
        start = threading.active_count()
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 0
        assert threading.active_count() == start

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_worker_error_reaches_cli(self, tmp_path, capsys, monkeypatch,
                                      command):
        # a guard raised while the worker takes its half of the second
        # sample's moments reaches cli.main as itself: exit 3, as on the
        # calling thread
        threads = []
        slab_sums = gr._slab_sums

        def failing(*args):
            threads.append(threading.current_thread())
            if len(threads) > 2 and threads[-1] is not threading.main_thread():
                raise gr.ConfigurationError("second sample")
            return slab_sums(*args)

        monkeypatch.setattr(gr, "_slab_sums", failing)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text(REPLAY_CONFIGS["readme_short"]))
        start = threading.active_count()
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "numerical guard violation: second sample"
        assert len(threads) == 4
        assert threads[0] is threads[2] is threading.current_thread()
        assert threads[1] is threads[3] is not threading.current_thread()
        assert threading.active_count() == start

    def test_unexpected_worker_error_propagates(self, tmp_path, monkeypatch):
        # an error of the worker's build of d_0 psi reaches cli.main as
        # itself
        calls = []
        assemble = gr.assemble_product

        def failing(spec, pieces, out):
            worker = threading.current_thread() is not threading.main_thread()
            calls.append(worker)
            if worker and len(calls) > 2:
                raise RuntimeError("second sample")
            return assemble(spec, pieces, out)

        monkeypatch.setattr(gr, "assemble_product", failing)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text(REPLAY_CONFIGS["readme_short"]))
        start = threading.active_count()
        with pytest.raises(RuntimeError, match="second sample"):
            main(["validate", "--config", str(cfg)])
        assert threading.active_count() == start


def first_nonfinite(columns, rows):
    """The message for the first non-finite cell, in row order, then
    column order, found cell by cell; None for a finite table."""
    for row in rows:
        for column, v in zip(columns, row):
            if not np.isfinite(v):
                return f"{column} is {v} at t = {_num(row[0])}"
    return None


class TestRequireFinite:
    COLUMNS = ["t", "logneg_q_qprime", "witness", "backend_residual"]

    def table(self, cells):
        rows = [[0.25 * i, 0.1 * i, -0.5, 1e-7] for i in range(8)]
        for i, j, v in cells:
            rows[i][j] = v
        return rows

    def assert_matches_reference(self, rows):
        expected = first_nonfinite(self.COLUMNS, rows)
        for check in (lambda: _require_finite(self.COLUMNS, rows),
                      lambda: ScenarioReport([], self.COLUMNS, rows)):
            if expected is None:
                check()
                continue
            with pytest.raises(NonFiniteResultError) as info:
                check()
            assert str(info.value) == expected

    @pytest.mark.parametrize("cells", [
        [],
        [(3, 2, np.nan), (1, 3, np.inf), (5, 1, -np.inf)],
        [(2, 3, np.nan), (2, 1, np.inf), (2, 2, np.nan)],
        [(7, 0, np.inf), (7, 3, np.nan)],
        [(0, 2, np.float64(np.nan)), (0, 1, np.float64(-np.inf))],
    ], ids=["finite", "rows", "one_row", "last_t", "numpy_cells"])
    def test_message_matches_cell_by_cell(self, cells):
        self.assert_matches_reference(self.table(cells))

    def test_random_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(1, 5)
            cells = zip(rng.integers(0, 8, n), rng.integers(1, 4, n),
                        rng.choice([np.nan, np.inf, -np.inf], n))
            self.assert_matches_reference(self.table(cells))


class TestValidateBackends:
    def assert_half_dt_replays(self, config):
        half = replace(config, dt=config.dt / 2,
                       sample_every=2 * config.sample_every)
        times, full = residuals(config)
        half_times, half_residuals = residuals(half)
        assert half_times == times
        assert half_residuals == full
        assert validate_backends(config) == max(full)

    def test_residual_small_and_flat(self):
        config = fast_config()
        assert validate_backends(config) < 1e-4
        self.assert_half_dt_replays(config)

    @pytest.mark.parametrize("name", sorted(REPLAY_CONFIGS))
    def test_half_dt_pass_is_an_exact_replay(self, name):
        self.assert_half_dt_replays(
            parse_config(config_text(REPLAY_CONFIGS[name])))

    def test_one_pass(self, monkeypatch):
        config = parse_config(config_text(REPLAY_CONFIGS["appended_sample"]))
        samples = config.sample_steps()
        assert samples == [0, 3, 6, 8]
        calls = {"gaussian_factors": 0, "product_pieces": 0,
                 "assemble_product": 0, "grid_moments": 0,
                 "split_step_evolve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(gr, name, counted(name, getattr(gr, name)))
        validate_backends(config)
        # each sample is built once from the one set of initial factors,
        # psi and d_0 psi from the same pieces, and never propagated
        assert calls == {"gaussian_factors": 1,
                         "product_pieces": len(samples),
                         "assemble_product": 2 * len(samples),
                         "grid_moments": len(samples),
                         "split_step_evolve": 0}

    def test_cli_prints_replayed_lines(self, tmp_path, capsys):
        values = REPLAY_CONFIGS["readme_short"]
        cfg = tmp_path / "validate.cfg"
        cfg.write_text(config_text(values))
        assert main(["validate", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        residual = validate_backends(parse_config(config_text(values)))
        first = f"{residual:.6e}"
        assert lines == [f"max cross-backend moment residual: {first}",
                         f"residual at dt/2:                  {first}"]


class TestTomographyDemo:
    def test_exact_recovery(self):
        config = parse_config("total_time = 2\ndt = 0.25\nsample_every = 1\n"
                              "c_mean = 0.5\nc_width = 0.8\nc_xk = 0.2\n")
        result = tomography_demo(config)
        for name in ("mean_x", "mean_k", "var_x", "var_k", "cov_xk"):
            assert getattr(result.recovered, name) \
                == pytest.approx(getattr(result.planted, name), abs=1e-8)

    def test_noise_is_seeded(self):
        text = ("total_time = 2\ndt = 0.25\nsample_every = 1\n"
                "c_width = 0.8\ntomo_noise = 1e-4\nseed = 7\n")
        a = tomography_demo(parse_config(text))
        b = tomography_demo(parse_config(text))
        assert a.recovered == b.recovered

    def test_needs_couplings(self):
        with pytest.raises(ConfigError):
            tomography_demo(parse_config("g1 = 0\n"))


class TestPhysicalityChecks:
    """The initial state is checked once, by evolve_gaussian, and the
    evolved stack once, by the first diagnostic that reads it."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    def test_one_eigen_solve_per_stack(self, tmp_path, eigvalsh_calls):
        # negativity, witness and chsh each checked every evolved state:
        # 4 eigen-solves per sample, 1 + 3 of them on the same state
        cfg = tmp_path / "chsh.cfg"
        cfg.write_text(CHSH_CONFIG)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 0
        assert eigvalsh_calls == [(6, 6), (9, 6, 6)]

    def test_bracket_only_run_checks_only_the_initial_state(self, tmp_path,
                                                            eigvalsh_calls):
        cfg = tmp_path / "brackets.cfg"
        cfg.write_text("total_time = 1\ndt = 0.125\nsample_every = 1\n"
                       "diagnostics = \nbracket_pairs = C[ x ]|C[ u ]\n")
        assert main(["brackets", "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 0
        assert eigvalsh_calls == [(6, 6)]

    @pytest.mark.parametrize("command,diagnostics", [
        ("simulate", "negativity,witness,chsh"), ("simulate", ""),
        ("tomography", "")])
    def test_unphysical_initial_state_exits_3(self, tmp_path, capsys, monkeypatch,
                                              command, diagnostics):
        # a config builds only pure states; the guard is reached by
        # replacing the initial state with V = 0.4 I
        monkeypatch.setattr(ScenarioConfig, "initial_gaussian", lambda self:
                            ga.PhaseSpaceState(np.zeros(6), 0.4 * np.eye(6)))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("total_time = 1\ndt = 0.125\nsample_every = 1\n"
                       f"diagnostics = {diagnostics}\n"
                       "bracket_pairs = C[ x ]|C[ u ]\n")
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical guard violation: covariance violates uncertainty "
            "relation (min eig -1.000e-01)\n")
        assert not out.exists()


@pytest.fixture
def no_grid(monkeypatch):
    """Fail the test if a grid state is built."""
    def fail(*args, **kwargs):
        pytest.fail("the config must be rejected before any grid")

    for name in ("gaussian_factors", "init_product_gaussian"):
        monkeypatch.setattr(gr, name, fail)


class TestCli:
    def write_config(self, tmp_path, extra=""):
        path = tmp_path / "scenario.cfg"
        path.write_text("total_time = 0.5\ndt = 0.125\nsample_every = 1\n"
                        + FAST_GRID + extra)
        return path

    def test_simulate_writes_csv(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "diagnostics = negativity,witness\n")
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        text = out.read_text()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "t,logneg_q_qprime,witness"
        assert len(lines) == 6

    def test_default_output_path(self, tmp_path):
        cfg = self.write_config(tmp_path, "diagnostics = witness\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "scenario.csv").exists()

    def test_validate_prints_summary(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "residual" in capsys.readouterr().out

    def test_brackets_subcommand(self, tmp_path):
        cfg = self.write_config(tmp_path,
                                "bracket_pairs = C[ x ]|C[ u ]\n")
        out = tmp_path / "br.csv"
        assert main(["brackets", "--config", str(cfg),
                     "--out", str(out)]) == 0
        header = [l for l in out.read_text().splitlines()
                  if not l.startswith("#")][0]
        assert "bracket_0" in header

    def test_brackets_without_pairs_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "br.csv"
        assert main(["brackets", "--config", str(cfg), "--out", str(out)]) == 2
        assert "needs bracket_pairs" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_help_says_out_is_ignored(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--help"])
        assert "accepted and ignored" in capsys.readouterr().out

    def test_term_sign_read_as_written(self, tmp_path):
        # q - (-2p) at <q> = <p> = 1: {q + 2p, qp} = <q> - 2<p> = -1; the
        # second sign used to replace the first and give 3
        cfg = self.write_config(tmp_path, (
            "q_mean = 1\nq_tilt = 1\n"
            "bracket_pairs = Q[ q - -2*p ]|Q[ sym(q*p) ]\n").replace(
                "total_time = 0.5", "total_time = 0"))
        out = tmp_path / "br.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0].endswith(",bracket_0")
        assert float(rows[1].split(",")[-1]) == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("spec", [
        "Q[ 2*-q ]", "Q[ q* ]", "Q[ *q ]", "Q[ q**p ]", "Q[ q - ]",
        "Q[ --q ]", "Q[ sym() ]", "Q[ + ]", "Q[ - ]", "Q[ ]"])
    def test_malformed_spec_exits_2(self, tmp_path, capsys, no_grid, spec):
        # each used to run and write a bracket of the wrong observable
        cfg = self.write_config(tmp_path, f"bracket_pairs = {spec}|C[ u ]\n")
        out = tmp_path / "br.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert re.search(r"bracket pair .*: unexpected",
                         capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "brackets"])
    def test_brackets_diagnostic_without_pairs_exits_2(self, tmp_path, capsys,
                                                       command):
        # simulate used to write only the t column and exit 0
        # bracket columns follow bracket_pairs alone, so brackets is not a
        # diagnostic
        cfg = self.write_config(tmp_path, "diagnostics = brackets\n")
        out = tmp_path / "br.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert ("unknown diagnostic 'brackets'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_tomography_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "tomo.cfg"
        cfg.write_text("total_time = 2\ndt = 0.25\nsample_every = 1\n"
                       "c_xk = 0.2\n")
        out = tmp_path / "tomo.csv"
        assert main(["tomography", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert "cov_xk" in out.read_text()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--config",
                     str(tmp_path / "nope.cfg")]) == 2

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        # a file that is not UTF-8 used to end in a UnicodeDecodeError
        # traceback
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# caf\xe9\ntotal_time = 1\n".encode("latin-1"))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "tomography"])
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch,
                                       command, target):
        # a missing directory ended in a FileNotFoundError traceback, a
        # directory in an IsADirectoryError one.  Both are refused before
        # any propagation (validate asks for the grid), leaving no file
        def fail(*args, **kwargs):
            pytest.fail("an unwritable output must be refused before any work")

        monkeypatch.setattr(gr, "product_pieces", fail)
        monkeypatch.setattr(ga, "evolve_gaussian", fail)
        cfg = tmp_path / "tomo.cfg"
        cfg.write_text("total_time = 2\ndt = 0.25\nsample_every = 1\n"
                       "c_xk = 0.2\ndiagnostics = witness,validate\n"
                       + FAST_GRID)
        out = (tmp_path / "nope" / "out.csv" if target == "missing_dir"
               else tmp_path)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write output {out}" in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv_out,written", [
        ("run.csv", "run.csv"), (None, "elsewhere.csv")])
    def test_config_is_built_once(self, tmp_path, monkeypatch, argv_out,
                                  written):
        # the output path is set while the config is built: a second
        # construction would check the config and build S again.  --out
        # takes precedence over the file's output_path
        built = []
        post_init = ScenarioConfig.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ScenarioConfig, "__post_init__", counted)
        out = tmp_path / written
        cfg = self.write_config(tmp_path, "diagnostics = witness\n"
                                f"output_path = {tmp_path / 'elsewhere.csv'}\n")
        argv = ["simulate", "--config", str(cfg)]
        if argv_out:
            argv += ["--out", str(tmp_path / argv_out)]
        assert main(argv) == 0
        assert [c.output_path for c in built] == [str(out)]
        assert out.exists()

    @pytest.mark.parametrize("command,overrides", [
        ("simulate", {"grid_points": "64,64", "grid_half_widths": "14,6"}),
        ("simulate", {"g1": "nan"}),
        ("simulate", {"hbar": "-1"}),
        ("simulate", {"grid_points": "48,64,64"}),
        ("simulate", {"c_width": "0"}),
        ("tomography", {"tomo_noise": "-1"}),
        # tomography is a subcommand, not a diagnostic of run_scenario
        ("simulate", {"diagnostics": "negativity,tomography"}),
    ])
    def test_bad_values_exit_2(self, tmp_path, capsys, command, overrides):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config_text(dict(README_CONFIG, **overrides)))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("total_time,dt", [
        ("1", "0.3"),       # rounded to 3 steps, the run ended at t = 0.9
        ("1", "0.6"),       # rounded to 2 steps, the run ended at t = 1.2
        ("1", "1e-300"),    # 1e300 steps overflowed the step count
    ])
    def test_partial_step_exits_2(self, tmp_path, capsys, monkeypatch,
                                  total_time, dt):
        def no_steps(config):
            pytest.fail("the config must be rejected before sample_steps")

        monkeypatch.setattr(ScenarioConfig, "sample_steps", no_steps)
        cfg = tmp_path / "steps.cfg"
        cfg.write_text(config_text(dict(README_CONFIG, total_time=total_time,
                                        dt=dt, grid_points="32,32,32")))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "dt" in err or "total_time" in err

    def test_rounded_whole_steps_accepted(self, tmp_path):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point: three steps
        config = parse_config("total_time = 0.3\ndt = 0.1\n")
        assert config.sample_steps() == [0, 3]
        cfg = tmp_path / "steps.cfg"
        cfg.write_text("total_time = 0.3\ndt = 0.1\nsample_every = 1\n"
                       "diagnostics = witness\n")
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [float(r.split(",")[0]) for r in rows] \
            == [0.0, 0.1, 0.2, 3 * 0.1]

    def test_noisy_tomography_exits_3(self, tmp_path, capsys):
        # noise this large drives a fitted variance negative
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text(config_text(dict(README_CONFIG, tomo_noise="1",
                                        seed="0")))
        assert main(["tomography", "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 3
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("c_mean", ["100", "30"])
    def test_mean_outside_box_exits_3(self, tmp_path, capsys, command,
                                      c_mean):
        # the mediator's mean lies outside [-10, 10): the periodic box
        # would wrap the state, so the run must stop before any output
        cfg = tmp_path / "wrapped.cfg"
        cfg.write_text(config_text(dict(README_CONFIG, c_mean=c_mean,
                                        grid_points="32,32,32")))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 3
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [
        FACTORIAL_PAIR, "Q[ sym(q*q*q*q*q*p*p*p*p) ]|C[ u ]"])
    def test_too_many_factors_on_one_mode_exits_2(self, tmp_path, capsys,
                                                  no_grid, pair):
        cfg = tmp_path / "factors.cfg"
        cfg.write_text(config_text(dict(README_CONFIG, bracket_pairs=pair,
                                        grid_points="32,32,32")))
        assert main(["brackets", "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert "factors on mode Q" in capsys.readouterr().err

    def test_too_many_classical_factors_exits_2(self, tmp_path, capsys,
                                                no_grid):
        # the exact brackets of 30-factor classical monomials ran for
        # minutes before the cap
        cfg = tmp_path / "factors.cfg"
        cfg.write_text(config_text(dict(
            README_CONFIG, grid_points="32,32,32",
            bracket_pairs="C[ %s ]|C[ %s ]" % ("*".join("u" * 30),
                                               "*".join("x" * 30)))))
        out = tmp_path / "out.csv"
        assert main(["brackets", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert ("a classical monomial has 30 factors on mode C"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "validate",
                                         "tomography"])
    def test_more_than_a_million_samples_exits_2(self, tmp_path, capsys,
                                                 no_grid, command):
        # 2**52 + 1 samples of 2**-52: the sample list used to end in a
        # MemoryError traceback
        cfg = tmp_path / "samples.cfg"
        cfg.write_text(config_text(dict(README_CONFIG, total_time="1",
                                        dt="2.220446049250313e-16",
                                        sample_every="1")))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert "samples exceed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "tomography"])
    @pytest.mark.parametrize("g1", ["1e200", "1e300"])
    def test_overflowing_coupling_exits_2(self, tmp_path, capsys, no_grid,
                                          command, g1):
        # the Gaussian moments at total_time overflow: the run used to stop
        # at that sample with a ValueError traceback.  The first sample
        # whose propagator rounding fails the 1e-10 check now stops it
        cfg = tmp_path / "coupling.cfg"
        cfg.write_text(config_text(dict(README_CONFIG, g1=g1)))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == ("config error: matrix is not "
                                           "symplectic to 1e-10\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["simulate", "validate", "tomography"])
    @pytest.mark.parametrize("extra,message", [
        # S V S^T is finite, but its symmetric part overflows in the add:
        # the run used to end in a ValueError traceback
        ("c_width = 1.0\n", "the Gaussian moments overflow at t = 0: lower "
                            "g1, g2, total_time, c_xk or the widths"),
        # with the vacuum width the momentum variance itself overflows:
        # the run used to warn before it exited 2
        ("", "the initial Gaussian moments are not finite: hbar, a width, "
             "a tilt or c_xk is out of range"),
    ], ids=["symmetric_part", "vacuum_width"])
    def test_overflowing_mediator_moments_exit_2(self, tmp_path, capsys,
                                                 no_grid, command, extra,
                                                 message):
        # the trajectory is judged where it is evolved, before any grid
        # work or file: the config error, with no warning on the way
        cfg = tmp_path / "c_xk.cfg"
        cfg.write_text("c_xk = 1e154\ntotal_time = 0.5\ndt = 0.25\n"
                       "diagnostics = negativity\n" + extra)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("hbar,total_time", [
        ("1e154", "0"),  # (pi hbar)**2 raised OverflowError: exit 1
        # det V underflowed to 0 and chsh_opt was nan: exit 3
        ("1e-150", "0.5"), ("1e-100", "0.5")])
    def test_chsh_does_not_depend_on_hbar(self, tmp_path, capsys, hbar,
                                          total_time):
        def chsh_column(hbar):
            cfg = tmp_path / "hbar.cfg"
            cfg.write_text(f"hbar = {hbar}\ntotal_time = {total_time}\n"
                           "dt = 0.125\nsample_every = 1\ndiagnostics = chsh\n")
            out = tmp_path / "out.csv"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
            assert rows[0] == "t,chsh_opt"
            return [float(r.split(",")[1]) for r in rows[1:]]

        column = chsh_column(hbar)
        assert column[0] == pytest.approx(2.0, abs=1e-12)
        assert column == pytest.approx(chsh_column("1"), rel=1e-12, abs=0)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["simulate", "validate", "tomography"])
    @pytest.mark.parametrize("extra", [
        # hbar**2 / (4 width**2) is 0: the run ended in LinAlgError (exit 1)
        "hbar = 1e-200\n", "hbar = 1e-300\n",
        # hbar**2 is subnormal: unrefused, the t = 0 vacuum's chsh_opt reads
        # 2.0000223 at 1e-160 and 2.0000000000000067 at 1e-155, where it is 2
        "hbar = 1e-160\n", "hbar = 1e-155\n",
        # the momentum variance 2.5e-309 is subnormal
        "q_width = 1e154\n"])
    def test_underflowing_initial_variance_exits_2(self, tmp_path, capsys, no_grid,
                                                   command, extra):
        cfg = tmp_path / "underflow.cfg"
        cfg.write_text("total_time = 0.5\ndt = 0.25\ndiagnostics = chsh\n" + extra)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == ("config error: an initial variance "
                                           "underflows: hbar is too small or a "
                                           "width out of range\n")

    @pytest.mark.parametrize("command,message", [
        ("simulate", "the propagator overflows at t = 0.5: lower g1, g2, "
                     "total_time, c_xk or the widths"),
        # the variant is refused before the trajectory is evolved
        ("tomography", "tomography fits only the EQ1 variant")],
        ids=["simulate", "tomography"])
    def test_overflowing_heff_propagator_exits_2(self, tmp_path, capsys, no_grid,
                                                 command, message):
        # sinh(sqrt(g1 g2) t) overflowed while the config built S at
        # total_time: the run ended in an OverflowError traceback (exit 1)
        cfg = tmp_path / "heff.cfg"
        cfg.write_text("variant = PAPER_HEFF\ng2 = 1e154\ntotal_time = 0.5\n"
                       "dt = 0.25\n")
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("overrides,cell,zero_nu", [
        # a zero symplectic eigenvalue reads E_N = inf
        ({"diagnostics": "negativity", "bracket_pairs": ""},
         "logneg_q_qprime is inf at t = 0", True),
        # {q^2, p} = 2 q: 1e616 q overflows at the nonzero mean of q
        ({"diagnostics": "", "grid_points": "32,32,32", "q_mean": "0.5",
          "bracket_pairs": "Q[ 1e308*q*q ]|Q[ 1e308*p ]"},
         "bracket_0 is inf at t = 0", False),
    ], ids=["negativity", "bracket"])
    # the overflows that make the cells non-finite warn on the way
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_cell_exits_3(self, tmp_path, capsys, monkeypatch,
                                    overrides, cell, zero_nu):
        # the report's finite check names the first non-finite cell; before,
        # the run ended in a ValueError traceback
        if zero_nu:
            zero_symplectic_eigenvalues(monkeypatch)
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(config_text(dict(README_CONFIG, **overrides)))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"numerical guard violation: {cell}"
        assert not out.exists()

    def test_far_apart_variances_read_no_negativity(self, tmp_path, capsys):
        # a product state whose probe variances lie far apart (1e300 and
        # 2.5e-301): without balancing each mode, eigvals read a zero
        # symplectic eigenvalue, E_N = inf and exit 3
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("q_width = 1e150\nc_xk = 0\n"
                       "diagnostics = negativity\ntotal_time = 0.5\n"
                       "dt = 0.25\n")
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")]
        assert rows[0] == ["t", "logneg_q_qprime"] and len(rows) == 3
        assert all(0.0 <= float(e_n) <= 1e-15 for _, e_n in rows[1:])

    # the overflows that make the cell non-finite warn on the way
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_row_stops_before_propagating(self, tmp_path, capsys,
                                                    monkeypatch):
        # each row is checked as it is built: a non-finite bracket at t = 0
        # ends a validate run before its first grid sample is built
        steps = []
        product_pieces = gr.product_pieces

        def counted(*args, **kwargs):
            steps.append(args)
            return product_pieces(*args, **kwargs)

        monkeypatch.setattr(gr, "product_pieces", counted)
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(config_text(dict(
            README_CONFIG, grid_points="32,32,32", q_mean="0.5",
            bracket_pairs="Q[ 1e308*q*q ]|Q[ 1e308*p ]")))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == ("numerical guard violation: bracket_0 is inf "
                           "at t = 0")
        assert steps == [] and not out.exists()

    # the overflows that make the cell non-finite warn on the way
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_late_nonfinite_cell_stops_before_any_grid(self, tmp_path, capsys,
                                                       monkeypatch):
        # every Gaussian cell is checked before the grid is built: a
        # bracket that overflows only at t = 0.5 ends a validate run
        # before its first grid sample, where row by row it took two
        steps = []
        product_pieces = gr.product_pieces

        def counted(*args, **kwargs):
            steps.append(args)
            return product_pieces(*args, **kwargs)

        monkeypatch.setattr(gr, "product_pieces", counted)
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(config_text(dict(
            README_CONFIG, grid_points="32,32,32",
            bracket_pairs="Q[ 1e308*q*q ]|Q[ sym(q*p) ]")))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == ("numerical guard violation: bracket_0 is inf "
                           "at t = 0.5")
        assert steps == [] and not out.exists()

    @pytest.mark.parametrize("command,cause", [
        ("tomography", "design matrix is rank deficient"),
        ("simulate", "uncertainty relation")])
    @pytest.mark.parametrize("g1", ["1e8", "1e20"])
    def test_huge_coupling_exits_3(self, tmp_path, capsys, command, cause,
                                   g1):
        # the rounding of S V S^T once broke PhaseSpaceState's symmetry
        # guard, and tomography ended in a ValueError traceback
        cfg = self.write_config(tmp_path, f"g1 = {g1}\n")
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err
        assert "numerical guard violation" in err and cause in err

    def test_numerical_guard_exits_3(self, tmp_path, capsys):
        # mediator spread far too wide for the configured box
        cfg = self.write_config(tmp_path, "c_width = 4.0\n"
                                "diagnostics = validate\n"
                                "bracket_pairs = C[ x ]|C[ u ]\n")
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert "guard" in capsys.readouterr().err

    def test_narrow_box_exits_3_on_validate(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "c_width = 4.0\n")
        assert main(["validate", "--config", str(cfg)]) == 3
        assert ("half-width 8.0 < 8 x initial std 4.0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_shear_guard_exits_3(self, tmp_path, capsys, command):
        # samples are built at their times, not propagated, but a dt whose
        # per-step shear exceeds the box is still refused, before any grid
        cfg = tmp_path / "shear.cfg"
        cfg.write_text(config_text(dict(README_CONFIG, total_time="3",
                                        dt="1.5")))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines()[-1] == (
            "numerical guard violation: per-step shear exceeds the domain "
            "size; reduce dt or enlarge the box")
        assert not out.exists()

    def test_tomography_rejects_heff_variant(self, tmp_path, capsys, monkeypatch):
        # the inversion fits the EQ1 propagator's moments: on PAPER_HEFF
        # data it exited 3, "fitted variances are negative beyond fit
        # noise", even without noise.  Now a config error, before any work
        monkeypatch.setattr(ga, "evolve_gaussian", lambda *args: pytest.fail(
            "the variant must be refused before any evolution"))
        cfg = tmp_path / "heff.cfg"
        cfg.write_text("variant = PAPER_HEFF\ntotal_time = 2\ndt = 0.125\n"
                       "sample_every = 1\n")
        out = tmp_path / "out.csv"
        assert main(["tomography", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: tomography fits only "
                                           "the EQ1 variant\n")
        assert not out.exists()

    def test_validate_rejects_heff_variant(self, tmp_path, capsys, no_grid):
        cfg = tmp_path / "heff.cfg"
        cfg.write_text(config_text(dict(README_CONFIG, variant="PAPER_HEFF")))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "EQ1 variant" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_factor_that_underflows_exits_3(self, tmp_path, capsys, command):
        # a factor this narrow is 0 at every grid point: normalizing it
        # divided by a zero norm, and validate printed a nan residual and
        # exited 0, where simulate reported the nan cell.  Refused before
        # the division, under the tier-1 RuntimeWarning-as-error filter
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(config_text(dict(
            README_CONFIG, grid_points="32,32,32", q_width="0.001",
            q_mean="0.2", total_time="0.5", dt="0.125", sample_every="2",
            diagnostics="validate")))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "numerical guard violation: axis q: the factor of width 0.001 "
            "underflows at every grid point; refine the grid\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_nonfinite_residual_exits_3(self, tmp_path, capsys, monkeypatch,
                                        command):
        # validate reads the backend_residual column that simulate
        # writes, finite check included: a NaN grid moment at the second
        # sample is refused by both, with the same message
        product_moments = gr.product_moments

        def with_nan(*args):
            means, cov = product_moments(*args)
            means[1, 3] = np.nan
            return means, cov

        monkeypatch.setattr(gr, "product_moments", with_nan)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text(REPLAY_CONFIGS["readme_short"]))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "numerical guard violation: backend_residual is nan at t = 0.25\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "validate", "tomography"])
    def test_nonsymplectic_sample_exits_2(self, tmp_path, capsys, no_grid,
                                          command):
        # S is exact at t = 0 and at total_time, where the config is
        # checked, but not symplectic to 1e-10 from t = 3/64: that ended
        # in a ValueError traceback.  Now the config error a failure at
        # total_time gets, before any grid work
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("g2 = 1e150\ntotal_time = 1\nsample_every = 3\n")
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "config error: matrix is not symplectic to 1e-10\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "g2 = 0.5\ntotal_time = 1\nsample_every = 2\nc_xk = 0.2\n"
        "c_tilt = 1e200\n",
        "g1 = -2\ntotal_time = 1\ndt = 0.25\nsample_every = 1\n"
        "hbar = 2.5\nq_width = 1e100\n",
    ], ids=["huge_tilt", "huge_width"])
    def test_nonfinite_tomography_exits_3(self, tmp_path, capsys, text):
        # the fit residual overflowed to inf, and tomography printed it,
        # wrote it and exited 0 (the second config recovered var_x as
        # 5.7e183 against a planted 1.25)
        cfg = tmp_path / "tomo.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert main(["tomography", "--config", str(cfg), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "numerical guard violation: recovered residual is inf\n")
        assert not out.exists()


@pytest.mark.parametrize("name", ["readme", *OVERFLOW_CONFIGS])
def test_parsing_evolves_nothing(monkeypatch, name):
    # the trajectory is evolved and judged once, where the run evolves it;
    # the config built S and S V S^T at t = 0 and total_time as a proxy
    text = (config_text(README_CONFIG) if name == "readme"
            else OVERFLOW_CONFIGS[name][0])
    with monkeypatch.context() as patched:
        for fn in ("symplectic_propagator", "evolved_moments"):
            patched.setattr(ga, fn, lambda *args: pytest.fail(
                "parsing must not evolve the Gaussian moments"))
        parse_config(text)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["simulate", "validate", "tomography"])
@pytest.mark.parametrize("name", list(OVERFLOW_CONFIGS))
def test_overflowing_trajectory_exits_2(tmp_path, capsys, no_grid, command,
                                        name):
    text, message = OVERFLOW_CONFIGS[name]
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")
    if command == "simulate":
        assert captured.err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("noise", ["1e160", "1e200", "1e300"])
def test_overflowing_tomography_noise_exits_3(tmp_path, capsys, noise):
    # cov_xk ** 2 raised OverflowError in MediatorEstimate: a traceback
    cfg = tmp_path / "noise.cfg"
    cfg.write_text("total_time = 1\ndt = 0.125\nsample_every = 1\n"
                   f"tomo_noise = {noise}\n")
    out = tmp_path / "out.csv"
    assert main(["tomography", "--config", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "numerical guard violation: recovered residual is inf\n")
    assert not out.exists()


@pytest.mark.parametrize("noise,message", [
    # rng.normal draws inf past the largest double: the conserved means
    # overflowed with four RuntimeWarnings, and the run blamed the fit,
    # "fitted variances are negative beyond fit noise"
    ("1e308", "probe moment var q' is inf at t = 0.125"),
    # finite moments whose sum over time overflows
    ("5e307", "the mean of probe moment mean p over time is -inf")])
def test_nonfinite_tomography_input_exits_3(tmp_path, capsys, noise, message):
    cfg = tmp_path / "noise.cfg"
    cfg.write_text("total_time = 1\ndt = 0.125\nsample_every = 1\n"
                   f"tomo_noise = {noise}\n")
    out = tmp_path / "out.csv"
    assert main(["tomography", "--config", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"numerical guard violation: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("q_width,moved,scale", [
    ("1e20", "1.38e+24", "9.85e+23"), ("1e50", "1.38e+84", "9.06e+83")])
def test_tomography_lost_precision_exits_3(tmp_path, capsys, q_width, moved,
                                           scale):
    # Var q = q_width^2 swamps the g1^2 t^2 Var x it carries: var_x was
    # recovered as 9.85e23 (q_width 1e20) against a planted 1.25, exit 0
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("g1 = -2\ntotal_time = 1\ndt = 0.25\nsample_every = 1\n"
                   f"hbar = 2.5\nq_width = {q_width}\n")
    out = tmp_path / "out.csv"
    assert main(["tomography", "--config", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "numerical guard violation: recovered var_x lost its precision: "
        f"rounding of the probe moments can move it by {moved}, above 1e-06 "
        f"of its scale {scale}\n")
    assert not out.exists()


@pytest.mark.parametrize("extra,cell,zero_nu", [
    # m_q m_p' overflowed with a RuntimeWarning before the guard line
    ("q_mean = 1e200\nqprime_tilt = 1e200\ndiagnostics = witness\n",
     "witness is inf at t = 0", False),
    # log(0) of a zero symplectic eigenvalue divides by zero
    ("diagnostics = negativity\n", "logneg_q_qprime is inf at t = 0", True),
], ids=["witness", "negativity"])
def test_nonfinite_diagnostic_warns_nothing(tmp_path, capsys, monkeypatch,
                                            extra, cell, zero_nu):
    if zero_nu:
        zero_symplectic_eigenvalues(monkeypatch)
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("total_time = 0.5\ndt = 0.25\n" + extra)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"numerical guard violation: {cell}\n")
    assert not out.exists()


def test_brackets_csv_independent_of_hash_seed(tmp_path):
    # observables key dicts and the Weyl orders are enumerated from
    # tuples of strings: the CSV must not depend on the string-hash seed
    cfg = tmp_path / "brackets.cfg"
    # products with many distinct factor orders, whose sum rounds
    # differently when the orders are summed in another order
    pairs = BENCH_BRACKET_PAIRS + ("Q[ sym(q*q*q*p*p*p) ]|Q[ sym(q*p*p) ]",
                                   "Q[ sym(q*p*q*p'*p'*q'*x*k*k) ]|C[ u*u*x ]")
    cfg.write_text(config_text(dict(
        README_CONFIG, diagnostics="negativity", total_time="1",
        q_mean="0.3", q_tilt="0.2", bracket_pairs=";".join(pairs))))
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "out.csv"      # the header echoes the output path
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "hybridlab.cli", "brackets",
                        "--config", str(cfg), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_report_rejects_nonmonotonic_times():
    from hybridlab.scenario import ScenarioReport
    with pytest.raises(ValueError):
        ScenarioReport([], ["t"], [[0.0], [0.0]])


def test_report_rejects_nonfinite_cells():
    from hybridlab.scenario import ScenarioReport
    with pytest.raises(ValueError):
        ScenarioReport([], ["t", "v"], [[0.0, float("nan")]])
