"""Each benchmark check accepts the closed form and rejects a perturbed value."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import checks
from workloads import BRACKET_PAIRS, PROBE_MEDIATOR, scenario, squeezed_covariance

README = scenario()                       # the README config, c_xk = 0.2
CUBIC = scenario(q_mean=0.3, qprime_mean=-0.2, c_mean=0.4, q_tilt=0.1,
                 qprime_tilt=0.2, c_tilt=-0.3, bracket_pairs=BRACKET_PAIRS,
                 dt=0.25, sample_every=4, diagnostics=("negativity", "witness"))


def test_propagator_solves_the_heisenberg_equations():
    g1, g2, t = 0.7, 1.3, 1.9
    gen = np.zeros((6, 6))                # H = (1/2) v^T G v
    gen[1, 4] = gen[4, 1] = g1
    gen[2, 5] = gen[5, 2] = g2
    omega = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(checks.propagator(g1, g2, t), expm(omega @ gen * t),
                       atol=1e-12)


def test_readme_closed_forms():
    m, v = checks.evolved_moments(README, 2.0)
    assert checks.witness(m, v) == pytest.approx(-4.0 * 0.2, abs=1e-15)
    assert checks.probe_mediator_bracket(v, 1.0) == pytest.approx(-9.6, rel=1e-12)
    _, v0 = checks.initial_moments(README)
    assert checks.probe_mediator_bracket(v0, 1.0) == 0.0


def write_scenario_csv(path, cfg, columns, perturb=None):
    """The CSV a correct run writes, from the closed forms."""
    rows = []
    for t in checks.sample_times(cfg):
        m, v = checks.evolved_moments(cfg, t)
        cells = {"t": t, "logneg_q_qprime": 0.0, "witness": checks.witness(m, v),
                 "chsh_opt": 2.0, "backend_residual": 1e-7}
        for i, pair in enumerate(cfg["bracket_pairs"]):
            cells[f"bracket_{i}"] = checks.BRACKET_FORMS[pair](m, v, cfg["hbar"])[0]
        if perturb:
            perturb(t, cells)
        rows.append(",".join(repr(float(cells[c])) for c in columns))
    path.write_text("# hybridlab\n" + ",".join(columns) + "\n" + "\n".join(rows) + "\n")
    return path


def set_at(t_at, column, change):
    def perturb(t, cells):
        if abs(t - t_at) < 1e-12:
            cells[column] = change(cells[column])
    return perturb


README_COLUMNS = ["t", "logneg_q_qprime", "witness", "bracket_0", "backend_residual"]
CUBIC_COLUMNS = ["t", "logneg_q_qprime", "witness", "bracket_0", "bracket_1",
                 "bracket_2", "bracket_3"]


def test_scenario_csv_accepts_the_closed_form(tmp_path):
    path = write_scenario_csv(tmp_path / "a.csv", README, README_COLUMNS)
    assert checks.check_scenario_csv(path, README, bracket_t_max=1.0)[0] == []
    path = write_scenario_csv(tmp_path / "b.csv", CUBIC, CUBIC_COLUMNS)
    problems, worst = checks.check_scenario_csv(path, CUBIC)
    assert problems == [] and max(worst.values()) < 1e-12


@pytest.mark.parametrize("perturb", [
    set_at(0.5, "logneg_q_qprime", lambda v: 1e-9),
    set_at(1.0, "witness", lambda v: v + 1e-6),
    set_at(1.0, "bracket_0", lambda v: v * (1 + 2e-5)),
    set_at(0.0, "bracket_0", lambda v: 1e-7),
    set_at(2.0, "backend_residual", lambda v: 2e-4),
    set_at(0.25, "t", lambda v: v + 1e-3),
])
def test_scenario_csv_rejects_a_perturbed_cell(tmp_path, perturb):
    path = write_scenario_csv(tmp_path / "a.csv", README, README_COLUMNS, perturb)
    assert checks.check_scenario_csv(path, README, bracket_t_max=1.0)[0]


def test_missing_column_is_rejected(tmp_path):
    path = write_scenario_csv(tmp_path / "a.csv", README, README_COLUMNS[:-1])
    assert checks.check_scenario_csv(path, README, bracket_t_max=1.0)[0]


@pytest.mark.parametrize("column", ["bracket_0", "bracket_1", "bracket_2", "bracket_3"])
def test_each_bracket_pair_is_checked(tmp_path, column):
    m, v = checks.evolved_moments(CUBIC, 1.0)
    pair = CUBIC["bracket_pairs"][int(column[-1])]
    _, scale = checks.BRACKET_FORMS[pair](m, v, 1.0)
    perturb = set_at(1.0, column, lambda b: b + 2e-5 * scale)
    path = write_scenario_csv(tmp_path / "a.csv", CUBIC, CUBIC_COLUMNS, perturb)
    assert checks.check_scenario_csv(path, CUBIC)[0]


def test_late_bracket_rows_are_reported_not_held(tmp_path):
    perturb = set_at(2.0, "bracket_0", lambda v: v * 0.94)
    path = write_scenario_csv(tmp_path / "a.csv", README, README_COLUMNS, perturb)
    problems, worst = checks.check_scenario_csv(path, README, bracket_t_max=1.0)
    assert problems == [] and worst["bracket_0"] == pytest.approx(0.06)
    assert checks.check_scenario_csv(path, README)[0]


def test_chsh_column_is_bounded(tmp_path):
    cfg = scenario(diagnostics=("chsh",), bracket_pairs=())
    columns = ["t", "chsh_opt"]
    path = write_scenario_csv(tmp_path / "a.csv", cfg, columns)
    assert checks.check_scenario_csv(path, cfg)[0] == []
    for bad in (2.0 + 2e-6, 0.5):
        path = write_scenario_csv(tmp_path / "a.csv", cfg, columns,
                                  set_at(1.0, "chsh_opt", lambda v: bad))
        assert checks.check_scenario_csv(path, cfg)[0]


VALIDATE_OUT = ("max cross-backend moment residual: {}\n"
                "residual at dt/2:                  {}\n"
                "dt-halving error ratio:            1.000\n")


def test_validate_output():
    assert checks.check_validate_output(VALIDATE_OUT.format(1.4e-7, 1.4e-7)) == []
    assert checks.check_validate_output(VALIDATE_OUT.format(1.4e-7, 2e-4))
    assert checks.check_validate_output(VALIDATE_OUT.format(5.57, 1e-7))
    assert checks.check_validate_output("dt-halving error ratio: 1.0\n")


def write_tomography_csv(path, cfg, change=None):
    lines = ["# hybridlab", "moment,planted,recovered"]
    for name, value in checks.mediator_moments(cfg).items():
        recovered = change(name, value) if change else value
        lines.append(f"{name},{value!r},{recovered!r}")
    lines.append("residual,0,1e-15")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_tomography_csv(tmp_path):
    cfg = scenario(c_mean=0.3, c_width=0.8, c_xk=-0.1)
    path = write_tomography_csv(tmp_path / "t.csv", cfg)
    assert checks.check_tomography_csv(path, cfg, 1e-8) == []
    for name in ("mean_x", "mean_k", "var_x", "var_k", "cov_xk"):
        path = write_tomography_csv(
            tmp_path / "t.csv", cfg,
            lambda n, v: v + 1e-6 if n == name else v)
        assert checks.check_tomography_csv(path, cfg, 1e-8), name
    # var_k must carry the planted correlation: hbar^2/(4 w^2) + c_xk^2/w^2
    assert checks.mediator_moments(cfg)["var_k"] == pytest.approx(
        0.25 / 0.64 + 0.01 / 0.64, rel=1e-15)


def chsh_case(r):
    means, cov = squeezed_covariance(r)
    m4, v4 = checks.probe_block(means, cov)
    # alpha1 = beta1 = 0 and equal imaginary displacements: B > 2 for r > 0
    settings = (0j, 0.3j, 0j, 0.3j)
    return checks.chsh_value(m4, v4, 1.0, settings), settings, m4, v4


def test_chsh_optimum_checks():
    value, settings, m4, v4 = chsh_case(0.5)
    assert 2.0 < value < 2.0 * math.sqrt(2.0)
    assert checks.check_chsh_optimum("sq", value, settings, m4, v4, 1.0, False) == []
    # a value its settings do not give
    assert checks.check_chsh_optimum("sq", value + 1e-6, settings, m4, v4, 1.0, False)
    # a separable state may not exceed 2
    assert checks.check_chsh_optimum("sq", value, settings, m4, v4, 1.0, True)
    # a squeezed state must exceed 2
    value0, settings0, m40, v40 = chsh_case(0.0)
    assert checks.check_chsh_optimum("vac", value0, settings0, m40, v40, 1.0, False)
    # an optimum below the zero-displacement start B(0) = 2
    far = (0j, 5j, 0j, 5j)
    low = checks.chsh_value(m40, v40, 1.0, far)
    assert checks.check_chsh_optimum("vac", low, far, m40, v40, 1.0, True)


def test_vacuum_parity_normalisation():
    _, cov = squeezed_covariance(0.0)
    m4, v4 = checks.probe_block(np.zeros(6), cov)
    assert checks.parity_correlation(m4, v4, 1.0, 0j, 0j) == pytest.approx(1.0)


def test_every_workload_pair_has_a_closed_form():
    assert set(BRACKET_PAIRS) | {PROBE_MEDIATOR} <= set(checks.BRACKET_FORMS)
