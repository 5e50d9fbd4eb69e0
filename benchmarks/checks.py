"""Checks of hybridlab's outputs against closed forms computed here.

Nothing in this module imports hybridlab.  The model is
H = g1 p x + g2 q' k in the canonical ordering (q, p, q', p', x, k).
Its Heisenberg equations are linear (dq/dt = g1 x, dp'/dt = -g2 k,
dx/dt = g2 q', dk/dt = -g1 p, with p and q' conserved), so every moment
of a Gaussian input is a closed form in t.  Each check returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

IQ, IP, IQP, IPP, IX, IK = range(6)
POSITIONS = (IQ, IQP, IX)
MOMENTA = (IP, IPP, IK)


# ---------------------------------------------------------------------------
# Closed-form moments
# ---------------------------------------------------------------------------

def propagator(g1: float, g2: float, t: float) -> np.ndarray:
    """Solution map of the Heisenberg equations: v(t) = S v(0)."""
    a = 0.5 * g1 * g2 * t * t
    s = np.eye(6)
    s[IQ, IX], s[IQ, IQP] = g1 * t, a        # q  += g1 t x + a q'
    s[IPP, IK], s[IPP, IP] = -g2 * t, a      # p' += -g2 t k + a p
    s[IX, IQP] = g2 * t                      # x  += g2 t q'
    s[IK, IP] = -g1 * t                      # k  += -g1 t p
    return s


def initial_moments(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Means and covariance of the product of three pure Gaussians.

    `cfg` holds the scenario keys the benchmark writes: per mode a mean,
    a width (None for the vacuum width sqrt(hbar/2)) and a plane-wave
    tilt, plus the mediator's planted <xk> correlation c_xk.
    """
    hbar = cfg["hbar"]
    means, cov = np.zeros(6), np.zeros((6, 6))
    for j, mode in enumerate(("q", "qprime", "c")):
        w = cfg[f"{mode}_width"]
        w = math.sqrt(hbar / 2.0) if w is None else w
        cxk = cfg["c_xk"] if mode == "c" else 0.0
        means[2 * j] = cfg[f"{mode}_mean"]
        means[2 * j + 1] = hbar * cfg[f"{mode}_tilt"]
        cov[2 * j, 2 * j] = w * w
        cov[2 * j, 2 * j + 1] = cov[2 * j + 1, 2 * j] = cxk
        cov[2 * j + 1, 2 * j + 1] = hbar * hbar / (4.0 * w * w) + cxk * cxk / (w * w)
    return means, cov


def evolved_moments(cfg: dict, t: float) -> tuple[np.ndarray, np.ndarray]:
    means, cov = initial_moments(cfg)
    s = propagator(cfg["g1"], cfg["g2"], t)
    return s @ means, s @ cov @ s.T


def mediator_moments(cfg: dict) -> dict[str, float]:
    """What a noiseless tomography fit must recover."""
    means, cov = initial_moments(cfg)
    return {"mean_x": float(means[IX]), "mean_k": float(means[IK]),
            "var_x": float(cov[IX, IX]), "var_k": float(cov[IK, IK]),
            "cov_xk": float(cov[IX, IK])}


def witness(means: np.ndarray, cov: np.ndarray) -> float:
    """Symmetrised <q p' + q' p>."""
    return (cov[IQ, IPP] + means[IQ] * means[IPP]
            + cov[IQP, IP] + means[IQP] * means[IP])


def third_moment(means, cov, i, j, k) -> float:
    """E[v_i v_j v_k] of a Gaussian (Wigner) distribution."""
    return (means[i] * means[j] * means[k] + means[i] * cov[j, k]
            + means[j] * cov[i, k] + means[k] * cov[i, j])


def probe_mediator_bracket(cov: np.ndarray, hbar: float) -> float:
    """{Q[p'^2], C[u^2]} of a pure Gaussian state.

    Only the quantum-potential part of <p'^2> has a nonzero bracket with
    the integral of P u^2; for a Gaussian density it gives
    -hbar^2 (Sigma^-1)_{q'x} (Sigma^-1 C)_{q'x}, with Sigma the position
    block and C the position-momentum block (derivation in README.md).
    """
    sigma_inv = np.linalg.inv(cov[np.ix_(POSITIONS, POSITIONS)])
    cross = cov[np.ix_(POSITIONS, MOMENTA)]
    return -hbar * hbar * sigma_inv[1, 2] * (sigma_inv @ cross)[1, 2]


def _raw(means, cov, i) -> float:
    """<v_i^2>."""
    return cov[i, i] + means[i] ** 2


def _cubic_pair(m, v, hbar):
    value = third_moment(m, v, IPP, IX, IK) + third_moment(m, v, IQ, IPP, IP)
    scale = (math.sqrt(_raw(m, v, IPP) * _raw(m, v, IX) * _raw(m, v, IK))
             + math.sqrt(_raw(m, v, IQ) * _raw(m, v, IPP) * _raw(m, v, IP)))
    return value, scale


# Closed forms of the bracket pairs the benchmark runs, as (value, scale)
# from the means and covariance at the sample time.  Quantum pairs are
# <[A, B]>/(i hbar) of Weyl-ordered operators, which for a Gaussian equals
# the Wigner average of the Poisson bracket whenever one member is
# quadratic.  The scale is the size of the bracket's monomials, so that a
# value that happens to cancel to near zero is not held to a relative
# tolerance of its own size.  A bracket passes within
# BRACKET_RTOL * scale + BRACKET_ATOL of its closed form.
BRACKET_RTOL, BRACKET_ATOL = 1e-5, 1e-8
BRACKET_FORMS = {
    "Q[ sym(p'*p') ]|C[ u*u ]":
        lambda m, v, hbar: (probe_mediator_bracket(v, hbar),) * 2,
    "C[ x*x ]|C[ u*u ]":                      # {x^2, u^2} = 4 x u
        lambda m, v, hbar: (4.0 * (v[IX, IK] + m[IX] * m[IK]),
                            4.0 * math.sqrt(_raw(m, v, IX) * _raw(m, v, IK))),
    "Q[ q*q ]|Q[ sym(q*p) ]":                 # {q^2, q p} = 2 q^2
        lambda m, v, hbar: (2.0 * _raw(m, v, IQ),) * 2,
    "Q[ sym(q*p'*x) ]|Q[ sym(p*k) ]":         # {q p' x, p k} = p'xk + qp'p
        _cubic_pair,
}


# ---------------------------------------------------------------------------
# Displaced-parity CHSH
# ---------------------------------------------------------------------------

def parity_correlation(means4, cov4, hbar, alpha: complex, beta: complex) -> float:
    """Two-mode displaced parity: (pi hbar)^2 W(alpha, beta), vacuum(0) = 1."""
    delta = math.sqrt(2.0 * hbar) * np.array(
        [alpha.real, alpha.imag, beta.real, beta.imag]) - means4
    norm = hbar * hbar / (4.0 * math.sqrt(np.linalg.det(cov4)))
    return norm * math.exp(-0.5 * delta @ np.linalg.solve(cov4, delta))


def chsh_value(means4, cov4, hbar, settings) -> float:
    a1, a2, b1, b2 = settings
    e = lambda a, b: parity_correlation(means4, cov4, hbar, a, b)  # noqa: E731
    return e(a1, b1) + e(a2, b1) + e(a1, b2) - e(a2, b2)


def probe_block(means, cov):
    """Means and covariance of the probe pair (Q, Q')."""
    idx = [IQ, IP, IQP, IPP]
    return means[idx], cov[np.ix_(idx, idx)]


def check_chsh_optimum(label, value, settings, means4, cov4, hbar,
                       separable: bool) -> list[str]:
    """Bounds an optimum must meet, and a re-evaluation of its settings.

    The optimizer starts from zero displacement and only accepts
    improvements, so its optimum is at least B(0) = 2 E(0, 0).
    """
    problems = []
    again = chsh_value(means4, cov4, hbar, settings)
    if not abs(again - value) <= 1e-9 * max(1.0, abs(value)):
        problems.append(f"{label}: optimum {value!r} re-evaluates to {again!r}")
    floor = 2.0 * parity_correlation(means4, cov4, hbar, 0j, 0j)
    if not value >= floor - 1e-9:
        problems.append(f"{label}: optimum {value!r} below its start B(0) {floor!r}")
    if separable and not value <= 2.0 + 1e-6:
        problems.append(f"{label}: separable state violates CHSH: {value!r}")
    if not separable and not 2.0 < value <= 2.0 * math.sqrt(2.0) + 1e-9:
        problems.append(f"{label}: squeezed optimum {value!r} not in (2, 2 sqrt 2]")
    return problems


# ---------------------------------------------------------------------------
# Output files and comparisons
# ---------------------------------------------------------------------------

def _read_table(path) -> tuple[list[str], list[list[str]]]:
    """Column names and rows of a CSV whose header lines start with '#'."""
    with open(path) as fh:
        lines = [l.rstrip("\n") for l in fh if l.strip() and not l.startswith("#")]
    return (lines[0].split(",") if lines else []), [l.split(",") for l in lines[1:]]


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Column names and numeric rows."""
    columns, rows = _read_table(path)
    return columns, [[float(v) for v in row] for row in rows]


def read_tomography_csv(path) -> dict[str, tuple[float, float]]:
    """moment -> (planted, recovered)."""
    columns, rows = _read_table(path)
    if columns != ["moment", "planted", "recovered"]:
        return {}
    return {name: (float(planted), float(recovered))
            for name, planted, recovered in rows}


def check_close(label, got, want, rtol, atol) -> list[str]:
    if abs(got - want) <= rtol * abs(want) + atol:
        return []
    return [f"{label}: got {got!r}, closed form {want!r}"]


def sample_times(cfg: dict) -> list[float]:
    """Sample times of a scenario run, as the README defines them."""
    n_steps = int(round(cfg["total_time"] / cfg["dt"]))
    steps = list(range(0, n_steps + 1, cfg["sample_every"]))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return [s * cfg["dt"] for s in steps]


# The README's column order: diagnostics first, then one column per
# bracket pair, then the cross-backend residual.
SCENARIO_COLUMNS = (("negativity", "logneg_q_qprime"), ("witness", "witness"),
                    ("chsh", "chsh_opt"))


def check_scenario_csv(path, cfg: dict, bracket_t_max: float | None = None,
                       ) -> tuple[list[str], dict[str, float]]:
    """Check every column a scenario CSV carries.

    Returns the problems and, per bracket column, the worst deviation
    from its closed form relative to the bracket's scale, over all rows
    (also rows past `bracket_t_max`, which are reported but not held to
    the tolerance).
    """
    problems, worst = [], {}
    columns, rows = read_csv(path)
    pairs = cfg["bracket_pairs"]
    diagnostics = cfg["diagnostics"]
    want_columns = (["t"] + [col for diag, col in SCENARIO_COLUMNS if diag in diagnostics]
                    + [f"bracket_{i}" for i in range(len(pairs))]
                    + (["backend_residual"] if "validate" in diagnostics else []))
    if columns != want_columns:
        return [f"{path}: columns {columns} != {want_columns}"], worst
    want_t = sample_times(cfg)
    if [round(r[0], 12) for r in rows] != [round(t, 12) for t in want_t]:
        return [f"{path}: sample times {[r[0] for r in rows]} != {want_t}"], worst
    for row in rows:
        t = row[0]
        m, v = evolved_moments(cfg, t)
        cells = dict(zip(columns, row))
        if "logneg_q_qprime" in cells and not 0.0 <= cells["logneg_q_qprime"] <= 1e-12:
            problems.append(f"t={t}: E_N(Q|Q') = {cells['logneg_q_qprime']!r}, "
                            "but det C >= 0 makes the probes separable")
        if "witness" in cells:
            problems += check_close(f"t={t}: witness", cells["witness"],
                                    witness(m, v), 1e-9, 1e-12)
        if "chsh_opt" in cells:
            m4, v4 = probe_block(m, v)
            floor = 2.0 * parity_correlation(m4, v4, cfg["hbar"], 0j, 0j)
            if not floor - 1e-9 <= cells["chsh_opt"] <= 2.0 + 1e-6:
                problems.append(f"t={t}: chsh_opt {cells['chsh_opt']!r} outside "
                                f"[B(0) = {floor!r}, 2]")
        if "backend_residual" in cells and not cells["backend_residual"] < 1e-4:
            problems.append(f"t={t}: backend_residual {cells['backend_residual']!r}")
        for i, pair in enumerate(pairs):
            col = f"bracket_{i}"
            want, scale = BRACKET_FORMS[pair](m, v, cfg["hbar"])
            dev = abs(cells[col] - want) / max(abs(scale), BRACKET_ATOL)
            worst[col] = max(worst.get(col, 0.0), dev)
            if (bracket_t_max is None or t <= bracket_t_max + 1e-12) and \
                    not abs(cells[col] - want) <= BRACKET_RTOL * abs(scale) + BRACKET_ATOL:
                problems.append(f"t={t}: {col} {pair}: got {cells[col]!r}, "
                                f"closed form {want!r}")
    return problems, worst


def check_validate_output(stdout: str) -> list[str]:
    """Both cross-backend residuals the validate command prints are < 1e-4."""
    found = {}
    for line in stdout.splitlines():
        if ":" in line:
            key, _, val = line.partition(":")
            found[key.strip()] = val.strip()
    problems = []
    for key in ("max cross-backend moment residual", "residual at dt/2"):
        try:
            value = float(found[key])
        except (KeyError, ValueError):
            problems.append(f"validate printed no {key!r}")
            continue
        if not value < 1e-4:
            problems.append(f"validate: {key} = {value!r}")
    return problems


def check_tomography_csv(path, cfg: dict, tol: float) -> list[str]:
    """Planted moments exact; recovered ones within `tol` of them."""
    table = read_tomography_csv(path)
    problems = []
    for name, want in mediator_moments(cfg).items():
        if name not in table:
            problems.append(f"tomography: no row {name!r}")
            continue
        planted, recovered = table[name]
        problems += check_close(f"tomography planted {name}", planted, want, 1e-12, 1e-12)
        problems += check_close(f"tomography recovered {name}", recovered, want, 0.0, tol)
    return problems
