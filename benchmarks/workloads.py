"""The benchmark's workloads: inputs made from the seed, program calls, checks.

A workload is a list of operations, one round.  An operation is one
program call (a CLI call through `hybridlab.cli.main`, or a direct call
of a public `hybridlab.gaussian` function) and the check of its output.
Only the call is timed; the check runs after the timer stops.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

BOX = (14.0, 6.0, 10.0)             # the README box; fixed for every workload
PROBE_MEDIATOR = "Q[ sym(p'*p') ]|C[ u*u ]"
BRACKET_PAIRS = (
    PROBE_MEDIATOR,                  # the separability probe
    "C[ x*x ]|C[ u*u ]",
    "Q[ q*q ]|Q[ sym(q*p) ]",
    "Q[ sym(q*p'*x) ]|Q[ sym(p*k) ]",  # cubic: apply_quantum runs 6 orders
)
SQUEEZINGS = (0.3, 0.5, 0.7, 0.9)   # two-mode squeezed vacua, all r >= 0.3
SEPARABLE_STATES = 8
TOMO_NOISE = 1e-3
# Noisy tomography: each recovered moment within this many noise sigmas.
# Over seeds 0-499 the largest error was 2.5 sigma.
TOMO_SIGMAS = 10.0


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    configs: list[Path]              # parsed again by the set-up measurement
    warmup: list[Op]                 # untimed and not counted
    ops: list[Op]                    # one round
    grid_states: int                 # grid states sampled per round
    probe_points: int                # grid points per axis of the reference
                                     # kernel; 0 for the reference loop
    notes: dict[str, float]          # worst bracket deviations, filled by checks


def _no_check(_result) -> list[str]:
    return []


def scenario(**overrides) -> dict:
    """A full scenario config: README defaults plus overrides."""
    cfg = dict(g1=1.0, g2=1.0, hbar=1.0, total_time=2.0, dt=1.0 / 32.0,
               sample_every=8, grid_points=(64, 64, 64), grid_half_widths=BOX,
               q_mean=0.0, q_width=None, q_tilt=0.0,
               qprime_mean=0.0, qprime_width=None, qprime_tilt=0.0,
               c_mean=0.0, c_width=None, c_tilt=0.0, c_xk=0.2,
               diagnostics=("negativity", "witness", "validate"),
               bracket_pairs=(PROBE_MEDIATOR,), tomo_noise=0.0, seed=0)
    cfg.update(overrides)
    return cfg


def write_config(path: Path, cfg: dict) -> Path:
    def text(key, value):
        if value is None:
            return "none"
        if key == "bracket_pairs":
            return ";".join(value)
        if isinstance(value, tuple):
            return ",".join(str(v) for v in value)
        return repr(value)
    path.write_text("".join(f"{k} = {text(k, v)}\n" for k, v in cfg.items()))
    return path


def cli_op(command: str, config: Path, out: Path,
           check: Callable[[str], list[str]]) -> Op:
    from hybridlab import cli

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, "--config", str(config), "--out", str(out)])
        return code, buf.getvalue()

    def checked(result):
        code, stdout = result
        return [f"{command} exited {code}"] if code != 0 else check(stdout)

    return Op(f"{command} {config.name}", call, checked)


# ---------------------------------------------------------------------------
# readme_64: the documented user path
# ---------------------------------------------------------------------------

def readme_64(seed: int, workdir: Path) -> Workload:
    """README config through simulate, validate and tomography at 64^3.

    The seed draws the planted <xk> correlation and the mediator mean;
    the FFT work does not depend on either.
    """
    rng = np.random.default_rng([seed, 64])
    cfg = scenario(c_xk=float(rng.uniform(0.15, 0.25)),
                   c_mean=float(rng.uniform(-0.25, 0.25)))
    config = write_config(workdir / "readme_64.cfg", cfg)
    short = write_config(workdir / "readme_64_warmup.cfg", dict(cfg, total_time=0.25))
    sim_out, tomo_out = workdir / "readme_64.csv", workdir / "readme_64.tomography.csv"
    notes = {}

    def check_simulate(_stdout):
        # 64^3 resolves the bracket column only up to t = 1; the worst
        # deviation over all rows is reported, so late-time drift shows.
        problems, worst = checks.check_scenario_csv(sim_out, cfg, bracket_t_max=1.0)
        notes.update({f"worst_dev.{k}": v for k, v in worst.items()})
        return problems

    ops = [cli_op("simulate", config, sim_out, check_simulate),
           cli_op("validate", config, sim_out, checks.check_validate_output),
           cli_op("tomography", config, tomo_out,
                  lambda _: checks.check_tomography_csv(tomo_out, cfg, 1e-8))]
    warm_out = workdir / "readme_64_warmup.csv"
    warmup = [cli_op("simulate", short, warm_out, _no_check),
              cli_op("validate", short, warm_out, _no_check), ops[2]]
    return Workload([config], warmup, ops, len(checks.sample_times(cfg)), 64, notes)


# ---------------------------------------------------------------------------
# brackets_128: ensemble fields far above the cache
# ---------------------------------------------------------------------------

def brackets_128(seed: int, workdir: Path) -> Workload:
    """Four bracket pairs at 128^3, sampled at t = 0, 1 and 2.

    The seed draws the means, tilts and planted <xk> correlation; nonzero
    means make the cubic pair's third moments nonzero.
    """
    rng = np.random.default_rng([seed, 128])
    m = rng.uniform(-0.5, 0.5, 3)
    k = rng.uniform(-0.5, 0.5, 3)
    cfg = scenario(grid_points=(128, 128, 128), dt=0.25, sample_every=4,
                   q_mean=float(m[0]), qprime_mean=float(m[1]), c_mean=float(m[2]),
                   q_tilt=float(k[0]), qprime_tilt=float(k[1]), c_tilt=float(k[2]),
                   c_xk=float(rng.uniform(0.1, 0.3)),
                   diagnostics=("negativity",), bracket_pairs=BRACKET_PAIRS)
    config = write_config(workdir / "brackets_128.cfg", cfg)
    t0_only = write_config(workdir / "brackets_128_warmup.cfg",
                           dict(cfg, total_time=0.0, bracket_pairs=(PROBE_MEDIATOR,)))
    out = workdir / "brackets_128.csv"
    notes = {}

    def check(_stdout):
        problems, worst = checks.check_scenario_csv(out, cfg)
        notes.update({f"worst_dev.{k}": v for k, v in worst.items()})
        return problems

    ops = [cli_op("brackets", config, out, check)]
    warmup = [cli_op("brackets", t0_only, workdir / "brackets_128_warmup.csv", _no_check)]
    return Workload([config], warmup, ops, len(checks.sample_times(cfg)), 128, notes)


# ---------------------------------------------------------------------------
# gaussian_chsh: no grid at all
# ---------------------------------------------------------------------------

def _stratified(rng, n, lo, hi):
    """n draws in [lo, hi), one in each of n equal strata, shuffled."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def separable_covariances(rng, n):
    """n random mixed product states of (Q, Q'), mediator in vacuum."""
    states = []
    draws = {name: [_stratified(rng, n, lo, hi) for _ in range(2)]
             for name, lo, hi in (("width", 0.6, 0.9), ("chirp", -0.2, 0.2),
                                  ("mixing", 1.0, 1.5), ("mean", -0.2, 0.2))}
    for i in range(n):
        means, cov = np.zeros(6), 0.5 * np.eye(6)
        for mode in range(2):
            w, c, nu, mu = (draws[key][mode][i]
                            for key in ("width", "chirp", "mixing", "mean"))
            block = np.array([[w * w, c * w * w],
                              [c * w * w, 0.25 / (w * w) + c * c * w * w]])
            cov[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = nu * block
            means[2 * mode] = mu
        states.append((means, cov))
    return states


def squeezed_covariance(r: float):
    c, s = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    cov = 0.5 * np.eye(6)
    cov[0:2, 0:2] = cov[2:4, 2:4] = c * np.eye(2)
    cov[0:2, 2:4] = cov[2:4, 0:2] = s * np.diag([1.0, -1.0])
    return np.zeros(6), cov


def gaussian_chsh(seed: int, workdir: Path) -> Workload:
    """Scenario CHSH and tomography, then optimize_chsh on separable
    states and on two-mode squeezed vacua.  No grid is built."""
    from hybridlab import gaussian as ga

    rng = np.random.default_rng([seed, 2])
    # The scenario is the same for every seed: the CHSH descent's cost
    # depends on the state, and over seeds its time on scenario states
    # spread by 13-50%.  The seed draws the tomography noise and the
    # separable states, stratified so that their total cost is steady.
    cfg = scenario(dt=0.125, sample_every=2, c_mean=0.2, c_width=0.8,
                   diagnostics=("negativity", "witness", "chsh"), bracket_pairs=(),
                   tomo_noise=TOMO_NOISE, seed=int(rng.integers(2**31)))
    config = write_config(workdir / "gaussian_chsh.cfg", cfg)
    short = write_config(workdir / "gaussian_chsh_warmup.cfg",
                         dict(cfg, total_time=0.25))
    sim_out = workdir / "gaussian_chsh.csv"
    tomo_out = workdir / "gaussian_chsh.tomography.csv"

    def direct(label, means, cov, separable):
        state = ga.PhaseSpaceState(means, cov)

        def check(result):
            value, settings = result
            m4, v4 = checks.probe_block(means, cov)
            problems = checks.check_chsh_optimum(label, value, settings, m4, v4,
                                                 1.0, separable)
            again = ga.chsh_displaced_parity(state, settings)
            if not abs(again - value) <= 1e-12 * abs(value):
                problems.append(f"{label}: chsh_displaced_parity gives {again!r}, "
                                f"optimize_chsh {value!r}")
            return problems
        return Op(label, lambda: ga.optimize_chsh(state), check)

    ops = [cli_op("simulate", config, sim_out,
                  lambda _: checks.check_scenario_csv(sim_out, cfg)[0]),
           cli_op("tomography", config, tomo_out,
                  lambda _: checks.check_tomography_csv(tomo_out, cfg,
                                                        TOMO_SIGMAS * TOMO_NOISE))]
    ops += [direct(f"optimize_chsh separable {i}", m, v, True)
            for i, (m, v) in enumerate(separable_covariances(rng, SEPARABLE_STATES))]
    ops += [direct(f"optimize_chsh squeezed r={r}", *squeezed_covariance(r), False)
            for r in SQUEEZINGS]
    warmup = [cli_op("simulate", short, workdir / "gaussian_chsh_warmup.csv", _no_check),
              ops[1], ops[2]]
    return Workload([config], warmup, ops, 0, 0, {})


WORKLOADS = {"readme_64": readme_64, "brackets_128": brackets_128,
             "gaussian_chsh": gaussian_chsh}
