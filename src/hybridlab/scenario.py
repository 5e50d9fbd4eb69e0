"""Scenario configuration, orchestration, and CSV reporting.

Configs are flat ``key = value`` text files ('#' starts a comment).
Every run is deterministic: the report echoes the full configuration in
its header as '# key = value' lines that re-parse to an equal config,
and all numbers are written with 17 significant digits.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import brackets as br
from . import gaussian as ga
from . import grid as gr
from .gaussian import NonFiniteResultError
from .observables import parse_observable

KNOWN_DIAGNOSTICS = ("negativity", "witness", "chsh", "validate")
# a run keeps one row of the Gaussian stack and one CSV row per sample
MAX_SAMPLES = 10 ** 6


class ConfigError(ValueError):
    """Invalid scenario configuration (reported with a line number)."""


@dataclass(frozen=True)
class ScenarioConfig:
    g1: float = 1.0
    g2: float = 1.0
    variant: str = "EQ1"
    total_time: float = 1.0
    dt: float = 1.0 / 64.0
    sample_every: int = 8
    grid_points: tuple[int, int, int] = (64, 64, 64)
    grid_half_widths: tuple[float, float, float] = (14.0, 6.0, 10.0)
    hbar: float = 1.0
    q_mean: float = 0.0
    q_width: float | None = None
    q_tilt: float = 0.0
    qprime_mean: float = 0.0
    qprime_width: float | None = None
    qprime_tilt: float = 0.0
    c_mean: float = 0.0
    c_width: float | None = None
    c_tilt: float = 0.0
    c_xk: float = 0.0
    diagnostics: tuple[str, ...] = ("negativity", "witness")
    bracket_pairs: tuple[str, ...] = ()
    tomo_noise: float = 0.0
    seed: int = 0
    output_path: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.total_time < 0:
            raise ConfigError("total_time must be nonnegative")
        # sample times are step * dt, so total_time must be a whole
        # number of steps: a rounded count would end the run elsewhere.
        # 1e-9 per step is far above float rounding (0.3 / 0.1 gives
        # 2.9999999999999996); the 1e-3 cap keeps the count unambiguous at
        # any size, so at dt / 2 it rounds to exactly twice as many steps
        ratio = self.total_time / self.dt
        if ratio >= 2.0 ** 53:
            raise ConfigError("total_time / dt must be below 2**53 steps, "
                              "where step * dt still gives distinct times")
        n_steps = round(ratio)
        if abs(ratio - n_steps) > min(1e-9 * max(1, n_steps), 1e-3):
            raise ConfigError(f"total_time = {self.total_time!r} is not a "
                              f"whole number of dt = {self.dt!r} steps")
        if self.sample_every < 1:
            raise ConfigError("sample_every must be >= 1")
        if self.variant not in ("EQ1", "PAPER_HEFF"):
            raise ConfigError(f"unknown hamiltonian variant {self.variant!r}")
        for d in self.diagnostics:
            if d not in KNOWN_DIAGNOSTICS:
                raise ConfigError(f"unknown diagnostic {d!r}")
        for pair in self.bracket_pairs:
            a, b = _split_pair(pair)
            try:
                parse_observable(a), parse_observable(b)
            except ValueError as exc:
                raise ConfigError(f"bracket pair {pair!r}: {exc}")
        if self.tomo_noise < 0:
            raise ConfigError("tomo_noise must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        for name in ("q_width", "qprime_width", "c_width"):
            width = getattr(self, name)
            if width is not None and width <= 0:
                raise ConfigError(f"{name} must be positive")
        # GridSpec checks the tuple lengths, the grid sizes and hbar
        gr.GridSpec(self.grid_points, self.grid_half_widths, self.hbar)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                gauss0 = self.initial_gaussian()
        except ZeroDivisionError:
            raise ConfigError("a width is too small: its square underflows")
        except (FloatingPointError, ValueError):
            # numpy scalars raise here; a Python float overflows to inf,
            # which PhaseSpaceState refuses
            raise ConfigError("the initial Gaussian moments are not finite: "
                              "hbar, a width, a tilt or c_xk is out of range")
        # the variances are built from hbar**2 / (4 width**2): where that
        # product or a variance underflows to a subnormal or to zero, the
        # state loses its digits or turns singular, which the absolute
        # physicality tolerance does not see
        tiny = sys.float_info.min
        if self.hbar * self.hbar < tiny or np.diag(gauss0.covariance).min() < tiny:
            raise ConfigError("an initial variance underflows: hbar is too "
                              "small or a width out of range")

    # -- derived pieces ---------------------------------------------------

    def hamiltonian(self) -> ga.QuadraticHamiltonian:
        return ga.QuadraticHamiltonian(self.g1, self.g2,
                                       ga.HamiltonianVariant[self.variant])

    def mode_params(self):
        widths = (self.q_width, self.qprime_width, self.c_width)
        means = (self.q_mean, self.qprime_mean, self.c_mean)
        tilts = (self.q_tilt, self.qprime_tilt, self.c_tilt)
        w_c = self.c_width if self.c_width is not None else np.sqrt(self.hbar / 2)
        chirps = (0.0, 0.0, self.c_xk / (w_c * w_c))
        return means, widths, tilts, chirps

    def initial_gaussian(self) -> ga.PhaseSpaceState:
        means, widths, tilts, chirps = self.mode_params()
        return ga.product_state(widths=widths, means=means, tilts=tilts,
                                chirps=chirps, hbar=self.hbar)

    def sample_steps(self) -> list[int]:
        """The sampled steps: every sample_every-th step from 0, and the
        last step.  More than MAX_SAMPLES samples raise ConfigError before
        the list is built."""
        n_steps = round(self.total_time / self.dt)
        n_samples = (n_steps // self.sample_every + 1
                     + (n_steps % self.sample_every != 0))
        if n_samples > MAX_SAMPLES:
            raise ConfigError(
                f"{n_samples} samples exceed the limit of {MAX_SAMPLES}: "
                "raise dt or sample_every")
        samples = list(range(0, n_steps + 1, self.sample_every))
        if samples[-1] != n_steps:
            samples.append(n_steps)
        return samples


def _split_pair(pair: str) -> tuple[str, str]:
    if pair.count("|") != 1:
        raise ConfigError(f"bracket pair {pair!r} must be 'SPEC|SPEC'")
    a, b = pair.split("|")
    return a.strip(), b.strip()


_FIELD_TYPES = {f.name: f for f in fields(ScenarioConfig)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in ("grid_points",):
        return tuple(int(v) for v in raw.split(","))
    if key in ("grid_half_widths",):
        return tuple(float(v) for v in raw.split(","))
    if key == "diagnostics":
        return tuple(v.strip() for v in raw.split(",") if v.strip())
    if key == "bracket_pairs":
        return tuple(v.strip() for v in raw.split(";") if v.strip())
    if key in ("sample_every", "seed"):
        return int(raw)
    if key == "variant":
        return raw
    if key == "output_path":
        return None if raw.lower() == "none" else raw
    if key.endswith("_width") and raw.lower() == "none":
        return None
    return float(raw)


def parse_config(text: str, *, output_path: str | None = None,
                 default_output_path: str | None = None) -> ScenarioConfig:
    """Parse flat key = value lines; unknown keys are rejected.

    output_path, if given, replaces the text's output_path, and
    default_output_path is taken where neither gives one, so that the
    config is built and checked once."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(key, raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}")
    output_path = output_path or values.get("output_path") or default_output_path
    if output_path is not None:
        values["output_path"] = output_path
    try:
        return ScenarioConfig(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))


def format_config(config: ScenarioConfig) -> str:
    """Inverse of parse_config (round-trip guaranteed)."""
    out = []
    for f in fields(ScenarioConfig):
        v = getattr(config, f.name)
        if v is None:
            rep = "none"
        elif f.name in ("grid_points", "grid_half_widths"):
            rep = ",".join(_num(x) for x in v)
        elif f.name == "diagnostics":
            rep = ",".join(v)
        elif f.name == "bracket_pairs":
            rep = ";".join(v)
        elif isinstance(v, str):
            rep = v
        elif isinstance(v, int):
            rep = str(v)
        else:
            rep = _num(v)
        out.append(f"{f.name} = {rep}")
    return "\n".join(out) + "\n"


def _num(v) -> str:
    return "%.17g" % float(v)


@dataclass
class ScenarioReport:
    """CSV-writable table: metadata header, column names, numeric rows."""

    header_lines: list[str]
    columns: list[str]
    rows: list[list[float]]

    def __post_init__(self):
        times = [r[0] for r in self.rows]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("rows must be strictly increasing in t")
        _require_finite(self.columns, self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        for line in self.header_lines:
            buf.write(f"# {line}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_num(v) for v in row) + "\n")
        return buf.getvalue()

    def write(self, path) -> None:
        _write_output(path, self.to_csv())


def _write_output(path, text: str) -> None:
    """Write text to path; a path that cannot be written is a
    ConfigError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from None


def _check_output(path: str | None) -> None:
    """ConfigError unless path is unset or can be written.  Run before any
    work, and creating no file, so that a run which fails later leaves none."""
    import os
    if not path:
        return
    if os.path.isdir(path):
        raise ConfigError(f"cannot write output {path}: it is a directory")
    folder = os.path.dirname(path) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError(f"cannot write output {path}: {folder} is not a "
                          "writable directory")


def _require_finite(columns: list[str], rows: list[list[float]]) -> None:
    """Raise NonFiniteResultError naming the first non-finite cell, in row
    order, then column order.  One vectorised test passes a finite table;
    only a table that fails it is searched cell by cell."""
    if np.isfinite(np.fromiter(chain.from_iterable(rows), float)).all():
        return
    for row in rows:
        for column, v in zip(columns, row):
            if not np.isfinite(v):
                raise NonFiniteResultError(
                    f"{column} is {v} at t = {_num(row[0])}")


def _report_header(config: ScenarioConfig) -> list[str]:
    import hybridlab
    lines = [f"hybridlab {hybridlab.__version__}",
             f"numpy {np.__version__}"]
    lines += format_config(config).strip().splitlines()
    return lines


def _require_grid_variant(config: ScenarioConfig) -> None:
    if config.variant != "EQ1":
        raise ConfigError("grid diagnostics support only the EQ1 variant")


def _backend_residual(config: ScenarioConfig, times: np.ndarray,
                      gauss: ga.PhaseSpaceState) -> np.ndarray:
    """The largest grid-vs-Gaussian moment discrepancy at each sample
    time.  The guards of the initial factors and of the per-step shear
    (for a run of at least one step) come before any full-size array."""
    spec = gr.GridSpec(config.grid_points, config.grid_half_widths,
                       config.hbar)
    factors = gr.gaussian_factors(spec, *config.mode_params())
    if times[-1] > 0:
        gr.check_shear(spec, config.g1, config.g2, config.dt)
    means, cov = gr.product_moments(spec, factors, config.g1, config.g2,
                                    times.tolist())
    return np.maximum(np.abs(means - gauss.means).max(-1),
                      np.abs(cov - gauss.covariance).max((-2, -1)))


def _evolved(config: ScenarioConfig) -> tuple[np.ndarray, ga.PhaseSpaceState]:
    """The sample times and the Gaussian state at each, as one stack.  The
    one place the trajectory is evolved and judged: a propagator or moments
    that doubles cannot hold are a ConfigError, before any grid or file."""
    times = np.array(config.sample_steps()) * config.dt
    try:
        return times, ga.evolve_gaussian(config.initial_gaussian(),
                                         config.hamiltonian(), times)
    except ga.NonSymplecticError as exc:
        raise ConfigError(str(exc)) from None
    except OverflowError as exc:
        raise ConfigError(f"{exc}: lower g1, g2, total_time, c_xk or the "
                          "widths") from None


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Evolve the Gaussian state over the time grid and tabulate diagnostics.

    The table is built column by column from one stack of the sampled
    Gaussian states: `chsh_opt` from one `optimize_chsh_many` call, and
    the bracket columns from `gaussian_brackets` in closed form, exact
    at any grid size, since every sampled state is a pure Gaussian.
    Every Gaussian cell is checked, in row order, before any grid is
    built: a non-finite cell stops the run with NonFiniteResultError.
    The grid is built only for the `validate` diagnostic, whose
    `backend_residual` column the report checks in turn.
    """
    _check_output(config.output_path)
    pair_specs = [tuple(parse_observable(s) for s in _split_pair(p))
                  for p in config.bracket_pairs]
    # a variant the grid cannot run is a config error, found before any work
    if "validate" in config.diagnostics:
        _require_grid_variant(config)
    times, gauss = _evolved(config)
    table = {"t": times.tolist()}
    if "negativity" in config.diagnostics:
        table["logneg_q_qprime"] = ga.logarithmic_negativity(gauss).tolist()
    if "witness" in config.diagnostics:
        table["witness"] = ga.witness_expectation(gauss).tolist()
    if "chsh" in config.diagnostics:
        table["chsh_opt"] = [v for v, _ in ga.optimize_chsh_many(gauss)]
    for i, column in enumerate(zip(*br.gaussian_brackets(gauss, pair_specs))):
        table[f"bracket_{i}"] = column
    columns = list(table)
    rows = [list(row) for row in zip(*table.values())]
    _require_finite(columns, rows)
    if "validate" in config.diagnostics:
        columns.append("backend_residual")
        for row, r in zip(rows, _backend_residual(config, times, gauss).tolist()):
            row.append(r)

    report = ScenarioReport(_report_header(config), columns, rows)
    if config.output_path:
        report.write(config.output_path)
    return report


def validate_backends(config: ScenarioConfig) -> float:
    """Max of the `backend_residual` column, after its finite check.  A
    dt/2 pass with sample_every doubled samples steps 2s for each step s
    of this one, and (dt/2) * 2s is dt * s bit for bit: it would replay
    this trajectory exactly, so it needs no run of its own."""
    _require_grid_variant(config)
    times, gauss = _evolved(config)
    residual = _backend_residual(config, times, gauss)
    _require_finite(["t", "backend_residual"],
                    np.column_stack((times, residual)).tolist())
    return float(residual.max())


@dataclass(frozen=True)
class TomographyResult:
    planted: ga.MediatorEstimate
    recovered: ga.MediatorEstimate


def tomography_demo(config: ScenarioConfig) -> TomographyResult:
    """Forward-simulate probe moments, then invert for the mediator.

    The inversion sees only the probe series (plus the couplings); the
    planted mediator moments are used solely for the comparison table.
    The fit is of the EQ1 propagator's moments.
    """
    _check_output(config.output_path)
    if config.g1 == 0.0 or config.g2 == 0.0:
        raise ConfigError("tomography needs nonzero couplings")
    if config.variant != "EQ1":
        raise ConfigError("tomography fits only the EQ1 variant")
    times, gauss = _evolved(config)
    moments = ga.probe_moments(gauss)[:, times > 0]
    times = times[times > 0]
    if np.unique(times).size < 3:
        raise ConfigError("tomography needs at least 3 distinct sample times")
    if config.tomo_noise > 0:
        rng = np.random.default_rng(config.seed)
        moments = moments + rng.normal(0.0, config.tomo_noise, moments.shape)
    est = ga.mediator_moment_inversion(times, moments, config.g1, config.g2)
    state0 = config.initial_gaussian()
    m, v = state0.means, state0.covariance
    planted = ga.MediatorEstimate(
        mean_x=float(m[ga.IDX_X]), mean_k=float(m[ga.IDX_K]),
        var_x=float(v[ga.IDX_X, ga.IDX_X]), var_k=float(v[ga.IDX_K, ga.IDX_K]),
        cov_xk=float(v[ga.IDX_X, ga.IDX_K]), residual=0.0)
    result = TomographyResult(planted, est)
    if config.output_path:
        _write_tomography_csv(config, result)
    return result


def _write_tomography_csv(config: ScenarioConfig, result: TomographyResult) -> None:
    names = ("mean_x", "mean_k", "var_x", "var_k", "cov_xk")
    lines = [f"# {line}" for line in _report_header(config)]
    lines.append("moment,planted,recovered")
    for n in names:
        lines.append("%s,%s,%s" % (n, _num(getattr(result.planted, n)),
                                   _num(getattr(result.recovered, n))))
    lines.append("residual,0,%s" % _num(result.recovered.residual))
    _write_output(config.output_path, "\n".join(lines) + "\n")
