"""The benchmark's output checks (benchmarks/checks.py) on real outputs.

The benchmark holds every workload's output to closed forms and rejects
a run whose checks report a problem; a change that would fail those
checks fails here first, on a small config."""

import importlib.util
from pathlib import Path

import pytest

from hybridlab.cli import main

CHECKS = Path(__file__).resolve().parents[1] / "benchmarks" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = load_checks()

# the README scenario at 32^3 and t <= 0.5, with every scenario
# diagnostic and the bracket pairs whose closed forms the checks know;
# sample_every = 4 gives tomography the 3 nonzero sample times it needs
CONFIG = dict(g1=1.0, g2=1.0, hbar=1.0, total_time=0.5, dt=0.03125,
              sample_every=4, grid_points=(32, 32, 32),
              grid_half_widths=(14.0, 6.0, 10.0),
              q_mean=0.0, q_width=None, q_tilt=0.0,
              qprime_mean=0.0, qprime_width=None, qprime_tilt=0.0,
              c_mean=0.0, c_width=None, c_tilt=0.0, c_xk=0.2,
              diagnostics=("negativity", "witness", "chsh", "validate"),
              bracket_pairs=tuple(checks.BRACKET_FORMS), tomo_noise=0.0,
              seed=0)


def config_text(cfg) -> str:
    def text(key, value):
        if value is None:
            return "none"
        if key == "bracket_pairs":
            return ";".join(value)
        if isinstance(value, tuple):
            return ",".join(str(v) for v in value)
        return repr(value)
    return "".join(f"{k} = {text(k, v)}\n" for k, v in cfg.items())


def run(tmp_path, command) -> Path:
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config_text(CONFIG))
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", ["simulate", "brackets"])
def test_scenario_csv_passes(tmp_path, command):
    problems, _ = checks.check_scenario_csv(run(tmp_path, command), CONFIG)
    assert problems == []


def test_validate_output_passes(tmp_path, capsys):
    run(tmp_path, "validate")
    assert checks.check_validate_output(capsys.readouterr().out) == []


def test_tomography_csv_passes(tmp_path):
    assert checks.check_tomography_csv(run(tmp_path, "tomography"), CONFIG,
                                       1e-8) == []
