"""The benchmark's tracer (benchmarks/tracing.py) patches hybridlab
functions by (module, attribute); a binding that no longer resolves
makes every traced run crash."""

import importlib.util
from pathlib import Path

import pytest

from hybridlab import cli

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
BINDINGS = [(name, path, attr) for name, bindings in tracing.TRACED.items()
            for path, attr in bindings]


@pytest.mark.parametrize("name,path,attr", BINDINGS,
                         ids=[f"{path}.{attr}" for _, path, attr in BINDINGS])
def test_binding_resolves(name, path, attr):
    assert callable(getattr(tracing._resolve(path), attr))


def test_install_restores_originals():
    originals = {(path, attr): getattr(tracing._resolve(path), attr)
                 for _, path, attr in BINDINGS}
    with tracing.Tracer().installed():
        for (path, attr), fn in originals.items():
            assert getattr(tracing._resolve(path), attr) is not fn
    for (path, attr), fn in originals.items():
        assert getattr(tracing._resolve(path), attr) is fn


def test_traced_validate_counts_repeat(tmp_path):
    # validate takes half of both phases of every sample's moments on a
    # worker thread, so the tracer counts FFTs from two threads; the
    # traced benchmark flags any count that differs between rounds
    cfg = tmp_path / "validate.cfg"
    cfg.write_text("total_time = 0.5\ndt = 0.03125\nsample_every = 8\n"
                   "grid_points = 32,32,32\ngrid_half_widths = 14,6,10\n"
                   "c_xk = 0.2\ndiagnostics = validate\n")
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            assert cli.main(["validate", "--config", str(cfg),
                             "--out", str(tmp_path / "out.csv")]) == 0
        counts.append({k: v for k, v in tracer.summary().items()
                       if k.startswith("grid.")
                       and k.rsplit(".", 1)[1] not in ("s", "self_s")})
    # samples at steps 0, 8 and 16, each built directly at its time: no
    # split_step_evolve span and no Strang step.  A sample's pieces take
    # two 1-D FFTs of 32 points and one 2-D inverse FFT of 32^2; chi one
    # FFT pair along q for each of 4 q' slabs of 8 planes, 8 transforms
    # of 32^3 / 4; the sums one FFT pair along q' and one along x for
    # each of 4 k_q slabs of 8 planes, 16 transforms of 32^3 / 4: six
    # full-size passes in all, as when psi and d_0 psi were assembled
    per_sample = 3 + 8 + 16
    points = 2 * 32 + 32 ** 2 + 24 * 32 ** 3 // 4
    assert counts[0] == counts[1] == {
        "grid.grid_moments.calls": 3, "grid.fft_calls": 3 * per_sample,
        "grid.fft_points": 3 * points}


@pytest.mark.parametrize("total_time", ["0.5", "2"])
def test_traced_simulate_evolves_the_trajectory_once(tmp_path, total_time):
    # run_scenario calls gaussian.evolve_gaussian and
    # gaussian.logarithmic_negativity through the module, where the tracer
    # wraps them: one call each gives the whole stacked trajectory and its
    # column, however many samples (5 or 17 here)
    cfg = tmp_path / "simulate.cfg"
    cfg.write_text(f"total_time = {total_time}\ndt = 0.125\nsample_every = 1\n"
                   "diagnostics = negativity,witness,chsh\n")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "out.csv")]) == 0
    summary = tracer.summary()
    assert summary["gaussian.evolve_gaussian.calls"] == 1
    assert summary["gaussian.logarithmic_negativity.calls"] == 1
    assert summary["scenario.run_scenario.calls"] == 1
    assert 0 < summary["gaussian.evolve_gaussian.s"] < summary["scenario.run_scenario.s"]
