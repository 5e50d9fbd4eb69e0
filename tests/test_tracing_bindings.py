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
    # validate takes grid moments on a worker thread, so the tracer is
    # entered from two threads; the traced benchmark flags any count that
    # differs between rounds
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
    # samples at steps 0, 8 and 16: two propagations of 4 FFTs each and
    # three sets of moments of 6 FFTs each
    assert counts[0] == counts[1] == {
        "grid.split_step_evolve.calls": 2, "grid.strang_steps": 16,
        "grid.grid_moments.calls": 3, "grid.fft_calls": 2 * 4 + 3 * 6,
        "grid.fft_points": (2 * 4 + 3 * 6) * 32 ** 3}
