"""The benchmark's tracer (benchmarks/tracing.py) patches hybridlab
functions by (module, attribute); a binding that no longer resolves
makes every traced run crash."""

import importlib.util
from pathlib import Path

import pytest

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
