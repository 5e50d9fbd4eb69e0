"""The benchmark calls hybridlab directly, not only through the tracer
(see test_tracing_bindings.py): benchmarks/workloads.py calls the CLI and
public Gaussian functions, and benchmarks/run.py imports the CLI and the
config parser in its set-up code, a string that it runs in a fresh
interpreter.  Every hybridlab name the two files use must still resolve,
or the benchmark breaks while the rest of the suite passes."""

import ast
import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SOURCES = ("workloads.py", "run.py")
# the names the benchmark uses today; the parse must find at least these
KNOWN = {"hybridlab.cli.main", "hybridlab.scenario.parse_config",
         "hybridlab.gaussian.PhaseSpaceState", "hybridlab.gaussian.optimize_chsh",
         "hybridlab.gaussian.chsh_displaced_parity"}


def syntax_trees(source: str):
    """The tree of `source`, then those of its string constants that
    parse as Python and mention hybridlab, such as run.py's set-up code."""
    tree = ast.parse(source)
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "hybridlab" in node.value:
            try:
                yield from syntax_trees(node.value)
            except SyntaxError:
                pass


def hybridlab_names(tree) -> set[str]:
    """The dotted hybridlab names a tree uses: each imported module or
    name, and each attribute read from a name that an import bound."""
    bound, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hybridlab":
                    names.add(alias.name)
                    # `import hybridlab.cli` binds hybridlab, `import ... as`
                    # the module itself
                    bound[alias.asname or "hybridlab"] = (
                        alias.name if alias.asname else "hybridlab")
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "hybridlab":
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id], *reversed(attrs)]))
    return names


def resolve(dotted: str):
    """The object a dotted name refers to, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


USED = sorted({name for source in SOURCES
               for tree in syntax_trees((BENCHMARKS / source).read_text())
               for name in hybridlab_names(tree)})


def test_finds_the_known_names():
    assert KNOWN <= set(USED)


@pytest.mark.parametrize("name", USED)
def test_name_resolves(name):
    resolve(name)
