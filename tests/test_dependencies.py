"""The package needs only numpy at run time, and its import stays lean.

scipy stays a test dependency: the Fock oracle and the propagator tests
use its `expm` and `expm_multiply` as independent references.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after_import(package: str) -> str:
    """The sorted modules of `package` that importing hybridlab and its
    CLI loads in a fresh interpreter, as printed."""
    code = ("import sys, hybridlab, hybridlab.cli\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_loads_no_scipy():
    assert loaded_after_import("scipy") == "[]"


def test_import_loads_no_thread_pool():
    # validate's worker pool is imported when a grid trajectory starts:
    # at module level it cost 7-9 ms of every CLI start
    assert loaded_after_import("concurrent") == "[]"
