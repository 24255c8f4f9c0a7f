"""The package runs on numpy alone; scipy is a test-only reference.

Each check runs in a fresh interpreter, since this test process has
already imported scipy for the reference tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFAULT_CONFIG = Path(__file__).resolve().parent / "corpus" / "default.ini"

# a meta-path finder that makes every scipy import fail, as if scipy were
# not installed
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, BlockScipy())
"""


def _python(code, cwd):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))


def test_import_leaves_scipy_out(tmp_path):
    proc = _python("import sys, modelfollow.cli_io\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                   tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_runs_with_scipy_blocked(tmp_path):
    outdir = tmp_path / "out"
    code = BLOCK_SCIPY + f"""
import contextlib, io, json
try:
    import scipy
except ModuleNotFoundError:
    blocked = True
else:
    blocked = False
from modelfollow.cli_io import main
run = main(["run", {str(DEFAULT_CONFIG)!r}, "--outdir", {str(outdir)!r}])
with contextlib.redirect_stdout(io.StringIO()):
    check = main(["oracle-check", {str(DEFAULT_CONFIG)!r}])
print(json.dumps({{"blocked": blocked, "run": run, "oracle_check": check}}))
"""
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"blocked": True, "run": 0, "oracle_check": 0}
    assert (outdir / "trajectory.csv").exists()
