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


def test_import_and_parse_compile_nothing(tmp_path):
    # the generated kernels compile on their first call: importing the CLI
    # and parsing a config, the start-up path of every command, compile none
    code = f"""
import json
from modelfollow.cli_io import parse_config
from modelfollow import codegen, control_loop, learner, oracle
parse_config(open({str(DEFAULT_CONFIG)!r}, encoding="utf-8").read())
tables = {{f"{{module.__name__}}.{{name}}": len(value) for module in (learner, control_loop, oracle)
          for name, value in vars(module).items() if isinstance(value, codegen._Kernels)}}
print(json.dumps({{"compile_s": codegen._Kernels.compile_s, "tables": tables}}))
"""
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["compile_s"] == 0.0
    assert "modelfollow.oracle._DARE" in out["tables"]
    assert all(size == 0 for size in out["tables"].values()), out["tables"]
