"""Behaviour corpus: every config of tests/corpus/ against its recorded run.

golden.json holds, per config, what the command line produced: the exit
codes and stderr of `run` and `oracle-check`, the divergence time, each
strategy's freeze time, the final theta and pi of every strategy (read
from the last row of weights.csv), the `oracle-check` report and the
SHA-256 of each artifact, with the numpy/BLAS build it was recorded on.

Exit codes, stderr and event times must match exactly.  Every other
number must match to 1e-12 of the largest magnitude of its quantity (a
theta vector, a gain, one report field), since another numpy or BLAS may
round differently; a report field that is a difference of larger terms
takes the scale of those terms (_report_scales).  The hashes are
compared only on the recorded build.

A change of behaviour on purpose regenerates the file:

    PYTHONPATH=src python tests/test_corpus.py
"""

import contextlib
import csv
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from modelfollow import oracle
from modelfollow.cli_io import load_config, main
from modelfollow.control_loop import STRATEGIES

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = CORPUS / "golden.json"
ARTIFACTS = ("trajectory.csv", "weights.csv", "summary.json")
RTOL = 1e-12


def build():
    """The numpy and BLAS build that artifact hashes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def _cli(argv):
    """Exit code, stdout and stderr of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def observe(config):
    """What `run` and `oracle-check` produce on one config file."""
    with tempfile.TemporaryDirectory() as outdir:
        rc, _, err = _cli(["run", str(config), "--outdir", outdir])
        out = Path(outdir)
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "weights.csv", newline="") as fh:
            *_, last = rows = list(csv.DictReader(fh))
        sha256 = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                  for name in ARTIFACTS}
    final = {}
    for s in STRATEGIES:
        for kind in ("theta", "pi"):
            keys = [k for k in rows[0] if k.startswith(f"{s}_{kind}_")]
            final[f"{s}_{kind}"] = [float(last[k]) for k in keys]
    check_rc, check_out, check_err = _cli(["oracle-check", str(config)])
    return {
        "run": {"exit": rc, "stderr": err},
        "diverged": summary["diverged_at"],
        "t_converged": summary["convergence_time_s"],
        "final": final,
        "oracle_check": {"exit": check_rc, "stderr": check_err,
                         "report": json.loads(check_out)},
        "sha256": sha256,
    }


def record():
    """Regenerate golden.json from the code as it is."""
    golden = {"build": build(),
              "configs": {p.name: observe(p) for p in sorted(CORPUS.glob("*.ini"))}}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


def _assert_close(got, want, what, scale=None):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    if scale is None:
        scale = np.abs(want).max(initial=0.0)
    assert np.abs(got - want).max(initial=0.0) <= RTOL * scale, (what, got, want)


def _report_scales(config, report):
    """The scale of the report fields that are differences of larger terms:
    the DARE residual is taken at the size of the DARE solution, the
    distance between the two gain formulas at the size of the gain, and
    the relative Bellman residual ||Z theta - phi|| / ||phi|| at 1, the
    relative size of Z theta and phi."""
    model, cfg = config.model, config.learning
    A_d, B_d = oracle.zoh_discretize(model.A_hat, model.B_hat, cfg.delta)
    P = oracle.solve_dare(A_d, B_d, *oracle.stage_cost(cfg.Q, cfg.R, cfg.delta))
    return {"dare_residual": np.linalg.norm(P),
            "oracle_vs_lqr_formula_delta": np.abs(report["oracle_gain"]).max(),
            "learned_theta_bellman_residual": 1.0}


GOLDEN_DATA = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"configs": {}}


def test_corpus_matches_golden_configs():
    assert sorted(p.name for p in CORPUS.glob("*.ini")) == sorted(GOLDEN_DATA["configs"])


@pytest.mark.parametrize("name", sorted(GOLDEN_DATA["configs"]))
def test_corpus_config_matches_golden(name):
    want = GOLDEN_DATA["configs"][name]
    got = observe(CORPUS / name)
    for key in ("run", "diverged", "t_converged"):
        assert got[key] == want[key], key
    for key in ("exit", "stderr"):
        assert got["oracle_check"][key] == want["oracle_check"][key], key
    assert got["final"].keys() == want["final"].keys()
    for key, values in want["final"].items():
        _assert_close(got["final"][key], values, key)
    report, want_report = got["oracle_check"]["report"], want["oracle_check"]["report"]
    assert report.keys() == want_report.keys()
    scales = _report_scales(load_config(CORPUS / name), want_report)
    for key, value in want_report.items():
        if isinstance(value, (bool, int)):
            assert report[key] == value, key
        else:
            _assert_close(report[key], value, key, scales.get(key))
    if build() == GOLDEN_DATA["build"]:
        assert got["sha256"] == want["sha256"]


if __name__ == "__main__":
    sys.exit(record())
