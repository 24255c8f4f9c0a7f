"""The benchmark's three workloads: inputs drawn from a seed, one operation,
and the correctness gate applied to every operation.

Seed 0 is the paper's configuration.  The package only ever sees the
generated config text (through ``cli_io.parse_config`` or the CLI); the
texts and the (q, r) draws are kept in ``inputs`` so a run can be replayed.

Each workload class provides ``name``; ``units_per_op``, the episodes or
sweeps in one operation (the unit of per-layer counts); ``STEPS``, the
methods one operation calls in order, each timed on its own;
``check(results)``, the gate, returning a list of failures; ``inputs``;
``setup_text``, the config ``setup_s`` parses; ``episode_cfg``, the config
of the tracemalloc episode, or None; and ``quality``, accuracy values taken
from the first operation.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random

import numpy as np
import scipy.linalg

from modelfollow import cli_io, control_loop, learner, oracle

HORIZON = 20.0
TAIL_WINDOW = 2.0

# oracle_sweep grid: the fixed-point DARE needs O(1/delta) iterations, and
# its count also depends on q/r, so each seed jitters three fixed (q, r)
# centres instead of drawing freely; sweeps of different seeds then cost
# about the same and their timings are comparable.
SWEEP_DELTAS = (0.002, 0.005, 0.01, 0.02, 0.05)
QR_CENTRES = ((0.05, 0.01), (0.02, 0.02), (0.2, 0.01))
QR_JITTER = 0.05  # +-5% multiplicative, uniform in log
SYNTHETIC_ROWS = 2000
SYNTHETIC_PARAMS = 10  # theta length of the 4x4 closed-loop kernel

# gate tolerances; the fixed-point DARE measured 2e-9 relative at worst
DARE_RTOL = 1e-7
BATCH_RTOL = 1e-9


class PremiseError(RuntimeError):
    """A workload no longer exercises what it was chosen for."""


def reference_section(seed):
    """[reference] section: the paper's piecewise signal for seed 0, else a
    seeded sinusoid or step table."""
    if seed == 0:
        return ""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        kind = "sinusoid"
        params = {"amplitude": round(rng.uniform(0.2, 0.6), 4),
                  "frequency": round(rng.uniform(0.3, 1.5), 4),
                  "phase": round(rng.uniform(0.0, 2.0 * math.pi), 4),
                  "offset": round(rng.uniform(0.6, 1.2), 4)}
    else:
        kind = "table"
        times = [0.0] + sorted(k / 100 for k in rng.sample(range(100, 1800), 4))
        params = {"times": times,
                  "values": [round(rng.uniform(0.4, 1.4), 4) for _ in times]}
    return f"[reference]\nkind = {kind}\nparams = {json.dumps(params)}\n"


def episode_config(seed, learning=""):
    return f"[run]\nhorizon = {HORIZON}\n" + reference_section(seed) + learning


def qr_draws(seed):
    if seed == 0:
        return list(QR_CENTRES)
    rng = random.Random(seed)
    return [tuple(float(f"{v * math.exp(rng.uniform(-QR_JITTER, QR_JITTER)):.6g}")
                  for v in centre) for centre in QR_CENTRES]


def sweep_config(delta, q, r):
    return f"[learning]\ndelta = {delta}\nq = {q}\nr = {r}\n"


def oracle_gain(config):
    """Riccati gain K* on the desired model, as ``oracle-check`` computes it."""
    model, cfg = config.model, config.learning
    A_d, B_d = oracle.zoh_discretize(model.A_hat, model.B_hat, cfg.delta)
    Q_bar, R_bar = oracle.stage_cost(cfg.Q, cfg.R, cfg.delta)
    P = oracle.solve_dare(A_d, B_d, Q_bar, R_bar)
    S = oracle.qfun_kernel(P, oracle.DiscreteModel(A_d, B_d, Q_bar, R_bar, cfg.delta))
    return learner.policy_from_kernel(S, n_features=model.n).reshape(-1)


def gain_gap_closed(pi_cl, pi_cl0, k_star):
    """1 - |pi_cl - K*| / |pi_cl0 - K*|: share of the prior-to-Riccati gap closed."""
    return 1.0 - (np.linalg.norm(np.asarray(pi_cl) - k_star)
                  / np.linalg.norm(np.asarray(pi_cl0) - k_star))


def tail_abs(t, e, horizon):
    t = np.asarray(t)
    return float(np.abs(np.asarray(e))[t >= horizon - TAIL_WINDOW - 1e-9].max())


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class PaperRun:
    """``modelfollow run`` then ``modelfollow oracle-check`` on one config."""

    name = "paper_run"
    units_per_op = 2  # episodes: one inside each CLI call
    STEPS = ("run", "oracle_check")

    def __init__(self, seed, workdir):
        self.text = episode_config(seed)
        self.config = cli_io.parse_config(self.text)
        self.cfg_path = os.path.join(workdir, "paper_run.ini")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            fh.write(self.text)
        self.outdir = os.path.join(workdir, "artifacts")
        self.artifacts = [os.path.join(self.outdir, f) for f in (
            self.config.trajectory_csv, self.config.weights_csv,
            self.config.summary_json)]
        self.inputs = {"config": self.text}
        self.setup_text = self.text
        self.episode_cfg = self.config
        self.quality = {}
        self._hashes = None

    def run(self):
        return cli_io.main(["run", self.cfg_path, "--outdir", self.outdir])

    def oracle_check(self):
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            rc = cli_io.main(["oracle-check", self.cfg_path])
        return rc, report.getvalue()

    def check(self, results):
        rc_run, (rc_check, report_text) = results
        failures = []
        if rc_run != 0:
            failures.append(f"run exited {rc_run}")
        if rc_check != 0:
            failures.append(f"oracle-check exited {rc_check}")
        report = json.loads(report_text)
        if report.get("within_tolerance") is not True:
            failures.append("oracle-check: learned gain not within tolerance")
        hashes = [_sha256(p) for p in self.artifacts]
        if self._hashes is None:
            self._hashes = hashes
            self.quality = self._quality(report)
        elif hashes != self._hashes:
            failures.append("artifacts differ from the first operation")
        return failures

    def _quality(self, report):
        with open(self.artifacts[0], encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        cols = (header.index("t"), header.index("e_mf"))
        t, e_mf = np.loadtxt(self.artifacts[0], delimiter=",", skiprows=1,
                             usecols=cols, unpack=True)
        k_star = np.asarray(report["oracle_gain"])
        return {
            "gain_gap_closed": gain_gap_closed(
                report["learned_gain"], self.config.learning.pi_cl0, k_star),
            "tail_abs_e_mf": tail_abs(t, e_mf, self.config.horizon),
            "artifact_bytes": sum(os.path.getsize(p) for p in self.artifacts),
        }


class AdaptLong:
    """``run_episode`` alone with the convergence freeze disabled."""

    name = "adapt_long"
    units_per_op = 1
    STEPS = ("op",)

    # the freeze fires when the Frobenius kernel step stays below tol_conv,
    # which it never does below 0
    LEARNING = "[learning]\ntol_conv = 0\n"

    def __init__(self, seed, workdir):
        self.text = episode_config(seed, self.LEARNING)
        self.config = cli_io.parse_config(self.text)
        self.k_star = oracle_gain(self.config)
        self.inputs = {"config": self.text}
        self.setup_text = self.text
        self.episode_cfg = self.config
        self.quality = {}
        self._theta = None

    def op(self):
        c = self.config
        return control_loop.run_episode(c.model, c.reference, c.learning,
                                        horizon=c.horizon)

    def check(self, results):
        (log,) = results
        frozen = sorted(s for s, t in log.t_converged.items() if t is not None)
        if frozen:
            raise PremiseError(
                f"adapt_long expects no strategy to freeze, but {frozen} froze; "
                "the workload would no longer measure a learner that adapts "
                "for the whole episode")
        failures = []
        if log.diverged is not None:
            failures.append(f"episode diverged at t = {log.diverged}")
        theta = b"".join(log.theta_final[s].tobytes() for s in sorted(log.theta_final))
        if self._theta is None:
            self._theta = theta
            self.quality = {
                "gain_gap_closed": gain_gap_closed(
                    log.pi_final["cl"], self.config.learning.pi_cl0, self.k_star),
                "tail_abs_e_mf": tail_abs(log.t, log.e_mf, self.config.horizon),
            }
        elif theta != self._theta:
            failures.append("final theta differs from the first operation")
        return failures


class OracleSweep:
    """Riccati/least-squares oracle over a delta x (q, r) grid."""

    name = "oracle_sweep"
    units_per_op = 1
    STEPS = ("op",)

    def __init__(self, seed, workdir):
        self.qr = qr_draws(seed)
        texts = [sweep_config(d, q, r) for q, r in self.qr for d in SWEEP_DELTAS]
        self.configs = [cli_io.parse_config(t) for t in texts]
        self.inputs = {"qr_draws": self.qr, "deltas": list(SWEEP_DELTAS),
                       "configs": texts, "synthetic_rows": SYNTHETIC_ROWS}
        self.setup_text = texts[0]
        self.episode_cfg = None
        self.quality = {}
        self.p_ref = []
        for c in self.configs:
            m, l = c.model, c.learning
            A_d, B_d = oracle.zoh_discretize(m.A_hat, m.B_hat, l.delta)
            Q_bar, R_bar = oracle.stage_cost(l.Q, l.R, l.delta)
            self.p_ref.append(scipy.linalg.solve_discrete_are(A_d, B_d, Q_bar, R_bar))
        rng = np.random.default_rng(seed)
        self.theta_true = rng.normal(size=SYNTHETIC_PARAMS)
        Z = rng.normal(size=(SYNTHETIC_ROWS, SYNTHETIC_PARAMS))
        self.dataset = [(z, float(z @ self.theta_true)) for z in Z]

    def op(self):
        solved = []
        for c in self.configs:
            m, l = c.model, c.learning
            A_d, B_d = oracle.zoh_discretize(m.A_hat, m.B_hat, l.delta)
            Q_bar, R_bar = oracle.stage_cost(l.Q, l.R, l.delta)
            P = oracle.solve_dare(A_d, B_d, Q_bar, R_bar)
            S = oracle.qfun_kernel(
                P, oracle.DiscreteModel(A_d, B_d, Q_bar, R_bar, l.delta))
            K = learner.policy_from_kernel(S, n_features=m.n)
            S_K = oracle.policy_value_kernel(m.A_hat, m.B_hat, K, l.Q, l.R, l.delta)
            solved.append((P, S_K))
        theta = oracle.batch_bellman_solve(self.dataset)
        return solved, theta, oracle.bellman_residual(theta, self.dataset)

    def check(self, results):
        ((solved, theta, residual),) = results
        failures = []
        for (P, S_K), P_ref, c in zip(solved, self.p_ref, self.configs):
            err = np.linalg.norm(P - P_ref) / np.linalg.norm(P_ref)
            if not err <= DARE_RTOL:
                failures.append(f"delta={c.learning.delta}: DARE off scipy by {err:.3g}")
            if not np.all(np.isfinite(S_K)):
                failures.append(f"delta={c.learning.delta}: policy-value kernel not finite")
        err = np.linalg.norm(theta - self.theta_true) / np.linalg.norm(self.theta_true)
        if not err <= BATCH_RTOL:
            failures.append(f"batch Bellman solve off the synthetic theta by {err:.3g}")
        if not residual <= BATCH_RTOL:
            failures.append(f"Bellman residual {residual:.3g} on exact data")
        return failures


WORKLOADS = {w.name: w for w in (PaperRun, AdaptLong, OracleSweep)}
