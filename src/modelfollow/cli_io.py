"""Experiment runner: config parsing, episode execution, serialization.

Config files are INI-style documents with one section per dataclass of
SECTIONS: [model] configures ProcessModel, [reference] ReferenceSpec,
[learning] LearningConfig and [run] RunConfig.  A key is the name of the
field it sets, in lower case (the field A_hat is the key a_hat); the
fields that hold another section's dataclass are not keys.  KEYS lists
the keys so derived.  Values are JSON (matrices are JSON arrays), except
for fields annotated str, which take the raw text (a % is a plain
character).  An unknown section or key, a value the dataclasses reject, a
prior gain of the wrong length, a plant that is not single-input
single-output, one whose state count is not STACK_DEPTH (the one q
weighs both the plant state and the error stacks) or a horizon that is not
a whole number of ticks of delta is a ConfigError.
Omitted keys take the defaults of the dataclasses they configure
(ProcessModel's are the DEFAULT_* matrices below).  All numbers are
serialized with 17 significant digits so re-runs are byte-identical.
"""

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from modelfollow.control_loop import STACK_DEPTH, STRATEGIES, TRAJECTORY, run_episode
from modelfollow.dynamics import ProcessModel, eigenvalues
from modelfollow.learner import (
    LearningConfig, _require_numbers, theta_to_S, policy_from_kernel,
)
from modelfollow.reference import ReferenceSpec
from modelfollow import oracle

# benchmark system: a marginally stable third-order plant and the
# identified approximation of it used as the desired model
DEFAULT_A = [[0.0, 1.0, 0.0], [0.0, -5.0, 10.0], [0.0, -1.0, -5.0]]
DEFAULT_B = [0.0, 0.0, 1.0]
DEFAULT_C = [[0.0, 1.0, 0.0]]
DEFAULT_A_HAT = [[0.0132, 1.0085, -0.0055],
                 [0.0132, -5.0286, 9.9132],
                 [-0.0526, -1.0155, -4.9374]]
DEFAULT_B_HAT = [-0.0072, -0.0547, 1.0527]


class ConfigError(ValueError):
    """Configuration document failed validation."""


@dataclass
class RunConfig:
    model: ProcessModel
    reference: ReferenceSpec
    learning: LearningConfig
    horizon: float = 20.0
    trajectory_csv: str = "trajectory.csv"
    weights_csv: str = "weights.csv"
    summary_json: str = "summary.json"

    def __post_init__(self):
        _require_numbers(self)
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        # an episode runs whole ticks; a horizon between two of them would
        # be rounded to the nearer one
        ticks = self.horizon / self.learning.delta
        if not (math.isfinite(ticks) and math.isclose(ticks, round(ticks), rel_tol=1e-9)):
            raise ValueError(f"horizon = {self.horizon!r} is not a whole number of ticks of "
                             f"delta = {self.learning.delta!r}")


# the dataclass that each config section configures
SECTIONS = {"model": ProcessModel, "reference": ReferenceSpec,
            "learning": LearningConfig, "run": RunConfig}
# every accepted config key, per section, and the field it sets
KEYS = {section: {f.name.lower(): f for f in fields(cls) if f.type not in SECTIONS.values()}
        for section, cls in SECTIONS.items()}


def _value(section, key, raw):
    if KEYS[section][key].type is str:
        return raw
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] bad value for key {key!r}: {raw!r}") from exc


def _build(section, kwargs):
    """The section's dataclass built from kwargs, with a rejected value
    reported as a ConfigError."""
    try:
        return SECTIONS[section](**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def parse_config(text):
    """Parse a config document into a validated RunConfig."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if cp.defaults():
        raise ConfigError(f"unknown section [{cp.default_section}]")

    kwargs = {"model": {"A": DEFAULT_A, "B": DEFAULT_B, "C": DEFAULT_C,
                        "A_hat": DEFAULT_A_HAT, "B_hat": DEFAULT_B_HAT},
              "reference": {}, "learning": {}, "run": {}}
    for section in cp.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in cp[section].items():
            if key not in KEYS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            kwargs[section][KEYS[section][key].name] = _value(section, key, raw)

    model = _build("model", kwargs["model"])
    if model.m != 1 or model.p != 1:
        raise ConfigError("[model] single-input single-output plants only")
    reference = _build("reference", kwargs["reference"])
    learning = _build("learning", kwargs["learning"])
    for key, size in (("pi_cl0", model.n), ("pi_ob0", STACK_DEPTH), ("pi_mf0", STACK_DEPTH)):
        if np.shape(getattr(learning, key)) != (size,):
            raise ConfigError(f"[learning] {key} must be a list of {size} numbers")
    # the one Q weighs the plant state of cl and the error stacks of ob/mf
    if learning.Q.shape != (model.n, model.n) or model.n != STACK_DEPTH:
        raise ConfigError(
            f"[learning] q is {learning.Q.shape[0]}x{learning.Q.shape[1]}, but the one q must be "
            f"{model.n}x{model.n} for cl ({model.n} plant states) and "
            f"{STACK_DEPTH}x{STACK_DEPTH} for ob and mf ({STACK_DEPTH} stacked errors)")
    return _build("run", dict(kwargs["run"], model=model,
                              reference=reference, learning=learning))


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _eig_pairs(M):
    return [[float(ev.real), float(ev.imag)] for ev in eigenvalues(M)]


def _write_table(path, header, groups):
    """Write per-tick columns as CSV rows of %.17g numbers.

    groups is a list of column groups, each a list of per-tick arrays.
    Rows are stacked and formatted a block at a time, so the table never
    exists in memory as a whole.  A group whose values in a row have the
    same float64 bit patterns as in the row before reuses that row's text;
    bits, not ==, because -0.0 == 0.0 prints differently and NaN never
    equals itself.  The previous row is carried across blocks.
    """
    prev = [None] * len(groups)  # (bits, text) of each group's last row
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(groups[0][0]), 256):
            texts = []
            for g, columns in enumerate(groups):
                block = np.column_stack([c[start:start + 256] for c in columns])
                bits = block.view(np.uint64)
                repeats = np.empty(len(block), dtype=bool)
                repeats[1:] = (bits[1:] == bits[:-1]).all(axis=1)
                repeats[0] = prev[g] is not None and (bits[0] == prev[g][0]).all()
                # pool: the carried row's text, then one per row that does not
                # repeat; each row takes the last text at or before it
                row_fmt = ",".join(["%.17g"] * block.shape[1])
                pool = [prev[g] and prev[g][1]]
                pool += [row_fmt % tuple(row) for row in block[~repeats].tolist()]
                texts.append([pool[i] for i in np.cumsum(~repeats).tolist()])
                prev[g] = bits[-1], texts[-1][-1]
            fh.writelines(",".join(row) + "\n" for row in zip(*texts))


def write_trajectory_csv(log, path):
    cols = []
    columns = [getattr(log, name) for name in TRAJECTORY]
    for name, c in zip(TRAJECTORY, columns):
        cols += [name] if c.ndim == 1 else [f"{name}{j + 1}" for j in range(c.shape[1])]
    _write_table(path, ",".join(cols), [columns])


def write_weights_csv(log, path):
    """weights.csv: t, then each strategy's theta and pi columns; a
    strategy's columns are one group, so the text of its frozen rows is
    formatted once."""
    cols = ["t"]
    groups = [[log.t]]
    for s in STRATEGIES:
        cols += [f"{s}_theta_{j}" for j in range(log.theta_hist[s].shape[1])]
        cols += [f"{s}_pi_{j}" for j in range(log.pi_hist[s].shape[1])]
        groups.append([log.theta_hist[s], log.pi_hist[s]])
    _write_table(path, ",".join(cols), groups)


def build_summary(config, log):
    model = config.model
    pi_cl = log.pi_final["cl"]
    return {
        "open_loop_eigenvalues": _eig_pairs(model.A),
        "desired_model_eigenvalues": _eig_pairs(model.A_hat),
        "closed_loop_eigenvalues": _eig_pairs(
            model.A_hat + model.B_hat @ pi_cl.reshape(1, -1)),
        "pi_cl": [float(v) for v in pi_cl],
        "pi_ob": [float(v) for v in log.pi_final["ob"]],
        "pi_mf": [float(v) for v in log.pi_final["mf"]],
        "terminal_e_mf": float(log.e_mf[-1]),
        "terminal_e_ob": float(log.e_ob[-1]),
        "kernel_frobenius_norms": {
            s: float(np.linalg.norm(theta_to_S(log.theta_final[s])))
            for s in STRATEGIES},
        "convergence_time_s": {s: log.t_converged[s] for s in STRATEGIES},
        "diverged_at": log.diverged,
    }


def cmd_run(args, config):
    log = run_episode(config.model, config.reference, config.learning,
                      horizon=config.horizon)
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    write_trajectory_csv(log, os.path.join(outdir, config.trajectory_csv))
    write_weights_csv(log, os.path.join(outdir, config.weights_csv))
    summary = build_summary(config, log)
    with open(os.path.join(outdir, config.summary_json), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if log.diverged is not None:
        print(f"episode diverged at t = {log.diverged:.4g} s", file=sys.stderr)
        return 2
    return 0


# the learner terminates at an admissible (not optimal) gain, so the
# declared tolerance against the Riccati gain is loose by design
ORACLE_GAIN_TOLERANCE = 3.0


def cmd_oracle_check(args, config):
    model, cfg = config.model, config.learning
    A_d, B_d = oracle.zoh_discretize(model.A_hat, model.B_hat, cfg.delta)
    Q_bar, R_bar = oracle.stage_cost(cfg.Q, cfg.R, cfg.delta)
    P = oracle.solve_dare(A_d, B_d, Q_bar, R_bar)
    dmodel = oracle.DiscreteModel(A_d, B_d, Q_bar, R_bar, cfg.delta)
    S_star = oracle.qfun_kernel(P, dmodel)
    oracle_gain = policy_from_kernel(S_star, n_features=model.n).reshape(-1)
    # textbook discrete LQR gain -K for comparison, and the DARE residual
    K = np.linalg.solve(R_bar + B_d.T @ P @ B_d, B_d.T @ P @ A_d)
    lqr_gain = -K.reshape(-1)
    dare_residual = float(np.linalg.norm(
        P - (Q_bar + A_d.T @ P @ A_d - A_d.T @ P @ B_d @ K)))

    log = run_episode(model, config.reference, cfg, horizon=config.horizon)
    learned_gain = log.pi_final["cl"]
    report = {
        "dare_residual": dare_residual,
        "oracle_gain": [float(v) for v in oracle_gain],
        "oracle_vs_lqr_formula_delta": float(
            np.linalg.norm(oracle_gain - lqr_gain)),
        "learned_gain": [float(v) for v in learned_gain],
        "learned_vs_oracle_gain_delta": float(
            np.linalg.norm(learned_gain - oracle_gain)),
        "gain_tolerance": ORACLE_GAIN_TOLERANCE,
        "within_tolerance": bool(
            np.linalg.norm(learned_gain - oracle_gain) <= ORACLE_GAIN_TOLERANCE),
    }
    Z, phi = log.regressors["cl"]
    if len(Z):
        report["regressor_rank"] = int(np.linalg.matrix_rank(Z))
        report["regressor_count"] = int(Z.shape[0])
        report["learned_theta_bellman_residual"] = oracle.bellman_residual(
            log.theta_final["cl"], list(zip(Z, phi)))
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0 if report.get("within_tolerance", True) else 2


def cmd_eig(args, config):
    model = config.model
    out = {
        "open_loop_eigenvalues": _eig_pairs(model.A),
        "desired_model_eigenvalues": _eig_pairs(model.A_hat),
    }
    if args.gain is not None:
        gain = np.array(json.loads(args.gain), dtype=float).reshape(1, -1)
        out["closed_loop_eigenvalues"] = _eig_pairs(model.A + model.B @ gain)
        out["desired_closed_loop_eigenvalues"] = _eig_pairs(
            model.A_hat + model.B_hat @ gain)
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="modelfollow",
        description="observer-based online learning for model-following control")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate an episode and write artifacts")
    p_run.add_argument("config")
    p_run.add_argument("--outdir", default=".")
    p_run.set_defaults(func=cmd_run)

    p_oc = sub.add_parser("oracle-check",
                          help="diff the learner against the Riccati oracle")
    p_oc.add_argument("config")
    p_oc.set_defaults(func=cmd_oracle_check)

    p_eig = sub.add_parser("eig", help="print system spectra")
    p_eig.add_argument("config")
    p_eig.add_argument("--gain", default=None,
                       help="JSON row vector; also prints closed-loop spectra")
    p_eig.set_defaults(func=cmd_eig)

    args = parser.parse_args(argv)
    # a missing or unreadable file (OSError, UnicodeDecodeError) is a config error too
    try:
        config = load_config(args.config)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return args.func(args, config)


if __name__ == "__main__":
    sys.exit(main())
