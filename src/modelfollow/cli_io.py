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
weighs both the plant state and the error stacks), a horizon that is not
a whole number of ticks of delta, an empty artifact name or one that
ends in a path separator, or two that name the same file, is a
ConfigError.
Omitted keys take the defaults of the dataclasses they configure
(ProcessModel's are the DEFAULT_* matrices below).  All numbers are
serialized with 17 significant digits so re-runs are byte-identical, and
JSON is strict: summary.json, oracle-check's report and eig's spectra go
through one writer that writes a non-finite number as null.  A CSV
cell holds exactly what '%.17g' writes: numpy formats the cells with
1e-6 < |x| < 1e17 and the signed zeros in chunks of rows that hold about
_CELLS cells to format, and every other cell (smaller or larger, inf, nan)
goes through '%.17g' itself.  A column group whose float64 bits in a row
equal those of the row before reuses that row's text, so a frozen
strategy's weights are formatted once per chunk; a chunk with no such row
goes to the file as the formatter's text, with no split into lines.
"""

import argparse
import configparser
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from modelfollow.control_loop import STACK_DEPTH, STRATEGIES, TRAJECTORY, _timed, run_episode
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
        # run writes each artifact to its own file of the output directory
        files = {}
        for key in ("trajectory_csv", "weights_csv", "summary_json"):
            name = getattr(self, key)
            if not name or name.endswith(("/", os.sep)):
                raise ValueError(f"{key} = {name!r} must name a file")
            other = files.setdefault(os.path.normpath(name), key)
            if other != key:
                raise ValueError(f"{key} = {name!r} names the file of {other}")
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
    """M's eigenvalues as [real, imaginary] pairs, or None when an entry of
    M is not finite: numpy defines no eigenvalues then."""
    if not np.isfinite(M).all():
        return None
    return [[float(ev.real), float(ev.imag)] for ev in eigenvalues(M)]


# The CSV formatter's numpy path takes 1e-6 < |x| < 1e17 and not 1e-6
# itself: that double lies below 10^-6 ('%.17g' writes 9.9999999999999995e-07).
_SLOT = 25    # a cell's bytes: its text, NUL-padded to the longest '%.17g'
              # text (-1.2345678901234567e-308), then its separator
_CELLS = 4096  # cells formatted per _format_cells call, about: its cost per
               # cell falls as the call grows to this size
_JOIN = 64     # rows joined and written at a time where a row reuses text
# the rows of a block's source array, one column per cell: the '0' of the
# zero-padded first digit group, the 17 significant digits, the digits again
# with the number's trailing zeros NUL, the sign ('-' or NUL), the point ('.',
# or NUL when no digit follows it), then constant rows
_ZERO, _DIGITS, _TRIMMED = 0, 1, 18
_SIGN, _POINT, _DOT, _E, _MINUS, _FIVE, _SIX, _NUL = range(35, 43)


def _layout(E):
    """The source rows of the text of a number with decimal exponent E: the
    integer digits as they are and the fraction's from the trimmed rows, so
    that its trailing zeros, and a point that no digit follows, are NUL."""
    trimmed = [_TRIMMED + j for j in range(17)]
    if E >= 0:
        return [_SIGN, *range(_DIGITS, _DIGITS + E + 1), _POINT, *trimmed[E + 1:]]
    if E >= -4:
        return [_SIGN, _ZERO, _DOT, *[_ZERO] * (-E - 1), *trimmed]
    return [_SIGN, _DIGITS, _POINT, *trimmed[1:], _E, _MINUS, _ZERO, _FIVE if E == -5 else _SIX]


@functools.cache
def _format_tables():
    """The formatter's tables, built on the first write: the ASCII digits of
    every 3-digit group (hundreds, tens, units), 10^k for k = 0 .. 22 (each
    an exact double) with its Veltkamp halves, the place (1-based) of each
    significant digit, the constant source rows, and each layout's source
    rows (one per decimal exponent -6 .. 16, then a signed zero's)."""
    group = np.arange(1000)
    digits = (np.stack([group // 100, group // 10 % 10, group % 10]) + ord("0")).astype(np.uint8)
    power = np.array([float(10 ** k) for k in range(23)])
    split = power * 134217729.0  # 2^27 + 1
    high = split - (split - power)
    places = np.arange(1, 18, dtype=np.uint8)[:, None]
    constants = np.frombuffer(b".e-56\0", np.uint8)[:, None]
    layouts = [_layout(E) for E in range(-6, 17)] + [[_SIGN, _ZERO]]
    gather = np.array([rows + [_NUL] * (_SLOT - len(rows)) for rows in layouts])
    return digits, power, high, power - high, places, constants, gather


def _scaled(a, k, power, high, low):
    """hi + lo = a * 10^k exactly: Dekker's product of a and the exact 10^k."""
    split = a * 134217729.0
    a_high = split - (split - a)
    a_low = a - a_high
    p_high, p_low = high[k], low[k]
    hi = a * power[k]
    lo = ((a_high * p_high - hi) + a_high * p_low + a_low * p_high) + a_low * p_low
    return hi, lo


def _format_cells(x):
    """The '%.17g' text of each value of the float64 array x, as a
    (len(x), _SLOT) uint8 array whose row i holds x[i]'s text in order, with
    NUL bytes between, and a NUL last.

    Let E = floor(log10 |x|).  Then |x| * 10^(16 - E) = hi + lo exactly, hi
    an even integer >= 2^53, so its 17 digits rounded half to even, as
    '%.17g' rounds the exact binary value, are N = hi + rint(lo).  N never
    rounds up to 10^17: the largest double below each power of ten from
    1e-5 to 1e17 lies more than 8e-17 of it below, and half a unit of the
    17th digit is 5e-18.  The cells are sorted by layout, so that each
    layout is one gather of source rows.
    """
    digits, power, high, low, places, constants, gather = _format_tables()
    n = len(x)
    ax = np.abs(x)
    numpy_path = (ax > 1e-6) & (ax < 1e17)
    zero = ax == 0
    a = np.where(numpy_path, ax, 1.0)
    E = np.clip(np.floor(np.log10(a)).astype(np.intp), -6, 16)
    hi, lo = _scaled(a, 16 - E, power, high, low)
    # log10 may be one off next to a power of ten: the exact product, not
    # its rounding, must lie in [10^16, 10^17); hi - 10^k is exact wherever
    # it decides the sign
    shift = ((hi - 1e17) + lo >= 0).astype(np.intp) - ((hi - 1e16) + lo < 0)
    if shift.any():
        E += shift
        hi, lo = _scaled(a, 16 - E, power, high, low)
    N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    layout = np.where(zero, len(gather) - 1, E + 6).astype(np.int8)
    order = np.argsort(layout, kind="stable")
    counts = np.bincount(layout, minlength=len(gather)).tolist()
    N, E, negative = N[order], E[order], np.signbit(x)[order]
    src = np.empty((_NUL + 1, n), np.uint8)
    # N's two 9-digit halves (the first with a leading zero), three 3-digit
    # groups each; row 3 * group + j of src is digit j of a group
    high_half = N // 10 ** 9
    for h, half in enumerate((high_half, N - high_half * 10 ** 9)):
        first = half // 10 ** 6
        rest = half - first * 10 ** 6
        second = rest // 1000
        for g, group in enumerate((first, second, rest - second * 1000)):
            for j in range(3):
                digits[j].take(group, out=src[9 * h + 3 * g + j])
    kept = (places * (src[_DIGITS:_TRIMMED] != ord("0"))).max(axis=0)
    np.multiply(src[_DIGITS:_TRIMMED], places <= kept, out=src[_TRIMMED:_SIGN])
    src[_SIGN] = np.where(negative, ord("-"), 0)
    src[_POINT] = np.where(kept > np.maximum(E + 1, 1), ord("."), 0)
    src[_DOT:] = constants

    text = np.empty((_SLOT, n), np.uint8)
    start = 0
    for rows, count in zip(gather, counts):
        if count:
            text[:, start:start + count] = src[rows, start:start + count]
            start += count
    cells = np.empty((n, _SLOT), np.uint8)
    cells[order] = text.T
    for i in np.flatnonzero(~(numpy_path | zero)).tolist():
        cell = b"%.17g" % x[i]
        cells[i] = 0
        cells[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return cells


def _csv_text(blocks):
    """The CSV text of the rows of each 2-D float64 array of blocks, in
    turn, each row ending in a newline, from one _format_cells call."""
    cells = _format_cells(np.concatenate([block.ravel() for block in blocks]))
    end = 0
    for block in blocks:
        rows = cells[end:end + block.size].reshape(block.shape + (_SLOT,))
        rows[:, :, -1] = ord(",")
        rows[:, -1, -1] = ord("\n")
        end += block.size
    return cells.tobytes().translate(None, b"\0")


def _write_table(path, header, groups):
    """Write per-tick columns as CSV rows of '%.17g' numbers.

    groups is a list of column groups, each a list of per-tick arrays.  A
    group whose values in a row have the same float64 bit patterns as in
    the row before reuses that row's text; bits, not ==, because
    -0.0 == 0.0 prints differently and NaN never equals itself.  Each
    group's mask of fresh (not repeated) rows is taken over the whole table
    at once.  The rows are then cut into chunks of about _CELLS fresh cells
    (a row counts at least one, so a chunk holds at most _CELLS rows); the
    first row of a chunk is fresh in every group, so no text is carried
    from one chunk to the next.  A chunk's fresh cells are formatted by one
    _format_cells call: numpy writes the cells with 1e-6 < |x| < 1e17 and
    the signed zeros and '%.17g' itself every other cell, so each cell is
    byte for byte what '%.17g' writes.  A chunk whose every row is fresh
    in every group goes to the file as the formatter's text.  In any other,
    each row takes each group's text from its last fresh row, and the rows
    are joined and written _JOIN at a time.  Neither the table nor its
    text is ever held whole.
    """
    columns = [[c[:, None] if c.ndim == 1 else c for c in group] for group in groups]
    rows = len(groups[0][0])
    fresh = []
    for group in columns:
        f = np.zeros(rows, dtype=bool)
        f[:1] = True
        for c in group:
            bits = c.view(np.uint64)
            f[1:] |= (bits[1:] != bits[:-1]).any(axis=1)
        fresh.append(f)
    counted = np.cumsum(np.maximum(
        sum(sum(c.shape[1] for c in group) * f for group, f in zip(columns, fresh)), 1))
    # each row's chunk: the multiple of _CELLS that the cells up to it reach
    chunk_of = (counted - 1) // _CELLS
    bounds = [*np.flatnonzero(np.diff(chunk_of, prepend=-1)).tolist(), rows]
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for a, b in zip(bounds, bounds[1:]):
            chunk = [f[a:b].copy() for f in fresh]
            for f in chunk:
                f[0] = True
            if all(f.all() for f in chunk):
                fh.write(_csv_text([np.hstack([c[a:b] for group in columns for c in group])]))
                continue
            blocks = [np.hstack([c[a + np.flatnonzero(f)] for c in group])
                      for group, f in zip(columns, chunk)]
            lines = _csv_text(blocks).split(b"\n")
            # each row as the text of every group, each followed by its
            # separator
            table = np.empty((b - a, 2 * len(groups)), dtype=object)
            table[:, 1::2] = b","
            table[:, -1] = b"\n"
            start = 0
            for g, (block, f) in enumerate(zip(blocks, chunk)):
                texts = np.empty(len(block), dtype=object)
                texts[:] = lines[start:start + len(block)]
                start += len(block)
                table[:, 2 * g] = texts[np.cumsum(f) - 1]
            pieces = table.ravel().tolist()
            step = _JOIN * table.shape[1]
            for i in range(0, len(pieces), step):
                fh.write(b"".join(pieces[i:i + step]))


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
    """The summary.json object of an episode's log.  Numbers that overflow
    or turn NaN (a diverged episode's gains, a huge kernel's norm) raise no
    numpy warning here; _dump_json writes them as null."""
    model = config.model
    pi_cl = log.pi_final["cl"]
    with np.errstate(all="ignore"):
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
            # per strategy: learner steps, actor steps skipped for a singular
            # kernel and actor residuals clamped at the rate limit
            "learner_counts": log.learner_counts,
            "diverged_at": log.diverged,
            # max |eig M| of the frozen tail's map; None when no tail ran
            "lifted_spectral_radius": (None if log.M is None else
                                       float(np.abs(np.linalg.eigvals(log.M)).max())),
        }


def _strict(obj):
    """obj with each non-finite float replaced by None: strict JSON has no
    NaN or Infinity, so such a number is written as null."""
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_strict(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _dump_json(obj, fh):
    """Write obj to fh as indented strict JSON and a newline, a non-finite
    number as null; return obj.  summary.json, oracle-check's report and
    eig's spectra all go through here."""
    json.dump(_strict(obj), fh, indent=2, allow_nan=False)
    fh.write("\n")
    return obj


def _write_json(obj, path):
    """Write obj to path as _dump_json does; return obj."""
    with open(path, "w", encoding="utf-8") as fh:
        return _dump_json(obj, fh)


def cmd_run(args, config):
    outdir = args.outdir
    # the output directory and each artifact's own directory under it; an
    # artifact path that is a directory fails here, not after the episode
    try:
        for name in (config.trajectory_csv, config.weights_csv, config.summary_json):
            os.makedirs(os.path.join(outdir, os.path.dirname(name)), exist_ok=True)
            path = os.path.join(outdir, name)
            if os.path.isdir(path):
                raise IsADirectoryError(f"artifact path {path!r} is a directory")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    log = run_episode(config.model, config.reference, config.learning,
                      horizon=config.horizon)
    timed = functools.partial(_timed, log.timings)
    timed("trajectory_csv_ms",
          lambda: write_trajectory_csv(log, os.path.join(outdir, config.trajectory_csv)))
    timed("weights_csv_ms", lambda: write_weights_csv(log, os.path.join(outdir, config.weights_csv)))
    summary_path = os.path.join(outdir, config.summary_json)
    summary = timed("summary_json_ms",
                    lambda: _write_json(build_summary(config, log), summary_path))
    if args.timings:
        # the layer times of this run, summary.json's own among them: the
        # file is written again with them
        _write_json(dict(summary, timings=log.timings), summary_path)
    if log.diverged is not None:
        print(f"episode diverged at t = {log.diverged:.4g} s", file=sys.stderr)
        return 2
    return 0


# the learner terminates at an admissible (not optimal) gain, so the
# declared tolerance against the Riccati gain is loose by design
ORACLE_GAIN_TOLERANCE = 3.0


def cmd_oracle_check(args, config):
    """Print the report that compares the learned closed-loop gain with the
    Riccati oracle's.  Numbers that overflow or turn NaN (a diverged
    episode's gain, a huge cost's residual) raise no numpy warning while
    the oracle and the report are computed; _dump_json writes them as null."""
    model, cfg = config.model, config.learning
    with np.errstate(all="ignore"):
        A_d, B_d = oracle.zoh_discretize(model.A_hat, model.B_hat, cfg.delta)
        Q_bar, R_bar = oracle.stage_cost(cfg.Q, cfg.R, cfg.delta)
        try:
            P = oracle.solve_dare(A_d, B_d, Q_bar, R_bar)
        except oracle.NoConvergenceError as exc:
            print(f"oracle error: {exc}", file=sys.stderr)
            return 1
        dmodel = oracle.DiscreteModel(A_d, B_d, Q_bar, R_bar, cfg.delta)
        S_star = oracle.qfun_kernel(P, dmodel)
        # the control block R_bar + B_d' P B_d is positive whenever R_bar is,
        # at any cost scale, so no singularity floor applies
        oracle_gain = policy_from_kernel(S_star, n_features=model.n, eps_sing=0.0).reshape(-1)
        # textbook discrete LQR gain -K for comparison, and the DARE residual
        K = np.linalg.solve(R_bar + B_d.T @ P @ B_d, B_d.T @ P @ A_d)
        lqr_gain = -K.reshape(-1)
        dare_residual = float(np.linalg.norm(
            P - (Q_bar + A_d.T @ P @ A_d - A_d.T @ P @ B_d @ K)))

    log = run_episode(model, config.reference, cfg, horizon=config.horizon)
    learned_gain = log.pi_final["cl"]
    with np.errstate(all="ignore"):
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
            # a relative residual against zero stage costs has no value: NaN
            # or inf, written as null
            report["learned_theta_bellman_residual"] = oracle.bellman_residual(
                log.theta_final["cl"], Z, phi)
    _dump_json(report, sys.stdout)
    return 0 if report.get("within_tolerance", True) else 2


def _gain_row(text, n):
    """eig's --gain as a (1, n) array: a JSON list of n finite numbers, or
    a list holding one such list; anything else is a ValueError."""
    try:
        gain = json.loads(text)
        if isinstance(gain, list) and len(gain) == 1 and isinstance(gain[0], list):
            gain = gain[0]
        # math.isfinite of an integer too large for a float overflows
        if isinstance(gain, list) and len(gain) == n and all(
                type(g) in (int, float) and math.isfinite(g) for g in gain):
            return np.array([gain], dtype=float)
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"--gain must be a JSON list of {n} finite numbers, not {text!r}")


def cmd_eig(args, config):
    model = config.model
    out = {
        "open_loop_eigenvalues": _eig_pairs(model.A),
        "desired_model_eigenvalues": _eig_pairs(model.A_hat),
    }
    if args.gain is not None:
        try:
            gain = _gain_row(args.gain, model.n)
        except ValueError as exc:
            print(f"gain error: {exc}", file=sys.stderr)
            return 1
        # a gain near the largest double overflows the closed loop to inf,
        # whose eigenvalues are null
        with np.errstate(all="ignore"):
            out["closed_loop_eigenvalues"] = _eig_pairs(model.A + model.B @ gain)
            out["desired_closed_loop_eigenvalues"] = _eig_pairs(
                model.A_hat + model.B_hat @ gain)
    _dump_json(out, sys.stdout)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="modelfollow",
        description="observer-based online learning for model-following control")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate an episode and write artifacts")
    p_run.add_argument("config")
    p_run.add_argument("--outdir", default=".")
    p_run.add_argument("--timings", action="store_true",
                       help="add the wall milliseconds of each layer to summary.json")
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
    # an episode too long to allocate
    try:
        return args.func(args, config)
    except MemoryError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
