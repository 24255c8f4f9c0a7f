"""Episode orchestration: plant, desired model, reference, three learners.

One learner tick covers an interval of length delta: controls are composed
and held, both systems advance by their exact per-tick maps of SUBSTEPS
RK4 substeps (x+ = Phi x + Gamma u, built once per episode), the new
sample is written to the columnar episode log, and each strategy still
adapting performs one learner step on its Bellman sample (regressor and
integral stage cost): a critic and an actor projection step.  The sample
times, the reference and the probes depend on t only and are evaluated
once per episode, before the loop.

strategy_views describes, once for all three strategies, which log rows a
strategy sees as features and which action it prices: the observer and
model-following strategies see the last STACK_DEPTH rows of the logged
tracking-error columns and their signals are incremental (u <- u + mu);
the closed-loop term is direct feedback on the observed state, its stage
cost read off a fixed quadratic form.  The frozen tail and the Bellman
pass read the log through that description (LAGS, PRICED and KINDS give
each strategy's warm-up lag, priced action and kind of stage cost).

The tick is generated code, as the learner's formulas are: one source
piece per formula (the actions mu = pi . F + probe, zero and unprobed for
a strategy whose features do not exist yet; the ob/mf increments; the held
inputs u_total and v; the step of both systems; the outputs and output
errors), written with the learner's helpers as straight-line Python with
every sum in index order from 0.0 and no BLAS call.

The ticks that adapt run as one generated loop per plant size, _ADAPT[n],
from tick 0 on.  It holds the lifted state s = [x, xhat, u_ob, u_mf, e_ob
window, e_mf window], each strategy's theta and pi and its counters in
locals, and binds the maps, the LearningConfig scalars (a null rate limit
as inf, and the time the convergence test starts from: conv_check_start,
or inf when tol_conv <= 0, which disables the freeze) and the stage-cost
weights once; it reads the probes as one list per strategy, so that a
tick builds no list.  A tick
runs the tick pieces inline, with warm-up as a run-time branch; packs its
row (the TICK_COLUMNS, then each strategy's theta and pi) straight into
the log's table; and then each adapting strategy runs the learner's step
piece (learner._learner_step) inline on its features before and after
the tick: the Bellman sample, the critic step, the convergence test (on
the steps from conv_check_start on only, the only ones the freeze
counts), and the greedy gain and clamped actor step, or a skip for a
singular kernel.  Whether a strategy adapts is a run-time flag too, so an
episode compiles one loop whatever adapts.  The loop counts each
strategy's steps, singular skips and clamped actor residuals
(log.learner_counts).  The StrategyState objects, which hold theta and pi
as lists of Python floats, take its results when it returns; only the
log's theta_final and pi_final are numpy arrays.
Adaptation of a strategy stops once its kernel has remained settled for a
configured window (convergence freeze); from then on the strategy does no
per-tick learner work.  The loop stops at the horizon, at the first tick
whose plant state leaves the divergence box, or at the first tick on which
every strategy acts and none adapts.  From there the rest of the episode
is one fixed affine recurrence s+ = M s + N w on the lifted state, started
from the loop's, and the input w = [probes, reference]: M and N are built
once by running the tick kernel _TICK[n], on which every strategy acts,
on identity columns (like the learner's kernels it runs on Python floats
for one tick and on numpy columns for a stack, with the same bits in each
column), every TAIL_BLOCK remaining ticks are one prefix scan of a few
small matrix products (_step_rows), the divergence box is checked after
each block, and the logged outputs and actions are derived from the state
history afterwards by the tick's formulas run on the log's columns: the
learner's dot for y, yhat and each mu = pi . F + probe, with F read
through strategy_views, and elementwise differences and sums for the
output errors and the held inputs, each the bits of the tick's own sum.

The samples of every tick, frozen or not, are rebuilt from the log
columns by the learner's _SAMPLE kernel, a strategy's on the first read
of its log.regressors entry (BellmanLog), and not at all when no caller
reads them.  _SAMPLE runs the sample piece (learner._sample) that opens
the learner step the loop inlines, and numpy's elementwise operations
round as Python's float operations do, so each sample a learner step
consumed equals its logged row bit for bit
(test_per_tick_samples_equal_log_rows replays every step of every corpus
config from its log rows with the sequential references).
TRAJECTORY fixes the order of the logged signals in trajectory.csv; the
writer derives the CSV header from it and the width of each column.
"""

from dataclasses import dataclass
from struct import Struct
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from modelfollow import oracle
from modelfollow.dynamics import held_input_maps
from modelfollow.learner import (
    S_to_theta, dot, components, _CONFIG_LINES, _SAMPLE, _Kernels, _dot, _indent, _index_sum,
    _kernel_source, _learner_step, _names, _unpack, _unpack_rows,
)
from modelfollow.reference import eval_reference

STRATEGIES = ("ob", "cl", "mf")
# sampled tracking errors per observer / model-following feature vector
STACK_DEPTH = 3
# RK4 substeps per learner tick, folded into the per-tick maps
SUBSTEPS = 10
# the divergence box: an episode diverges on the first tick after which a
# plant state component is not within +-BOX (or is nan)
BOX = 1e7
# frozen-tail rows stepped by one prefix scan, between two checks of the
# divergence box
TAIL_BLOCK = 64
# per-tick signals of the episode log, in trajectory.csv column order
TRAJECTORY = ("t", "x", "xhat", "y", "yhat", "yref", "e_ob", "e_mf",
              "u_total", "mu_cl", "u_ob", "u_mf")
# the columns that depend on t alone, written for the whole episode before
# the loop
EXOGENOUS = ("t", "yref")
# the columns a tick writes, in the order _TICK returns them: the state
# after the tick, its outputs, the actions and the held inputs; besides
# TRAJECTORY they hold the ob/mf increments the learners price and the
# desired model's input v
TICK_COLUMNS = ("x", "xhat", "u_ob", "u_mf", "y", "yhat", "e_ob", "e_mf",
                "mu_ob", "mu_cl", "mu_mf", "u_total", "v")
# every per-tick column
COLUMNS = EXOGENOUS + TICK_COLUMNS
# each strategy's warm-up lag: it acts on the ticks k >= lag, on which its
# features exist; and the action it prices, a TICK_COLUMNS name
LAGS = {"ob": STACK_DEPTH - 1, "cl": 0, "mf": STACK_DEPTH - 1}
PRICED = {"ob": "mu_ob", "cl": "v", "mf": "mu_mf"}
# the kind of each strategy's stage cost (learner._sample): the tick form
# for the closed-loop strategy, delta * U for the error-feature ones
KINDS = {"ob": "err", "cl": "cl", "mf": "err"}
# the per-strategy counters of log.learner_counts
LEARNER_COUNTS = ("steps", "singular_skips", "clamped")


@dataclass
class StrategyState:
    """Learner state of one strategy: theta and pi, given as any sequences
    of numbers, held as lists of Python floats, whether it has frozen and
    its count of consecutive settled steps.  run_episode reads it before
    the adapting loop and writes the loop's results back once the loop
    returns; the loop holds theta and pi in locals."""

    theta: list
    pi: list
    frozen: bool = False
    conv_count: int = 0

    def __post_init__(self):
        self.theta, self.pi = [float(v) for v in self.theta], [float(v) for v in self.pi]


class EpisodeLog:
    """Uniformly sampled trajectories plus learner internals for one episode.

    Every COLUMNS signal is an array with one row per sample time (x and
    xhat have n columns); theta_hist and pi_hist hold one (rows, size) array
    per strategy.  All of them are views of one table allocated once for
    the whole horizon, whose row k holds the EXOGENOUS columns, then the
    TICK_COLUMNS and then each strategy's theta and pi, so that the
    adapting loop (_ADAPT) packs each row after EXOGENOUS straight into the
    table's buffer with one struct call.
    Row k of theta_hist[s] and pi_hist[s] is the theta and pi that strategy
    s held when row k was written; a strategy that does not adapt holds
    its final values.
    regressors[s] is a pair (Z, phi): one Bellman regressor row (Z has
    theta's size columns) and one stage cost per tick on which strategy s
    ran a learner step or would have, had it not frozen; a BellmanLog,
    which builds each strategy's pair from the log on the first read of
    its key.
    learner_counts[s] counts strategy s's learner steps ("steps"), the
    steps whose new kernel was singular, so the actor kept its gain
    ("singular_skips"), and the actor residuals the rate limit clamped
    ("clamped"); all zero when it was frozen from the start.
    M is the lifted-state map of the frozen tail (_frozen_tail), None when
    no tail ran.
    timings holds the wall milliseconds of each layer of the episode
    (_timed): compiling kernels, the adapting loop, the frozen tail (0.0
    when none ran) and the Bellman rebuild (None until a read of
    regressors builds a strategy's samples).
    """

    def __init__(self, rows, n, states):
        # each field's table columns: an index for a signal of one column,
        # a slice for x, xhat, theta and pi
        sizes = [(name, n if name in ("x", "xhat") else None) for name in COLUMNS]
        sizes += [((kind, s), len(getattr(states[s], kind)))
                  for s in STRATEGIES for kind in ("theta", "pi")]
        self._fields = {}
        col = 0
        for name, size in sizes:
            self._fields[name] = col if size is None else slice(col, col + size)
            col += 1 if size is None else size
        try:
            self._table = np.zeros((rows, col))
        except ValueError as exc:  # numpy's "array is too big"
            raise MemoryError(f"an episode log of {rows} rows x {col} columns "
                              f"({rows * col * 8 / 2**30:.3g} GiB) is too big") from exc
        self._bind()
        self.t_converged = dict.fromkeys(STRATEGIES)
        self.learner_counts = {s: dict.fromkeys(LEARNER_COUNTS, 0) for s in STRATEGIES}
        self.pi_final = {}
        self.theta_final = {}
        self.diverged = None
        self.M = None
        self.timings = {"compile_ms": 0.0, "adapt_ms": 0.0, "tail_ms": 0.0, "bellman_ms": None}

    def _bind(self):
        """Point every signal and history at its columns of the table."""
        for name in COLUMNS:
            setattr(self, name, self._table[:, self._fields[name]])
        self.theta_hist = {s: self._table[:, self._fields["theta", s]] for s in STRATEGIES}
        self.pi_hist = {s: self._table[:, self._fields["pi", s]] for s in STRATEGIES}

    def trim(self, rows):
        """Keep only the first `rows` rows of every per-tick column."""
        self._table = self._table[:rows]
        self._bind()


def _windows(e):
    """The STACK_DEPTH-sample windows of an error column, as views."""
    if len(e) < STACK_DEPTH:  # sliding_window_view raises when not one fits
        return np.zeros((0, STACK_DEPTH))
    return sliding_window_view(e, STACK_DEPTH)


def strategy_views(log):
    """{s: (rows, lag, action)}: how each strategy reads the columns of log.

    rows[k - lag] is the strategy's feature vector at tick k >= lag and
    action[k + 1] the action it prices during tick k.  Both are views of
    the log columns, so they see each row as it is written.  The
    closed-loop strategy sees the observed state from the first tick and
    prices the full input v of the desired model; the observer and
    model-following strategies see their last STACK_DEPTH tracking errors
    once that many are logged and price their own increments.
    """
    rows = {"ob": _windows(log.e_ob), "cl": log.xhat, "mf": _windows(log.e_mf)}
    return {s: (rows[s], LAGS[s], getattr(log, PRICED[s])) for s in STRATEGIES}


def embedded_gain_kernel(pi, beta, s_max):
    """Positive-definite kernel whose greedy policy equals the given gain.

    Uses the bordered form [[beta I, -s pi'], [-s pi, s]]; choosing
    s < beta / ||pi||^2 keeps the Schur complement positive definite.  A
    zero gain takes s = s_max, the limit of s = min(s_max, beta / (2 ||pi||^2)).
    """
    pi = np.asarray(pi, dtype=float).reshape(-1)
    nf = pi.size
    norm2 = float(pi @ pi)
    s = min(s_max, 0.5 * beta / norm2) if norm2 else s_max
    S = np.eye(nf + 1) * beta
    S[nf, nf] = s
    S[nf, :nf] = -s * pi
    S[:nf, nf] = -s * pi
    return S


def initial_strategies(model, cfg):
    """Initial kernels and gains for the three strategies.

    'stabilizing' evaluates the configured prior gains: the closed-loop
    kernel is the policy-evaluation kernel of its prior gain on the desired
    model, and the error-feature kernels embed their prior gains in a
    bordered positive-definite form.  'identity' starts every kernel at I
    with zero gains.
    """
    states = {}
    if cfg.init == "identity":
        for s in STRATEGIES:
            d = (model.n if s == "cl" else STACK_DEPTH) + 1
            states[s] = StrategyState(S_to_theta(np.eye(d)), np.zeros(d - 1))
        return states

    priors = {s: np.asarray(getattr(cfg, f"pi_{s}0"), dtype=float) for s in STRATEGIES}
    S_cl = oracle.policy_value_kernel(
        model.A_hat, model.B_hat, priors["cl"], cfg.Q, cfg.R, cfg.delta)
    states["cl"] = StrategyState(S_to_theta(S_cl), priors["cl"])
    for s in ("ob", "mf"):
        S = embedded_gain_kernel(priors[s], cfg.kernel_beta, cfg.kernel_smax)
        states[s] = StrategyState(S_to_theta(S), priors[s])
    return states


def _timed(timings, layer, run):
    """run(), its wall milliseconds added to timings[layer] (a missing or
    None entry counts as 0.0), less the time it spent compiling kernels
    (lookups of a learner._Kernels), which is added to
    timings["compile_ms"]."""
    compiled, start = _Kernels.compile_s, perf_counter()
    result = run()
    compile_ms = 1e3 * (_Kernels.compile_s - compiled)
    timings[layer] = (timings.get(layer) or 0.0) + 1e3 * (perf_counter() - start) - compile_ms
    timings["compile_ms"] += compile_ms
    return result


class BellmanLog(dict):
    """Bellman samples of every tick of a learning episode, from the log:
    {s: (Z, phi)}, a dict whose missing key builds that strategy's pair, as
    learner._Kernels compiles a kernel on its first lookup.

    Row k + 1 of the log holds the gains and actions of tick k, so tick
    k >= lag of a strategy pairs its feature rows k - lag and k - lag + 1
    with the action and gain of log row k + 1; each enters the learner's
    _SAMPLE kernel of the strategy's KINDS entry as its columns.  forms[s]
    is the stage-cost weight of strategy s.  Z is stacked once from the
    regressor's columns into one C-ordered row per tick.  The dict
    keeps the log's views (strategy_views) and gain history, not the log,
    and adds the time of each build to log.timings["bellman_ms"].
    """

    def __init__(self, log, cfg, forms):
        super().__init__()
        self._views, self._pi, self._timings = strategy_views(log), log.pi_hist, log.timings
        self._cfg, self._forms = cfg, forms

    def _build(self, s):
        rows, lag, action = self._views[s]
        F, F_next, pi = (components(a) for a in (rows[:-1], rows[1:], self._pi[s][lag + 1:]))
        z_tilde, phi = _SAMPLE[KINDS[s], len(F)](F, action[lag + 1:], F_next, pi, self._forms[s],
                                                 self._cfg.delta, self._cfg.R)
        return np.stack(z_tilde, axis=1), phi

    def __missing__(self, s):
        pair = self[s] = _timed(self._timings, "bellman_ms", lambda: self._build(s))
        return pair


def tick_cost_form(L, Q, R, h):
    """Quadratic form W of the trapezoid-integrated stage utility over one tick.

    With L the substep maps of held_input_maps (x_j = L[j] z, z = [x_0; u]),
    the composite trapezoid over the substep grid of the stage utility
    1/2 (x_j' Q x_j + u R u) equals z' W z, with weights h/2 at the two
    ends and h inside.
    """
    w = np.full(L.shape[0], h)
    w[0] = w[-1] = 0.5 * h
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = L.shape[1]
    W = 0.5 * sum(wj * Lj.T @ Q @ Lj for wj, Lj in zip(w, L))
    W[n:, n:] += 0.5 * w.sum() * R
    return W


def _features(n):
    """{s: (name, size)}: the features of each strategy in the generated
    kernels, the components name0 .. name{size - 1} of the lifted state:
    the observer and model-following error windows (oldest first) and the
    closed-loop observed state."""
    return {"ob": ("w_ob", STACK_DEPTH), "cl": ("xh", n), "mf": ("w_mf", STACK_DEPTH)}


def _lifted(n):
    """The components of the lifted state [x, xhat, u_ob, u_mf, e_ob window,
    e_mf window], as the generated kernels name them."""
    return [*_names("x", n), *_names("xh", n), "u_ob", "u_mf",
            *_names("w_ob", STACK_DEPTH), *_names("w_mf", STACK_DEPTH)]


def _row(n):
    """The TICK_COLUMNS values of a tick, x and xhat by their components, as
    the generated kernels name them."""
    return [*_names("x", n), *_names("xh", n), *TICK_COLUMNS[2:]]


def _strategy_lines(name, sizes):
    """Unpack the sequence `name` into one sequence name_s per strategy, in
    STRATEGIES order, and each name_s into its sizes[s] components."""
    return [f"[{', '.join(f'{name}_{s}' for s in STRATEGIES)}] = {name}",
            *(_unpack(f"{name}_{s}", sizes[s]) for s in STRATEGIES)]


def _gain_lines(n):
    """Unpack each strategy's gain pi_s from the sequence pi."""
    return _strategy_lines("pi", {s: size for s, (_, size) in _features(n).items()})


# each strategy's probe p_s, from the sequence probe in STRATEGIES order
_PROBE_LINE = f"[{', '.join(f'p_{s}' for s in STRATEGIES)}] = probe"


def _map_lines(n):
    """Unpack the per-tick maps Phi, Gam, Phih, Gamh and C from the sequence
    maps into their components."""
    return ["[Phi, Gam, Phih, Gamh, C] = maps",
            *(_unpack(name, size) for name, size in
              (("Phi", n * n), ("Gam", n), ("Phih", n * n), ("Gamh", n), ("C", n)))]


def _action_lines(n, acting):
    """The actions mu_s = pi_s . F_s + p_s of the acting strategies, and 0.0,
    no probe, for one whose features do not exist yet (warm-up gating)."""
    return [f"mu_{s} = {_dot(_names(f'pi_{s}', size), _names(name, size))} + p_{s}"
            if s in acting else f"mu_{s} = 0.0"
            for s, (name, size) in _features(n).items()]


def _step_lines(n):
    """Both systems advance by their per-tick maps, x+ = Phi x + Gam u_total
    and xhat+ = Phih xhat + Gamh v, each row an index-order sum."""
    lines = []
    for x, Phi, Gam, u in (("x", "Phi", "Gam", "u_total"), ("xh", "Phih", "Gamh", "v")):
        rows = (f"{_index_sum(f'{Phi}{i * n + j} * {x}{j}' for j in range(n))} + {Gam}{i} * {u}"
                for i in range(n))
        lines.append(f"{', '.join(_names(x, n))} = {', '.join(rows)}")
    return lines


def _output_lines(n):
    """y and yhat of the states x and xh and the output errors e_ob = y - yhat
    and e_mf = yref - y."""
    return [f"y = {_dot(_names('C', n), _names('x', n))}",
            f"yhat = {_dot(_names('C', n), _names('xh', n))}",
            "e_ob = y - yhat", "e_mf = yref - y"]


def _advance_lines(n):
    """The rest of a tick once its actions are taken: the ob/mf increments;
    the inputs held over the tick, the plant's u_total and the desired
    model's v = u_ob + u_total, the full input the closed-loop learner
    prices, which keeps its logged data Bellman-consistent; the step of both
    systems; the outputs and errors."""
    return ["u_ob = u_ob + mu_ob", "u_mf = u_mf + mu_mf", "u_total = mu_cl + u_mf",
            "v = u_ob + u_total", *_step_lines(n), *_output_lines(n)]


def _tick_source(n):
    w_ob, w_mf = _names("w_ob", STACK_DEPTH), _names("w_mf", STACK_DEPTH)
    state = [*_names("x", n), *_names("xh", n), "u_ob", "u_mf",
             *w_ob[1:], "e_ob", *w_mf[1:], "e_mf"]
    lines = [f"[{', '.join(_lifted(n))}] = z", *_gain_lines(n), _PROBE_LINE, *_map_lines(n),
             *_action_lines(n, STRATEGIES), *_advance_lines(n)]
    return _kernel_source("z, pi, probe, yref, maps", lines,
                          f"[{', '.join(state)}], [{', '.join(_row(n))}]")


def _adapt_source(n):
    features = _features(n)
    size = {s: f for s, (_, f) in features.items()}
    theta = {s: _names(f"theta_{s}", (f + 1) * (f + 2) // 2) for s, f in size.items()}
    pi = {s: _names(f"pi_{s}", f) for s, f in size.items()}
    # a logged row: the TICK_COLUMNS, then each strategy's theta and pi
    row = [*_row(n), *(v for s in STRATEGIES for v in (*theta[s], *pi[s]))]
    write = f"pack(table, off, {', '.join(row)})"
    # each strategy's features before the tick (F) and after it (G): the
    # observed state saved before the tick, and the error windows before
    # their shift by the tick's errors
    F, G = {}, {}
    for s, (name, f) in features.items():
        now = _names(name, f)
        F[s], G[s] = (_names("xp", n), now) if s == "cl" else (now, [*now[1:], f"e_{s}"])
    windows = {s: F[s] for s in STRATEGIES if s != "cl"}
    lag = max(LAGS.values())
    # each strategy's probes, one list of every tick's
    probes = [f"probes_{s}" for s in STRATEGIES]

    learn = []
    for s in STRATEGIES:
        th = _names("th", len(theta[s]))
        step = [*_learner_step(KINDS[s], theta[s], pi[s], F[s], G[s], PRICED[s], f"W_{s}",
                               [f"skips_{s} += 1"], [f"clamps_{s} += clamped"]),
                f"{', '.join(theta[s])} = {', '.join(th)}", f"steps_{s} += 1",
                "if t >= conv_check_start:",
                *_indent([f"conv_{s} = conv_{s} + 1 if settled else 0",
                          f"if conv_{s} >= conv_window:",
                          *_indent([f"adapt_{s} = False", f"t_conv_{s} = t + delta"])])]
        learn += [f"if adapt_{s} and k >= {LAGS[s]}:" if LAGS[s] else f"if adapt_{s}:",
                  *_indent(step)]

    tick = [f"if k >= {lag} and not ({' or '.join(f'adapt_{s}' for s in STRATEGIES)}):",
            "    break",
            "t = k * delta", "yref = ref[k + 1]",
            f"{', '.join(F['cl'])} = {', '.join(G['cl'])}",
            f"if k >= {lag}:", *_indent(_action_lines(n, STRATEGIES)),
            "else:", *_indent(_action_lines(n, [s for s in STRATEGIES if not LAGS[s]])),
            *_advance_lines(n),
            # false for nan and inf as well as for a state outside the box
            f"if not ({' and '.join(f'abs({x}) <= {BOX!r}' for x in _names('x', n))}):",
            *_indent(["diverged = t + delta", "break"]),
            "off = off + stride", write, *learn,
            *(f"{', '.join(w)} = {', '.join([*w[1:], f'e_{s}'])}" for s, w in windows.items())]

    lines = [_unpack("x", n), _unpack("xh", n),
             *_strategy_lines("theta", {s: len(theta[s]) for s in STRATEGIES}), *_gain_lines(n),
             f"[{', '.join(f'adapt_{s}' for s in STRATEGIES)}] = adapt",
             f"[{', '.join(f'conv_{s}' for s in STRATEGIES)}] = conv",
             *_map_lines(n), f"[{', '.join(f'W_{s}' for s in STRATEGIES)}] = W",
             *(_unpack_rows(f"W_{s}", f + 1 if s == "cl" else f) for s, f in size.items()),
             *_CONFIG_LINES,
             "conv_window = cfg.conv_window",
             " = ".join([*(f"{c}_{s}" for s in STRATEGIES for c in ("steps", "skips", "clamps")),
                         "0"]),
             " = ".join([*(f"t_conv_{s}" for s in STRATEGIES), "diverged", "None"]),
             # row 0: the first sample, before any action
             "u_ob = u_mf = mu_ob = mu_cl = mu_mf = u_total = v = 0.0",
             "yref = ref[0]", *_output_lines(n),
             *(f"{', '.join(w)} = {', '.join([*['0.0'] * (len(w) - 1), f'e_{s}'])}"
               for s, w in windows.items()),
             f"stride, off = table.strides[0], {len(EXOGENOUS)} * table.itemsize", write,
             f"{', '.join(probes)} = probes",
             f"for k, {', '.join(f'p_{s}' for s in STRATEGIES)} in zip(range(len({probes[0]})), "
             f"{', '.join(probes)}):", *_indent(tick),
             "else:", f"    k = len({probes[0]})"]
    learned = ", ".join(f"([{', '.join(theta[s])}], [{', '.join(pi[s])}], conv_{s}, t_conv_{s}, "
                        f"steps_{s}, skips_{s}, clamps_{s})" for s in STRATEGIES)
    return _kernel_source("x, xh, theta, pi, adapt, conv, ref, probes, maps, W, cfg, table, pack",
                          lines, f"k, diverged, [{', '.join(_lifted(n))}], [{learned}]")


# _TICK[n](z, pi, probe, yref, maps): one tick of the control law and both
# systems, of a plant of n states, on which every strategy acts, as it does
# on every tick of the frozen tail.  z is the lifted state before the tick,
# pi the gains and probe the probes in STRATEGIES order, yref the reference
# at the end of the tick and maps (Phi, Gamma, Phi_hat, Gamma_hat, the
# output row), Phi and Phi_hat flattened row-major.  Returns the lifted
# state after the tick and the row of TICK_COLUMNS values it logs, x and
# xhat by their components.
_TICK = _Kernels(_tick_source)
# _ADAPT[n](x, xh, theta, pi, adapt, conv, ref, probes, maps, W, cfg, table,
# pack): the ticks of an episode of a plant of n states from tick 0 on, each
# adapting strategy taking its learner step (learner._learner_step) inline.
# x and xh are the initial states; theta, pi, adapt (whether the strategy
# adapts), conv (its settled-step count) and W (its stage-cost weight as a
# list of rows) hold one entry per strategy in STRATEGIES order; ref is
# the reference at every sample time, probes one list per strategy, in
# STRATEGIES order, of its probe on every tick;
# maps as for _TICK; cfg the LearningConfig.  Row k of the table is packed
# by pack (a struct's pack_into over the columns after EXOGENOUS) as tick
# k - 1 ends.  The loop stops at the horizon, at the first tick whose
# plant state leaves the box, or at the first tick on which every strategy
# acts and none adapts.  Returns the tick k it stopped at (the number of
# ticks at the horizon), the divergence time or None, the lifted state
# before tick k, and per strategy its theta, pi, settled-step count, freeze
# time or None and its step, singular-skip and clamp counts.
_ADAPT = _Kernels(_adapt_source)


def _step_rows(rows, z, powers):
    """Run the recurrence s+ = M s + N w through rows in place: each row
    holds N w of its tick and becomes the state after it, z is the state
    before the first row and powers[j] is (M^(2^j))', for 2^j < len(rows).
    Returns the state after the last row.

    The rows are a prefix scan (Hillis and Steele's): M z is added to the
    first row, then for d = 1, 2, 4, ... each row i >= d adds M^d times
    row i - d as it stood before that pass, so that after the pass for d
    row i sums M^(i - k) times the N w of row k over the 2d rows k <= i
    nearest it, and M^(i + 1) z once they reach the first row.  Row i
    depends on rows <= i only, and every product has at least two rows:
    BLAS rounds a one-row product (a matrix-vector product) differently
    from the same row of a larger one, so the leading rows of a shorter
    run keep their bits.

    A power of M overflows once M's spectral radius per tick exceeds about
    10^(308 / (TAIL_BLOCK / 2)), 4e9 for TAIL_BLOCK = 64; the rows it
    multiplies into then turn to inf or nan, which the box check reports
    as the divergence of the first of them, at most TAIL_BLOCK / 2 rows
    into the block.  A state of ordinary size growing that fast leaves the
    box within a tick or two anyway.
    """
    rows[0] += z @ powers[0]
    for j, power in enumerate(powers):
        m = len(rows) - (1 << j)
        if m <= 0:
            break
        rows[1 << j:] += (rows[:max(m, 2)] @ power)[:m]
    return rows[-1]


def _frozen_tail(log, k0, z, gains, maps, probe):
    """Ticks k0, k0 + 1, ... of an episode in which no strategy adapts.

    With the gains fixed a tick is an affine map s+ = M s + N w of the
    lifted state s and the input w = [the probes of STRATEGIES, yref at the
    end of the tick], built once here by running _TICK on identity columns
    and kept as log.M; N w of every tick is one matmul, and the states are
    TAIL_BLOCK-row prefix scans (_step_rows) with the transposed powers
    M^1, M^2, M^4, ... taken once by repeated squaring.  z is the lifted
    state after row k0, gains holds each strategy's gain in STRATEGIES
    order and row k of probe the probes of tick k.  Rows k0 + 1 on are then
    written from the state history and the log trimmed at the first row
    whose plant state leaves the box, as the per-tick loop does; the ticks
    after the block that holds that row are not run.  The logged outputs
    and actions follow from the state history by the tick's formulas run
    on the log's columns: y = C . x and yhat = C . xhat with the learner's
    dot, e_ob = y - yhat, e_mf = yref - y, each mu_s = pi_s . F_s + p_s on
    the features of strategy_views, u_total = mu_cl + u_mf and v = u_ob +
    u_total, each column the bits the tick gives its row.
    """
    n = log.x.shape[1]
    size = len(z)
    # one identity column per component of s and of w
    unit = list(np.eye(size + len(STRATEGIES) + 1))
    MN = np.vstack(_TICK[n](unit[:size], gains, unit[size:-1], unit[-1], maps)[0])
    M, N = MN[:, :size], MN[:, size:]
    log.M = M

    w = np.column_stack([probe[k0:], log.yref[k0 + 1:]])
    # row i starts as N w of tail tick i and becomes the state after it;
    # the rows are stepped TAIL_BLOCK at a time and the box checked after
    # each block, so a diverging tail stops within one block of its exit
    hist = w @ N.T
    z = np.array(z)
    with np.errstate(over="ignore", invalid="ignore"):
        # the same powers step every block, so a rounding error of theirs
        # would recur block after block: they are squared in np.longdouble
        # and rounded once
        powers = [M.T.astype(np.longdouble)]
        while 1 << len(powers) < TAIL_BLOCK:
            powers.append(powers[-1] @ powers[-1])
        powers = [power.astype(float) for power in powers]
        for i in range(0, len(hist), TAIL_BLOCK):
            block = hist[i:i + TAIL_BLOCK]
            z = _step_rows(block, z, powers)
            # false for nan and inf as well as for a state outside the box
            out = np.flatnonzero(~(np.abs(block[:, :n]).max(axis=1) <= BOX))
            if out.size:
                exit_row = i + out[0]
                hist = hist[:exit_row]
                log.diverged = float(log.t[k0 + 1 + exit_row])
                log.trim(k0 + 1 + exit_row)
                break

    rows = slice(k0 + 1, k0 + 1 + len(hist))
    log.x[rows] = hist[:, :n]
    log.xhat[rows] = hist[:, n:2 * n]
    log.u_ob[rows] = hist[:, 2 * n]
    log.u_mf[rows] = hist[:, 2 * n + 1]
    log.y[rows] = y = dot(maps[-1], components(log.x[rows]))
    log.yhat[rows] = yhat = dot(maps[-1], components(log.xhat[rows]))
    log.e_ob[rows] = y - yhat
    log.e_mf[rows] = log.yref[rows] - y
    # the error windows are views of e_ob and e_mf, written just above
    for (feats, lag, _), s, gain, p in zip(strategy_views(log).values(), STRATEGIES, gains,
                                           probe[k0:k0 + len(hist)].T):
        F = components(feats[k0 - lag:k0 - lag + len(hist)])
        getattr(log, f"mu_{s}")[rows] = dot(gain, F) + p
    log.u_total[rows] = u_total = log.mu_cl[rows] + log.u_mf[rows]
    log.v[rows] = log.u_ob[rows] + u_total


def run_episode(model, ref_spec, cfg, horizon=20.0, initial=None):
    """Simulate one episode from rest and return its log.

    Args:
        model: ProcessModel with the exact and desired systems.
        ref_spec: ReferenceSpec for the command generator.
        cfg: LearningConfig.
        horizon: episode length in seconds.
        initial: optional dict of StrategyState overriding the defaults;
            a frozen state does not adapt, so its gain acts as a fixed
            controller.  Once the adapting loop returns, each state takes
            its final theta, pi, settled-step count and freeze.

    From the first tick on which every strategy acts and none adapts (each
    has converged or was frozen from the start), the rest of the episode
    runs as the fixed affine recurrence of _frozen_tail instead of tick by
    tick.

    Returns:
        EpisodeLog.  Divergence stops the episode early and is recorded in
        log.diverged; the log is trimmed to the rows written and returned.
    """
    if model.m != 1 or model.p != 1:
        raise NotImplementedError("single-input single-output plants only")

    states = initial if initial is not None else initial_strategies(model, cfg)
    delta = cfg.delta
    h = delta / SUBSTEPS
    n_ticks = int(round(horizon / delta))
    n = model.n
    L = held_input_maps(model.A, model.B, h, SUBSTEPS)
    L_hat = held_input_maps(model.A_hat, model.B_hat, h, SUBSTEPS)
    # the kernels take the maps and the stage-cost weights as lists; the
    # closed-loop learner's stage cost is priced on [xhat; v]
    maps = tuple(a.ravel().tolist() for a in (L[-1, :, :n], L[-1, :, n],
                                              L_hat[-1, :, :n], L_hat[-1, :, n], model.C[0]))
    Q = cfg.Q.tolist()
    forms = {"ob": Q, "cl": tick_cost_form(L_hat, cfg.Q, cfg.R, h).tolist(), "mf": Q}

    log = EpisodeLog(n_ticks + 1, n, states)
    # the exogenous signals depend on t only: the sample times accumulate
    # t + delta as the tick clock does, the reference is taken at them and
    # each strategy's probe at the start of each tick
    t_start = np.arange(n_ticks) * delta
    log.t[1:] = t_start + delta
    log.yref[:] = eval_reference(ref_spec, log.t)
    # row k: the probes of tick k, one column per strategy in STRATEGIES order
    probe = np.column_stack([cfg.probe(t_start, s) for s in STRATEGIES])

    ordered = [states[s] for s in STRATEGIES]
    pack = Struct(f"={log._table.shape[1] - len(EXOGENOUS)}d").pack_into
    k, diverged, z, learned = _timed(log.timings, "adapt_ms", lambda: _ADAPT[n](
        [0.0] * n, [0.0] * n, [st.theta for st in ordered], [st.pi for st in ordered],
        [not st.frozen for st in ordered], [st.conv_count for st in ordered],
        log.yref.tolist(), probe.T.tolist(), maps, [forms[s] for s in STRATEGIES], cfg,
        log._table, pack))
    if diverged is not None:
        log.diverged = diverged
        log.trim(k + 1)
    # each state takes the loop's results, and the rows after row k, which
    # the frozen tail writes, hold its final theta and pi (no rows when the
    # loop reached the horizon or the log was trimmed)
    for s, st, (theta, pi, conv, t_conv, *counts) in zip(STRATEGIES, ordered, learned):
        st.theta, st.pi, st.conv_count = theta, pi, conv
        if t_conv is not None:
            st.frozen = True
            log.t_converged[s] = t_conv
        log.learner_counts[s].update(zip(LEARNER_COUNTS, counts))
        log.theta_hist[s][k + 1:] = theta
        log.pi_hist[s][k + 1:] = pi
        log.pi_final[s] = np.array(pi)
        log.theta_final[s] = np.array(theta)
    if diverged is None and k < n_ticks:
        # every strategy acts and none adapts: the rest of the episode is
        # one fixed affine recurrence
        _timed(log.timings, "tail_ms",
               lambda: _frozen_tail(log, k, z, [st.pi for st in ordered], maps, probe))
    log.regressors = BellmanLog(log, cfg, forms)
    return log
