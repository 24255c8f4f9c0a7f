"""Episode orchestration: plant, desired model, reference, three learners.

One learner tick covers an interval of length delta: controls are composed
and held, both systems advance by their exact per-tick maps of SUBSTEPS
RK4 substeps (x+ = Phi x + Gamma u, built once per episode), the new
sample is written to the columnar episode log, and each strategy still
adapting performs one critic and one actor projection step on its Bellman
sample (regressor and integral stage cost).  The sample times, the
reference and the probes depend on t only and are evaluated once per
episode, before the loop.

strategy_views describes, once for all three strategies, which log rows a
strategy sees as features and which action it prices: the observer and
model-following strategies see the last STACK_DEPTH rows of the logged
tracking-error columns and their signals are incremental (u <- u + mu);
the closed-loop term is direct feedback on the observed state, its stage
cost read off a fixed quadratic form.  The frozen tail and the Bellman
pass read the log through that description (LAGS and PRICED give each
strategy's warm-up lag and priced action).

The tick is generated code, as the learner's formulas are: one source
piece per formula (the actions mu = pi . F + probe, zero and unprobed for
a strategy whose features do not exist yet; the ob/mf increments; the held
inputs u_total and v; the step of both systems; the outputs and output
errors), written with the learner's helpers as straight-line Python with
every sum in index order from 0.0 and no BLAS call.  _TICK compiles the
tick of a plant size and a set of acting strategies on first use; it takes
the lifted state s = [x, xhat, u_ob, u_mf, e_ob window, e_mf window] by its
components and returns the lifted state after the tick and the row it
logs.  Like the learner's kernels it runs on Python floats for one tick
and on numpy columns for a stack of ticks, with the same bits in each
column.

A tick that adapts runs on Python floats: the loop carries the lifted
state, each strategy's features and next features are slices of it before
and after the tick, the priced action is read off the tick's row, and the
row, with each strategy's theta and pi, is written to the log with one
assignment; nothing is read back from the log.  Each adapting strategy
then takes its Bellman sample and its critic and actor steps on its
StrategyState, which holds theta and pi as lists of Python floats and the
kernel as the tuple of its entries from construction on; only the log's
theta_final and pi_final are numpy arrays, built when the episode ends.
Adaptation of a strategy stops once its kernel has remained settled for a
configured window (convergence freeze); from then on the strategy does no
per-tick learner work.  Once every strategy acts and none adapts, the rest
of the episode is one fixed affine recurrence s+ = M s + N w on the lifted
state, started from the loop's, and the input w = [probes, reference]: M
and N are built once by running the tick on identity columns, every
TAIL_BLOCK remaining ticks are one prefix scan of a few small matrix
products (_step_rows), the divergence box is checked after each block, and
the logged outputs and actions are derived from the state history
afterwards by the generated output, action and input pieces (_OUTPUTS,
_ACTIONS) run on its columns.

The samples of every tick, frozen or not, are rebuilt after the loop by
the same function, bellman_sample, run on the log columns (bellman_log);
numpy's elementwise operations round as Python's float operations do, so
each sample a learner step consumed equals its logged row bit for bit
(test_per_tick_samples_equal_log_rows checks this on every corpus config).
TRAJECTORY fixes the order of the logged signals in trajectory.csv; the
writer derives the CSV header from it and the width of each column.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from modelfollow import oracle
from modelfollow.dynamics import held_input_maps
from modelfollow.learner import (
    SingularKernelError, theta_to_S, S_to_theta,
    bellman_regressor, policy_from_kernel, critic_update, actor_update,
    kernel_converged, quadratic_form, utility, dot, components,
    _Kernels, _index_sum, _products, _unpack,
)
from modelfollow.reference import eval_reference

STRATEGIES = ("ob", "cl", "mf")
# sampled tracking errors per observer / model-following feature vector
STACK_DEPTH = 3
# RK4 substeps per learner tick, folded into the per-tick maps
SUBSTEPS = 10
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


@dataclass
class StrategyState:
    """Learner state of one strategy, in the form its learner steps compute
    on.  theta and pi, given as any sequences of numbers, are held as lists
    of Python floats; S is the kernel of theta (theta_to_S, the tuple of its
    entries in row-major order), computed at construction and replaced
    together with theta, so that a learner step unflattens only the new
    theta."""

    theta: list
    pi: list
    frozen: bool = False
    conv_count: int = 0
    S: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.theta, self.pi = [float(v) for v in self.theta], [float(v) for v in self.pi]
        self.S = theta_to_S(self.theta)


class EpisodeLog:
    """Uniformly sampled trajectories plus learner internals for one episode.

    Every COLUMNS signal is an array with one row per sample time (x and
    xhat have n columns); theta_hist and pi_hist hold one (rows, size) array
    per strategy.  All of them are views of one table allocated once for
    the whole horizon, whose row k holds the EXOGENOUS columns, then the
    TICK_COLUMNS and then each strategy's theta and pi, so that a tick
    writes its row with one assignment (write_row).
    Row k of theta_hist[s] and pi_hist[s] is the theta and pi that strategy
    s held when row k was written; a strategy that does not adapt holds
    its final values.
    regressors[s] is a pair (Z, phi): one Bellman regressor row (Z has
    theta's size columns) and one stage cost per tick on which strategy s
    ran a learner step or would have, had it not frozen; empty until
    run_episode fills it after the loop.
    M is the lifted-state map of the frozen tail (_frozen_tail), None when
    no tail ran.
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
        self._table = np.zeros((rows, col))
        self._bind()
        self.regressors = {s: (np.zeros((0, len(states[s].theta))), np.zeros(0))
                           for s in STRATEGIES}
        self.t_converged = dict.fromkeys(STRATEGIES)
        self.pi_final = {}
        self.theta_final = {}
        self.diverged = None
        self.M = None

    def _bind(self):
        """Point every signal and history at its columns of the table."""
        for name in COLUMNS:
            setattr(self, name, self._table[:, self._fields[name]])
        self.theta_hist = {s: self._table[:, self._fields["theta", s]] for s in STRATEGIES}
        self.pi_hist = {s: self._table[:, self._fields["pi", s]] for s in STRATEGIES}

    def write_row(self, k, values):
        """Write row k from values: the TICK_COLUMNS, then the theta and pi
        of each strategy."""
        self._table[k, len(EXOGENOUS):] = values

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


def bellman_sample(s, F, mu, F_next, pi, cfg, form):
    """Bellman regressor and integral stage cost of strategy s on one tick,
    or one of each per tick of a stack.

    F and F_next are the features at t and t + delta, mu the action taken
    and pi the gain that prices the next action.  The vectors are given by
    their components: Python floats for one tick, numpy columns for a
    stack, on which the learner's component-wise formulas give each row
    the one-tick value bit for bit.  form is the weight of the stage cost
    as a list of rows: the tick form W_cl on [xhat; v] for the closed-loop
    strategy, Q for the error-feature strategies, which cost delta * U(F, mu).
    The regressor is returned as the list of its components.
    """
    Z_t = [*F, mu]
    z_tilde = bellman_regressor(Z_t, [*F_next, dot(pi, F_next)])
    if s == "cl":
        return z_tilde, quadratic_form(Z_t, form)
    return z_tilde, cfg.delta * utility(F, mu, form, cfg.R)


def bellman_log(log, cfg, forms):
    """Bellman samples of every tick of a learning episode, from the log.

    Row k + 1 of the log holds the gains and actions of tick k, so tick
    k >= lag of a strategy pairs its feature rows k - lag and k - lag + 1
    with the action and gain of log row k + 1; each enters bellman_sample
    as its columns.  forms[s] is the stage-cost weight of strategy s.
    Returns {s: (Z, phi)}, Z stacked once from the regressor's columns
    into one C-ordered row per tick.
    """
    samples = {}
    for s, (rows, lag, action) in strategy_views(log).items():
        F, F_next, pi = (components(a) for a in (rows[:-1], rows[1:], log.pi_hist[s][lag + 1:]))
        z_tilde, phi = bellman_sample(s, F, action[lag + 1:], F_next, pi, cfg, forms[s])
        samples[s] = np.stack(z_tilde, axis=1), phi
    return samples


def _learn_step(state, z_tilde, phi, F, cfg, t):
    """One critic + actor projection step for a single strategy."""
    state.theta = critic_update(state.theta, z_tilde, phi, cfg.sigma_c, cfg.alpha_c)
    S_prev, state.S = state.S, theta_to_S(state.theta)
    settled = kernel_converged(S_prev, state.S, cfg.tol_conv)

    try:
        gain_row = policy_from_kernel(state.S, n_features=len(F), eps_sing=cfg.eps_sing)[0]
    except SingularKernelError:
        pass  # keep the previous actor this cycle
    else:
        state.pi = actor_update(state.pi, F, dot(gain_row, F), cfg.sigma_a, cfg.alpha_a,
                                rate_limit=cfg.actor_rate_limit)

    if t >= cfg.conv_check_start:
        state.conv_count = state.conv_count + 1 if settled else 0
        if state.conv_count >= cfg.conv_window:
            state.frozen = True


def tick_cost_form(L, Q, R, h):
    """Quadratic form W of the trapezoid-integrated stage utility over one tick.

    With L the substep maps of held_input_maps (x_j = L[j] z, z = [x_0; u]),
    the composite trapezoid over the substep grid of utility(x_j, u, Q, R)
    equals z' W z, with weights h/2 at the two ends and h inside.
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


def _names(name, n):
    return [f"{name}{i}" for i in range(n)]


def _lifted(n):
    """The components of the lifted state [x, xhat, u_ob, u_mf, e_ob window,
    e_mf window], as the generated kernels name them."""
    return [*_names("x", n), *_names("xh", n), "u_ob", "u_mf",
            *_names("w_ob", STACK_DEPTH), *_names("w_mf", STACK_DEPTH)]


def _row(n):
    """The TICK_COLUMNS values of a tick, x and xhat by their components, as
    the generated kernels name them."""
    return [*_names("x", n), *_names("xh", n), *TICK_COLUMNS[2:]]


def _gain_lines(n):
    """Unpack each strategy's gain pi_s and probe p_s from the sequences pi
    and probe, in STRATEGIES order."""
    lines = [f"[{', '.join(f'pi_{s}' for s in STRATEGIES)}] = pi",
             f"[{', '.join(f'p_{s}' for s in STRATEGIES)}] = probe"]
    return lines + [_unpack(f"pi_{s}", size) for s, (_, size) in _features(n).items()]


def _action_lines(n, acting):
    """The actions mu_s = pi_s . F_s + p_s of the acting strategies, and 0.0,
    no probe, for one whose features do not exist yet (warm-up gating)."""
    return [f"mu_{s} = {_index_sum(_products(f'pi_{s}', name, size))} + p_{s}"
            if s in acting else f"mu_{s} = 0.0"
            for s, (name, size) in _features(n).items()]


# the inputs held over a tick, from its actions and the ob/mf signals after
# their increments: the plant's u_total and the desired model's v = u_ob +
# u_total, the full input the closed-loop learner prices, which keeps its
# logged data Bellman-consistent
_INPUT_LINES = ["u_total = mu_cl + u_mf", "v = u_ob + u_total"]


def _step_lines(n):
    """Both systems advance by their per-tick maps, x+ = Phi x + Gam u_total
    and xhat+ = Phih xhat + Gamh v, each row an index-order sum."""
    lines = []
    for x, Phi, Gam, u in (("x", "Phi", "Gam", "u_total"), ("xh", "Phih", "Gamh", "v")):
        rows = (f"{_index_sum(f'{Phi}{i * n + j} * {x}{j}' for j in range(n))} + {Gam}{i} * {u}"
                for i in range(n))
        lines.append(f"[{', '.join(_names(x, n))}] = [{', '.join(rows)}]")
    return lines


def _output_lines(n):
    """y and yhat of the states x and xh and the output errors e_ob = y - yhat
    and e_mf = yref - y."""
    return [f"y = {_index_sum(_products('C', 'x', n))}",
            f"yhat = {_index_sum(_products('C', 'xh', n))}",
            "e_ob = y - yhat", "e_mf = yref - y"]


def _kernel_source(signature, lines, result):
    body = "\n    ".join(lines)
    return f"""
def kernel({signature}):
    {body}
    return {result}
"""


def _tick_source(key):
    n, acting = key
    w_ob, w_mf = _names("w_ob", STACK_DEPTH), _names("w_mf", STACK_DEPTH)
    state = [*_names("x", n), *_names("xh", n), "u_ob", "u_mf",
             *w_ob[1:], "e_ob", *w_mf[1:], "e_mf"]
    lines = [f"[{', '.join(_lifted(n))}] = z", *_gain_lines(n),
             "[Phi, Gam, Phih, Gamh, C] = maps",
             *(_unpack(name, size) for name, size in
               (("Phi", n * n), ("Gam", n), ("Phih", n * n), ("Gamh", n), ("C", n))),
             *_action_lines(n, acting), "u_ob = u_ob + mu_ob", "u_mf = u_mf + mu_mf",
             *_INPUT_LINES, *_step_lines(n), *_output_lines(n)]
    return _kernel_source("z, pi, probe, yref, maps", lines,
                          f"[{', '.join(state)}], [{', '.join(_row(n))}]")


def _outputs_source(n):
    lines = [_unpack("x", n), _unpack("xh", n), _unpack("C", n), *_output_lines(n)]
    return _kernel_source("x, xh, yref, C", lines, "y, yhat, e_ob, e_mf")


def _actions_source(n):
    features = _features(n).values()
    lines = [*(_unpack(name, size) for name, size in features), *_gain_lines(n),
             *_action_lines(n, STRATEGIES), *_INPUT_LINES]
    return _kernel_source(f"{', '.join(name for name, _ in features)}, pi, probe, u_ob, u_mf",
                          lines, "mu_ob, mu_cl, mu_mf, u_total, v")


# _TICK[n, acting](z, pi, probe, yref, maps): one tick of the control law and
# both systems, of a plant of n states, on which the strategies in acting
# have their features.  z is the lifted state before the tick, pi the gains
# and probe the probes in STRATEGIES order, yref the reference at the end of
# the tick and maps (Phi, Gamma, Phi_hat, Gamma_hat, the output row), Phi and
# Phi_hat flattened row-major.  Returns the lifted state after the tick and
# the row of TICK_COLUMNS values it logs, x and xhat by their components.
_TICK = _Kernels(_tick_source)
# _OUTPUTS[n](x, xh, yref, C): y, yhat, e_ob and e_mf of the states x, xh
_OUTPUTS = _Kernels(_outputs_source)
# _ACTIONS[n](w_ob, xh, w_mf, pi, probe, u_ob, u_mf): the actions of the
# features of every strategy and the held inputs they give with the ob/mf
# signals after their increments: mu_ob, mu_cl, mu_mf, u_total and v
_ACTIONS = _Kernels(_actions_source)


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
    written from the state history, the logged outputs and actions derived
    from it with _OUTPUTS and _ACTIONS run on its columns, and the log
    trimmed at the first row whose plant state leaves the box, as the
    per-tick loop does; the ticks after the block that holds that row are
    not run.
    """
    n = log.x.shape[1]
    size = len(z)
    # one identity column per component of s and of w
    unit = list(np.eye(size + len(STRATEGIES) + 1))
    MN = np.vstack(_TICK[n, STRATEGIES](unit[:size], gains, unit[size:-1], unit[-1], maps)[0])
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
            out = np.flatnonzero(~(np.abs(block[:, :n]).max(axis=1) <= 1e7))
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
    log.y[rows], log.yhat[rows], log.e_ob[rows], log.e_mf[rows] = _OUTPUTS[n](
        components(log.x[rows]), components(log.xhat[rows]), log.yref[rows], maps[-1])
    F = [components(feats[k0 - lag:k0 - lag + len(hist)])
         for feats, lag, _ in strategy_views(log).values()]
    (log.mu_ob[rows], log.mu_cl[rows], log.mu_mf[rows], log.u_total[rows],
     log.v[rows]) = _ACTIONS[n](*F, gains, probe[k0:k0 + len(hist)].T,
                                log.u_ob[rows], log.u_mf[rows])


def run_episode(model, ref_spec, cfg, horizon=20.0,
                learning_enabled=True, initial=None, x0=None, xhat0=None):
    """Simulate one episode and return its log.

    Args:
        model: ProcessModel with the exact and desired systems.
        ref_spec: ReferenceSpec for the command generator.
        cfg: LearningConfig.
        horizon: episode length in seconds.
        learning_enabled: when False the critic/actor updates are skipped,
            the initial gains act as fixed controllers and log.regressors
            stays empty.
        initial: optional dict of StrategyState overriding the defaults;
            the states are updated in place.

    From the first tick on which every strategy acts and none adapts (the
    learning has frozen, is off, or every initial state is frozen), the
    rest of the episode runs as the fixed affine recurrence of _frozen_tail
    instead of tick by tick.

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

    x = [0.0] * n if x0 is None else np.asarray(x0, dtype=float).tolist()
    xh = [0.0] * n if xhat0 is None else np.asarray(xhat0, dtype=float).tolist()

    log = EpisodeLog(n_ticks + 1, n, states)
    # the exogenous signals depend on t only: the sample times accumulate
    # t + delta as the tick clock does, the reference is taken at them and
    # each strategy's probe at the start of each tick
    t_start = np.arange(n_ticks) * delta
    log.t[1:] = t_start + delta
    log.yref[:] = eval_reference(ref_spec, log.t)
    yref = log.yref.tolist()
    # row k: the probes of tick k, one column per strategy in STRATEGIES order
    probe = np.column_stack([cfg.probe(t_start, s) for s in STRATEGIES])
    probes = probe.tolist()
    # before tick STACK_DEPTH - 1 only the closed-loop strategy acts
    lag = STACK_DEPTH - 1
    warm_up, full = _TICK[n, ("cl",)], _TICK[n, STRATEGIES]
    # per adapting strategy: its state, its features (a slice of the lifted
    # state), the index of the action it prices in a tick's row, its lag,
    # its stage-cost weight and the index of its gain
    adapting = []
    for g, s in enumerate(STRATEGIES):
        if learning_enabled and not states[s].frozen:
            name, size = _features(n)[s]
            start = _lifted(n).index(f"{name}0")
            adapting.append((s, states[s], slice(start, start + size),
                             _row(n).index(PRICED[s]), LAGS[s], forms[s], g))

    # rows from tail_start on are written by the frozen tail, which leaves
    # theta and pi to be filled after the loop
    tail_start = n_ticks + 1
    ordered = [states[s] for s in STRATEGIES]
    # the gain each strategy holds, replaced by its learner steps
    gains = [st.pi for st in ordered]

    def record(k, row):
        # row k: the TICK_COLUMNS of a tick, then each strategy's theta and pi
        for st in ordered:
            row += st.theta
            row += st.pi
        log.write_row(k, row)

    y, yhat, e_ob, e_mf = _OUTPUTS[n](x, xh, yref[0], maps[-1])
    record(0, [*x, *xh, 0.0, 0.0, y, yhat, e_ob, e_mf, 0.0, 0.0, 0.0, 0.0, 0.0])
    # the lifted state: the error windows hold the logged errors, oldest
    # first, and zeros before the first row
    z = [*x, *xh, 0.0, 0.0, *[0.0] * lag, e_ob, *[0.0] * lag, e_mf]

    for k in range(n_ticks):
        if k >= lag and not adapting:
            # every strategy acts and none adapts: the rest of the
            # episode is one fixed affine recurrence
            _frozen_tail(log, k, z, gains, maps, probe)
            tail_start = k + 1
            break
        t = k * delta
        z_next, row = (full if k >= lag else warm_up)(z, gains, probes[k], yref[k + 1], maps)

        # false for nan and inf as well as for a state outside the box;
        # max() would pass a nan that is not its first argument
        if not all(abs(c) <= 1e7 for c in z_next[:n]):
            log.diverged = t + delta
            log.trim(k + 1)
            break

        record(k + 1, row)

        # a frozen strategy costs nothing per tick; an adapting one
        # takes its Bellman sample with the formula bellman_log runs on
        # the log columns
        for learner in tuple(adapting):
            s, st, feats, priced, lag_s, form, g = learner
            if k >= lag_s:
                F = z[feats]
                z_tilde, phi = bellman_sample(s, F, row[priced], z_next[feats], st.pi,
                                              cfg, form)
                _learn_step(st, z_tilde, phi, F, cfg, t)
                gains[g] = st.pi
                if st.frozen:
                    log.t_converged[s] = t + delta
                    adapting.remove(learner)
        z = z_next

    for s in STRATEGIES:
        log.theta_hist[s][tail_start:] = states[s].theta
        log.pi_hist[s][tail_start:] = states[s].pi
    if learning_enabled:
        log.regressors = bellman_log(log, cfg, forms)
    for s in STRATEGIES:
        log.pi_final[s] = np.array(states[s].pi)
        log.theta_final[s] = np.array(states[s].theta)
    return log
