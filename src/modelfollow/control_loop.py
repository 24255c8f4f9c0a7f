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
cost read off a fixed quadratic form.  The control law, the per-tick
learner step and the Bellman pass all read that description.  Adaptation
of a strategy stops once its kernel has remained settled for a configured
window (convergence freeze); from then on the strategy does no per-tick
learner work.  Once every strategy acts and none adapts, the rest of the
episode is one fixed affine recurrence s+ = M s + N w on the state [x,
xhat, u_ob, u_mf, both error windows] and the input [probes, reference]:
M and N are built once by stepping identity columns through the frozen
tick, each remaining tick is one matvec, the divergence box is checked
once per TAIL_BLOCK ticks, and the logged signals are derived from the
state history afterwards with the per-tick formulas.

A tick that adapts runs on Python floats: the controls, the plant and
desired-model step, the features read from the log, the Bellman sample
and the critic and actor steps, each with the learner's component-wise
formulas (sums in index order, no BLAS call).  The samples of every tick,
frozen or not, are rebuilt after the loop by the same function,
bellman_sample, run on the log columns (bellman_log), and the frozen tail
derives its logged outputs and actions with the same formulas; numpy's
elementwise operations round as Python's float operations do, so each
sample a learner step consumed equals its logged row bit for bit
(test_per_tick_samples_equal_log_rows checks this on every corpus config).
TRAJECTORY fixes the order of the logged signals in trajectory.csv; the
writer derives the CSV header from it and the width of each column.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from modelfollow import oracle
from modelfollow.dynamics import held_input_maps
from modelfollow.learner import (
    SingularKernelError, theta_to_S, S_to_theta,
    bellman_regressor, policy_from_kernel, critic_update, actor_update,
    kernel_converged, quadratic_form, utility, dot, components,
)
from modelfollow.reference import eval_reference

STRATEGIES = ("ob", "cl", "mf")
# sampled tracking errors per observer / model-following feature vector
STACK_DEPTH = 3
# RK4 substeps per learner tick, folded into the per-tick maps
SUBSTEPS = 10
# frozen-tail rows stepped between two checks of the divergence box
TAIL_BLOCK = 64
# per-tick signals of the episode log, in trajectory.csv column order
TRAJECTORY = ("t", "x", "xhat", "y", "yhat", "yref", "e_ob", "e_mf",
              "u_total", "mu_cl", "u_ob", "u_mf")
# every per-tick column: TRAJECTORY plus the actions the learners price
# that trajectory.csv does not hold, the ob/mf increments and the desired
# model's input v
COLUMNS = TRAJECTORY + ("mu_ob", "mu_mf", "v")
# the columns that depend on t alone, written for the whole episode before
# the loop; a tick writes the others, in this order, and each strategy's
# theta and pi
EXOGENOUS = ("t", "yref")
TICK_COLUMNS = tuple(name for name in COLUMNS if name not in EXOGENOUS)


@dataclass
class StrategyState:
    """Learner state of one strategy.  S is the kernel of theta, computed at
    construction and replaced together with theta, so that a learner step
    unflattens only the new theta.  theta, pi and S are numpy arrays; while
    run_episode runs theta and pi are lists of Python floats and S the
    tuple of its entries (theta_to_S of the list), the form its learner
    steps compute on."""

    theta: np.ndarray
    pi: np.ndarray
    frozen: bool = False
    conv_count: int = 0
    S: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
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
    """

    def __init__(self, rows, n, states):
        # each field's table columns: an index for a signal of one column,
        # a slice for x, xhat, theta and pi
        sizes = [(name, n if name in ("x", "xhat") else None)
                 for name in EXOGENOUS + TICK_COLUMNS]
        sizes += [((kind, s), getattr(states[s], kind).size)
                  for s in STRATEGIES for kind in ("theta", "pi")]
        self._fields = {}
        col = 0
        for name, size in sizes:
            self._fields[name] = col if size is None else slice(col, col + size)
            col += 1 if size is None else size
        self._table = np.zeros((rows, col))
        self._bind()
        self.regressors = {s: (np.zeros((0, states[s].theta.size)), np.zeros(0))
                           for s in STRATEGIES}
        self.t_converged = dict.fromkeys(STRATEGIES)
        self.pi_final = {}
        self.theta_final = {}
        self.diverged = None

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
    lag = STACK_DEPTH - 1
    return {"ob": (_windows(log.e_ob), lag, log.mu_ob),
            "cl": (log.xhat, 0, log.v),
            "mf": (_windows(log.e_mf), lag, log.mu_mf)}


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
    states["cl"] = StrategyState(S_to_theta(S_cl), priors["cl"].copy())
    for s in ("ob", "mf"):
        S = embedded_gain_kernel(priors[s], cfg.kernel_beta, cfg.kernel_smax)
        states[s] = StrategyState(S_to_theta(S), priors[s].copy())
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
    Returns {s: (Z, phi)}.
    """
    samples = {}
    for s, (rows, lag, action) in strategy_views(log).items():
        F, F_next, pi = (components(a) for a in (rows[:-1], rows[1:], log.pi_hist[s][lag + 1:]))
        samples[s] = bellman_sample(s, F, action[lag + 1:], F_next, pi, cfg, forms[s])
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


def _frozen_tick(state, w, gains, maps):
    """One tick with every gain frozen, on stacked columns.

    Each column of state is a tail state [x, xhat, u_ob, u_mf, e_ob
    window, e_mf window] as it stands once a row is written, and each
    column of w a tick input [the probes of STRATEGIES; yref at the end of
    the tick].  Returns the state columns after the tick, computed with the
    per-tick loop's operations.  The tick is linear in (state, w), so
    stepping the identity columns through it gives its matrices.
    """
    Phi, Gam, Phi_hat, Gam_hat, Crow = maps
    n = Phi.shape[0]
    x, xh, u_ob, u_mf, e_ob, e_mf = np.split(state, np.cumsum([n, n, 1, 1, STACK_DEPTH]))
    p_ob, p_cl, p_mf, yref = w
    u_ob = u_ob + gains["ob"] @ e_ob + p_ob
    u_mf = u_mf + gains["mf"] @ e_mf + p_mf
    u_tot = gains["cl"] @ xh + p_cl + u_mf
    v = u_ob + u_tot
    x = Phi @ x + Gam[:, None] * u_tot
    xh = Phi_hat @ xh + Gam_hat[:, None] * v
    y = Crow @ x
    return np.vstack([x, xh, u_ob, u_mf, e_ob[1:], y - Crow @ xh, e_mf[1:], yref - y])


def _step_rows(rows, z, M):
    """Run the recurrence s+ = M s + N w through rows in place: each row
    holds N w of its tick and becomes the state after it, z is the state
    before the first row.  Returns the state after the last row."""
    for row in rows:
        row += M @ z
        z = row
    return z


def _frozen_tail(log, k0, start, gains, maps, probe):
    """Ticks k0, k0 + 1, ... of an episode in which no strategy adapts.

    With the gains fixed a tick is the affine map s+ = M s + N w of
    _frozen_tick, built once here; N w of every tick is one matmul and each
    tick one matvec.  start holds x, xhat, u_ob and u_mf after row k0; the
    error windows are read from the log.  Rows k0 + 1 on are then written
    from the state history, the logged outputs and actions derived from it
    with the per-tick formulas run on its columns, and the log trimmed at
    the first row whose plant state leaves the box, as the per-tick loop
    does; the ticks after the block that holds that row are not run.
    """
    n = log.x.shape[1]
    size = 2 * n + 2 + 2 * STACK_DEPTH
    basis = np.eye(size + len(STRATEGIES) + 1)
    MN = _frozen_tick(basis[:size], basis[size:], gains, maps)
    M, N = MN[:, :size], MN[:, size:]

    x, xh, u_ob, u_mf = start
    first = k0 + 1 - STACK_DEPTH
    z = np.concatenate([x, xh, [u_ob, u_mf], log.e_ob[first:k0 + 1], log.e_mf[first:k0 + 1]])
    w = np.column_stack([probe[s][k0:] for s in STRATEGIES] + [log.yref[k0 + 1:]])
    # row i starts as N w of tail tick i and becomes the state after it;
    # the rows are stepped TAIL_BLOCK at a time and the box checked after
    # each block, so a diverging tail stops within one block of its exit
    hist = w @ N.T
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(hist), TAIL_BLOCK):
            block = hist[i:i + TAIL_BLOCK]
            z = _step_rows(block, z, M)
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
    Crow = maps[-1]
    log.y[rows] = dot(Crow, components(log.x[rows]))
    log.yhat[rows] = dot(Crow, components(log.xhat[rows]))
    log.e_ob[rows] = log.y[rows] - log.yhat[rows]
    log.e_mf[rows] = log.yref[rows] - log.y[rows]
    mu = {"ob": log.mu_ob, "cl": log.mu_cl, "mf": log.mu_mf}
    views = strategy_views(log)
    for i, s in enumerate(STRATEGIES):
        feats, lag, _ = views[s]
        F = feats[k0 - lag:k0 - lag + len(hist)]
        mu[s][rows] = dot(gains[s], components(F)) + w[:len(hist), i]
    log.u_total[rows] = log.mu_cl[rows] + log.u_mf[rows]
    log.v[rows] = log.u_ob[rows] + log.u_total[rows]


@contextmanager
def _float_states(states):
    """The states with theta, pi and S as lists of Python floats inside the
    block, and as numpy arrays again after it."""
    for st in states.values():
        st.theta, st.pi = st.theta.tolist(), st.pi.tolist()
        st.S = theta_to_S(st.theta)
    try:
        yield
    finally:
        for st in states.values():
            st.theta, st.pi = np.array(st.theta), np.array(st.pi)
            st.S = theta_to_S(st.theta)


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
    Phi, Gam = L[-1, :, :n], L[-1, :, n]
    L_hat = held_input_maps(model.A_hat, model.B_hat, h, SUBSTEPS)
    Phi_hat, Gam_hat = L_hat[-1, :, :n], L_hat[-1, :, n]
    maps = (Phi, Gam, Phi_hat, Gam_hat, model.C[0])
    # the tick computes on Python floats, so it takes the maps and the
    # stage-cost weights as lists; the closed-loop learner's stage cost is
    # priced on [xhat; v]
    Phi, Gam, Phi_hat, Gam_hat, Crow = (a.tolist() for a in maps)
    Q = cfg.Q.tolist()
    forms = {"ob": Q, "cl": tick_cost_form(L_hat, cfg.Q, cfg.R, h).tolist(), "mf": Q}

    x = [0.0] * n if x0 is None else np.asarray(x0, dtype=float).tolist()
    xh = [0.0] * n if xhat0 is None else np.asarray(xhat0, dtype=float).tolist()
    u_ob = 0.0
    u_mf = 0.0

    log = EpisodeLog(n_ticks + 1, n, states)
    # the exogenous signals depend on t only: the sample times accumulate
    # t + delta as the tick clock does, the reference is taken at them and
    # each strategy's probe at the start of each tick
    t_start = np.arange(n_ticks) * delta
    log.t[1:] = t_start + delta
    log.yref[:] = eval_reference(ref_spec, log.t)
    yref = log.yref.tolist()
    probe = {s: cfg.probe(t_start, s).tolist() for s in STRATEGIES}
    views = strategy_views(log)
    # the strategies that take learner steps
    adapting = [s for s in STRATEGIES if learning_enabled and not states[s].frozen]

    def record(k, mu, u_tot, v):
        # row k: the TICK_COLUMNS in order, then each strategy's theta and pi
        y = dot(Crow, x)
        yh = dot(Crow, xh)
        row = [*x, *xh, y, yh, y - yh, yref[k] - y, u_tot, mu["cl"], u_ob, u_mf,
               mu["ob"], mu["mf"], v]
        for s in STRATEGIES:
            row += states[s].theta
            row += states[s].pi
        log.write_row(k, row)

    # rows from tail_start on are written by the frozen tail, which leaves
    # theta and pi to be filled after the loop
    tail_start = n_ticks + 1
    with _float_states(states):
        record(0, dict.fromkeys(STRATEGIES, 0.0), 0.0, 0.0)

        for k in range(n_ticks):
            if k >= STACK_DEPTH - 1 and not adapting:
                # every strategy acts and none adapts: the rest of the
                # episode is one fixed affine recurrence
                _frozen_tail(log, k, (x, xh, u_ob, u_mf),
                             {s: np.array(states[s].pi) for s in STRATEGIES}, maps, probe)
                tail_start = k + 1
                break
            t = k * delta
            # a strategy acts once its features exist (k >= lag); until then
            # its increment stays at zero (warm-up gating)
            F = {}
            mu = dict.fromkeys(STRATEGIES, 0.0)
            for s, (rows, lag, _) in views.items():
                if k >= lag:
                    F[s] = rows[k - lag].tolist()
                    mu[s] = dot(states[s].pi, F[s]) + probe[s][k]
            u_ob += mu["ob"]
            u_mf += mu["mf"]
            u_tot = mu["cl"] + u_mf
            # the closed-loop learner prices the full input seen by the
            # desired model, which is what keeps its logged data
            # Bellman-consistent
            v = u_ob + u_tot

            x = [dot(row, x) + g * u_tot for row, g in zip(Phi, Gam)]
            xh = [dot(row, xh) + g * v for row, g in zip(Phi_hat, Gam_hat)]
            t_next = t + delta

            # false for nan and inf as well as for a state outside the box;
            # max() would pass a nan that is not its first argument
            if not all(abs(c) <= 1e7 for c in x):
                log.diverged = t_next
                log.trim(k + 1)
                break

            record(k + 1, mu, u_tot, v)

            # a frozen strategy costs nothing per tick; an adapting one
            # takes its Bellman sample with the formula bellman_log runs on
            # the log columns
            for s in tuple(adapting):
                rows, lag, action = views[s]
                if k >= lag:
                    z_tilde, phi = bellman_sample(s, F[s], float(action[k + 1]),
                                                  rows[k - lag + 1].tolist(), states[s].pi,
                                                  cfg, forms[s])
                    _learn_step(states[s], z_tilde, phi, F[s], cfg, t)
                    if states[s].frozen:
                        log.t_converged[s] = t_next
                        adapting.remove(s)

    for s in STRATEGIES:
        log.theta_hist[s][tail_start:] = states[s].theta
        log.pi_hist[s][tail_start:] = states[s].pi
    if learning_enabled:
        log.regressors = bellman_log(log, cfg, forms)
    for s in STRATEGIES:
        log.pi_final[s] = states[s].pi.copy()
        log.theta_final[s] = states[s].theta.copy()
    return log
