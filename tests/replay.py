"""Replay of an episode's learner steps from its log, by the independent
sequential references.

The adapting loop runs every learner step inline, in generated code with
no call a test could intercept.  Everything a step reads is logged,
though: row k + 1 holds the theta and gain a strategy held during tick k,
its features before and after the tick (the lifted state is logged
component by component) and the action it priced, and row k + 2 the theta
and gain that tick's step left (theta_final and pi_final after the last
row).  replay runs the index-order loops of sequential.py, which share
no code with the pieces the loop inlines: seq_sample, seq_critic_update,
seq_distance of the old and new kernels' entries against tol_conv, the
eps_sing test of the control block and seq_policy_row, and seq_dot and
seq_actor_update, on one tick's Python
floats at a time, with the freeze rule, so that a test can hold every
step, the counters and the freeze times to it bit for bit.
"""

from dataclasses import dataclass

from modelfollow.control_loop import (
    KINDS, LEARNER_COUNTS, SUBSTEPS, strategy_views, tick_cost_form,
)
from modelfollow.dynamics import held_input_maps
from modelfollow.learner import theta_to_S
from sequential import (
    seq_actor_update, seq_critic_update, seq_distance, seq_dot, seq_policy_row, seq_sample,
)


def stage_cost_forms(model, cfg):
    """Each strategy's stage-cost weight as a list of rows: the tick form on
    [xhat; v] for the closed-loop strategy, Q for the error-feature ones."""
    h = cfg.delta / SUBSTEPS
    L_hat = held_input_maps(model.A_hat, model.B_hat, h, SUBSTEPS)
    Q = cfg.Q.tolist()
    return {"ob": Q, "cl": tick_cost_form(L_hat, cfg.Q, cfg.R, h).tolist(), "mf": Q}


@dataclass
class Step:
    """One replayed learner step of tick k: its inputs, its Bellman sample
    and the theta and gain it leaves."""

    k: int
    F: list
    F_next: list
    mu: float
    pi: list
    z_tilde: list
    phi: float
    theta: list
    new_pi: list


@dataclass
class Replay:
    """The replayed steps of one strategy, its counters as
    log.learner_counts keeps them and its freeze time."""

    steps: list
    counts: dict
    t_converged: float | None


def replay(log, model, cfg, start, chained=False):
    """{s: Replay} of every strategy of an episode run with cfg on model.

    start holds each strategy's StrategyState as the episode began (its
    theta, gain, frozen flag and settled-step count).  A strategy adapts
    from its warm-up lag on while it has not frozen, through the last tick
    the per-tick loop ran (a frozen tail starts only once every strategy
    has frozen, and a diverging tick logs no row).
    Each step reads its theta and gain from the log row of its tick, or,
    when chained, takes those the replay's own previous step left, starting
    from start; the first form replays each step on its own, the second
    rebuilds the whole history from the initial state.
    """
    forms = stage_cost_forms(model, cfg)
    limit = cfg.actor_rate_limit
    out = {}
    for s, (rows, lag, action) in strategy_views(log).items():
        theta, pi, conv = start[s].theta, start[s].pi, start[s].conv_count
        adapting = not start[s].frozen
        counts = dict.fromkeys(LEARNER_COUNTS, 0)
        steps, t_converged = [], None
        k = lag
        while adapting and k + 1 < len(log.t):
            if not chained:
                theta, pi = log.theta_hist[s][k + 1].tolist(), log.pi_hist[s][k + 1].tolist()
            F, F_next, mu = rows[k - lag].tolist(), rows[k - lag + 1].tolist(), float(action[k + 1])
            z_tilde, phi = seq_sample(KINDS[s], F, mu, F_next, pi, forms[s], cfg.delta, cfg.R)
            new_theta = seq_critic_update(theta, z_tilde, phi, cfg.sigma_c, cfg.alpha_c)
            S = theta_to_S(new_theta)
            settled = seq_distance(theta_to_S(theta), S) < cfg.tol_conv
            if abs(S[-1]) < cfg.eps_sing:
                counts["singular_skips"] += 1
                new_pi = pi
            else:
                target = seq_dot(seq_policy_row(S, len(F) + 1), F)
                counts["clamped"] += limit is not None and abs(seq_dot(pi, F) - target) > limit
                new_pi = seq_actor_update(pi, F, target, cfg.sigma_a, cfg.alpha_a, limit)
            counts["steps"] += 1
            steps.append(Step(k, F, F_next, mu, pi, z_tilde, phi, new_theta, new_pi))
            theta, pi = new_theta, new_pi
            t = k * cfg.delta
            if t >= cfg.conv_check_start:
                conv = conv + 1 if settled else 0
                if conv >= cfg.conv_window:
                    adapting = False
                    t_converged = t + cfg.delta
            k += 1
        out[s] = Replay(steps, counts, t_converged)
    return out
