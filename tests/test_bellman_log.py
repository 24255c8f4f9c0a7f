"""Bellman data of an episode: the per-tick learner work of frozen
strategies is skipped, and the logged regressors and stage costs are
rebuilt from the log columns after the loop.  The tests rebuild them one
row at a time, as the per-tick learner computes them, and count the
learner steps at their one seam, control_loop._learn_step, against the
episode's own counters (log.learner_counts)."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from modelfollow import control_loop
from modelfollow.cli_io import load_config
from modelfollow.control_loop import (
    STACK_DEPTH, STRATEGIES, SUBSTEPS, bellman_sample, initial_strategies, run_episode,
    strategy_views, tick_cost_form,
)
from modelfollow.dynamics import held_input_maps
from modelfollow.learner import bellman_regressor
from sequential import seq_dot, seq_quadratic_form

CORPUS = Path(__file__).parent / "corpus"


def closed_loop_form(model, cfg):
    L_hat = held_input_maps(model.A_hat, model.B_hat, cfg.delta / SUBSTEPS, SUBSTEPS)
    return tick_cost_form(L_hat, cfg.Q, cfg.R, cfg.delta / SUBSTEPS)


def test_rows_match_per_tick_rebuild(model, default_config, episode):
    # a 20 s episode: every strategy freezes by 1.5 s, so most rows are
    # ticks on which no learner step ran
    cfg, log = default_config.learning, episode
    assert all(t is not None and t < 2.0 for t in log.t_converged.values())
    n_ticks = len(log.t) - 1
    W_cl = closed_loop_form(model, cfg)

    Z, phi = log.regressors["cl"]
    assert Z.shape == (n_ticks, 10) and phi.shape == (n_ticks,)
    pi = log.pi_hist["cl"]
    for k in range(n_ticks):
        z = np.append(log.xhat[k], log.u_ob[k + 1] + log.u_total[k + 1])
        z_next = np.append(log.xhat[k + 1], seq_dot(pi[k + 1], log.xhat[k + 1]))
        assert np.array_equal(Z[k], bellman_regressor(z, z_next)), ("cl", k)
        assert phi[k] == seq_quadratic_form(z, W_cl), ("cl", k)

    for s in ("ob", "mf"):
        e, mu, pi = getattr(log, "e_" + s), getattr(log, "mu_" + s), log.pi_hist[s]
        Z, phi = log.regressors[s]
        assert Z.shape == (n_ticks - (STACK_DEPTH - 1), 10) == (len(phi), 10)
        for k in range(STACK_DEPTH - 1, n_ticks):
            F, F_next = e[k - 2:k + 1], e[k - 1:k + 2]
            m = mu[k + 1]
            assert m == seq_dot(pi[k + 1], F) + cfg.probe(k * cfg.delta, s)
            z = bellman_regressor(np.append(F, m), np.append(F_next, seq_dot(pi[k + 1], F_next)))
            cost = cfg.delta * (0.5 * (seq_quadratic_form(F, cfg.Q) + (m * cfg.R) * m))
            row = k - (STACK_DEPTH - 1)
            assert np.array_equal(Z[row], z), (s, k)
            assert phi[row] == cost, (s, k)


def count_regressor_calls(monkeypatch, model, c, learning):
    """Learner steps (calls of the seam control_loop._learn_step) and
    per-tick (one vector) and stacked calls of bellman_regressor."""
    calls = {"steps": 0, 1: 0, 2: 0}

    def counted(Z_t, Z_next):
        calls[np.ndim(Z_t)] += 1
        return bellman_regressor(Z_t, Z_next)

    def step(*args):
        calls["steps"] += 1
        learn_step(*args)

    learn_step = control_loop._learn_step
    with monkeypatch.context() as mp:
        mp.setattr(control_loop, "bellman_regressor", counted)
        mp.setattr(control_loop, "_learn_step", step)
        run_episode(model, c.reference, learning, horizon=20.0)
    return calls


def test_only_active_strategies_compute_regressors(monkeypatch, model, default_config):
    c = default_config
    # the default episode freezes all three strategies by 1.5 s: 446 learner
    # steps in all, each taking its sample inside the fused step, then one
    # stacked rebuild per strategy
    assert count_regressor_calls(monkeypatch, model, c, c.learning) == {
        "steps": 446, 1: 0, 2: 3}
    # with the freeze disabled all 2000 + 2 * 1998 strategy-ticks learn
    never_frozen = dataclasses.replace(c.learning, tol_conv=0.0)
    assert count_regressor_calls(monkeypatch, model, c, never_frozen) == {
        "steps": 5996, 1: 0, 2: 3}


# the learner functions bellman_log calls through control_loop's own names,
# the call sites a tracer of the episode wraps
REBUILD_CALLS = ("bellman_regressor", "utility")


def count_learner_calls(monkeypatch, model, c, learning):
    """The learner steps of each strategy, counted at the seam
    control_loop._learn_step, the calls of each REBUILD_CALLS name in
    control_loop, and the log of one episode."""
    steps = dict.fromkeys(STRATEGIES, 0)
    calls = dict.fromkeys(REBUILD_CALLS, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    def step(s, *args):
        steps[s] += 1
        learn_step(s, *args)

    learn_step = control_loop._learn_step
    with monkeypatch.context() as mp:
        mp.setattr(control_loop, "_learn_step", step)
        for name in REBUILD_CALLS:
            mp.setattr(control_loop, name, counted(name, getattr(control_loop, name)))
        log = run_episode(model, c.reference, learning, horizon=20.0)
    return steps, calls, log


def test_learner_calls_stay_at_control_loop_names(monkeypatch, model, default_config):
    # one seam call per learner step: 446 steps on the default episode (150
    # closed-loop, 148 each observer and model-following) and 5996 with the
    # freeze disabled, each counted by the episode itself; the stacked
    # rebuild adds one regressor per strategy and one utility per
    # error-feature strategy.  A step skipped, or taken outside the seam,
    # changes a count.
    c = default_config
    never_frozen = dataclasses.replace(c.learning, tol_conv=0.0)
    for learning, want in ((c.learning, {"ob": 148, "cl": 150, "mf": 148}),
                           (never_frozen, {"ob": 1998, "cl": 2000, "mf": 1998})):
        steps, calls, log = count_learner_calls(monkeypatch, model, c, learning)
        assert steps == want
        assert {s: log.learner_counts[s]["steps"] for s in STRATEGIES} == want
        assert calls == {"bellman_regressor": 3, "utility": 2}


def test_short_and_stopped_episodes_have_empty_logs(model, default_config):
    c = default_config

    def shapes(log):
        return {s: (log.regressors[s][0].shape, log.regressors[s][1].shape)
                for s in ("ob", "cl", "mf")}

    empty = ((0, 10), (0,))
    log = run_episode(model, c.reference, c.learning, horizon=0.0)
    assert shapes(log) == {"ob": empty, "cl": empty, "mf": empty}
    # two ticks: the closed-loop strategy learns on both, the error stacks
    # need a third sample before their first tick
    log = run_episode(model, c.reference, c.learning, horizon=0.02)
    assert shapes(log) == {"ob": empty, "cl": ((2, 10), (2,)), "mf": empty}
    log = run_episode(model, c.reference, c.learning, horizon=1.0,
                      learning_enabled=False)
    assert shapes(log) == {"ob": empty, "cl": empty, "mf": empty}


@pytest.mark.parametrize("config", sorted(CORPUS.glob("*.ini")), ids=lambda p: p.stem)
def test_per_tick_samples_equal_log_rows(monkeypatch, config):
    # the learner step takes its Bellman sample one tick at a time and
    # bellman_log rebuilds every tick's sample stacked after the loop: the
    # sample of the floats each learner step received, as bellman_sample
    # computes it, must equal its logged row bit for bit
    c = load_config(config)
    states = initial_strategies(c.model, c.learning)
    consumed = []

    def spied(s, state, F, F_next, mu, form, cfg, t, log):
        assert states[s] is state
        assert all(type(v) is float for v in [*F, *F_next, mu, *state.pi])
        z_tilde, phi = bellman_sample(s, F, mu, F_next, state.pi, cfg, form)
        consumed.append((s, round(t / cfg.delta), z_tilde, phi))
        learn_step(s, state, F, F_next, mu, form, cfg, t, log)

    learn_step = control_loop._learn_step
    monkeypatch.setattr(control_loop, "_learn_step", spied)
    log = run_episode(c.model, c.reference, c.learning, horizon=c.horizon, initial=states)
    assert consumed
    views = strategy_views(log)
    for s, k, z_tilde, phi in consumed:
        Z, costs = log.regressors[s]
        row = k - views[s][1]
        assert np.array(z_tilde).tobytes() == Z[row].tobytes(), (s, k)
        assert np.float64(phi).tobytes() == costs[row].tobytes(), (s, k)
