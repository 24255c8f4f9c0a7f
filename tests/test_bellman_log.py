"""Bellman data of an episode: the per-tick learner work of frozen
strategies is skipped, and the logged regressors and stage costs are
rebuilt from the log columns after the loop.  The tests rebuild them one
row at a time, as the per-tick learner computes them, and count the
per-tick regressor calls."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from modelfollow import control_loop
from modelfollow.cli_io import load_config
from modelfollow.control_loop import (
    STACK_DEPTH, STRATEGIES, SUBSTEPS, initial_strategies, run_episode, strategy_views,
    tick_cost_form,
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
    """Per-tick (one vector) and stacked calls of bellman_regressor."""
    calls = {1: 0, 2: 0}

    def counted(Z_t, Z_next):
        calls[np.ndim(Z_t)] += 1
        return bellman_regressor(Z_t, Z_next)

    with monkeypatch.context() as mp:
        mp.setattr(control_loop, "bellman_regressor", counted)
        run_episode(model, c.reference, learning, horizon=20.0)
    return calls


def test_only_active_strategies_compute_regressors(monkeypatch, model, default_config):
    c = default_config
    # the default episode freezes all three strategies by 1.5 s: 446 learner
    # steps in all, then one stacked rebuild per strategy
    assert count_regressor_calls(monkeypatch, model, c, c.learning) == {1: 446, 2: 3}
    # with the freeze disabled all 2000 + 2 * 1998 strategy-ticks learn
    never_frozen = dataclasses.replace(c.learning, tol_conv=0.0)
    assert count_regressor_calls(monkeypatch, model, c, never_frozen) == {1: 5996, 2: 3}


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
    # the learner builds its Bellman sample one tick at a time and
    # bellman_log rebuilds every tick's sample stacked after the loop: each
    # (z_tilde, phi) a learner step consumed must equal its logged row bit
    # for bit
    c = load_config(config)
    states = initial_strategies(c.model, c.learning)
    consumed = []

    def spied(state, z_tilde, phi, F, cfg, t):
        s = next(s for s in STRATEGIES if states[s] is state)
        consumed.append((s, round(t / cfg.delta), z_tilde.copy(), phi))
        learn_step(state, z_tilde, phi, F, cfg, t)

    learn_step = control_loop._learn_step
    monkeypatch.setattr(control_loop, "_learn_step", spied)
    log = run_episode(c.model, c.reference, c.learning, horizon=c.horizon, initial=states)
    assert consumed
    views = strategy_views(log)
    for s, k, z_tilde, phi in consumed:
        Z, costs = log.regressors[s]
        row = k - views[s][1]
        assert z_tilde.tobytes() == Z[row].tobytes(), (s, k)
        assert np.float64(phi).tobytes() == costs[row].tobytes(), (s, k)
