"""Bellman data of an episode: the per-tick learner work of frozen
strategies is skipped, and the logged regressors and stage costs are
rebuilt from the log columns, each strategy's when it is first read.  The
tests rebuild them one row at a time, as the per-tick learner computes
them, and replay every learner step of the adapting loop from the log rows
with the independent sequential references (replay.py): each step's result
must be the next logged theta and gain, and the replay's step counts and
freeze times the episode's own (log.learner_counts, log.t_converged), bit
for bit.  The replay shares no code with the step pieces the loop inlines,
so a wrong piece fails it."""

import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from modelfollow import control_loop, learner
from modelfollow.cli_io import load_config, main
from modelfollow.control_loop import (
    STACK_DEPTH, STRATEGIES, initial_strategies, run_episode, strategy_views,
)
from conftest import frozen_initial
from replay import replay, stage_cost_forms
from sequential import seq_dot, seq_quadratic_form, seq_regressor

CORPUS = Path(__file__).parent / "corpus"


def test_rows_match_per_tick_rebuild(model, default_config, episode):
    # a 20 s episode: every strategy freezes by 1.5 s, so most rows are
    # ticks on which no learner step ran
    cfg, log = default_config.learning, episode
    assert all(t is not None and t < 2.0 for t in log.t_converged.values())
    n_ticks = len(log.t) - 1
    W_cl = stage_cost_forms(model, cfg)["cl"]

    Z, phi = log.regressors["cl"]
    assert Z.shape == (n_ticks, 10) and phi.shape == (n_ticks,)
    pi = log.pi_hist["cl"]
    for k in range(n_ticks):
        z = np.append(log.xhat[k], log.u_ob[k + 1] + log.u_total[k + 1])
        z_next = np.append(log.xhat[k + 1], seq_dot(pi[k + 1], log.xhat[k + 1]))
        assert np.array_equal(Z[k], seq_regressor(z, z_next)), ("cl", k)
        assert phi[k] == seq_quadratic_form(z, W_cl), ("cl", k)

    for s in ("ob", "mf"):
        e, mu, pi = getattr(log, "e_" + s), getattr(log, "mu_" + s), log.pi_hist[s]
        Z, phi = log.regressors[s]
        assert Z.shape == (n_ticks - (STACK_DEPTH - 1), 10) == (len(phi), 10)
        for k in range(STACK_DEPTH - 1, n_ticks):
            F, F_next = e[k - 2:k + 1], e[k - 1:k + 2]
            m = mu[k + 1]
            assert m == seq_dot(pi[k + 1], F) + cfg.probe(k * cfg.delta, s)
            z = seq_regressor(np.append(F, m), np.append(F_next, seq_dot(pi[k + 1], F_next)))
            cost = cfg.delta * (0.5 * (seq_quadratic_form(F, cfg.Q) + (m * cfg.R) * m))
            row = k - (STACK_DEPTH - 1)
            assert np.array_equal(Z[row], z), (s, k)
            assert phi[row] == cost, (s, k)


class CountedSamples(dict):
    """A stand-in for control_loop._SAMPLE, the Bellman-sample kernels
    BellmanLog calls through control_loop's own name: each kernel of the
    learner's _SAMPLE, its calls counted in calls[key(kind, F)] for a
    kernel of kind `kind` called on the features F."""

    def __init__(self, key):
        super().__init__()
        self.calls, self._key = Counter(), key

    def __missing__(self, table_key):
        kernel = learner._SAMPLE[table_key]

        def call(F, *args):
            self.calls[self._key(table_key[0], F)] += 1
            return kernel(F, *args)

        self[table_key] = call
        return call


def count_sample_calls(monkeypatch, model, c, learning):
    """Learner steps (replayed from the log, and as the episode counted
    them) and per-tick (one vector of floats) and stacked (numpy columns)
    calls of the Bellman-sample kernels through control_loop's name, taken
    once every strategy's regressors have been read, twice; the episode
    itself makes none of those calls, and a second read rebuilds nothing."""
    samples = CountedSamples(lambda kind, F: np.ndim(F))
    with monkeypatch.context() as mp:
        mp.setattr(control_loop, "_SAMPLE", samples)
        log = run_episode(model, c.reference, learning, horizon=20.0)
        assert samples.calls == {}
        first = [log.regressors[s] for s in STRATEGIES]
        assert all(log.regressors[s] is pair for s, pair in zip(STRATEGIES, first))
    assert set(samples.calls) <= {1, 2}
    replayed = replay(log, model, learning, initial_strategies(model, learning))
    steps = sum(r.counts["steps"] for r in replayed.values())
    assert steps == sum(log.learner_counts[s]["steps"] for s in STRATEGIES)
    return {"steps": steps, 1: samples.calls[1], 2: samples.calls[2]}


def test_only_active_strategies_compute_regressors(monkeypatch, model, default_config):
    c = default_config
    # the default episode freezes all three strategies by 1.5 s: 446 learner
    # steps in all, each taking its sample inside the adapting loop, then
    # one stacked rebuild per strategy once its regressors are read
    assert count_sample_calls(monkeypatch, model, c, c.learning) == {
        "steps": 446, 1: 0, 2: 3}
    # with the freeze disabled all 2000 + 2 * 1998 strategy-ticks learn
    never_frozen = dataclasses.replace(c.learning, tol_conv=0.0)
    assert count_sample_calls(monkeypatch, model, c, never_frozen) == {
        "steps": 5996, 1: 0, 2: 3}


def count_learner_calls(monkeypatch, model, c, learning):
    """The learner steps of each strategy, replayed from the log, the calls
    of the Bellman-sample kernels through control_loop's _SAMPLE by kind,
    and the log of one episode whose regressors have all been read."""
    samples = CountedSamples(lambda kind, F: kind)
    with monkeypatch.context() as mp:
        mp.setattr(control_loop, "_SAMPLE", samples)
        log = run_episode(model, c.reference, learning, horizon=20.0)
        for s in STRATEGIES:
            log.regressors[s]
    replayed = replay(log, model, learning, initial_strategies(model, learning))
    return {s: replayed[s].counts["steps"] for s in STRATEGIES}, samples.calls, log


def test_learner_calls_stay_at_control_loop_names(monkeypatch, tmp_path, capsys, model,
                                                  default_config):
    # one learner step per adapting strategy-tick: 446 steps on the default
    # episode (150 closed-loop, 148 each observer and model-following) and
    # 5996 with the freeze disabled, as the replay from the log finds them
    # and as the episode counts them itself; the stacked rebuild, once the
    # regressors are read, adds one closed-loop sample and one error-feature
    # sample per error-feature strategy.  A step skipped, or taken twice,
    # changes a count
    c = default_config
    never_frozen = dataclasses.replace(c.learning, tol_conv=0.0)
    for learning, want in ((c.learning, {"ob": 148, "cl": 150, "mf": 148}),
                           (never_frozen, {"ob": 1998, "cl": 2000, "mf": 1998})):
        steps, calls, log = count_learner_calls(monkeypatch, model, c, learning)
        assert steps == want
        assert {s: log.learner_counts[s]["steps"] for s in STRATEGIES} == want
        assert calls == {"cl": 1, "err": 2}
    # run never reads the regressors, so it builds no sample; oracle-check
    # reads only the closed-loop strategy's
    config = tmp_path / "default.ini"
    config.write_text("")
    for args, want in ((["run", str(config), "--outdir", str(tmp_path)], {}),
                       (["oracle-check", str(config)], {"cl": 1})):
        samples = CountedSamples(lambda kind, F: kind)
        with monkeypatch.context() as mp:
            mp.setattr(control_loop, "_SAMPLE", samples)
            assert main(args) == 0
        capsys.readouterr()
        assert samples.calls == want, args[0]


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
    # a frozen start takes no learner step, but its log still holds the
    # sample of every tick, built when read: 100 ticks, 98 with stacks
    log = run_episode(model, c.reference, c.learning, horizon=1.0,
                      initial=frozen_initial(model, c.learning))
    assert shapes(log) == {"ob": ((98, 10), (98,)), "cl": ((100, 10), (100,)),
                           "mf": ((98, 10), (98,))}


CONFIGS = sorted(CORPUS.glob("*.ini"))


def sample_mismatches(log, replayed):
    """The (strategy, tick) of every replayed learner step whose Bellman
    sample, taken by seq_sample on the step's Python floats, differs from
    its logged row in a byte."""
    views = strategy_views(log)
    out = []
    for s, r in replayed.items():
        Z, costs = log.regressors[s]
        for step in r.steps:
            row = step.k - views[s][1]
            if (np.array(step.z_tilde).tobytes() != Z[row].tobytes()
                    or np.float64(step.phi).tobytes() != costs[row].tobytes()):
                out.append((s, step.k))
    return out


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_per_tick_samples_equal_log_rows(config):
    # each learner step takes its Bellman sample one tick at a time inside
    # the adapting loop, and BellmanLog rebuilds every tick's sample
    # stacked after the loop: seq_sample on one step's Python floats, read
    # from the log rows, must equal its logged row bit for bit (the replay
    # test finds that the loop stepped on exactly these samples)
    c = load_config(config)
    log = run_episode(c.model, c.reference, c.learning, horizon=c.horizon)
    replayed = replay(log, c.model, c.learning, initial_strategies(c.model, c.learning))
    assert any(r.steps for r in replayed.values())
    for r in replayed.values():
        for step in r.steps:
            assert all(type(v) is float for v in [*step.F, *step.F_next, step.mu, *step.pi])
    assert sample_mismatches(log, replayed) == []


# learning overrides of the replay: no freeze, identity initial kernels, no
# actor rate limit, and a singularity floor that skips every actor step
OVERRIDES = {"as_configured": {}, "tol_conv_0": {"tol_conv": 0.0},
             "init_identity": {"init": "identity"}, "rate_limit_null": {"actor_rate_limit": None},
             "eps_sing_1e300": {"eps_sing": 1e300}}


@pytest.mark.parametrize("override", OVERRIDES)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_learner_steps_replay_from_log(config, override):
    # every learner step the adapting loop took, replayed on its own from
    # the log rows by the sequential references, leaves the theta and gain
    # of the next row (theta_final and pi_final after the last one) bit for
    # bit; and the replay's step, singular-skip and clamp counts and freeze
    # times are the episode's own
    c = load_config(config)
    learning = dataclasses.replace(c.learning, **OVERRIDES[override])
    log = run_episode(c.model, c.reference, learning, horizon=c.horizon)
    replayed = replay(log, c.model, learning, initial_strategies(c.model, learning))
    rows = len(log.t)
    for s, r in replayed.items():
        for step in r.steps:
            k = step.k + 2
            theta = log.theta_hist[s][k] if k < rows else log.theta_final[s]
            pi = log.pi_hist[s][k] if k < rows else log.pi_final[s]
            assert np.array(step.theta).tobytes() == theta.tobytes(), (s, step.k)
            assert np.array(step.new_pi).tobytes() == pi.tobytes(), (s, step.k)
        assert r.counts == log.learner_counts[s], s
        assert r.t_converged == log.t_converged[s], s
    if override == "eps_sing_1e300":
        assert all(r.counts["singular_skips"] == r.counts["steps"] for r in replayed.values())
        assert replayed["cl"].counts["steps"] > 0


def test_replay_catches_a_wrong_critic_piece(monkeypatch, default_config):
    # a critic piece whose normalizer adds 1.0, compiled into a fresh
    # adapting loop: the replay, which computes the critic step on its own,
    # must disagree with the first closed-loop step the loop logs
    critic = learner._critic_update

    def wrong(out, t, z):
        lines = critic(out, t, z)
        assert lines[1].startswith("denom = ")
        return [lines[0], lines[1] + " + 1.0", *lines[2:]]

    c = default_config
    monkeypatch.setattr(learner, "_critic_update", wrong)
    monkeypatch.setattr(control_loop, "_ADAPT", learner._Kernels(control_loop._adapt_source))
    log = run_episode(c.model, c.reference, c.learning, horizon=c.horizon)
    first = replay(log, c.model, c.learning, initial_strategies(c.model, c.learning))["cl"].steps[0]
    assert np.array(first.theta).tobytes() != log.theta_hist["cl"][first.k + 2].tobytes()


# each sample piece and the strategies whose sample runs it: the
# error-feature stage cost runs _utility, every regressor _bellman_regressor
SAMPLE_PIECES = {"_utility": {"ob", "mf"}, "_bellman_regressor": set(STRATEGIES)}


@pytest.mark.parametrize("piece", SAMPLE_PIECES)
def test_replay_catches_a_wrong_sample_piece(monkeypatch, default_config, piece):
    # a sample piece whose first output is off by 1.0, compiled into a fresh
    # adapting loop and a fresh _SAMPLE: the loop steps on the wrong samples
    # and BellmanLog logs the same ones, but the replay, which takes every
    # sample with seq_sample, must disagree with the logged row of every
    # step of each strategy whose sample runs the piece and agree with
    # every other
    right, affected = getattr(learner, piece), SAMPLE_PIECES[piece]

    def wrong(out, *args):
        first = out if isinstance(out, str) else out[0]
        return [*right(out, *args), f"{first} = {first} + 1.0"]

    c = default_config
    monkeypatch.setattr(learner, piece, wrong)
    monkeypatch.setattr(control_loop, "_ADAPT", learner._Kernels(control_loop._adapt_source))
    monkeypatch.setattr(control_loop, "_SAMPLE", learner._Kernels(learner._sample_source))
    log = run_episode(c.model, c.reference, c.learning, horizon=c.horizon)
    replayed = replay(log, c.model, c.learning, initial_strategies(c.model, c.learning))
    assert all(replayed[s].steps for s in affected)
    assert sample_mismatches(log, replayed) == [
        (s, step.k) for s, r in replayed.items() if s in affected for step in r.steps]
