import copy
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from modelfollow import control_loop
from modelfollow.cli_io import load_config, parse_config
from modelfollow.control_loop import (
    StrategyState, run_episode,
    initial_strategies, embedded_gain_kernel, STRATEGIES,
)
from modelfollow.learner import (
    LearningConfig, S_to_theta, _Kernels, policy_from_kernel, theta_to_S,
)
from modelfollow.reference import ReferenceSpec
from conftest import frozen_initial
from replay import replay
from sequential import seq_dot

CORPUS = Path(__file__).parent / "corpus"


def quiet_config(**kwargs):
    return LearningConfig(probe_amplitude=0.0, **kwargs)


def fixed_gain_states(pi_cl, pi_ob=None, pi_mf=None):
    """Frozen states with the given gains: fixed controllers, no learning."""
    states = {}
    gains = {"cl": pi_cl, "ob": pi_ob, "mf": pi_mf}
    for s in STRATEGIES:
        g = np.zeros(3) if gains[s] is None else np.asarray(gains[s], dtype=float)
        states[s] = StrategyState(S_to_theta(np.eye(4)), g, frozen=True)
    return states


def test_zero_equilibrium(model):
    # zero gains, zero probe, zero reference: everything stays at rest
    cfg = quiet_config()
    ref = ReferenceSpec("constant", {"value": 0.0})
    log = run_episode(model, ref, cfg, horizon=1.0, initial=fixed_gain_states(np.zeros(3)))
    assert log.diverged is None
    assert np.all(np.abs(np.array(log.x)) == 0.0)
    assert np.all(np.array(log.u_total) == 0.0)


def test_converged_gain_decays(model):
    # fixed closed-loop gain with known spectral abscissa ~ -2.2: the
    # observed state collapses with no learning once the probe burst that
    # moves it off zero ends.  The burst covers the two warm-up ticks, on
    # which only the closed-loop strategy acts, so the ob/mf signals stay 0
    burst = 2
    cfg = LearningConfig(t_probe=burst * 0.01)
    ref = ReferenceSpec("constant", {"value": 0.0})
    gain = np.array([-15.9517, -4.0410, -4.9822])
    log = run_episode(model, ref, cfg, horizon=5.0, initial=fixed_gain_states(gain))
    assert log.diverged is None
    assert not log.u_ob.any() and not log.u_mf.any()
    start = np.linalg.norm(log.xhat[burst])
    assert start > 0.0
    assert np.linalg.norm(log.xhat[-1]) < 1e-2 * start


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_state_diverges_on_first_tick(monkeypatch, model, default_config, bad):
    # a nan or inf plant state fails the divergence test like a state
    # outside the 1e7 box, in whichever component it is: the first tick
    # ends the episode.  Episodes start from rest, so the adapting loop
    # _ADAPT[3] is handed the nonfinite start in place of run_episode's
    c = default_config
    loop = control_loop._ADAPT[3]
    for position in range(3):
        x0 = [0.0, 0.0, 0.0]
        x0[position] = bad
        monkeypatch.setattr(control_loop, "_ADAPT", {3: lambda _, *rest: loop(x0, *rest)})
        with np.errstate(invalid="ignore"):  # inf * 0 in the output and state maps
            log = run_episode(model, c.reference, c.learning, horizon=1.0)
        assert log.diverged == 0.01, position
        assert len(log.t) == 1 and log.x.shape == (1, 3), position


def test_warmup_gating(model, default_config):
    cfg = default_config.learning
    log = run_episode(model, default_config.reference, cfg, horizon=0.05)
    # stacks fill at the third sample; increments stay zero before that
    assert log.u_ob[0] == 0.0 and log.u_mf[0] == 0.0
    assert log.u_ob[1] == 0.0 and log.u_mf[1] == 0.0
    assert log.u_ob[2] == 0.0 and log.u_mf[2] == 0.0
    # on the warm-up ticks k < STACK_DEPTH - 1 the observer and
    # model-following strategies have no features: their actions are 0.0,
    # unprobed, while the closed-loop one acts on the observed state with
    # the gain and probe of the tick (logged on row k + 1), bit for bit
    probe_cl = cfg.probe(np.arange(len(log.t) - 1) * cfg.delta, "cl")
    for k in range(control_loop.STACK_DEPTH - 1):
        assert log.mu_ob[k + 1] == 0.0 and log.mu_mf[k + 1] == 0.0, k
        want = seq_dot(log.pi_hist["cl"][k + 1], log.xhat[k]) + probe_cl[k]
        assert log.mu_cl[k + 1] == want, k
        assert probe_cl[k] != 0.0, k


def test_composition_identity(episode):
    # the plant's input is the closed-loop action plus the model-following
    # signal, as the tick sums them
    assert np.array_equal(episode.u_total, episode.mu_cl + episode.u_mf)


def test_row_count_and_sampling(episode, default_config):
    delta = default_config.learning.delta
    assert len(episode.t) == int(round(20.0 / delta)) + 1
    dt = np.diff(np.array(episode.t))
    assert np.allclose(dt, delta, atol=1e-12)


@pytest.mark.parametrize("delta", [0.01, 0.02, 0.002])
def test_sample_times_match_tick_clock(model, delta):
    # row k >= 1 holds the end time of tick k - 1, accumulated as t + delta
    # from the tick start t = (k - 1) * delta, bit for bit
    log = run_episode(model, ReferenceSpec(), quiet_config(delta=delta), horizon=20.0,
                      initial=fixed_gain_states(np.zeros(3)))
    n = int(round(20.0 / delta))
    assert log.diverged is None and len(log.t) == n + 1
    clock = [0.0] + [(k - 1) * delta + delta for k in range(1, n + 1)]
    assert np.array_equal(log.t, clock)
    # the product grid k * delta rounds differently on some rows
    assert not np.array_equal(np.arange(1, n + 1) * delta, clock[1:])


def test_zero_horizon(model, default_config):
    log = run_episode(model, default_config.reference, default_config.learning,
                      horizon=0.0)
    assert len(log.t) == 1 and log.t[0] == 0.0


def test_full_run_converges(episode):
    assert episode.diverged is None
    for s in STRATEGIES:
        assert episode.t_converged[s] is not None
        assert episode.t_converged[s] < 20.0


def test_determinism(model, default_config, episode):
    log2 = run_episode(model, default_config.reference, default_config.learning,
                       horizon=20.0)
    assert np.array_equal(np.array(episode.x), np.array(log2.x))
    assert np.array_equal(np.array(episode.u_total), np.array(log2.u_total))
    for s in STRATEGIES:
        assert np.array_equal(episode.pi_final[s], log2.pi_final[s])


def test_double_delta_smoke(model, default_config):
    # doubling the learning interval with the same paces still converges
    cfg = parse_config("[learning]\ndelta = 0.02\n").learning
    log = run_episode(model, default_config.reference, cfg, horizon=20.0)
    assert log.diverged is None
    for s in STRATEGIES:
        assert log.t_converged[s] is not None


def test_embedded_gain_kernel_properties():
    rng = np.random.default_rng(21)
    for _ in range(10):
        pi = rng.normal(size=3) * 50
        S = embedded_gain_kernel(pi, beta=0.3, s_max=2e-5)
        assert np.all(np.linalg.eigvalsh(S) > 0.0)
        assert np.allclose(policy_from_kernel(S).reshape(-1), pi, atol=1e-10)


def test_embedded_gain_kernel_zero_gain():
    # the limit of the bordered form as pi -> 0: s = s_max, no division by ||pi||^2
    S = embedded_gain_kernel(np.zeros(3), beta=0.3, s_max=2e-5)
    assert np.array_equal(np.diag(S), [0.3, 0.3, 0.3, 2e-5])
    assert np.all(np.linalg.eigvalsh(S) > 0.0)
    assert np.array_equal(policy_from_kernel(S), np.zeros((1, 3)))


def test_initial_strategies_modes(model, default_config):
    cfg = default_config.learning
    st = initial_strategies(model, cfg)
    # stabilizing init embeds the prior gains
    assert np.allclose(st["cl"].pi, cfg.pi_cl0)
    S_cl = np.reshape(theta_to_S(st["cl"].theta), (4, 4))
    assert np.all(np.linalg.eigvalsh(S_cl) > 0.0)
    ident = initial_strategies(model, LearningConfig(init="identity"))
    assert ident["cl"].pi == [0.0] * 3
    assert np.all(np.reshape(theta_to_S(ident["mf"].theta), (4, 4)) == np.eye(4))


def test_state_construction_is_normalised(model, default_config):
    # a StrategyState holds Python floats whatever sequence it is given, so
    # initial= states built from numpy arrays, lists or tuples run the same
    # episode as the default states, byte for byte
    c = default_config
    logs = [run_episode(model, c.reference, c.learning, horizon=2.0)]
    for form in (np.array, list, tuple):
        default = initial_strategies(model, c.learning)
        states = {s: StrategyState(form(default[s].theta), form(default[s].pi))
                  for s in STRATEGIES}
        logs.append(run_episode(model, c.reference, c.learning, horizon=2.0, initial=states))
    want = logs[0]
    assert all(t is not None for t in want.t_converged.values())
    for log in logs[1:]:
        assert log._table.shape == want._table.shape
        assert log._table.tobytes() == want._table.tobytes()
        for s in STRATEGIES:
            assert log.theta_final[s].tobytes() == want.theta_final[s].tobytes()
            assert log.pi_final[s].tobytes() == want.pi_final[s].tobytes()


def test_states_hold_floats_after_an_episode(monkeypatch, model, default_config):
    # the initial= states hold theta and pi as lists of Python floats before
    # an episode and once run_episode returns; the adapting loop holds them
    # in locals and the states take its results when it returns, so a step
    # that raises part way through the episode leaves them as they were
    def floats(st):
        return (type(st.theta) is list and type(st.pi) is list
                and all(type(v) is float for v in st.theta + st.pi))

    c = default_config
    states = initial_strategies(model, c.learning)
    assert all(floats(states[s]) for s in STRATEGIES)
    log = run_episode(model, c.reference, c.learning, horizon=1.0, initial=states)
    assert all(floats(states[s]) for s in STRATEGIES)
    assert all(np.array_equal(states[s].theta, log.theta_final[s]) for s in STRATEGIES)

    # from conv_check_start = 0 on every learner step takes one square root,
    # its convergence test's: the tenth raises
    before = copy.deepcopy(states)
    steps = []

    def failing(v):
        steps.append(v)
        if len(steps) == 10:
            raise RuntimeError("step failed")
        return math.sqrt(v)

    monkeypatch.setitem(control_loop._ADAPT[model.n].__globals__, "sqrt", failing)
    cfg = dataclasses.replace(c.learning, conv_check_start=0.0)
    with pytest.raises(RuntimeError, match="step failed"):
        run_episode(model, c.reference, cfg, horizon=1.0, initial=states)
    assert len(steps) == 10
    assert all(floats(states[s]) for s in STRATEGIES)
    assert states == before


def count_square_roots(monkeypatch, model):
    """The list that every square root the adapting loop takes appends to."""
    calls = []

    def counted(v):
        calls.append(v)
        return math.sqrt(v)

    monkeypatch.setitem(control_loop._ADAPT[model.n].__globals__, "sqrt", counted)
    return calls


@pytest.mark.parametrize("change, square_roots", [
    ({"conv_check_start": 0.0}, "every step"),
    ({"conv_check_start": 1.5}, "steps from 1.5 s on"),
    ({"tol_conv": 0.0}, "none"), ({"tol_conv": -1.0}, "none"),
    ({"conv_check_start": 2.5}, "none"),
])
def test_convergence_test_runs_only_where_read(monkeypatch, model, default_config, change,
                                              square_roots):
    # the convergence test (one square root per step) runs only on the
    # steps from conv_check_start on, whose settled flag the freeze reads,
    # and not at all under tol_conv <= 0, under which no step settles
    c = default_config
    calls = count_square_roots(monkeypatch, model)
    cfg = dataclasses.replace(c.learning, **change)
    log = run_episode(model, c.reference, cfg, horizon=2.0)
    steps = sum(counts["steps"] for counts in log.learner_counts.values())
    assert steps > 0
    # from 1.5 s on: the three strategies' steps on ticks 150 to 199 (t =
    # k delta), none of them frozen before the last
    expected = {"every step": steps, "steps from 1.5 s on": 3 * 50, "none": 0}[square_roots]
    assert len(calls) == expected


@pytest.mark.parametrize("horizon, conv_count", [(1.2, 0), (0.5, 7)])
def test_settled_count_resets_without_a_test(monkeypatch, model, default_config, horizon,
                                             conv_count):
    # under tol_conv = 0 no step settles: a carried settled-step count is
    # reset by the first step from conv_check_start on, as a failed test
    # resets it, and kept when no step reaches conv_check_start
    c = default_config
    calls = count_square_roots(monkeypatch, model)
    cfg = dataclasses.replace(c.learning, tol_conv=0.0)
    states = initial_strategies(model, cfg)
    for st in states.values():
        st.conv_count = 7
    log = run_episode(model, c.reference, cfg, horizon=horizon, initial=states)
    assert all(log.learner_counts[s]["steps"] > 0 for s in STRATEGIES)
    assert {s: states[s].conv_count for s in STRATEGIES} == dict.fromkeys(STRATEGIES, conv_count)
    assert not any(states[s].frozen for s in STRATEGIES) and calls == []


def test_one_adapting_loop_per_plant_size(monkeypatch, model, default_config):
    # warm-up and each strategy's adapting flag are run-time branches of
    # one loop: whichever strategies adapt, a process compiles one loop per
    # plant size, and one tick kernel per plant size, for the frozen tail,
    # on which every strategy acts
    loops, ticks = _Kernels(control_loop._adapt_source), _Kernels(control_loop._tick_source)
    monkeypatch.setattr(control_loop, "_ADAPT", loops)
    monkeypatch.setattr(control_loop, "_TICK", ticks)
    c = default_config
    staggered = load_config(CORPUS / "staggered_freeze.ini")
    ob_frozen = initial_strategies(model, c.learning)
    ob_frozen["ob"].frozen = True
    identity = dataclasses.replace(c.learning, init="identity")
    for learning, kwargs in ((c.learning, {}), (staggered.learning, {}),
                             (c.learning, {"initial": frozen_initial(model, c.learning)}),
                             (identity, {}),
                             (c.learning, {"initial": ob_frozen})):
        run_episode(model, c.reference, learning, horizon=20.0, **kwargs)
    assert list(loops) == [3]
    assert list(ticks) == [3]


def test_non_scalar_plant_rejected(default_config):
    from modelfollow.dynamics import ProcessModel
    m = ProcessModel(A=-np.eye(2), B=np.eye(2), C=np.eye(2),
                     A_hat=-np.eye(2), B_hat=np.eye(2))
    with pytest.raises(NotImplementedError):
        run_episode(m, default_config.reference, default_config.learning, horizon=0.1)


def _per_tick_history(model, c, **kwargs):
    """Run an episode and rebuild theta_hist/pi_hist from its learner steps,
    replayed in a chain from the initial states.

    Row k of a history is the theta/pi a strategy held when row k was
    written; row k + 1 is written before the step of tick k, so that step's
    result is held from row k + 2 on.
    """
    learning = kwargs.pop("learning", c.learning)
    states = kwargs.pop("initial", None) or initial_strategies(model, learning)
    start = copy.deepcopy(states)
    log = run_episode(model, c.reference, learning, horizon=20.0, initial=states, **kwargs)
    replayed = replay(log, model, learning, start, chained=True)
    rows = len(log.t)
    theta = {s: np.tile(start[s].theta, (rows, 1)) for s in STRATEGIES}
    pi = {s: np.tile(start[s].pi, (rows, 1)) for s in STRATEGIES}
    steps = []
    for s, r in replayed.items():
        assert r.counts == log.learner_counts[s] and r.t_converged == log.t_converged[s], s
        for step in r.steps:
            theta[s][step.k + 2:] = step.theta
            pi[s][step.k + 2:] = step.new_pi
            steps.append((step.k, s))
        if r.steps:
            assert np.array(r.steps[-1].theta).tobytes() == log.theta_final[s].tobytes(), s
            assert np.array(r.steps[-1].new_pi).tobytes() == log.pi_final[s].tobytes(), s
    return log, theta, pi, steps


@pytest.mark.parametrize("name", ["default.ini", "pi_cl0_5.ini"])
def test_frozen_start_is_learning_off(name):
    # an episode whose every initial state is frozen takes no learner step:
    # its priors act as fixed controllers throughout, the rest of the
    # episode after warm-up is the frozen tail, and its Bellman samples
    # are still built from the log, on the first read
    c = load_config(CORPUS / name)
    prior = initial_strategies(c.model, c.learning)
    log = run_episode(c.model, c.reference, c.learning, horizon=c.horizon,
                      initial=frozen_initial(c.model, c.learning))
    assert log.learner_counts == {s: dict.fromkeys(control_loop.LEARNER_COUNTS, 0)
                                  for s in STRATEGIES}
    assert log.t_converged == dict.fromkeys(STRATEGIES)
    for s in STRATEGIES:
        assert (log.theta_hist[s] == prior[s].theta).all(), s
        assert (log.pi_hist[s] == prior[s].pi).all(), s
    assert log.M is not None
    assert log.timings["bellman_ms"] is None
    Z, phi = log.regressors["cl"]
    assert type(log.timings["bellman_ms"]) is float
    assert len(Z) == len(phi) == len(log.t) - 1


@pytest.mark.parametrize("case", ["default", "learning_off", "diverging", "ob_frozen"])
def test_history_equals_per_tick_record(model, default_config, case):
    # the log writes a strategy's theta/pi only while it adapts and fills
    # the rest after the loop; the result must equal a per-tick record,
    # here the learner steps replayed from the initial states
    c = default_config
    kwargs = {}
    if case == "learning_off":
        kwargs["initial"] = frozen_initial(model, c.learning)
    elif case == "diverging":
        kwargs["learning"] = parse_config("[learning]\npi_cl0 = [5.0, 5.0, 5.0]\n").learning
    elif case == "ob_frozen":
        states = initial_strategies(model, c.learning)
        states["ob"].frozen = True
        kwargs["initial"] = states
    log, theta, pi, steps = _per_tick_history(model, c, **kwargs)
    for s in STRATEGIES:
        assert log.theta_hist[s].tobytes() == theta[s].tobytes(), s
        assert log.pi_hist[s].tobytes() == pi[s].tobytes(), s
    stepped = {s for _, s in steps}
    if case == "learning_off":
        assert not steps
    elif case == "diverging":
        assert log.diverged == 18.42 and len(log.t) == 1842
    elif case == "ob_frozen":
        assert stepped == {"cl", "mf"} and log.t_converged["ob"] is None
    if case != "learning_off":
        # every strategy that learned moved its theta after its first row
        assert all(not np.array_equal(theta[s][0], theta[s][-1]) for s in stepped)
