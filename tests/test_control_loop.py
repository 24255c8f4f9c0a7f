import numpy as np
import pytest

from modelfollow import control_loop
from modelfollow.cli_io import parse_config
from modelfollow.control_loop import (
    StrategyState, run_episode,
    initial_strategies, embedded_gain_kernel, STRATEGIES,
)
from modelfollow.learner import LearningConfig, S_to_theta, policy_from_kernel, theta_to_S
from modelfollow.reference import ReferenceSpec


def quiet_config(**kwargs):
    return LearningConfig(probe_amplitude=0.0, **kwargs)


def fixed_gain_states(pi_cl, pi_ob=None, pi_mf=None):
    states = {}
    gains = {"cl": pi_cl, "ob": pi_ob, "mf": pi_mf}
    for s in STRATEGIES:
        g = np.zeros(3) if gains[s] is None else np.asarray(gains[s], dtype=float)
        states[s] = StrategyState(S_to_theta(np.eye(4)), g)
    return states


def test_zero_equilibrium(model):
    # zero gains, zero probe, zero reference: everything stays at rest
    cfg = quiet_config()
    ref = ReferenceSpec("constant", {"value": 0.0})
    log = run_episode(model, ref, cfg, horizon=1.0,
                      learning_enabled=False, initial=fixed_gain_states(np.zeros(3)))
    assert log.diverged is None
    assert np.all(np.abs(np.array(log.x)) == 0.0)
    assert np.all(np.array(log.u_total) == 0.0)


def test_converged_gain_decays(model):
    # fixed closed-loop gain with known spectral abscissa ~ -2.2: the
    # observed state collapses from a nonzero start with no learning
    cfg = quiet_config()
    ref = ReferenceSpec("constant", {"value": 0.0})
    gain = np.array([-15.9517, -4.0410, -4.9822])
    x0 = np.array([1.0, 1.0, 1.0])
    log = run_episode(model, ref, cfg, horizon=5.0, learning_enabled=False,
                      initial=fixed_gain_states(gain), x0=x0, xhat0=x0)
    assert log.diverged is None
    assert np.linalg.norm(log.xhat[-1]) < 1e-2 * np.linalg.norm(x0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_state_diverges_on_first_tick(model, default_config, bad):
    # a nan or inf plant state fails the divergence test like a state
    # outside the 1e7 box, in whichever component it is: the first tick
    # ends the episode
    c = default_config
    for position in range(3):
        x0 = [0.0, 0.0, 0.0]
        x0[position] = bad
        with np.errstate(invalid="ignore"):  # inf * 0 in the output and state maps
            log = run_episode(model, c.reference, c.learning, horizon=1.0, x0=x0)
        assert log.diverged == 0.01, position
        assert len(log.t) == 1 and log.x.shape == (1, 3), position


def test_warmup_gating(model, default_config):
    cfg = default_config.learning
    log = run_episode(model, default_config.reference, cfg, horizon=0.05)
    # stacks fill at the third sample; increments stay zero before that
    assert log.u_ob[0] == 0.0 and log.u_mf[0] == 0.0
    assert log.u_ob[1] == 0.0 and log.u_mf[1] == 0.0
    assert log.u_ob[2] == 0.0 and log.u_mf[2] == 0.0


def test_composition_identity(episode):
    u = np.array(episode.u_total)
    mu = np.array(episode.mu_cl)
    umf = np.array(episode.u_mf)
    assert np.max(np.abs(u - mu - umf)) < 1e-12


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
                      learning_enabled=False, initial=fixed_gain_states(np.zeros(3)))
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
    S_cl = theta_to_S(st["cl"].theta)
    assert np.all(np.linalg.eigvalsh(S_cl) > 0.0)
    ident = initial_strategies(model, LearningConfig(init="identity"))
    assert np.all(ident["cl"].pi == 0.0)
    assert np.all(theta_to_S(ident["mf"].theta) == np.eye(4))


def test_cached_kernel_follows_theta(model, default_config):
    # each strategy keeps the kernel of its current theta; a learner step
    # replaces both, so after an episode in which every strategy adapts on
    # every tick the cache must still be the unflattened theta, bit for bit
    cfg = parse_config("[learning]\ntol_conv = 0\n").learning
    states = initial_strategies(model, cfg)
    initial = {s: states[s].S for s in STRATEGIES}
    for s in STRATEGIES:
        assert np.array_equal(states[s].S, theta_to_S(states[s].theta))
    log = run_episode(model, default_config.reference, cfg, horizon=20.0, initial=states)
    assert log.diverged is None
    for s in STRATEGIES:
        assert not np.array_equal(states[s].S, initial[s])
        assert np.array_equal(states[s].S, theta_to_S(states[s].theta))


def test_states_hold_arrays_after_an_episode(monkeypatch, model, default_config):
    # a learner step computes on lists of Python floats; the initial= states
    # hold numpy arrays again once run_episode returns, and also when a step
    # raises part way through the episode
    def arrays(st):
        return [type(a) for a in (st.theta, st.pi, st.S)] == [np.ndarray] * 3

    c = default_config
    states = initial_strategies(model, c.learning)
    log = run_episode(model, c.reference, c.learning, horizon=1.0, initial=states)
    assert all(arrays(states[s]) for s in STRATEGIES)
    assert all(np.array_equal(states[s].theta, log.theta_final[s]) for s in STRATEGIES)

    steps = []

    def failing(state, *args):
        steps.append(state)
        if len(steps) == 10:
            raise RuntimeError("step failed")
        learn_step(state, *args)

    learn_step = control_loop._learn_step
    monkeypatch.setattr(control_loop, "_learn_step", failing)
    with pytest.raises(RuntimeError, match="step failed"):
        run_episode(model, c.reference, c.learning, horizon=1.0, initial=states)
    assert all(arrays(states[s]) for s in STRATEGIES)
    assert all(np.array_equal(states[s].S, theta_to_S(states[s].theta)) for s in STRATEGIES)


def test_non_scalar_plant_rejected(default_config):
    from modelfollow.dynamics import ProcessModel
    m = ProcessModel(A=-np.eye(2), B=np.eye(2), C=np.eye(2),
                     A_hat=-np.eye(2), B_hat=np.eye(2))
    with pytest.raises(NotImplementedError):
        run_episode(m, default_config.reference, default_config.learning, horizon=0.1)


def _per_tick_history(monkeypatch, model, c, rows_expected=None, **kwargs):
    """Run an episode and rebuild theta_hist/pi_hist from the learner steps.

    Row k of a history is the theta/pi a strategy held when row k was
    written; row k + 1 is written before the step of tick k, so that step's
    result is held from row k + 2 on.
    """
    learning = kwargs.pop("learning", c.learning)
    states = kwargs.pop("initial", None) or initial_strategies(model, learning)
    start = {s: (states[s].theta.copy(), states[s].pi.copy()) for s in STRATEGIES}
    steps = []

    def recorded(state, z_tilde, phi, F, cfg, t):
        learn_step(state, z_tilde, phi, F, cfg, t)
        s = next(s for s in STRATEGIES if states[s] is state)
        steps.append((round(t / cfg.delta), s, state.theta.copy(), state.pi.copy()))

    learn_step = control_loop._learn_step
    monkeypatch.setattr(control_loop, "_learn_step", recorded)
    log = run_episode(model, c.reference, learning, horizon=20.0, initial=states, **kwargs)
    rows = len(log.t)
    theta = {s: np.tile(start[s][0], (rows, 1)) for s in STRATEGIES}
    pi = {s: np.tile(start[s][1], (rows, 1)) for s in STRATEGIES}
    for k, s, th, p in steps:
        theta[s][k + 2:] = th
        pi[s][k + 2:] = p
    return log, theta, pi, steps


@pytest.mark.parametrize("case", ["default", "learning_off", "diverging", "ob_frozen"])
def test_history_equals_per_tick_record(monkeypatch, model, default_config, case):
    # the log writes a strategy's theta/pi only while it adapts and fills
    # the rest after the loop; the result must equal a per-tick record
    c = default_config
    kwargs = {}
    if case == "learning_off":
        kwargs["learning_enabled"] = False
    elif case == "diverging":
        kwargs["learning"] = parse_config("[learning]\npi_cl0 = [5.0, 5.0, 5.0]\n").learning
    elif case == "ob_frozen":
        states = initial_strategies(model, c.learning)
        states["ob"].frozen = True
        kwargs["initial"] = states
    log, theta, pi, steps = _per_tick_history(monkeypatch, model, c, **kwargs)
    for s in STRATEGIES:
        assert log.theta_hist[s].tobytes() == theta[s].tobytes(), s
        assert log.pi_hist[s].tobytes() == pi[s].tobytes(), s
    stepped = {s for _, s, _, _ in steps}
    if case == "learning_off":
        assert not steps
    elif case == "diverging":
        assert log.diverged == 18.42 and len(log.t) == 1842
    elif case == "ob_frozen":
        assert stepped == {"cl", "mf"} and log.t_converged["ob"] is None
    if case != "learning_off":
        # every strategy that learned moved its theta after its first row
        assert all(not np.array_equal(theta[s][0], theta[s][-1]) for s in stepped)
