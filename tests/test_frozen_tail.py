"""The frozen tail of an episode: once every strategy acts and none adapts,
run_episode finishes the episode as one affine recurrence and derives the
logged signals from its state history.  Every tail row must follow from the
row before it by the per-tick formulas, and a tail that overflows must end
the episode as the per-tick loop did, without a floating-point warning."""

import warnings

import numpy as np
import pytest

from modelfollow import control_loop
from modelfollow.cli_io import parse_config
from modelfollow.control_loop import STRATEGIES, SUBSTEPS, run_episode, strategy_views
from modelfollow.dynamics import held_input_maps

RTOL = 1e-12


def rel_err(a, b):
    """Max-abs error normalised by the max-abs reference value."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def tail_episode(monkeypatch, text, learning_enabled):
    """An episode and the first tick of its frozen tail."""
    starts = []

    def spied(log, k0, *args):
        starts.append(k0)
        tail(log, k0, *args)

    tail = control_loop._frozen_tail
    monkeypatch.setattr(control_loop, "_frozen_tail", spied)
    c = parse_config(text)
    log = run_episode(c.model, c.reference, c.learning, horizon=c.horizon,
                      learning_enabled=learning_enabled)
    assert len(starts) == 1
    return c, log, starts[0]


@pytest.mark.parametrize("text, learning_enabled, diverged", [
    ("", True, None),
    ("", False, None),
    ("[learning]\ninit = identity\n", True, 14.02),
])
def test_tail_rows_replay_one_tick(monkeypatch, text, learning_enabled, diverged):
    c, log, k0 = tail_episode(monkeypatch, text, learning_enabled)
    assert log.diverged == diverged
    cfg, model = c.learning, c.model
    if learning_enabled:
        # the tail starts on the tick after the last strategy froze
        assert k0 == round(max(log.t_converged.values()) / cfg.delta)
    else:
        assert k0 == control_loop.STACK_DEPTH - 1
    h = cfg.delta / SUBSTEPS
    n = model.n
    Phi, Gam = np.split(held_input_maps(model.A, model.B, h, SUBSTEPS)[-1], [n], axis=1)
    Phi_hat, Gam_hat = np.split(held_input_maps(model.A_hat, model.B_hat, h, SUBSTEPS)[-1],
                                [n], axis=1)

    ticks = np.arange(k0, len(log.t) - 1)
    assert len(ticks) > 100
    prev, next_ = ticks, ticks + 1
    x = log.x[prev] @ Phi.T + Gam.T * log.u_total[next_, None]
    assert rel_err(x, log.x[next_]) <= RTOL
    xhat = log.xhat[prev] @ Phi_hat.T + Gam_hat.T * log.v[next_, None]
    assert rel_err(xhat, log.xhat[next_]) <= RTOL
    mu = {"ob": log.mu_ob, "cl": log.mu_cl, "mf": log.mu_mf}
    views = strategy_views(log)
    for s in STRATEGIES:
        feats, lag, _ = views[s]
        want = feats[prev - lag] @ log.pi_final[s] + cfg.probe(ticks * cfg.delta, s)
        assert rel_err(mu[s][next_], want) <= RTOL, s
    for s in ("ob", "mf"):
        u = getattr(log, "u_" + s)
        assert rel_err(u[next_], u[prev] + mu[s][next_]) <= RTOL, s


def test_tail_overflow_is_silent():
    # with learning off the tail starts at the third tick; this prior makes
    # the plant state leave the 1e7 box on tick 28 and overflow to inf and
    # nan later in the recurrence, which the log must not show or warn about
    c = parse_config("[learning]\npi_cl0 = [100, 100, 100]\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = run_episode(c.model, c.reference, c.learning, horizon=20.0,
                          learning_enabled=False)
    # the divergence time of the per-tick loop
    assert log.diverged == 0.29000000000000004
    assert len(log.t) == 29 and np.isfinite(log.x).all()


@pytest.mark.parametrize("text", ["", "[learning]\npi_cl0 = [100, 100, 100]\n"])
def test_tail_stops_within_one_block_of_its_exit(monkeypatch, text):
    # with learning off the tail starts at the third tick; the default
    # episode steps every tail row once, and the pi_cl0 = 100 one leaves
    # the 1e7 box on row 29 (t = 0.29 s), after which the tail steps at most
    # one block of rows more.  The rows up to the exit are those of an
    # episode that ends just before it.
    stepped = []

    def spied(rows, z, M):
        stepped.append(len(rows))
        return step_rows(rows, z, M)

    step_rows = control_loop._step_rows
    monkeypatch.setattr(control_loop, "_step_rows", spied)
    c = parse_config(text)
    log = run_episode(c.model, c.reference, c.learning, horizon=20.0, learning_enabled=False)
    k0 = control_loop.STACK_DEPTH - 1
    if not text:
        assert log.diverged is None and sum(stepped) == 2000 - k0
        return
    assert log.diverged == 0.29000000000000004 and len(log.t) == 29
    exit_row = len(log.t) - (k0 + 1)
    assert exit_row < sum(stepped) <= exit_row + control_loop.TAIL_BLOCK
    monkeypatch.undo()
    short = run_episode(c.model, c.reference, c.learning, horizon=0.28, learning_enabled=False)
    assert short.diverged is None
    for name in control_loop.COLUMNS:
        assert getattr(log, name).tobytes() == getattr(short, name).tobytes(), name
    for s in STRATEGIES:
        assert log.theta_hist[s].tobytes() == short.theta_hist[s].tobytes(), s
        assert log.pi_hist[s].tobytes() == short.pi_hist[s].tobytes(), s
