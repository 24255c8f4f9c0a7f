"""The frozen tail of an episode: once every strategy acts and none adapts,
run_episode finishes the episode as one affine recurrence and derives the
logged signals from its state history.  Every tail row must follow from the
row before it by the per-tick formulas, and a tail that overflows must end
the episode as the per-tick loop did, without a floating-point warning."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modelfollow import control_loop
from modelfollow.cli_io import parse_config
from modelfollow.control_loop import STRATEGIES, SUBSTEPS, run_episode, strategy_views
from modelfollow.dynamics import held_input_maps
from conftest import frozen_initial
from sequential import seq_dot

RTOL = 1e-12


def rel_err(a, b):
    """Max-abs error normalised by the max-abs reference value."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def tail_episode(monkeypatch, text, learning):
    """An episode, from frozen initial states unless learning, and the
    first tick of its frozen tail."""
    starts = []

    def spied(log, k0, *args):
        starts.append(k0)
        tail(log, k0, *args)

    tail = control_loop._frozen_tail
    monkeypatch.setattr(control_loop, "_frozen_tail", spied)
    c = parse_config(text)
    log = run_episode(c.model, c.reference, c.learning, horizon=c.horizon,
                      initial=None if learning else frozen_initial(c.model, c.learning))
    assert len(starts) == 1
    return c, log, starts[0]


@pytest.mark.parametrize("text, learning, diverged", [
    ("", True, None),
    ("", False, None),
    ("[learning]\ninit = identity\n", True, 14.02),
    ("[run]\nhorizon = 200\n", True, None),
])
def test_tail_rows_replay_one_tick(monkeypatch, text, learning, diverged):
    c, log, k0 = tail_episode(monkeypatch, text, learning)
    assert log.diverged == diverged
    cfg, model = c.learning, c.model
    if learning:
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

    # every row's outputs, output errors and held inputs are the tick's
    # index-order sums and differences of the logged states and actions,
    # exactly, on any build: the loop's rows and the tail's
    C = model.C[0]
    assert np.array_equal(log.y, seq_dot(C, list(log.x.T)))
    assert np.array_equal(log.yhat, seq_dot(C, list(log.xhat.T)))
    assert np.array_equal(log.e_ob, log.y - log.yhat)
    assert np.array_equal(log.e_mf, log.yref - log.y)
    assert np.array_equal(log.u_total, log.mu_cl + log.u_mf)
    assert np.array_equal(log.v, log.u_ob + log.u_total)
    # and each tail action is its strategy's index-order pi . F plus the
    # probe of the tick, as run_episode samples it
    t_start = np.arange(int(round(c.horizon / cfg.delta))) * cfg.delta
    for s in STRATEGIES:
        feats, lag, _ = views[s]
        want = seq_dot(log.pi_final[s], list(feats[prev - lag].T)) + cfg.probe(t_start, s)[ticks]
        assert np.array_equal(mu[s][next_], want), s


def test_tail_overflow_is_silent():
    # from frozen initial states the tail starts at the third tick; this
    # prior makes the plant state leave the 1e7 box on tick 28 and overflow
    # to inf and nan later in the recurrence, which the log must not show
    # or warn about
    c = parse_config("[learning]\npi_cl0 = [100, 100, 100]\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = run_episode(c.model, c.reference, c.learning, horizon=20.0,
                          initial=frozen_initial(c.model, c.learning))
    # the divergence time of the per-tick loop
    assert log.diverged == 0.29000000000000004
    assert len(log.t) == 29 and np.isfinite(log.x).all()


@pytest.mark.parametrize("text", ["", "[learning]\npi_cl0 = [100, 100, 100]\n"])
def test_tail_stops_within_one_block_of_its_exit(monkeypatch, text):
    # from frozen initial states the tail starts at the third tick; the
    # default episode steps every tail row once, and the pi_cl0 = 100 one leaves
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
    log = run_episode(c.model, c.reference, c.learning, horizon=20.0,
                      initial=frozen_initial(c.model, c.learning))
    k0 = control_loop.STACK_DEPTH - 1
    if not text:
        assert log.diverged is None and sum(stepped) == 2000 - k0
        return
    assert log.diverged == 0.29000000000000004 and len(log.t) == 29
    exit_row = len(log.t) - (k0 + 1)
    assert exit_row < sum(stepped) <= exit_row + control_loop.TAIL_BLOCK
    monkeypatch.undo()
    short = run_episode(c.model, c.reference, c.learning, horizon=0.28,
                        initial=frozen_initial(c.model, c.learning))
    assert short.diverged is None
    for name in control_loop.COLUMNS:
        assert getattr(log, name).tobytes() == getattr(short, name).tobytes(), name
    for s in STRATEGIES:
        assert log.theta_hist[s].tobytes() == short.theta_hist[s].tobytes(), s
        assert log.pi_hist[s].tobytes() == short.pi_hist[s].tobytes(), s


# whether np.longdouble is more precise than float64, as it is not where it
# is float64 itself
EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


def col_err(got, want):
    """The largest error of any column, normalised by that column's
    max-abs reference value."""
    return float((np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)).max())


def longdouble_replay(M, z, inputs):
    """The states after each row of inputs of s+ = M s + input, stepped one
    row at a time in np.longdouble from the state z."""
    M, s = M.astype(np.longdouble), z.astype(np.longdouble)
    states = []
    for row in inputs.astype(np.longdouble):
        s = M @ s + row
        states.append(s)
    return np.array(states)


def two_sum(a, b):
    """s + e = a + b exactly, s = fl(a + b) (Knuth's TwoSum)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def veltkamp(a):
    """a = high + low exactly, each half of at most 26 significant bits."""
    c = a * 134217729.0  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def compensated_replay(M, z, inputs):
    """The states after each row of inputs of s+ = M s + input, stepped one
    row at a time in float64 arithmetic alone: the state is carried as an
    unevaluated sum hi + lo, each product M_ij hi_j is split exactly into
    p + e (Dekker's TwoProduct on Veltkamp halves), the products and the
    input of each component are added pairwise with TwoSum, and the
    rounding errors, the e and M lo are summed apart and added once.  Each
    step is then as accurate as in twice the working precision (Ogita, Rump
    and Oishi's Dot2), and the states are hi, each rounded once."""
    n = len(z)
    M_high, M_low = veltkamp(M)
    hi, lo = z.astype(float), np.zeros(n)
    # the terms of each component, padded with zeros to a power of two
    terms = np.zeros((n, 1 << n.bit_length()))
    states = []
    for row in inputs:
        h_high, h_low = veltkamp(hi)
        p = terms[:, :n]
        np.multiply(M, hi, out=p)
        err = ((((M_high * h_high - p) + M_high * h_low) + M_low * h_high)
               + M_low * h_low).sum(axis=1) + M @ lo
        terms[:, n] = row
        level = terms
        while level.shape[1] > 1:
            level, e = two_sum(level[:, 0::2], level[:, 1::2])
            err += e.sum(axis=1)
        hi, lo = two_sum(level[:, 0], err)
        states.append(hi)
    return np.array(states)


def lifted_map(rng, radius, windows):
    """A 14 x 14 map of spectral radius `radius`, shaped like the lifted
    state's: a dense block, then `windows` error windows of STACK_DEPTH
    entries that shift by one each row, their newest entry a combination
    of the dense block."""
    depth = control_loop.STACK_DEPTH
    k = 14 - windows * depth
    M = np.zeros((14, 14))
    A = rng.standard_normal((k, k))
    M[:k, :k] = A * (radius / np.abs(np.linalg.eigvals(A)).max())
    for i in range(k, 14, depth):
        M[i:i + depth - 1, i + 1:i + depth] = np.eye(depth - 1)
        M[i + depth - 1, :k] = rng.standard_normal(k)
    return M


@pytest.mark.parametrize("seed", range(3))
def test_compensated_replay_is_the_exact_recurrence(seed):
    # the float64 reference of the tests below, against the recurrence in
    # exact rational arithmetic rounded once: within one ulp per component
    rng = np.random.default_rng(seed)
    M = lifted_map(rng, 1.02, 2)
    z, inputs = rng.standard_normal(14), rng.standard_normal((40, 14))
    got = compensated_replay(M, z, inputs)
    rows = [[Fraction(v) for v in row] for row in M.tolist()]
    s = [Fraction(v) for v in z.tolist()]
    want = []
    for row in inputs.tolist():
        s = [sum((a * b for a, b in zip(M_i, s)), Fraction(r)) for M_i, r in zip(rows, row)]
        want.append([float(v) for v in s])
    want = np.array(want)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.05), st.integers(0, 2),
       st.integers(1, control_loop.TAIL_BLOCK), st.data())
def test_step_rows_is_the_recurrence(seed, radius, windows, length, data):
    # the scan's rows are the states of the one-row-at-a-time recurrence,
    # and a block cut short gives its leading rows with the same bits
    rng = np.random.default_rng(seed)
    M = lifted_map(rng, radius, windows)
    z, inputs = rng.standard_normal(14), rng.standard_normal((length, 14))
    powers = [np.linalg.matrix_power(M, 1 << j).T for j in range(length.bit_length())]
    rows = inputs.copy()
    last = control_loop._step_rows(rows, z, powers)
    assert last.tobytes() == rows[-1].tobytes()
    want = compensated_replay(M, z, inputs)
    err = np.abs(rows - want).max(axis=1) / np.abs(want).max(axis=1)
    assert err.max() <= RTOL
    m = data.draw(st.integers(1, length))
    short = inputs[:m].copy()
    control_loop._step_rows(short, z, powers)
    assert short.tobytes() == rows[:m].tobytes()


@pytest.mark.parametrize("text", ["", "[run]\nhorizon = 200\n"])
def test_tail_states_follow_an_extended_precision_replay(monkeypatch, text):
    # every component of every tail state, the scans of all blocks chained,
    # is the state that the recurrence with the tail's own M, N and w gives
    # when stepped one tick at a time in twice float64's precision (the
    # compensated replay, on every platform); where np.longdouble is more
    # precise than float64, its replay agrees with that one
    starts, inputs, states = [], [], []

    def spied(rows, z, powers):
        starts.append(np.array(z))
        inputs.append(rows.copy())
        last = step_rows(rows, z, powers)
        states.append(rows.copy())
        return last

    step_rows = control_loop._step_rows
    monkeypatch.setattr(control_loop, "_step_rows", spied)
    c = parse_config(text)
    log = run_episode(c.model, c.reference, c.learning, horizon=c.horizon)
    assert log.diverged is None
    # every strategy freezes at 1.5 s, so the tail runs from tick 150 on
    states = np.vstack(states)
    assert len(states) == round(c.horizon / c.learning.delta) - 150
    want = compensated_replay(log.M, starts[0], np.vstack(inputs))
    assert col_err(states, want) <= RTOL
    if EXTENDED:
        assert col_err(longdouble_replay(log.M, starts[0], np.vstack(inputs)).astype(float),
                       want) <= 1e-15
    n = log.x.shape[1]
    assert log.x[151:].tobytes() == states[:, :n].tobytes()
