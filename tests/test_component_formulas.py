"""The learner's generated kernels give the bytes of the index-order loops
they replace, on one tick of Python floats and on stacks of ticks given as
numpy columns.

Each kernel is straight-line code written out for one vector size: its
components unpacked into locals and every sum one + chain from 0.0.  The
references in sequential.py are the loops (s = 0.0; s = s + a_i * b_i).
The tests draw sizes 1-6 (size 1 is a one-element unpacking) and the
sizes an episode runs (10 theta slots, 16 kernel entries), floats with
signed zeros among them (the leading 0.0 + turns a sum of -0.0 terms into
+0.0, as s = 0.0 does), and vectors as lists and as tuples.  A stack of
ticks must give each row its one-tick value byte for byte, whatever the
memory layout the columns come from: a C-ordered stack (its columns are
strided), a Fortran-ordered one (contiguous columns) or a strided view
into a larger array (neither axis contiguous).  The Bellman-sample kernel
(_SAMPLE), which the log rebuild runs on stacks, is held to seq_sample
and its parts: the stage costs to seq_quadratic_form and seq_utility, the
regressor to seq_regressor.  control_loop's generated tick kernel, one
per plant size with every strategy acting as on a frozen-tail tick, is
held to the same property, which lets the frozen tail build its matrices
from identity columns run through the one-tick formula, and to the tick
spelled out with the same sums (seq_tick); the tail then derives its
outputs and actions with dot on the log's columns, whose rows
test_frozen_tail pins to the same sums.  policy_from_kernel's
kernel is checked against -(v * (1 / s)) for kernels of 2-7 rows.  The
learner step piece that the adapting loop inlines (learner._learner_step)
and its critic, actor and convergence pieces, each compiled here on its
own since the package compiles them only into the loop, must give the bits
of the sequential references on one tick (the step runs on no stack), and
no generated kernel, the adapting loop included, may call sum().
"""

import ast
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modelfollow import control_loop, learner
from modelfollow.cli_io import parse_config
from modelfollow.control_loop import KINDS, STRATEGIES, SUBSTEPS, TICK_COLUMNS, _TICK
from modelfollow.dynamics import held_input_maps
from modelfollow.learner import (
    _CONFIG_LINES, _SAMPLE, LearningConfig, SingularKernelError, _kernel_source, _learner_step,
    _names, _unpack, _unpack_rows, dot, policy_from_kernel, theta_to_S,
)
from sequential import (
    seq_actor_update, seq_critic_update, seq_distance, seq_dot, seq_policy_row,
    seq_quadratic_form, seq_regressor, seq_sample, seq_tick, seq_utility,
)

# finite values, signed zeros drawn often and subnormals included, small
# enough that no product of the formulas overflows
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e50, max_value=1e50, allow_nan=False, allow_infinity=False))
SIZES = st.one_of(st.integers(1, 6), st.sampled_from([10, 16]))
SEQUENCES = st.sampled_from([list, tuple])
PACES = st.floats(min_value=0.01, max_value=1.99)
ALPHAS = st.floats(min_value=1e-3, max_value=10.0)


def vectors(d):
    return st.lists(FLOATS, min_size=d, max_size=d)


def stacks(d, rows):
    return st.lists(vectors(d), min_size=rows, max_size=rows)


def c_order(rows):
    return np.array(rows, dtype=float)


def f_order(rows):
    return np.asfortranarray(rows, dtype=float)


def strided(rows):
    """A view of every other row and column of a larger array."""
    a = np.array(rows, dtype=float)
    big = np.full((2 * a.shape[0], 2 * a.shape[1] + 1), np.nan)
    big[::2, 1::2] = a
    return big[::2, 1::2]


LAYOUTS = st.sampled_from([c_order, f_order, strided])
N_ROWS = st.integers(1, 5)


def columns(a):
    return list(a.T)


def same_bytes(got, want):
    """Equal values of equal types: a float, or a list of them, or numpy
    columns; compared as float arrays, byte for byte."""
    assert type(got) is type(want)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def same_rows(stacked, per_tick):
    """Row i of a stacked result (an array, or a list of its columns)
    equals per_tick[i], byte for byte."""
    stacked = np.stack(stacked, axis=-1) if isinstance(stacked, list) else np.asarray(stacked)
    assert stacked.shape[0] == len(per_tick)
    for i, value in enumerate(per_tick):
        assert stacked[i].tobytes() == np.asarray(value, dtype=float).tobytes(), i


# The critic step, the actor step and the convergence test are pieces of
# the learner step (learner._learner_step) only, which the adapting loop
# inlines; each is compiled here on its own for n components of t and z,
# the step's names, with the step's scalars as arguments.  The critic and
# the actor update t in place, as the step does, and return it.  The actor
# takes its rate limit as the loop binds it, a null limit as math.inf.
def _piece_source(n, scalars, lines, result):
    return _kernel_source(f"t, z, {scalars}", [_unpack("t", n), _unpack("z", n), *lines], result)


def critic_source(n):
    t, z = _names("t", n), _names("z", n)
    return _piece_source(n, "phi, sigma_c, alpha_c", learner._critic_update(t, t, z),
                         f"[{', '.join(t)}]")


def actor_source(n):
    t, z = _names("t", n), _names("z", n)
    return _piece_source(n, "phi_target, sigma_a, alpha_a, rate_limit",
                         learner._actor_update(t, t, z), f"[{', '.join(t)}]")


def converged_source(n):
    lines = learner._kernel_converged("settled", _names("t", n), _names("z", n), range(n))
    return _piece_source(n, "tol_conv", lines, "settled")


CRITIC, ACTOR, CONVERGED = map(learner._Kernels, (critic_source, actor_source, converged_source))


def cl_cost(Z, M):
    """The stage cost Z' M Z of the closed-loop Bellman sample (_SAMPLE) of
    Z = [F; mu], one tick's floats or one column per component; the
    features after the tick and the gain, which it does not read, are 0."""
    zero = [0.0] * (len(Z) - 1)
    return _SAMPLE["cl", len(zero)](Z[:-1], Z[-1], zero, zero, M, 1.0, 1.0)[1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10, 16])
def test_sums_of_signed_zeros_are_positive(n):
    # every product -0.0: the loop's s = 0.0 start makes the sum +0.0, and
    # so must the kernel's leading 0.0 +
    neg, one = [-0.0] * n, [1.0] * n
    same_bytes(dot(neg, one), 0.0)
    same_bytes(cl_cost(one, [neg] * n), 0.0)
    assert seq_dot(neg, one) == 0.0 and np.signbit(-0.0)
    # theta . z = +0.0, so the critic's residual is 0.0 - phi
    same_bytes(CRITIC[n](neg, one, -0.0, 0.5, 1.8), seq_critic_update(neg, one, -0.0, 0.5, 1.8))
    same_bytes(ACTOR[n](neg, one, -0.0, 0.5, 1.8, math.inf),
               seq_actor_update(neg, one, -0.0, 0.5, 1.8))


@given(st.data(), N_ROWS, SIZES, SEQUENCES, LAYOUTS, LAYOUTS)
def test_dot(data, n, d, seq, layout_a, layout_b):
    a, b = data.draw(stacks(d, n)), data.draw(stacks(d, n))
    per_tick = [dot(seq(ai), seq(bi)) for ai, bi in zip(a, b)]
    for value, ai, bi in zip(per_tick, a, b):
        same_bytes(value, seq_dot(ai, bi))
    A, B = columns(layout_a(a)), columns(layout_b(b))
    same_bytes(dot(A, B), seq_dot(A, B))
    same_rows(dot(A, B), per_tick)


@given(st.data(), N_ROWS, st.integers(1, 6), SEQUENCES, LAYOUTS)
def test_quadratic_form(data, n, d, seq, layout):
    # the closed-loop stage cost of the Bellman sample
    x, M = data.draw(stacks(d, n)), data.draw(stacks(d, d))
    M = seq(seq(row) for row in M)
    per_tick = [cl_cost(seq(xi), M) for xi in x]
    for value, xi in zip(per_tick, x):
        same_bytes(value, seq_quadratic_form(xi, M))
    X = columns(layout(x))
    same_bytes(cl_cost(X, M), seq_quadratic_form(X, M))
    same_rows(cl_cost(X, M), per_tick)


@given(st.data(), N_ROWS, LAYOUTS, LAYOUTS, FLOATS.filter(lambda r: r > 0))
def test_utility(data, n, layout_F, layout_mu, R):
    # the error-feature stage cost of the Bellman sample, delta * U, taken
    # at delta = 1.0: U itself
    F, Q = data.draw(stacks(3, n)), data.draw(stacks(3, 3))
    mu = data.draw(stacks(1, n))
    zero = [0.0] * 3
    per_tick = [_SAMPLE["err", 3](Fi, mi[0], zero, zero, Q, 1.0, R)[1] for Fi, mi in zip(F, mu)]
    for value, Fi, mi in zip(per_tick, F, mu):
        same_bytes(value, seq_utility(Fi, mi[0], Q, R))
    stacked = _SAMPLE["err", 3](columns(layout_F(F)), layout_mu(mu)[:, 0], zero, zero, Q, 1.0, R)
    same_rows(stacked[1], per_tick)


@given(st.data(), N_ROWS, SIZES, SEQUENCES, LAYOUTS, LAYOUTS, st.sampled_from(["cl", "err"]))
def test_monomials_and_regressor(data, n, d, seq, layout_t, layout_next, kind):
    # the regressor of the Bellman sample of d - 1 features, Z_t = [F; mu]
    # against Z_next = [G; p . G], whatever the kind of its stage cost
    f = d - 1
    Z_t, G, p = data.draw(stacks(d, n)), data.draw(stacks(f, n)), data.draw(stacks(f, n))
    W = [[1.0] * (d if kind == "cl" else f)] * (d if kind == "cl" else f)

    def regressor(Z, G, p):
        return _SAMPLE[kind, f](Z[:-1], Z[-1], G, p, W, 0.01, 0.01)[0]

    per_tick = [regressor(seq(a), seq(g), seq(pi)) for a, g, pi in zip(Z_t, G, p)]
    for value, a, g, pi in zip(per_tick, Z_t, G, p):
        same_bytes(value, seq_regressor(a, [*g, seq_dot(pi, g)]))
    # against zero features the regressor is the monomials themselves
    same_bytes(regressor(seq(Z_t[0]), [0.0] * f, seq(p[0])), seq_regressor(Z_t[0], [0.0] * d))
    A, B, P = columns(layout_t(Z_t)), columns(layout_next(G)), columns(layout_next(p))
    same_bytes(regressor(A, B, P), seq_regressor(A, [*B, seq_dot(P, B)]))
    same_rows(regressor(A, B, P), per_tick)


@given(st.data(), N_ROWS, SIZES, SEQUENCES, PACES, ALPHAS)
def test_critic_update(data, n, d, seq, sigma, alpha):
    # the learner step's critic piece, on one tick at a time: the step
    # runs on one tick's floats only, so no stack
    theta, z = data.draw(stacks(d, n)), data.draw(stacks(d, n))
    phi = data.draw(stacks(1, n))
    for t, zi, p in zip(theta, z, phi):
        same_bytes(CRITIC[d](seq(t), seq(zi), p[0], sigma, alpha),
                   seq_critic_update(t, zi, p[0], sigma, alpha))


# the actor's rate limits, every one run on each example (a hypothesis
# draw of one missed some): none, the int 0 that actor_rate_limit = 0
# parses to, a float 0.0, finite ones and inf
LIMITS = [None, 0, 0.0, 0.002, 1.0, math.inf]


def bound_limit(limit):
    """The rate limit as the adapting loop binds it: inf for none."""
    return math.inf if limit is None else limit


@given(st.data(), N_ROWS, SIZES, SEQUENCES, PACES, ALPHAS)
def test_actor_update(data, n, d, seq, sigma, alpha):
    pi, F = data.draw(stacks(d, n)), data.draw(stacks(d, n))
    target = data.draw(stacks(1, n))
    for p, f, t in zip(pi, F, target):
        for limit in LIMITS:
            same_bytes(ACTOR[d](seq(p), seq(f), t[0], sigma, alpha, bound_limit(limit)),
                       seq_actor_update(p, f, t[0], sigma, alpha, rate_limit=limit))


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-3, -1e-3, 5.0])
@pytest.mark.parametrize("f", [1.0, -0.0])
def test_actor_clamp_edges(limit, target, f):
    # the clamp by comparisons gives what min(max(...)) gives on a NaN or
    # infinite residual, a zero one and one on either side of the limit
    same_bytes(ACTOR[1]([0.5], [f], target, 0.5, 1.8, bound_limit(limit)),
               seq_actor_update([0.5], [f], target, 0.5, 1.8, rate_limit=limit))


@given(st.data(), SIZES, SEQUENCES)
def test_kernel_converged(data, d, seq):
    # at tol = the distance the test is false and one ulp above it true, so
    # a distance one ulp off the loop's fails on one side; the kernels are
    # given entrywise, each entry its own index
    S_prev, S_next = data.draw(vectors(d)), data.draw(vectors(d))
    distance = seq_distance(S_prev, S_next)
    for tol in (distance, np.nextafter(distance, np.inf)):
        assert CONVERGED[d](seq(S_prev), seq(S_next), tol) is (distance < tol)


def check_policy(S, d, n_features=None, eps_sing=1e-8):
    """policy_from_kernel of the d * d entries S, as a numpy kernel, against
    the reference row, byte for byte."""
    want = seq_policy_row(S, d)
    same_bytes(policy_from_kernel(np.reshape(S, (d, d)), n_features, eps_sing), np.array([want]))


@given(st.data(), st.integers(2, 7))
def test_policy_from_kernel(data, d):
    # kernel entries in row-major order, the control block clear of eps_sing
    S = data.draw(vectors(d * d).filter(lambda S: abs(S[-1]) >= 1e-8))
    check_policy(S, d, n_features=d - 1)
    check_policy(S, d)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_policy_from_kernel_edges(d):
    # signed zeros in the cross block: -(v * (1 / s)) keeps the sign rules
    for s in (2.0, -2.0):
        check_policy([1.0] * (d * d - d) + [(0.0, -0.0)[j % 2] for j in range(d - 1)] + [s], d)
    # |s| == eps_sing gives a gain, one ulp below raises
    for sign in (1.0, -1.0):
        check_policy([1.0] * (d * d - 1) + [sign * 1e-8], d, eps_sing=1e-8)
        below = [1.0] * (d * d - 1) + [sign * np.nextafter(1e-8, 0.0)]
        for S in (tuple(below), np.reshape(below, (d, d))):
            with pytest.raises(SingularKernelError):
                policy_from_kernel(S, eps_sing=1e-8)
    # n_features must leave a 1x1 control block
    for n_features in (d - 2, d):
        for S in (tuple(np.eye(d).ravel().tolist()), np.eye(d)):
            with pytest.raises(ValueError, match="1x1"):
                policy_from_kernel(S, n_features=n_features)


@given(st.data(), N_ROWS, st.sampled_from(["ob", "cl", "mf"]), LAYOUTS, LAYOUTS)
def test_bellman_sample(data, n, s, layout_F, layout_pi):
    # the closed-loop strategy prices [F; mu] with a 4x4 tick form, the
    # error-feature strategies F with Q and mu with R
    cfg = LearningConfig()
    form = data.draw(stacks(4, 4) if s == "cl" else stacks(3, 3))
    F, F_next, pi = data.draw(stacks(3, n)), data.draw(stacks(3, n)), data.draw(stacks(3, n))
    mu = data.draw(stacks(1, n))
    kernel = _SAMPLE[KINDS[s], 3]
    stacked = layout_F(np.hstack([F, F_next, mu]))
    z, phi = kernel(columns(stacked[:, :3]), stacked[:, 6], columns(stacked[:, 3:6]),
                    columns(layout_pi(pi)), form, cfg.delta, cfg.R)
    per_tick = [kernel(F[i], mu[i][0], F_next[i], pi[i], form, cfg.delta, cfg.R) for i in range(n)]
    for i, (zi, p) in enumerate(per_tick):
        want = seq_sample(KINDS[s], F[i], mu[i][0], F_next[i], pi[i], form, cfg.delta, cfg.R)
        same_bytes(zi, want[0])
        same_bytes(p, want[1])
    same_rows(z, [zi for zi, _ in per_tick])
    same_rows(phi, [p for _, p in per_tick])


def default_maps():
    """The per-tick maps run_episode builds for the default config, as lists."""
    c = parse_config("")
    m, h, n = c.model, c.learning.delta / SUBSTEPS, c.model.n
    L = held_input_maps(m.A, m.B, h, SUBSTEPS)
    L_hat = held_input_maps(m.A_hat, m.B_hat, h, SUBSTEPS)
    return tuple(a.tolist() for a in (L[-1, :, :n], L[-1, :, n],
                                      L_hat[-1, :, :n], L_hat[-1, :, n], m.C[0]))


DEFAULT_MAPS = default_maps()
# Phi, Gamma, Phi_hat, Gamma_hat and the output row of a 3-state plant
RANDOM_MAPS = st.tuples(stacks(3, 3), vectors(3), stacks(3, 3), vectors(3), vectors(3))
# per tick: the lifted state (x, xhat, u_ob, u_mf, the ob and mf error
# windows; xhat is the closed-loop strategy's features), the three probes
# and yref
TICK_SIZE = 3 + 3 + 1 + 1 + 2 * 3 + 3 + 1


def tick_inputs(values):
    """The features of each strategy and the z, probe and yref arguments of
    the tick kernel, taken in the order above from one tick's floats or
    from one column per component."""
    values = list(values)
    z, probe, (yref,) = values[:14], values[14:17], values[17:]
    return {"ob": z[8:11], "cl": z[3:6], "mf": z[11:14]}, z, probe, yref


def tick(values, pi, maps):
    """The tick kernel on one tick or a stack: the features of each
    strategy, the probes and the TICK_COLUMNS values, x and xhat as lists
    of components.  The lifted state it returns must hold the state after
    the tick and the error windows shifted by its errors."""
    F, z, probe, yref = tick_inputs(values)
    Phi, Gam, Phi_hat, Gam_hat, C = maps
    flat = ([v for r in Phi for v in r], Gam, [v for r in Phi_hat for v in r], Gam_hat, C)
    z_next, row = _TICK[3](z, [pi[s] for s in STRATEGIES], probe, yref, flat)
    out = (row[:3], row[3:6], *row[6:])
    e_ob, e_mf = out[TICK_COLUMNS.index("e_ob")], out[TICK_COLUMNS.index("e_mf")]
    same_bytes(z_next, [*row[:8], *z[9:11], e_ob, *z[12:14], e_mf])
    return F, probe, out


def check_tick_stack(ticks, layout, pi, maps):
    """The tick kernel on each tick's floats, and on the ticks stacked in
    layout as columns, which must give every row its one-tick value byte
    for byte."""
    per_tick = []
    for values in ticks:
        F, probe, out = tick(values, pi, maps)
        assert len(out) == len(TICK_COLUMNS)
        assert all(type(v) is float for v in [*out[0], *out[1], *out[2:]])
        # the actions are pi . F + probe
        row = dict(zip(TICK_COLUMNS, out))
        mu = [seq_dot(pi[s], F[s]) + p for s, p in zip(STRATEGIES, probe)]
        same_bytes([row["mu_" + s] for s in STRATEGIES], mu)
        # and the rest of the tick follows from them by the index-order sums
        want = seq_tick(values[:3], values[3:6], values[6], values[7], mu, values[-1], maps)
        same_bytes([*out[0], *out[1], *out[2:]], [*want[0], *want[1], *want[2:]])
        per_tick.append(out)
    _, _, stacked = tick(columns(layout(ticks)), pi, maps)
    assert len(stacked) == len(TICK_COLUMNS)
    for j, value in enumerate(stacked):
        value = value if isinstance(value, list) else np.broadcast_to(value, (len(ticks),))
        same_rows(value, [out[j] for out in per_tick])


@given(st.data(), N_ROWS, LAYOUTS, st.one_of(st.just(DEFAULT_MAPS), RANDOM_MAPS))
def test_tick(data, n, layout, maps):
    # every strategy acts on a frozen-tail tick, the only one the tick
    # kernel runs; the warm-up ticks run in the adapting loop
    # (test_warmup_gating)
    pi = {s: data.draw(vectors(3)) for s in STRATEGIES}
    check_tick_stack(data.draw(stacks(TICK_SIZE, n)), layout, pi, maps)


@pytest.mark.parametrize("layout", [c_order, f_order, strided])
def test_tick_on_identity_columns(layout):
    # the frozen tail's stack: the unit ticks, with the default prior gains
    pi = {s: list(getattr(LearningConfig(), f"pi_{s}0")) for s in STRATEGIES}
    check_tick_stack(np.eye(TICK_SIZE).tolist(), layout, pi, DEFAULT_MAPS)


# the inputs of one step are drawn from FLOATS, or all of them of the size
# of an episode's values, with nine significant digits: those round in
# every sum (a sum taken in another order would differ), and leave the
# kernel's control block clear of eps_sing and the actor's residual finite
# more often
STEP_VALUES = st.sampled_from([FLOATS, st.integers(-10**9, 10**9).map(lambda i: i / 1e8)])


def step_source(key):
    """The learner step the adapting loop inlines (learner._learner_step),
    compiled on its own for n features and the stage-cost kind ("cl" or
    "err") of key = (n, kind), with its freeze on the locals count,
    adapting and t_conv: kernel(theta, p, F, G, mu, W, cfg, t, count), t
    the time at the start of the tick and count the settled-step count
    before the step, returns the new theta, the new gain (pi itself for a
    singular kernel), the count after the step, the adapting flag and the
    freeze time (True and None unless the step froze the strategy) and
    whether the rate limit clamped the actor residual."""
    n, kind = key
    m, w = (n + 1) * (n + 2) // 2, n + 1 if kind == "cl" else n
    theta, p, th = _names("theta", m), _names("p", n), _names("th", m)
    freeze = "count, adapting, t_conv"
    lines = [*_CONFIG_LINES, _unpack("theta", m), _unpack("p", n), _unpack("F", n),
             _unpack("G", n), _unpack_rows("W", w), "adapting, t_conv = True, None",
             *_learner_step(kind, theta, p, _names("F", n), _names("G", n), "mu", "W",
                            freeze.split(", "),
                            [f"return [{', '.join(th)}], p, {freeze}, False"], [])]
    return _kernel_source("theta, p, F, G, mu, W, cfg, t, count", lines,
                          f"[{', '.join(th)}], [{', '.join(p)}], {freeze}, clamped")


STEP = learner._Kernels(step_source)


@given(st.data(), st.integers(1, 6), st.sampled_from(["cl", "err"]),
       st.sampled_from([1e-8, 1.0, 1e300]), st.sampled_from([1e-4, 1e300, 0.0, -1.0, None]),
       st.sampled_from([0.0, 0.99, 1.0, 7.5]), st.sampled_from([0, 48, 49]),
       PACES, ALPHAS, PACES, ALPHAS)
def test_fused_learner_step(data, n, kind, eps_sing, tol_conv, t, count, sigma_c, alpha_c,
                            sigma_a, alpha_a):
    # the learner step of a strategy with n features, the piece the
    # adapting loop inlines, gives what the chain of sequential references
    # gives, byte for byte: the Bellman sample, the critic step, the
    # convergence test of the new kernel against the kernel of theta (read
    # through the theta layout), the greedy gain (a singular kernel keeps
    # the gain, which eps_sing = 1e300 makes of nearly every kernel, and 1.0
    # of many) and the actor step, under each of the LIMITS.  The inputs
    # are STEP_VALUES, and in a quarter of the examples one of them is NaN.
    # tol_conv = None stands for the chain's own kernel distance, where a
    # step that summed the squared differences in another order, or each
    # symmetric one once, would settle.  The test and the freeze run only
    # from conv_check_start (1.0) on, and never under tol_conv <= 0: there
    # a settled step adds one to the settled-step count and any other
    # resets it, and the count reaching conv_window (50) freezes the
    # strategy at t + delta; elsewhere the count is left as it was.  Each
    # limit is set after validation, which rejects inf, the limit the loop
    # binds for a null one
    cfg = LearningConfig(sigma_c=sigma_c, alpha_c=alpha_c, sigma_a=sigma_a, alpha_a=alpha_a,
                         eps_sing=eps_sing, tol_conv=1e-4)
    d = n + 1
    m, w = d * (d + 1) // 2, d if kind == "cl" else n
    size = m + 3 * n + 1 + w * w
    values = data.draw(st.lists(data.draw(STEP_VALUES), min_size=size, max_size=size))
    if data.draw(st.integers(0, 3)) == 0:
        values[data.draw(st.integers(0, size - 1))] = math.nan
    theta, pi, F, F_next = (values[:m], values[m:m + n], values[m + n:m + 2 * n],
                            values[m + 2 * n:m + 3 * n])
    mu, flat = values[m + 3 * n], values[m + 3 * n + 1:]
    form = [flat[i * w:(i + 1) * w] for i in range(w)]
    z_tilde, phi = seq_sample(kind, F, mu, F_next, pi, form, cfg.delta, cfg.R)
    want_theta = seq_critic_update(theta, z_tilde, phi, sigma_c, alpha_c)
    want_S = theta_to_S(want_theta)
    distance = seq_distance(theta_to_S(theta), want_S)
    if tol_conv is None:
        tol_conv = distance if math.isfinite(distance) else 1e-4
    cfg.tol_conv = tol_conv
    tested = t >= cfg.conv_check_start and tol_conv > 0
    want_count = (count + 1 if distance < tol_conv else 0) if tested else count
    want_freeze = (False, t + cfg.delta) if want_count >= cfg.conv_window else (True, None)
    for limit in LIMITS:
        cfg.actor_rate_limit = limit
        got_theta, got_pi, got_count, *got_freeze, clamped = STEP[n, kind](
            theta, pi, F, F_next, mu, form, cfg, t, count)
        if abs(want_S[-1]) < eps_sing:
            assert got_pi is pi and clamped is False
        else:
            target = seq_dot(seq_policy_row(want_S, n + 1), F)
            same_bytes(got_pi, seq_actor_update(pi, F, target, sigma_a, alpha_a, rate_limit=limit))
            # a clamp moves the residual, which a NaN residual is not
            assert clamped is (limit is not None and abs(seq_dot(pi, F) - target) > limit)
        same_bytes(got_theta, want_theta)
        assert got_count == want_count and tuple(got_freeze) == want_freeze


def kernel_keys(n):
    """{(module, name): keys}: the keys of every generated kernel of vector,
    feature or plant size n (policy_from_kernel's of an n x n kernel)."""
    keys = {(learner, "_DOT"): [n], (learner, "_SAMPLE"): [("cl", n), ("err", n)],
            (learner, "_POLICY_FROM_KERNEL"): [n * n]}
    for name in ("_TICK", "_ADAPT"):
        keys[control_loop, name] = [n]
    return keys


def test_generated_kernels_never_call_sum():
    # from Python 3.12 on the builtin sum() of floats is compensated, so a
    # generated formula that called it would round differently there; every
    # sum is an index-order + chain.  The listed kernels are all that the
    # two modules define
    generated = {(module, name) for module in (learner, control_loop)
                 for name, value in vars(module).items()
                 if isinstance(value, learner._Kernels)
                 and value.source.__module__ == module.__name__}
    for n in range(1, 7):
        keys = kernel_keys(n)
        assert set(keys) == generated
        for (module, name), ks in keys.items():
            for key in ks:
                tree = ast.parse(getattr(module, name).source(key))
                names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                assert "sum" not in names, (name, key)
