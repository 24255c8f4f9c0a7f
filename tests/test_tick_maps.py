"""Exact per-tick maps of the held-input RK4 substeps and the closed-loop
stage-cost form, checked against explicit substepping, a recorded episode
and the independent exponential oracle."""

import numpy as np

from modelfollow import oracle
from modelfollow.cli_io import parse_config
from modelfollow.control_loop import SUBSTEPS, run_episode, tick_cost_form
from modelfollow.dynamics import held_input_maps, rk4_step
from modelfollow.learner import utility

DELTA = 0.01


def rel_err(a, b):
    """Max-abs error normalised by the max-abs reference value."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def systems(model):
    return {"plant": (model.A, model.B), "model": (model.A_hat, model.B_hat)}


def test_maps_match_explicit_substeps(model, default_config):
    rng = np.random.default_rng(7)
    h = DELTA / SUBSTEPS
    Q, R = default_config.learning.Q, default_config.learning.R
    for A, B in systems(model).values():
        L = held_input_maps(A, B, h, SUBSTEPS)
        assert L.shape == (SUBSTEPS + 1, 3, 4)
        W = tick_cost_form(L, Q, R, h)
        for _ in range(10):
            x0, u = rng.normal(size=3), rng.normal()
            z = np.append(x0, u)
            # the substep loop the maps replace
            x, phi = x0, 0.0
            u_prev = utility(x, u, Q, R)
            for j in range(SUBSTEPS):
                x = rk4_step(A, B, x, np.array([u]), h)
                assert rel_err(L[j + 1] @ z, x) <= 1e-12
                u_new = utility(x, u, Q, R)
                phi += 0.5 * h * (u_prev + u_new)
                u_prev = u_new
            Phi, Gam = L[-1, :, :3], L[-1, :, 3]
            assert rel_err(Phi @ x0 + Gam * u, x) <= 1e-12
            assert rel_err(z @ W @ z, phi) <= 1e-12


# Final state and learner values of the default 20 s episode, recorded with
# the explicit RK4 substep loop at 17 significant digits.
GOLDEN = {
    "x": [27.708881625830028, 0.9405584261633615, 0.4698175313775612],
    "xhat": [31.61943353593824, 0.9399604964470339, 0.4598388483736592],
    "pi": {
        "ob": [5.000985494369715, -29.999676764137796, 25.99964124625681],
        "cl": [-3.588625757309611, -0.2654817589074818, 0.2777365527960324],
        "mf": [20.001541606358394, -119.99967857228272, 103.99915251894073],
    },
    "theta": {
        "ob": [0.2999632053772013, -7.624218045851215e-05, -7.668486194207837e-05,
               -0.00022509133556901617, 0.299961181772317, -7.676109800168144e-05,
               0.0005020198438454362, 0.2999627175841436, -0.000587411682017564,
               0.00028548943335200054],
        "cl": [0.15749966352246966, 0.021689998380937242, 0.026860297673636183,
               0.0002551274975160594, 0.007509345558894821, 0.007567823976983932,
               7.15305833309762e-05, 0.02154311686421482, 0.00021988523349869934,
               0.00010198986091658499],
        "mf": [0.293171510594251, -0.013460630050136986, -0.01288712416514543,
               0.0017282963875213627, 0.2933863202885125, -0.01264473937596617,
               0.003597735575721214, 0.2939600126316585, 0.0024806764470309915,
               0.001104115756012617],
    },
}


def test_episode_matches_substep_golden(episode):
    assert rel_err(episode.x[-1], GOLDEN["x"]) <= 1e-12
    assert rel_err(episode.xhat[-1], GOLDEN["xhat"]) <= 1e-12
    for s in ("ob", "cl", "mf"):
        assert rel_err(episode.pi_final[s], GOLDEN["pi"][s]) <= 1e-12
        assert rel_err(episode.theta_final[s], GOLDEN["theta"][s]) <= 1e-12


# Final learner values of a 20 s default episode with tol_conv = 0, so that
# no strategy freezes and all 5996 strategy-ticks run a critic and actor
# step; recorded with the general det/solve greedy gain, matrix norms and
# 2-D actor arithmetic, at 17 significant digits.
ADAPT_GOLDEN = {
    "pi": {
        "ob": [5.013849721048596, -29.989579475947814, 26.006753831958097],
        "cl": [-3.470737938501309, -0.2442364616335851, 0.28833417521482696],
        "mf": [19.9957793974195, -120.00998735534836, 103.98379487485083],
    },
    "theta": {
        "ob": [0.2998395141929798, -0.0003318457490885438, -0.000333803146766103,
               -0.000781754862751218, 0.29983204217943066, -0.0003309468686022889,
               6.716354100555728e-05, 0.29984036968418704, -0.000894151347554762,
               0.0012460530437720212],
        "cl": [0.15749966756601097, 0.02169000355275274, 0.026860172353291217,
               0.000254858185975455, 0.007509346595690286, 0.00756781321856521,
               7.147460469225246e-05, 0.021543112904031055, 0.0002201858888522193,
               0.00010363296836851243],
        "mf": [0.29320228180008784, -0.013423468813347338, -0.01287680374955755,
               -0.0004435519943068996, 0.29339219286215595, -0.012660377620130546,
               0.0012845473899454252, 0.2939393238025526, 0.00023603489015931427,
               0.0013249469625751227],
    },
}


def test_adapting_episode_matches_learner_golden():
    c = parse_config("[learning]\ntol_conv = 0\n")
    log = run_episode(c.model, c.reference, c.learning, horizon=20.0)
    assert log.diverged is None
    assert all(t is None for t in log.t_converged.values())
    for s in ("ob", "cl", "mf"):
        assert rel_err(log.pi_final[s], ADAPT_GOLDEN["pi"][s]) <= 1e-12
        assert rel_err(log.theta_final[s], ADAPT_GOLDEN["theta"][s]) <= 1e-12


def test_maps_against_exponential_oracle(model, default_config):
    h = DELTA / SUBSTEPS
    Q, R = default_config.learning.Q, default_config.learning.R
    for A, B in systems(model).values():
        L = held_input_maps(A, B, h, SUBSTEPS)
        A_d, B_d = oracle.zoh_discretize(A, B, DELTA)
        assert rel_err(L[-1, :, :3], A_d) <= 1e-9
        assert rel_err(L[-1, :, 3:], B_d) <= 1e-9
        # the trapezoid on the substep grid is the only approximation left
        G = oracle.integrated_stage_cost(A, B, Q, R, DELTA)
        assert rel_err(tick_cost_form(L, Q, R, h), G) <= 1e-4
