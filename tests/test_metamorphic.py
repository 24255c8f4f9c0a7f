"""Exact metamorphic relations of the episode (Chen, Cheung & Yiu 1998).

The system is linear-quadratic, and multiplying by a power of two is exact
in IEEE arithmetic, so these relations between two episodes hold bit for
bit and need no tolerance:

- cost scaling: scaling Q, R, kernel_beta, kernel_smax and tol_conv by c
  leaves the trajectory, the gains and the freeze times unchanged and
  scales every kernel by c;
- linearity with learning off (every strategy frozen from the start):
  doubling the reference and the probe doubles every signal.
"""

import dataclasses
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from modelfollow.cli_io import load_config
from modelfollow.control_loop import STRATEGIES, run_episode
from conftest import frozen_initial

CORPUS = Path(__file__).parent / "corpus"
# init = identity starts every kernel at S = I, which does not scale with c
SCALABLE = sorted(p.name for p in CORPUS.glob("*.ini") if p.name != "init_identity.ini")


@lru_cache(maxsize=None)
def _episode(name):
    config = load_config(CORPUS / name)
    return config, run_episode(config.model, config.reference, config.learning,
                               horizon=config.horizon)


@pytest.mark.parametrize("c", [0.25, 2.0])
@pytest.mark.parametrize("name", SCALABLE)
def test_cost_scaling_is_exact(name, c):
    config, log = _episode(name)
    lc = config.learning
    scaled = dataclasses.replace(
        lc, Q=c * lc.Q, R=c * lc.R, kernel_beta=c * lc.kernel_beta,
        kernel_smax=c * lc.kernel_smax, tol_conv=c * lc.tol_conv)
    got = run_episode(config.model, config.reference, scaled, horizon=config.horizon)
    assert np.array_equal(got.x, log.x)
    assert got.diverged == log.diverged
    assert got.t_converged == log.t_converged
    for s in STRATEGIES:
        assert np.array_equal(got.pi_hist[s], log.pi_hist[s]), s
        assert np.array_equal(got.theta_hist[s], c * log.theta_hist[s]), s


def _doubled(ref):
    if ref.kind == "sinusoid":
        params = dict(ref.params, amplitude=2 * ref.params["amplitude"],
                      offset=2 * ref.params["offset"])
    else:
        params = dict(ref.params, values=[2 * v for v in ref.params["values"]])
    return dataclasses.replace(ref, params=params)


@pytest.mark.parametrize("name", ["sinusoid.ini", "table.ini"])
def test_linearity_with_learning_off(name):
    config = load_config(CORPUS / name)
    lc = config.learning
    log = run_episode(config.model, config.reference, lc, horizon=config.horizon,
                      initial=frozen_initial(config.model, lc))
    got = run_episode(config.model, _doubled(config.reference),
                      dataclasses.replace(lc, probe_amplitude=2 * lc.probe_amplitude),
                      horizon=config.horizon, initial=frozen_initial(config.model, lc))
    for signal in ("yref", "x", "xhat", "u_total", "e_ob", "e_mf", "u_ob", "u_mf"):
        assert np.array_equal(getattr(got, signal), 2 * getattr(log, signal)), signal
