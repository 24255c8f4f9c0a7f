import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, settings

from modelfollow.cli_io import parse_config
from modelfollow.control_loop import initial_strategies, run_episode

# every run draws the same examples, locally and in CI, and writes no
# example database; no deadline, since a shared runner's timing varies.  A
# failing example is reported as drawn, not shrunk: shrinking one that
# breaks a learner kernel took minutes
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None,
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("derandomized")


def frozen_initial(model, cfg):
    """Learning off: the initial strategies of model and cfg, each frozen,
    so that their prior gains act as fixed controllers for the whole
    episode (run_episode(..., initial=frozen_initial(model, cfg)))."""
    return {s: dataclasses.replace(st, frozen=True)
            for s, st in initial_strategies(model, cfg).items()}


@pytest.fixture(scope="session")
def default_config():
    return parse_config("")


@pytest.fixture(scope="session")
def model(default_config):
    return default_config.model


@pytest.fixture(scope="session")
def episode(default_config):
    """One full 20 s learning episode with all defaults, shared read-only."""
    cfg = default_config
    return run_episode(cfg.model, cfg.reference, cfg.learning, horizon=20.0)
