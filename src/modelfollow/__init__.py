"""Observer-based online learning control for model-following problems.

The package simulates a linear plant alongside a desired (observed) model,
and adapts three linear feedback strategies online -- an observer strategy,
a closed-loop strategy, and a model-following strategy -- using quadratic
value kernels, integral Bellman residuals, and normalized-projection
critic/actor updates.  An independent Riccati/least-squares oracle provides
ground truth for validation.
"""

from modelfollow.dynamics import ProcessModel, eigenvalues
from modelfollow.reference import ReferenceSpec, eval_reference
from modelfollow.learner import LearningConfig
from modelfollow.control_loop import EpisodeLog, run_episode

__version__ = "0.1.0"
