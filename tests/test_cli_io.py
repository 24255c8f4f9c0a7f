import dataclasses
import json
import math
import struct
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from modelfollow import cli_io, oracle
from modelfollow.cli_io import (
    ConfigError, KEYS, RunConfig, parse_config, main,
    write_trajectory_csv, build_summary,
)
from modelfollow.control_loop import STRATEGIES, TRAJECTORY, run_episode
from modelfollow.dynamics import ProcessModel
from modelfollow.learner import LearningConfig
from modelfollow.reference import ReferenceSpec
from conftest import frozen_initial


def test_defaults_from_empty_config():
    cfg = parse_config("")
    assert cfg.learning.sigma_c == 0.5
    assert cfg.learning.alpha_c == 1.8
    assert cfg.learning.delta == 0.01
    assert cfg.learning.R == 0.01
    assert np.allclose(cfg.learning.Q, 0.05 * np.eye(3))
    assert cfg.horizon == 20.0
    assert cfg.reference.kind == "piecewise"


def _plain(obj):
    """Nested field values of a dataclass, arrays as (dtype, shape, values)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tolist())
    return obj


def test_empty_config_is_dataclass_defaults():
    defaults = RunConfig(
        model=ProcessModel(), reference=ReferenceSpec(), learning=LearningConfig())
    assert _plain(parse_config("")) == _plain(defaults)


def test_accepted_keys():
    assert {s: set(keys) for s, keys in KEYS.items()} == {
        "model": {"a", "b", "c", "a_hat", "b_hat"},
        "reference": {"kind", "params"},
        "learning": {"q", "r", "delta", "sigma_c", "alpha_c", "sigma_a",
                     "alpha_a", "eps_sing", "tol_conv", "probe_amplitude",
                     "probe_frequencies", "t_probe", "actor_rate_limit",
                     "conv_window", "conv_check_start", "init", "pi_cl0",
                     "pi_ob0", "pi_mf0", "kernel_beta", "kernel_smax"},
        "run": {"horizon", "trajectory_csv", "weights_csv", "summary_json"},
    }
    assert sum(len(keys) for keys in KEYS.values()) == 32


def test_every_key_reaches_its_field():
    text = """
[model]
a = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]]
b = [0.0, 0.0, 2.0]
c = [[1.0, 0.0, 0.0]]
a_hat = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-2.0, -1.0, -1.0]]
b_hat = [0.0, 0.0, 3.0]
[reference]
kind = sinusoid
params = {"amplitude": 0.3}
[learning]
q = 0.07
r = 0.03
delta = 0.02
sigma_c = 0.6
alpha_c = 1.7
sigma_a = 0.4
alpha_a = 1.6
eps_sing = 1e-9
tol_conv = 2e-4
probe_amplitude = 0.2
probe_frequencies = [6.0, 8.0]
t_probe = 4.0
actor_rate_limit = 0.003
conv_window = 40
conv_check_start = 2.0
init = identity
pi_cl0 = [-1.0, -2.0, -3.0]
pi_ob0 = [1.0, 2.0, 3.0]
pi_mf0 = [4.0, 5.0, 6.0]
kernel_beta = 0.2
kernel_smax = 3e-5
[run]
horizon = 3.5
trajectory_csv = traj.csv
weights_csv = w.csv
summary_json = s.json
"""
    cfg = parse_config(text)
    m, lc = cfg.model, cfg.learning
    assert m.A[2, 0] == -1.0 and m.B[2, 0] == 2.0 and m.C[0, 0] == 1.0
    assert m.A_hat[2, 0] == -2.0 and m.B_hat[2, 0] == 3.0
    assert cfg.reference.kind == "sinusoid"
    assert cfg.reference.params == {"amplitude": 0.3}
    assert np.array_equal(lc.Q, 0.07 * np.eye(3)) and lc.R == 0.03
    assert (lc.delta, lc.sigma_c, lc.alpha_c, lc.sigma_a, lc.alpha_a) == (
        0.02, 0.6, 1.7, 0.4, 1.6)
    assert (lc.eps_sing, lc.tol_conv) == (1e-9, 2e-4)
    assert (lc.probe_amplitude, lc.probe_frequencies, lc.t_probe) == (
        0.2, (6.0, 8.0), 4.0)
    assert lc.actor_rate_limit == 0.003
    assert (lc.conv_window, lc.conv_check_start, lc.init) == (40, 2.0, "identity")
    assert (lc.pi_cl0, lc.pi_ob0, lc.pi_mf0) == (
        (-1.0, -2.0, -3.0), (1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
    assert (lc.kernel_beta, lc.kernel_smax) == (0.2, 3e-5)
    assert (cfg.horizon, cfg.trajectory_csv, cfg.weights_csv, cfg.summary_json) == (
        3.5, "traj.csv", "w.csv", "s.json")


@pytest.mark.parametrize("text, match", [
    # misspelled keys and sections
    ("[learning]\nsigmac = 0.7\n", r"\[learning\] unknown key 'sigmac'"),
    ("[run]\nhorizn = 5\n", r"\[run\] unknown key 'horizn'"),
    ("[learnin]\nsigma_c = 0.7\n", r"unknown section \[learnin\]"),
    ("[DEFAULT]\nsigma_c = 0.7\n[learning]\n", r"unknown section \[DEFAULT\]"),
    # dataclass fields that are not config keys
    ("[learning]\nphases = 1\n", r"\[learning\] unknown key 'phases'"),
    ("[reference]\nq = 2\n", r"\[reference\] unknown key 'q'"),
    # a removed key
    ("[learning]\nactor_gain_guard = 1e4\n", r"\[learning\] unknown key 'actor_gain_guard'"),
    # a q that is not a square matrix, caught before the semidefinite test
    # (which would misreport a row and fail to broadcast a tall matrix) and
    # before the 3x3 check (which reads only its first two dimensions)
    ("[learning]\nq = [[1, 2, 3]]\n", r"\[learning\] Q must be a square matrix, not shape \(1, 3\)"),
    ("[learning]\nq = [[1, 0], [0, 1], [0, 0]]\n",
     r"\[learning\] Q must be a square matrix, not shape \(3, 2\)"),
    ("[learning]\nq = [[[1, 1], [1, 1]], [[1, 1], [1, 1]]]\n",
     r"\[learning\] Q must be a square matrix, not shape \(2, 2, 2\)"),
    ("[learning]\nq = [[[1.0]]]\n", r"\[learning\] Q must be a square matrix, not shape \(1, 1, 1\)"),
])
def test_unknown_section_or_key_rejected(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


@pytest.mark.parametrize("section, line", [
    ("run", "horizon = null"),
    ("run", "horizon = [1]"),
    ("run", "horizon = true"),
    ("learning", 'delta = "x"'),
    ("learning", 'sigma_c = "0.5"'),
    ("learning", "probe_frequencies = 5"),
    ("learning", "r = [[0.01]]"),
    ("learning", 'probe_amplitude = "x"'),
    ("learning", "t_probe = null"),
    ("learning", 'tol_conv = "x"'),
    ("learning", "pi_cl0 = [1, 2]"),
    ("learning", "q = [[1.0, 0.0], [0.0, 1.0]]"),
    ("learning", 'actor_rate_limit = "x"'),
    ("learning", "actor_rate_limit = true"),
    ("learning", "actor_rate_limit = -1"),
    # a zero control block must always give a singular-kernel skip
    ("learning", "eps_sing = 0"),
    ("learning", "eps_sing = -1e-8"),
    ("reference", "params = 5"),
    # every parameter that the reference kind reads is checked
    ("reference", 'kind = sinusoid\nparams = {"amplitude": "x"}'),
    ("reference", 'kind = sinusoid\nparams = {"phase": true}'),
    ("reference", 'kind = sinusoid\nparams = {"frequency": Infinity}'),
    ("reference", 'kind = constant\nparams = {"value": NaN}'),
    ("reference", 'kind = constant\nparams = {"value": null}'),
    ("reference", 'kind = table\nparams = {"times": [0.0, 1.0, 2.0], "values": [1.0, 2.0]}'),
    ("reference", 'kind = table\nparams = {"times": [0.0, 1.0]}'),
    ("reference", 'kind = table\nparams = {"times": [0.0, 1.0], "values": [1.0, NaN]}'),
    ("reference", 'kind = table\nparams = {"times": [0.0, NaN], "values": [1.0, 2.0]}'),
    ("reference", 'kind = table\nparams = {"times": 0.0, "values": [1.0]}'),
    # non-finite numbers and a non-integral int field
    ("learning", "delta = NaN"),
    ("learning", "alpha_c = Infinity"),
    ("learning", "tol_conv = NaN"),
    ("learning", "r = NaN"),
    ("learning", "pi_cl0 = [NaN, 0, 1]"),
    ("learning", "probe_frequencies = [Infinity]"),
    # each strategy has one probe phase per frequency, three in all
    ("learning", "probe_frequencies = [7.0, 9.899, 15.652, 123.0]"),
    ("learning", "q = [[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]"),
    ("learning", "conv_window = 1.5"),
    # a window below one freezes every strategy on its first check
    ("learning", "conv_window = 0"),
    ("learning", "conv_window = -3"),
    # the initial ob/mf kernels must be positive definite
    ("learning", "kernel_beta = 0"),
    ("learning", "kernel_beta = -1"),
    ("learning", "kernel_smax = 0"),
    ("learning", "kernel_smax = -2e-5"),
    ("run", "horizon = NaN"),
    ("run", "horizon = Infinity"),
    # each artifact needs a file of its own
    ("run", "weights_csv = trajectory.csv"),
    ("run", "summary_json = ./weights.csv"),
    ("run", "summary_json ="),
    ("model", "b = [0.0, 0.0, NaN]"),
])
def test_wrong_typed_value_rejected(section, line):
    with pytest.raises(ConfigError, match=rf"\[{section}\]"):
        parse_config(f"[{section}]\n{line}\n")


def test_reference_keys_not_read_are_ignored():
    ref = parse_config('[reference]\nkind = constant\nparams = {"amplitude": "x"}\n').reference
    assert ref.params == {"amplitude": "x"}


def test_integral_float_accepted_for_int_field():
    assert parse_config("[learning]\nconv_window = 40.0\n").learning.conv_window == 40


# a 2-input and a 2-output plant; the learners are single-input single-output
MIMO_MODELS = [
    "[model]\nb = [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]\n"
    "b_hat = [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]\n"
    "[learning]\npi_cl0 = [-3.5711, -0.2329, 0.2986]\n",
    "[model]\nc = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]\n",
]


@pytest.mark.parametrize("text", MIMO_MODELS, ids=["two_inputs", "two_outputs"])
def test_mimo_model_rejected(tmp_path, capsys, text):
    with pytest.raises(ConfigError, match=r"\[model\] single-input single-output plants only"):
        parse_config(text)
    config = tmp_path / "mimo.ini"
    config.write_text(text)
    for argv in (["run", str(config), "--outdir", str(tmp_path)],
                 ["oracle-check", str(config)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "single-input" in err


# a 2-state and a 4-state plant; the one q must be n x n for cl and
# STACK_DEPTH x STACK_DEPTH for ob and mf
STATE_COUNT_MODELS = [
    "[model]\na = [[0.0, 1.0], [-2.0, -3.0]]\nb = [0.0, 1.0]\nc = [[1.0, 0.0]]\n"
    "a_hat = [[0.0, 1.0], [-2.0, -3.0]]\nb_hat = [0.0, 1.0]\n"
    "[learning]\npi_cl0 = [-1.0, -1.0]\n",
    "[model]\na = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -4, -6, -4]]\n"
    "b = [0, 0, 0, 1]\nc = [[1, 0, 0, 0]]\n"
    "a_hat = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -4, -6, -4]]\n"
    "b_hat = [0, 0, 0, 1]\n"
    "[learning]\npi_cl0 = [-1, -1, -1, -1]\nq = %s\n" % (0.05 * np.eye(4)).tolist(),
]


@pytest.mark.parametrize("text, match", zip(STATE_COUNT_MODELS, [
    r"\[learning\] q is 3x3, but the one q must be 2x2 for cl .* and 3x3 for ob and mf",
    r"\[learning\] q is 4x4, but the one q must be 4x4 for cl .* and 3x3 for ob and mf",
]), ids=["two_states", "four_states"])
def test_plant_without_three_states_rejected(tmp_path, capsys, text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)
    config = tmp_path / "states.ini"
    config.write_text(text)
    for argv in (["run", str(config), "--outdir", str(tmp_path)],
                 ["oracle-check", str(config)], ["eig", str(config)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [learning] q is"), err


# a prior gain of the wrong length and a q of the wrong shape on the
# benchmark plant: as a [learning] line, the LearningConfig it builds, and
# the parser's text for it
CROSS_SECTION_FAULTS = [
    ("pi_cl0 = [1.0, 2.0]", {"pi_cl0": (1.0, 2.0)},
     "[learning] pi_cl0 must be a list of 3 numbers"),
    ("pi_ob0 = [1.0, 2.0, 3.0, 4.0]", {"pi_ob0": (1.0, 2.0, 3.0, 4.0)},
     "[learning] pi_ob0 must be a list of 3 numbers"),
    ("q = [[1.0, 0.0], [0.0, 1.0]]", {"Q": np.eye(2)},
     "[learning] q is 2x2, but the one q must be 3x3 for cl (3 plant states) and "
     "3x3 for ob and mf (3 stacked errors)"),
]


@pytest.mark.parametrize("line, kwargs, message", CROSS_SECTION_FAULTS,
                         ids=["pi_cl0", "pi_ob0", "q"])
def test_python_built_config_is_checked_as_parsed(line, kwargs, message):
    # RunConfig owns the rules across sections, so a config built in
    # Python is rejected with the parser's text, not deep in the episode
    with pytest.raises(ConfigError) as parsed:
        parse_config(f"[learning]\n{line}\n")
    with pytest.raises(ConfigError) as built:
        RunConfig(model=ProcessModel(), reference=ReferenceSpec(),
                  learning=LearningConfig(**kwargs))
    assert str(built.value) == str(parsed.value) == message


def test_byte_order_mark_is_not_part_of_the_document(tmp_path):
    # editors that save UTF-8 with a byte-order mark write the same config
    plain = Path(__file__).parent / "corpus" / "default.ini"
    bom = tmp_path / "bom.ini"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for name, config in (("plain", plain), ("bom", bom)):
        assert main(["run", str(config), "--outdir", str(tmp_path / name)]) == 0
    for artifact in ("trajectory.csv", "weights.csv", "summary.json"):
        assert (tmp_path / "bom" / artifact).read_bytes() == \
            (tmp_path / "plain" / artifact).read_bytes(), artifact


def test_percent_taken_verbatim():
    assert parse_config("[run]\ntrajectory_csv = a%b.csv\n").trajectory_csv == "a%b.csv"


def test_sigma_bound_rejected():
    with pytest.raises(ConfigError, match="0 < sigma_c < 2"):
        parse_config("[learning]\nsigma_c = 2.5\n")


def test_zero_delta_rejected():
    with pytest.raises(ConfigError, match="delta"):
        parse_config("[learning]\ndelta = 0\n")


def test_bad_json_value_rejected():
    with pytest.raises(ConfigError, match="sigma_c"):
        parse_config("[learning]\nsigma_c = lots\n")


def test_custom_model_roundtrip():
    # plants have 3 states (test_plant_without_three_states_rejected)
    text = """
[model]
a = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -3.0, -3.0]]
b = [0.0, 0.0, 1.0]
c = [[1.0, 0.0, 0.0]]
a_hat = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -3.0, -3.0]]
b_hat = [0.0, 0.0, 1.0]
[learning]
pi_cl0 = [-1.0, -1.0, -1.0]
"""
    cfg = parse_config(text)
    assert cfg.model.n == 3
    assert cfg.model.A[0, 1] == 1.0 and cfg.model.A[2, 1] == -3.0
    log = run_episode(cfg.model, cfg.reference, cfg.learning, horizon=0.5)
    assert log.diverged is None and log.x.shape == (51, 3)


@pytest.mark.parametrize("keys", [("b",), ("b_hat",), ("b", "b_hat")])
def test_column_input_map_is_the_vector(tmp_path, keys):
    # ProcessModel is the one place a config's b or b_hat becomes a single
    # column: a vector and a one-column matrix parse to equal (3, 1) arrays
    # and run the same episode, byte for byte
    default = ProcessModel()
    vectors = {"b": default.B[:, 0].tolist(), "b_hat": default.B_hat[:, 0].tolist()}
    texts = {"vector": "[model]\n" + "".join(f"{key} = {vectors[key]}\n" for key in keys),
             "column": "[model]\n" + "".join(f"{key} = {[[v] for v in vectors[key]]}\n"
                                             for key in keys)}
    models = {}
    for name, text in texts.items():
        models[name] = parse_config(text).model
        (tmp_path / f"{name}.ini").write_text(text)
        assert main(["run", str(tmp_path / f"{name}.ini"), "--outdir", str(tmp_path / name)]) == 0
    for field in ("B", "B_hat"):
        vector, column = (getattr(models[name], field) for name in texts)
        assert vector.shape == column.shape == (3, 1) and np.array_equal(vector, column)
    for artifact in ("trajectory.csv", "weights.csv", "summary.json"):
        vector, column = ((tmp_path / name / artifact).read_bytes() for name in texts)
        assert vector == column, artifact


def test_run_command_artifacts(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\nhorizon = 2.0\n")
    rc = main(["run", str(config), "--outdir", str(tmp_path)])
    assert rc == 0

    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj[0] == ("t,x1,x2,x3,xhat1,xhat2,xhat3,y,yhat,yref,"
                       "e_ob,e_mf,u_total,mu_cl,u_ob,u_mf")
    assert len(traj) == 1 + int(round(2.0 / 0.01)) + 1  # header + rows

    weights = (tmp_path / "weights.csv").read_text().splitlines()
    assert len(weights) == len(traj)
    assert weights[0].startswith("t,ob_theta_0")

    summary = json.loads((tmp_path / "summary.json").read_text())
    for key in ("open_loop_eigenvalues", "closed_loop_eigenvalues",
                "pi_cl", "pi_ob", "pi_mf", "terminal_e_mf",
                "convergence_time_s"):
        assert key in summary
    ol = sorted(ev[0] for ev in summary["open_loop_eigenvalues"])
    assert abs(ol[0] + 5.0) < 1e-3 and abs(ol[-1]) < 1e-9


TIMING_KEYS = ["compile_ms", "adapt_ms", "tail_ms", "bellman_ms",
               "trajectory_csv_ms", "weights_csv_ms", "summary_json_ms"]


@pytest.mark.parametrize("text, tail", [("", True), ("[learning]\ntol_conv = 0\n", False)])
def test_run_timings(tmp_path, text, tail):
    # --timings adds the wall milliseconds of each layer to summary.json and
    # changes no other byte; run never reads the regressors, so the Bellman
    # rebuild is null, and with the freeze off no tail runs
    config = tmp_path / "run.ini"
    config.write_text("[run]\nhorizon = 2.0\n" + text)
    assert main(["run", str(config), "--outdir", str(tmp_path / "plain")]) == 0
    assert main(["run", str(config), "--outdir", str(tmp_path / "timed"), "--timings"]) == 0
    for name in ("trajectory.csv", "weights.csv"):
        assert (tmp_path / "timed" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    summary = json.loads((tmp_path / "timed" / "summary.json").read_text())
    timings = summary.pop("timings")
    assert summary == json.loads((tmp_path / "plain" / "summary.json").read_text())
    assert list(timings) == TIMING_KEYS
    assert timings["bellman_ms"] is None
    assert all(type(v) is float and math.isfinite(v) and v >= 0
               for k, v in timings.items() if k != "bellman_ms")
    assert (timings["tail_ms"] > 0) == tail


def test_bellman_rebuild_is_timed_on_first_read(default_config):
    c = default_config
    log = run_episode(c.model, c.reference, c.learning, horizon=2.0)
    assert list(log.timings) == TIMING_KEYS[:4] and log.timings["bellman_ms"] is None
    log.regressors["cl"]
    first = log.timings["bellman_ms"]
    assert type(first) is float and first >= 0
    log.regressors["cl"]
    assert log.timings["bellman_ms"] == first
    log.regressors["ob"]
    assert log.timings["bellman_ms"] >= first
    # a frozen start builds its samples on the first read as well
    frozen = run_episode(c.model, c.reference, c.learning, horizon=2.0,
                         initial=frozen_initial(c.model, c.learning))
    assert frozen.timings["bellman_ms"] is None
    assert frozen.regressors["cl"][0].shape == (200, 10)
    assert type(frozen.timings["bellman_ms"]) is float


def test_trajectory_header_follows_state_width(tmp_path):
    log = SimpleNamespace(**{name: np.zeros((1, 2)) if name in ("x", "xhat")
                             else np.zeros(1) for name in TRAJECTORY})
    write_trajectory_csv(log, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text().splitlines()[0] == (
        "t,x1,x2,xhat1,xhat2,y,yhat,yref,e_ob,e_mf,u_total,mu_cl,u_ob,u_mf")


def test_diverging_run_trims_log(tmp_path):
    # a destabilizing closed-loop prior: the plant state leaves the 1e7 box
    # during the tick that ends at t = 18.42 s, so rows 0..1841 are written
    text = "[learning]\npi_cl0 = [5.0, 5.0, 5.0]\n"
    config = tmp_path / "diverge.ini"
    config.write_text(text)
    rc = main(["run", str(config), "--outdir", str(tmp_path)])
    assert rc == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["diverged_at"] == 18.42

    rows = 1842
    cfg = parse_config(text)
    log = run_episode(cfg.model, cfg.reference, cfg.learning, horizon=cfg.horizon)
    assert log.diverged == 18.42
    for name in TRAJECTORY:
        assert len(getattr(log, name)) == rows, name
    for s in STRATEGIES:
        assert log.theta_hist[s].shape == (rows, log.theta_final[s].size)
        assert log.pi_hist[s].shape == (rows, log.pi_final[s].size)
    assert np.all(np.isfinite(log.x)) and np.abs(log.x).max() <= 1e7
    # every completed tick (1841) has Bellman data; ob/mf start at tick 2
    for s, ticks in (("cl", rows - 1), ("ob", rows - 3), ("mf", rows - 3)):
        Z, phi = log.regressors[s]
        assert Z.shape == (ticks, 10) and phi.shape == (ticks,), s
    assert abs(log.t[-1] - 18.41) < 1e-9
    for name in ("trajectory.csv", "weights.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == rows + 1


@pytest.mark.parametrize("key, rc, err", [
    ("pi_ob0", 2, "episode diverged at t = 15.34 s\n"),
    ("pi_mf0", 0, ""),
])
def test_zero_prior_runs(tmp_path, capsys, key, rc, err):
    # a zero ob/mf prior gain is accepted, so it must run: its kernel takes
    # s = s_max instead of dividing by ||pi||^2 = 0
    config = tmp_path / "zero_prior.ini"
    config.write_text(f"[learning]\n{key} = [0, 0, 0]\n")
    assert main(["run", str(config), "--outdir", str(tmp_path)]) == rc
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("text, diverged", [
    # the plant state leaves the 1e7 box on tick 28, with all three
    # strategies adapting on every tick
    ("[learning]\npi_cl0 = [100, 100, 100]\n", 0.29000000000000004),
    # S = I with the freeze off: every strategy adapts until the divergence
    ("[learning]\ninit = identity\ntol_conv = 0\n", 13.96),
])
def test_overflowing_learning_run_exits_2(tmp_path, capsys, text, diverged):
    # the adapting tick computes on Python floats, whose division by zero
    # and overflow raise where numpy's warn: the episode must still end at
    # the divergence time with exit code 2, and nothing may raise or warn
    config = tmp_path / "overflow.ini"
    config.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(config), "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"episode diverged at t = {diverged:.4g} s\n"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["diverged_at"] == diverged
    assert summary["convergence_time_s"] == dict.fromkeys(STRATEGIES)


@pytest.mark.parametrize("horizon", ["0.015", "0.025", "0.004", "20.005"])
def test_horizon_between_ticks_rejected(horizon):
    # an episode runs whole ticks: a horizon between two ticks used to be
    # rounded half to even (0.015 and 0.025 both ran 0.02 s, 0.004 no tick)
    with pytest.raises(ConfigError, match=rf"\[run\] horizon = {horizon} .*delta = 0\.01"):
        parse_config(f"[run]\nhorizon = {horizon}\n")


@pytest.mark.parametrize("text, ticks", [
    ("[run]\nhorizon = 0.29\n", 29),
    ("[run]\nhorizon = 18.42\n", 1842),
    ("[learning]\ndelta = 0.05\n", 400),
    ("[learning]\ndelta = 0.002\n[run]\nhorizon = 0.3\n", 150),
])
def test_horizon_of_whole_ticks_accepted(text, ticks):
    # a decimal horizon divides by delta only to within rounding
    cfg = parse_config(text)
    assert round(cfg.horizon / cfg.learning.delta) == ticks


def test_bad_init_is_echoed():
    # a JSON-quoted value is taken as the plain text, quotes included
    with pytest.raises(ConfigError, match=r"""init must be 'stabilizing' or 'identity', not '"identity"'"""):
        parse_config('[learning]\ninit = "identity"\n')


def test_zero_horizon_run(tmp_path):
    config = tmp_path / "zero.ini"
    config.write_text("[run]\nhorizon = 0.0\n")
    rc = main(["run", str(config), "--outdir", str(tmp_path)])
    assert rc == 0
    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(traj) == 2  # header + initial row


def test_summary_learned_gain_stable(tmp_path, default_config, episode):
    summary = build_summary(default_config, episode)
    re_parts = [ev[0] for ev in summary["closed_loop_eigenvalues"]]
    assert max(re_parts) < 0.0
    assert summary["diverged_at"] is None


@pytest.mark.parametrize("name, radius", [
    ("default", 1.0001276611939107),
    ("delta_0.02", 1.0002530492918171),
    ("init_identity", 1.0183862156540262),
    ("actor_rate_limit_null", 1.0982015386130022),
    # no frozen tail: the learning never freezes, the horizon ends before
    # it does, the loop diverges before it does
    ("tol_conv_0", None),
    ("horizon_0.02", None),
    ("pi_cl0_5", None),
])
def test_summary_lifted_spectral_radius(tmp_path, name, radius):
    config = Path(__file__).parent / "corpus" / f"{name}.ini"
    main(["run", str(config), "--outdir", str(tmp_path)])
    summary = json.loads((tmp_path / "summary.json").read_text())
    if radius is None:
        assert summary["lifted_spectral_radius"] is None
    else:
        assert summary["lifted_spectral_radius"] == pytest.approx(radius, rel=1e-6)


def test_eig_command(tmp_path, capsys):
    config = tmp_path / "eig.ini"
    config.write_text("")
    rc = main(["eig", str(config), "--gain", "[-15.9517, -4.0410, -4.9822]"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    cl = sorted(ev[0] for ev in out["closed_loop_eigenvalues"])
    assert abs(cl[0] + 6.3842) < 1e-3
    assert abs(cl[-1] + 2.2139) < 1e-3


def test_parser_carries_nothing_between_calls(tmp_path, capsys):
    # main builds its parser once per process, and each call parses into a
    # namespace of its own: an option of one call never reaches the next
    config = tmp_path / "c.ini"
    config.write_text("[run]\nhorizon = 0.1\n")
    assert main(["eig", str(config), "--gain", "[-3.5711, -0.2329, 0.2986]"]) == 0
    assert "closed_loop_eigenvalues" in json.loads(capsys.readouterr().out)
    assert main(["eig", str(config)]) == 0
    assert list(json.loads(capsys.readouterr().out)) == [
        "open_loop_eigenvalues", "desired_model_eigenvalues"]
    assert main(["run", str(config), "--outdir", str(tmp_path / "timed"), "--timings"]) == 0
    assert "timings" in json.loads((tmp_path / "timed" / "summary.json").read_text())
    assert main(["run", str(config), "--outdir", str(tmp_path / "plain")]) == 0
    assert "timings" not in json.loads((tmp_path / "plain" / "summary.json").read_text())
    assert cli_io._parser.cache_info().misses == 1


def test_oracle_check_command(tmp_path, capsys):
    config = tmp_path / "oc.ini"
    config.write_text("[run]\nhorizon = 20.0\n")
    rc = main(["oracle-check", str(config)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["dare_residual"] < 1e-10
    assert out["oracle_vs_lqr_formula_delta"] < 1e-10
    assert out["within_tolerance"]
    assert out["regressor_rank"] == 10


@pytest.mark.parametrize("k", [-30, -16, 0, 4])
def test_oracle_gain_is_cost_scale_free(tmp_path, capsys, k):
    # scaling q and r by 2^k scales the Riccati kernel by 2^k and leaves
    # its gain unchanged, bit for bit; its control block is never held to
    # the learner's eps_sing floor, which it falls below from k = -16 on
    gains = []
    for scale in (1.0, 2.0 ** k):
        config = tmp_path / "scaled.ini"
        config.write_text(f"[learning]\nq = {0.05 * scale!r}\nr = {0.01 * scale!r}\n"
                          "[run]\nhorizon = 0.1\n")
        assert main(["oracle-check", str(config)]) in (0, 2)
        gains.append(np.array(json.loads(capsys.readouterr().out)["oracle_gain"]))
    assert gains[1].tobytes() == gains[0].tobytes()


def test_oracle_error_exit(tmp_path, capsys, monkeypatch):
    # a Riccati solve that does not converge is one line, before the episode
    def no_convergence(*args):
        raise oracle.NoConvergenceError("Riccati doubling did not converge in 60 steps")

    monkeypatch.setattr(oracle, "solve_dare", no_convergence)
    monkeypatch.setattr(cli_io, "run_episode", None)
    config = tmp_path / "default.ini"
    config.write_text("")
    assert main(["oracle-check", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "oracle error: Riccati doubling did not converge in 60 steps\n"


def test_oracle_error_on_non_finite_doubling_iterate(tmp_path, capsys):
    # r = 1e300 makes G = B R^-1 B' of order 1e-302, and H grows to 1e271
    # before the 30th doubling step, whose I + G H is about 1e243 and
    # numerically rank one: its elimination meets no exactly zero pivot,
    # and the new H overflows to NaN.  One line and exit 1, not a traceback
    # (test_dare_singular_step_raises pins the singular step)
    config = tmp_path / "huge_r.ini"
    config.write_text("[learning]\nr = 1e300\n")
    assert main(["oracle-check", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "oracle error: Riccati doubling iterate became non-finite\n"


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_oracle_check_zero_costs_print_strict_json(tmp_path, capsys):
    # a zero reference and no probe leave the closed loop at rest: every cl
    # stage cost is 0, so the relative Bellman residual has no value and is
    # printed as null, with no warning, not as NaN
    config = tmp_path / "rest.ini"
    config.write_text('[reference]\nkind = constant\nparams = {"value": 0}\n'
                      "[learning]\nprobe_amplitude = 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle-check", str(config)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out, parse_constant=reject_constant)
    assert report["regressor_count"] == 2000
    assert report["learned_theta_bellman_residual"] is None


def test_run_with_non_finite_gain_writes_strict_summary(tmp_path, capsys):
    # pi_cl0 = 1e300 diverges at 0.02 s with a NaN closed-loop gain: the
    # summary holds null for that gain, its closed loop's eigenvalues (numpy
    # defines none for a NaN matrix) and its kernel's norm, and the run ends
    # with the divergence line and exit 2
    config = tmp_path / "huge_gain.ini"
    config.write_text("[learning]\npi_cl0 = [1e300, 0, 0]\n")
    assert main(["run", str(config), "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "episode diverged at t = 0.02 s"
    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject_constant)
    assert summary["diverged_at"] == 0.02
    assert summary["pi_cl"] == [None] * 3
    assert summary["closed_loop_eigenvalues"] is None
    assert summary["kernel_frobenius_norms"]["cl"] is None


@pytest.mark.parametrize("line, diverged_at", [
    ("pi_cl0 = [1e300, 0, 0]", 0.02), ("pi_mf0 = [1e300, 0, 0]", 0.03)])
def test_huge_prior_gain_setup_raises_no_warning(tmp_path, capsys, line, diverged_at):
    # the squares of a prior gain of 1e300 overflow while the episode is set
    # up (the closed-loop policy evaluation's T' kron T', the bordered
    # kernel's pi . pi); that is no warning: the one stderr line of run and
    # of oracle-check is the divergence, and both exit 2
    config = tmp_path / "huge_gain.ini"
    config.write_text(f"[learning]\n{line}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["run", str(config), "--outdir", str(tmp_path)], ["oracle-check", str(config)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"episode diverged at t = {diverged_at} s\n"


def test_run_with_huge_cost_writes_strict_summary_without_warning(tmp_path, capsys):
    # q = 1e300: every kernel's Frobenius norm overflows to inf, which the
    # summary holds as null, and building it raises no numpy warning
    config = tmp_path / "huge_q.ini"
    config.write_text("[learning]\nq = 1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(config), "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject_constant)
    assert summary["kernel_frobenius_norms"] == dict.fromkeys(STRATEGIES)


@pytest.mark.parametrize("line, nulls", [
    # the diverged episode's NaN gain, its distance and its residual
    ("pi_cl0 = [1e300, 0, 0]", ["learned_vs_oracle_gain_delta", "learned_theta_bellman_residual"]),
    # an overflowing DARE residual and stage costs
    ("q = 1e300", ["dare_residual", "learned_theta_bellman_residual"]),
])
def test_oracle_check_prints_non_finite_numbers_as_null(tmp_path, capsys, line, nulls):
    config = tmp_path / "huge.ini"
    config.write_text(f"[learning]\n{line}\n")
    assert main(["oracle-check", str(config)]) == 2
    report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert [report[key] for key in nulls] == [None, None]
    assert report["within_tolerance"] is False


@pytest.mark.parametrize("text, err", [
    # the learner never steps: its gain is the prior's, within tolerance
    pytest.param("[run]\nhorizon = 0\n", "episode took no closed-loop learner step\n",
                 id="horizon_0"),
    # the probe alone takes the plant out of the box on the first tick
    pytest.param("[learning]\nprobe_amplitude = 1e200\n", "episode diverged at t = 0.01 s\n",
                 id="probe_amplitude_1e200"),
    # every strategy adapts until the divergence
    pytest.param("[learning]\ninit = identity\ntol_conv = 0\n",
                 "episode diverged at t = 13.96 s\n", id="init_identity_tol_conv_0"),
])
def test_oracle_check_judges_the_episode(tmp_path, capsys, text, err):
    # a gain within tolerance does not pass an episode that diverged or
    # took no closed-loop learner step: the report is printed, then the
    # reason on stderr, and the exit is 2
    config = tmp_path / "judged.ini"
    config.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle-check", str(config)]) == 2
    out, got = capsys.readouterr()
    assert got == err
    report = json.loads(out, parse_constant=reject_constant)
    assert report["within_tolerance"] is True
    assert report["learned_vs_oracle_gain_delta"] <= report["gain_tolerance"]


@pytest.mark.parametrize("horizon", ["20", "0.5"])
def test_oracle_check_rank_of_non_finite_regressors_is_null(tmp_path, capsys, horizon):
    # pi_ob0 = 1e300 diverges at 0.05 s, and the last of the 4 closed-loop
    # regressor rows is not finite: its rank is null, not an SVD that does
    # not converge
    config = tmp_path / "huge_ob.ini"
    config.write_text(f"[learning]\npi_ob0 = [1e300, 0, 0]\n[run]\nhorizon = {horizon}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle-check", str(config)]) == 2
    out, err = capsys.readouterr()
    assert err == "episode diverged at t = 0.05 s\n"
    report = json.loads(out, parse_constant=reject_constant)
    assert report["regressor_rank"] is None
    assert report["regressor_count"] == 4


def _huge_model_entries():
    """(key, value, run's stderr, oracle-check's stderr) of each model
    entry set to 1e300 that the tests pin: every entry of a, then b_hat's
    first."""
    for i in range(3):
        for j in range(3):
            a = ProcessModel().A.tolist()
            a[i][j] = 1e300
            line = "episode diverged at t = 0.01 s\n"
            yield pytest.param("a", a, line, line, id=f"a[{i}][{j}]")
    yield pytest.param("b_hat", [1e300, 0, 0], "episode diverged at t = 0.02 s\n",
                       "oracle error: Riccati doubling iterate became non-finite\n", id="b_hat")


@pytest.mark.parametrize("key, value, run_err, check_err", _huge_model_entries())
def test_huge_model_entry_writes_one_stderr_line(tmp_path, capsys, key, value, run_err,
                                                 check_err):
    # an entry of 1e300 overflows the per-tick maps (a) or the desired
    # model's discretization (b_hat) while the episode or the oracle is set
    # up; that is no warning, and each command writes its one line
    config = tmp_path / "huge_model.ini"
    config.write_text(f"[model]\n{key} = {json.dumps(value)}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(config), "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == run_err
        main(["oracle-check", str(config)])
        assert capsys.readouterr().err == check_err


def test_eig_of_overflowing_closed_loop_prints_null(tmp_path, capsys):
    # a finite gain of 1.79e308 takes B_hat's 1.0527 times it past the
    # largest double: the desired closed loop has an inf entry, so its
    # eigenvalues are null, with no numpy warning or error
    config = tmp_path / "eig.ini"
    config.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eig", str(config), "--gain", "[1.79e308, 0, 0]"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    spectra = json.loads(out, parse_constant=reject_constant)
    assert spectra["desired_closed_loop_eigenvalues"] is None
    assert len(spectra["closed_loop_eigenvalues"]) == 3


@pytest.mark.parametrize("command", ["run", "oracle-check"])
def test_episode_too_long_to_allocate_exit(tmp_path, capsys, command):
    # a horizon of 1e17 ticks passes the config checks; its log's size is
    # reported in one line, before anything is allocated
    config = tmp_path / "long.ini"
    config.write_text("[run]\nhorizon = 1e15\n")
    args = [command, str(config)] + (["--outdir", str(tmp_path)] if command == "run" else [])
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("run error: an episode log of 100000000000000001 rows x ")
    assert "GiB" in err and len(err.splitlines()) == 1


def test_config_error_exit(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[learning]\nsigma_c = 2.5\n")
    rc = main(["run", str(config), "--outdir", str(tmp_path)])
    assert rc == 1
    assert "sigma_c" in capsys.readouterr().err


@pytest.mark.parametrize("text, err", [
    ("q = 1\n", "config error: line 1 'q = 1': a key before any [section] header\n"),
    ("[run]\nhorizon\n",
     "config error: line 2 'horizon': neither a [section] header nor a key = value line\n"),
    ("[run]\nhorizon = 1\nhorizon = 2\n",
     "config error: line 3 'horizon = 2': a key given twice in its section\n"),
    ("[run]\n[learning]\n[run]\n", "config error: line 3 '[run]': a section given twice\n"),
], ids=["no_header", "bare_key", "twice_key", "twice_section"])
def test_syntax_error_is_one_line(tmp_path, capsys, text, err):
    # a document that breaks the INI syntax is one config error line that
    # names the offending line by its number and text
    config = tmp_path / "syntax.ini"
    config.write_text(text)
    assert main(["run", str(config), "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", err)


def test_unstabilizable_desired_model_rejected(tmp_path, capsys):
    # the third state of the desired model is reachable through B_hat, but
    # its unstable first state (eigenvalue 1) is not: no gain stabilizes it
    config = tmp_path / "unstabilizable.ini"
    config.write_text("[model]\na_hat = [[1, 0, 0], [1, -1, 1], [0, 0, -2]]\nb_hat = [0, 0, 1]\n")
    assert main(["run", str(config), "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr() == (
        "", "config error: [model] (A_hat, B_hat) is not stabilizable\n")


@pytest.mark.parametrize("outdir", ["file", "file/sub"])
def test_unusable_outdir_exit(tmp_path, capsys, monkeypatch, outdir):
    # an output directory that is a file, or cannot be made under one, is
    # reported in one line before the episode runs
    config = tmp_path / "default.ini"
    config.write_text("")
    (tmp_path / "file").write_text("kept\n")

    def no_episode(*args, **kwargs):
        raise AssertionError("the episode ran")

    monkeypatch.setattr(cli_io, "run_episode", no_episode)
    rc = main(["run", str(config), "--outdir", str(tmp_path / outdir)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("output error:") and len(err.splitlines()) == 1
    assert (tmp_path / "file").read_text() == "kept\n"


def test_unwritable_artifact_after_episode_exit(tmp_path, capsys, monkeypatch):
    # weights.csv cannot be opened once the episode has run: one line, not
    # a traceback
    def refuse_weights(path, *args, **kwargs):
        if str(path).endswith("weights.csv"):
            raise PermissionError(13, "Permission denied", str(path))
        return open(path, *args, **kwargs)

    config = tmp_path / "short.ini"
    config.write_text("[run]\nhorizon = 0.1\n")
    monkeypatch.setattr(cli_io, "open", refuse_weights, raising=False)
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"output error: [Errno 13] Permission denied: '{tmp_path / 'out' / 'weights.csv'}'\n"
    assert (tmp_path / "out" / "trajectory.csv").is_file()


def test_artifact_in_subdirectory(tmp_path):
    # an artifact name with a directory is written under --outdir
    config = tmp_path / "sub.ini"
    config.write_text("[run]\nhorizon = 0.1\ntrajectory_csv = sub/t.csv\n")
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "sub" / "t.csv").read_text().splitlines()
    assert lines[0].startswith("t,x1,") and len(lines) == 1 + 11
    assert (tmp_path / "out" / "weights.csv").is_file()


def test_blocked_artifact_subdirectory_exit(tmp_path, capsys, monkeypatch):
    # an artifact's directory that a file blocks is reported in one line
    # before the episode runs
    config = tmp_path / "sub.ini"
    config.write_text("[run]\ntrajectory_csv = sub/t.csv\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "sub").write_text("kept\n")

    def no_episode(*args, **kwargs):
        raise AssertionError("the episode ran")

    monkeypatch.setattr(cli_io, "run_episode", no_episode)
    rc = main(["run", str(config), "--outdir", str(tmp_path / "out")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("output error:") and len(err.splitlines()) == 1
    assert (tmp_path / "out" / "sub").read_text() == "kept\n"


@pytest.mark.parametrize("key", ["trajectory_csv", "weights_csv", "summary_json"])
def test_artifact_name_ending_in_separator_rejected(tmp_path, capsys, key):
    # a name that ends in a path separator names a directory, not a file;
    # it is a config error, so no directory is made and no episode runs
    with pytest.raises(ConfigError, match=rf"\[run\] {key} = 'sub/'"):
        parse_config(f"[run]\n{key} = sub/\n")
    config = tmp_path / "dir.ini"
    config.write_text(f"[run]\n{key} = sub/\n")
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, directory", [
    ("weights_csv = w.csv", "w.csv"),
    ("", "trajectory.csv"),
    ("summary_json = sub/s.json", "sub/s.json"),
    ("summary_json = .", "."),
])
def test_artifact_that_is_a_directory_exit(tmp_path, capsys, monkeypatch, line, directory):
    # an artifact path that is an existing directory under --outdir is
    # reported in one line before the episode runs
    config = tmp_path / "dir.ini"
    config.write_text(f"[run]\n{line}\n")
    (tmp_path / "out" / directory).mkdir(parents=True, exist_ok=True)

    def no_episode(*args, **kwargs):
        raise AssertionError("the episode ran")

    monkeypatch.setattr(cli_io, "run_episode", no_episode)
    rc = main(["run", str(config), "--outdir", str(tmp_path / "out")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("output error:") and len(err.splitlines()) == 1
    assert "is a directory" in err
    assert not any((tmp_path / "out" / directory).iterdir())


@pytest.mark.parametrize("command", ["run", "oracle-check", "eig"])
def test_unknown_key_exit(tmp_path, capsys, command):
    config = tmp_path / "typo.ini"
    config.write_text("[learning]\nsigmac = 0.7\n")
    rc = main([command, str(config)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "unknown key 'sigmac'" in err


@pytest.mark.parametrize("command", ["run", "oracle-check", "eig"])
def test_missing_config_exit(tmp_path, capsys, command):
    rc = main([command, str(tmp_path / "missing.ini")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "missing.ini" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("gain", [
    "abc", '[1, 2, "x"]', "[1, 2]", "[1, 2, 3, 4]", "[1e400, 0, 0]", "[NaN, 0, 0]",
    "[true, 0, 0]", "[null, 0, 0]", "null", "3", '{"gain": [1, 2, 3]}',
    "[[1, 2, 3], [4, 5, 6]]", "[[1], [2], [3]]", "[" + "9" * 400 + ", 0, 0]",
])
def test_eig_bad_gain_exit(tmp_path, capsys, gain):
    config = tmp_path / "default.ini"
    config.write_text("")
    rc = main(["eig", str(config), "--gain", gain])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("gain error: --gain must be a JSON list of 3 finite numbers")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("gain", ["[-15.9517, -4.0410, -4.9822]",
                                  "[[-15.9517, -4.0410, -4.9822]]", "[-16, -4, -5]"])
def test_eig_gain_spectra(tmp_path, capsys, model, gain):
    config = tmp_path / "default.ini"
    config.write_text("")
    assert main(["eig", str(config), "--gain", gain]) == 0
    out = json.loads(capsys.readouterr().out)
    row = np.array(json.loads(gain), dtype=float).reshape(1, 3)
    for key, A, B in (("closed_loop_eigenvalues", model.A, model.B),
                      ("desired_closed_loop_eigenvalues", model.A_hat, model.B_hat)):
        assert out[key] == cli_io._eig_pairs(A + B @ row)


def test_seventeen_digit_serialization(tmp_path, model, default_config):
    from modelfollow.control_loop import run_episode
    log = run_episode(model, default_config.reference, default_config.learning,
                      horizon=0.05)
    path = tmp_path / "t.csv"
    write_trajectory_csv(log, path)
    lines = path.read_text().splitlines()
    # values survive a parse round trip bit-for-bit
    row = [float(v) for v in lines[-1].split(",")]
    assert row[1:4] == list(log.x[-1])


def _float64(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _neighbours(x, ulps):
    """x and the floats up to `ulps` steps below and above it."""
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


# 10^k with 2 ulps either side (among them the numpy path's ends 1e-6 and
# 1e17, the switch from d.ddde-05 to 0.0001 at 1e-4, and 1e16, the largest
# exponent of that path), special values, and 2^42 + k * 2^-10: 13 integer
# digits, so every k = 32 (mod 64) is a tie at the 17th digit
FORMAT_EDGES = [s * v for s in (1.0, -1.0)
                for v in [y for k in range(-12, 19) for y in _neighbours(float(f"1e{k}"), 2)]
                + [0.0, math.inf, 5e-324, sys.float_info.max]
                + [(2 ** 52 + k) * 2.0 ** -10 for k in range(2048)]] + [math.nan]


@example(FORMAT_EDGES)
@given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1).map(_float64), st.floats()), max_size=64))
def test_formatter_equals_percent_17g(values):
    cells = cli_io._format_cells(np.array(values, dtype=float))
    assert [bytes(c).replace(b"\0", b"").decode() for c in cells] == ["%.17g" % v for v in values]


def _per_row_table(header, groups):
    """The CSV text of a table formatted one cell at a time with %.17g."""
    columns = [c for group in groups for c in group]
    lines = [header]
    for k in range(len(columns[0])):
        cells = [v for c in columns for v in np.atleast_1d(c[k]).tolist()]
        lines.append(",".join("%.17g" % v for v in cells))
    return "\n".join(lines) + "\n"


def _assert_same_text(written, expected):
    """Exact equality of two texts that fails on the first line that
    differs; pytest's own diff of two CSV files of about 1.7 MB takes
    minutes."""
    if written == expected:
        return
    a, b = written.split("\n"), expected.split("\n")
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            pytest.fail(f"line {k} differs:\n  written:  {x!r}\n  expected: {y!r}")
    pytest.fail(f"{len(a)} lines written, {len(b)} expected")


def _repeating_groups(rows):
    """The first `rows` of 600 rows: t, a (600, 3) group with a 2-column
    partner and a second group, full of repeated rows: runs across rows
    255/256, -0.0 right after 0.0, NaN and infinite cells, and cells of the
    formatter's scientific notation and of its '%.17g' path, in runs over
    those rows and on fresh rows next to them."""
    rng = np.random.default_rng(7)
    t = np.arange(600) * 0.01
    a = rng.standard_normal((600, 3))
    a[40] = [3e-5, -7e-6, 1e20]
    a[40:300] = a[40]                 # one run over the first block boundary
    a[510:515] = [0.0, np.nan, np.inf]
    a[515] = [-0.0, np.nan, np.inf]   # equal by ==, printed differently
    a[516:520] = a[515]
    b = rng.standard_normal((600, 2))
    b[250] = [1e-300, -1e17]
    b[250:262] = b[250]
    b[262] = [np.nan, -np.inf]
    b[263:] = b[262]
    c = np.zeros(600)
    c[::7] = -0.0
    c[253:255] = [3e-5, 5e-324]
    c[255] = c[256] = 1.5             # a two-row run over rows 255/256
    c[257:259] = [-7e-6, 1e20]
    return [[column[:rows] for column in group] for group in ([t], [a, b], [c])]


@pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 600])
def test_table_writer_equals_per_row_writer(tmp_path, rows):
    groups = _repeating_groups(rows)
    header = ",".join(f"c{j}" for j in range(1 + 3 + 2 + 1))
    path = tmp_path / "table.csv"
    cli_io._write_table(path, header, groups)
    assert path.read_text() == _per_row_table(header, groups)


def test_csv_files_equal_per_row_writer(tmp_path, episode):
    # the paper's episode: all three strategies freeze by 1.5 s, so most
    # weights.csv rows reuse the text of the row before
    cli_io.write_weights_csv(episode, tmp_path / "w.csv")
    groups = [[episode.t]] + [[episode.theta_hist[s], episode.pi_hist[s]] for s in STRATEGIES]
    text = (tmp_path / "w.csv").read_text()
    _assert_same_text(text, _per_row_table(text.split("\n", 1)[0], groups))
    write_trajectory_csv(episode, tmp_path / "t.csv")
    text = (tmp_path / "t.csv").read_text()
    columns = [getattr(episode, name) for name in TRAJECTORY]
    _assert_same_text(text, _per_row_table(text.split("\n", 1)[0], [columns]))


def _formatted_calls(monkeypatch):
    """The values of each _format_cells call, recorded as _write_table
    makes them."""
    calls = []

    def spied(x):
        calls.append(x.copy())
        return format_cells(x)

    format_cells = cli_io._format_cells
    monkeypatch.setattr(cli_io, "_format_cells", spied)
    return calls


def test_table_writer_runs_across_chunk_cuts(tmp_path, monkeypatch):
    # t (row k holds k + 0.25, fresh on every row and in no other column),
    # a 3-column group with a 2-column partner and a 1-column group: 7
    # cells a row, so a chunk of rows that are all fresh holds
    # _CELLS // 7 of them.  The runs below cross the first two cuts: the
    # first, 20 rows of the 5-cell group from 2 rows before the cut that
    # all-fresh rows would place, moves that cut 3 rows on, into itself,
    # and the next cut by its 19 * 5 unformatted cells; the second, 40 rows
    # of the 1-cell group around that next cut, moves it about 3 rows more.
    # The rows of each chunk are the t values of its formatter call
    width = 7
    per_chunk = cli_io._CELLS // width
    rows = 3 * per_chunk
    rng = np.random.default_rng(11)
    t = np.arange(rows) + 0.25
    a, b, c = (rng.standard_normal((rows, k)) for k in (3, 2, 1))
    moved = 19 * 5 // width
    runs = [(per_chunk - 2, per_chunk + 18),
            (2 * per_chunk + moved - 20, 2 * per_chunk + moved + 20)]
    (a0, a1), (c0, c1) = runs
    a[a0:a1], b[a0:a1] = a[a0], b[a0]
    a[a0] = [np.nan, -0.0, 5e-324]
    a[a0 + 1:a1] = a[a0]
    c[c0:c1] = -0.0
    c[c0 - 1] = 0.0                   # equal to the run's rows by ==
    groups = [[t], [a, b], [c[:, 0]]]
    calls = _formatted_calls(monkeypatch)
    path = tmp_path / "table.csv"
    header = ",".join(f"c{j}" for j in range(width))
    cli_io._write_table(path, header, groups)
    _assert_same_text(path.read_text(), _per_row_table(header, groups))
    tset = set(t.tolist())
    starts = [min(v for v in call.tolist() if v in tset) - 0.25 for call in calls]
    assert len(calls) >= 3
    assert all(len(call) <= cli_io._CELLS + width for call in calls)
    for start, end in runs:
        assert any(start < cut < end for cut in starts), (start, end, starts)


def test_single_group_repeat_falls_back_from_direct_write(tmp_path, monkeypatch):
    # a one-group table, as trajectory.csv is, whose one repeated row lies
    # inside a chunk of fresh rows: that chunk cannot go to the file as the
    # formatter's text, and its repeated row is not formatted again
    rng = np.random.default_rng(5)
    width = 4
    rows = 2 * (cli_io._CELLS // width)
    t = np.arange(rows) * 0.01
    a = rng.standard_normal((rows, width - 1))
    k = cli_io._CELLS // width // 2
    t[k], a[k] = t[k - 1], a[k - 1]
    groups = [[t, a]]
    calls = _formatted_calls(monkeypatch)
    path = tmp_path / "table.csv"
    header = ",".join(f"c{j}" for j in range(width))
    cli_io._write_table(path, header, groups)
    _assert_same_text(path.read_text(), _per_row_table(header, groups))
    assert sum(len(call) for call in calls) == (rows - 1) * width


# special cells of the random tables below: signed zeros, NaN, infinities,
# subnormals, the ends of the formatter's numpy path and cells of '%.17g'
SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072009e-308,
                     1e-6, 1e17, -1e300, 3e-5])


def _random_table(rows, widths, seed, toggle, special):
    """Groups of columns of the given widths (one list of widths per
    group) whose rows repeat the row before in runs that start and stop
    with probability `toggle` a row; a fresh row holds normal draws, each
    cell a SPECIALS value with probability `special`, or, one row in
    eight, the row before with one cell negated (a zero or a NaN keeps ==
    or its text, not its bits).  A column of width 1 is 1-D."""
    rng = np.random.default_rng(seed)
    groups = []
    for group in widths:
        width = sum(group)
        values = rng.standard_normal((rows, width))
        specials = rng.random((rows, width)) < special
        values[specials] = rng.choice(SPECIALS, specials.sum())
        for k in np.flatnonzero(rng.random(rows) < 1 / 8):
            if k:
                j = rng.integers(width)
                values[k] = values[k - 1]
                values[k, j] = -values[k, j]
        repeat = np.cumsum(rng.random(rows) < toggle) % 2 == 1
        repeat[:1] = False
        source = np.maximum.accumulate(np.where(repeat, 0, np.arange(rows)))
        values = values[source]
        columns = np.split(values, np.cumsum(group)[:-1], axis=1)
        groups.append([c[:, 0] if c.shape[1] == 1 else c for c in columns])
    return groups


@pytest.mark.parametrize("rows, widths", [
    (0, [[1], [3, 2], [1]]),
    (1, [[1]]),
    (cli_io._CELLS - 1, [[1]]),
    (cli_io._CELLS + 1, [[1]]),
    ((cli_io._CELLS - 1) // 7, [[1], [3, 2], [1]]),
    ((cli_io._CELLS + 1) // 17, [[1], [3, 2], [11]]),
], ids=["0_cells", "1_cell", "cells_minus_1_one_group", "cells_plus_1_one_group",
        "cells_minus_1", "cells_plus_1"])
@settings(max_examples=25)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_table_writer_on_random_repeats(tmp_path_factory, rows, widths, seed, toggle, special):
    # tables of 0, 1 and _CELLS - 1 or + 1 cells, with one group (written
    # straight from the formatter where no row repeats) or several, and
    # runs of repeated rows that cross the chunk cuts at random
    assert rows * sum(map(sum, widths)) in (0, 1, cli_io._CELLS - 1, cli_io._CELLS + 1)
    groups = _random_table(rows, widths, seed, toggle, special)
    header = ",".join(f"c{j}" for j in range(sum(map(sum, widths))))
    path = tmp_path_factory.mktemp("table") / "table.csv"
    cli_io._write_table(path, header, groups)
    _assert_same_text(path.read_text(), _per_row_table(header, groups))
