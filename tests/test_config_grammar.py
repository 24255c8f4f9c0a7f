"""Every config the parser accepts runs, or ends with one stderr line.

Documents are built from cli_io.KEYS: a few keys each take an edge value
of their type (0, +-1e-300 or +-1e300 in one entry, a list one entry too
short or too long, a string the key rejects), every other key its
default, and the horizon is at most 0.5 s.  Each document goes through
`run`, `oracle-check` and `eig` in-process, with warnings as errors.
"""

import contextlib
import io
import json
import tempfile
import warnings
from dataclasses import MISSING
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from modelfollow.cli_io import KEYS, main
from modelfollow.dynamics import ProcessModel
from modelfollow.reference import PARAMS

EDGES = [0, 1e-300, -1e-300, 1e300, -1e300]
HORIZONS = [0, -1e-300, 0.01, 0.5]
# the raw text each str key is drawn from: its accepted values and one
# that it rejects or that names another file
TEXTS = {"kind": [*PARAMS, "0"], "init": ["stabilizing", "identity", "0"],
         "trajectory_csv": ["0", "weights.csv", ""], "weights_csv": ["0", "summary.json", ""],
         "summary_json": ["0", "trajectory.csv", ""]}


def _put(value, position, entry):
    """value (a number or a nested list) with its flat entry at position
    set to entry."""
    if not isinstance(value, (list, tuple)):
        return entry
    out = []
    for item in value:
        size = len(_flat(item))
        out.append(_put(item, position, entry) if 0 <= position < size else item)
        position -= size
    return out


def _flat(value):
    if not isinstance(value, (list, tuple)):
        return [value]
    return [x for item in value for x in _flat(item)]


def _edge_values(default):
    """default with one entry at an edge, or, for a list, one entry too
    few or too many."""
    entries = st.builds(lambda i, e: _put(default, i, e),
                        st.integers(0, len(_flat(default)) - 1), st.sampled_from(EDGES))
    if not isinstance(default, (list, tuple)):
        return entries
    wrong_length = st.sampled_from([list(default[:-1]), [*default, default[-1]]])
    return st.one_of(entries, wrong_length)


def _raw_values(section, key):
    """The raw config texts the key is drawn from."""
    if key in TEXTS:
        return st.sampled_from(TEXTS[key])
    if key == "params":
        names = sorted({name for params in PARAMS.values() for name in params})
        return st.one_of(
            st.builds(lambda name, e: json.dumps({name: e}), st.sampled_from(names),
                      st.sampled_from(EDGES)),
            st.builds(lambda e: json.dumps({"times": [0.0], "values": [e]}),
                      st.sampled_from(EDGES)),
            st.just("0"))
    field = KEYS[section][key]
    default = field.default
    assert default is not MISSING, key
    values = _edge_values(default).map(json.dumps)
    return st.one_of(values, st.just("null")) if key == "actor_rate_limit" else values


EDITABLE = [(section, key) for section in KEYS for key in KEYS[section] if key != "horizon"]


@st.composite
def documents(draw):
    """{(section, key): raw text}: up to two keys at an edge and a short
    horizon."""
    keys = draw(st.lists(st.sampled_from(EDITABLE), max_size=2, unique=True))
    document = {key: draw(_raw_values(*key)) for key in keys}
    document["run", "horizon"] = json.dumps(draw(st.sampled_from(HORIZONS)))
    return document


def _text(document):
    sections = {}
    for (section, key), raw in document.items():
        sections.setdefault(section, []).append(f"{key} = {raw}\n")
    return "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _cli(argv):
    """Exit code, stdout and stderr of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _pinned(test):
    """test with every config that once ended in a warning or a traceback
    as an example: each entry of a at 1e300, b_hat's first, each prior
    gain's first, q and r at 1e300 and a probe of 1e200."""
    horizon = {("run", "horizon"): "0.5"}
    pinned = []
    for i in range(3):
        for j in range(3):
            a = ProcessModel().A.tolist()
            a[i][j] = 1e300
            pinned.append({("model", "a"): json.dumps(a)})
    pinned.append({("model", "b_hat"): "[1e300, 0, 0]"})
    pinned += [{("learning", key): "[1e300, 0, 0]"} for key in ("pi_ob0", "pi_cl0", "pi_mf0")]
    pinned += [{("learning", key): "1e300"} for key in ("q", "r")]
    pinned.append({("learning", "probe_amplitude"): "1e200"})
    for document in pinned:
        test = example(document | horizon)(test)
    return test


@settings(max_examples=200)
@_pinned
@given(documents())
def test_every_config_runs_or_ends_in_one_line(document):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "edge.ini"
        config.write_text(_text(document))
        outdir = Path(tmp) / "out"
        exits = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command, extra in (("run", ["--outdir", str(outdir)]), ("oracle-check", []),
                                   ("eig", [])):
                rc, out, err = _cli([command, str(config), *extra])
                exits[command] = rc
                assert rc in (0, 1, 2), (command, rc)
                # an error is one line, a success none, and exit 2 (a
                # divergence, or a gain outside the tolerance) at most one
                lines = err.splitlines()
                assert len(lines) == 1 if rc == 1 else len(lines) <= rc // 2, (command, err)
                if command == "run":
                    assert out == ""
                    if rc != 1:
                        summary = (outdir / document.get(("run", "summary_json"), "summary.json"))
                        json.loads(summary.read_text(), parse_constant=_reject_constant)
                elif rc != 1:
                    json.loads(out, parse_constant=_reject_constant)
                else:
                    assert out == ""
    if exits["oracle-check"] == 0:
        assert exits["run"] == 0
