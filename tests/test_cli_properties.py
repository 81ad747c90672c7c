"""Property test: every malformed config makes the CLI exit 1 with an
``error:`` line instead of a traceback (needs the optional hypothesis)."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_cli import ls_model, sim_payload  # noqa: E402
from thermoevo.cli import main  # noqa: E402


def _tiny_payload():
    payload = sim_payload()
    payload["grid"]["n_cells"] = 4
    payload["time"].update(t_max=2**-6, dt=2**-8)
    return payload


def _node(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _replaced(path, value):
    payload = _tiny_payload()
    _node(payload, path[:-1])[path[-1]] = value
    return payload


def _deleted(path):
    payload = _tiny_payload()
    del _node(payload, path[:-1])[path[-1]]
    return payload


def _with_unknown_key(path, key):
    payload = _tiny_payload()
    _node(payload, path)[key] = 1.0
    return payload


_NUMBER_LEAVES = [("grid", "L"), ("time", "t_max"), ("time", "dt"), ("time", "rho"),
                  ("forcing", "center"), ("forcing", "width")] + [
    ("model", "coefficients", name) for name in ls_model()["coefficients"]]
#: leaves that must be positive; coefficients are left out, where the sign
#: of some is a well-posedness question rather than a malformed config
_POSITIVE_LEAVES = [("grid", "L"), ("time", "t_max"), ("time", "dt"), ("time", "rho"),
                    ("forcing", "width")]
_NAME_LEAVES = [("model", "family"), ("time", "scheme"), ("forcing", "kind"),
                ("forcing", "block"), ("forcing", "spatial_profile")]
_OBJECTS = [("model",), ("grid",), ("time",), ("forcing",), ("model", "coefficients")]
_LEAVES = _NUMBER_LEAVES + _NAME_LEAVES + [("grid", "n_cells")]

_NOT_A_NUMBER = st.one_of(
    st.text(max_size=4), st.none(), st.booleans(), st.just([]), st.just({}),
    st.lists(st.lists(st.floats(), max_size=2), min_size=1, max_size=2).map(lambda v: [v]),
    # one value per cell of the tiny payload, one of them a boolean
    st.integers(0, 3).map(lambda i: [1.0] * i + [True] + [1.0] * (3 - i)),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]))
#: no valid family, scheme, forcing kind, block or profile name uses only these letters
_NOT_A_NAME = st.one_of(
    st.text(alphabet="xyz?", max_size=4), st.none(), st.booleans(), st.integers(),
    st.floats(), st.lists(st.integers(), max_size=2), st.just({}))
_NOT_AN_OBJECT = st.one_of(st.text(max_size=4), st.none(), st.booleans(), st.integers(),
                           st.floats(), st.lists(st.integers(), max_size=2))
_NOT_A_CELL_COUNT = st.one_of(st.integers(max_value=1), st.floats(), st.text(max_size=3),
                              st.booleans(), st.none())

MALFORMED_CONFIGS = st.one_of(
    st.builds(_replaced, st.sampled_from(_NUMBER_LEAVES), _NOT_A_NUMBER),
    st.builds(_replaced, st.sampled_from(_POSITIVE_LEAVES), st.floats(max_value=0.0)),
    st.builds(_replaced, st.sampled_from(_NAME_LEAVES), _NOT_A_NAME),
    st.builds(_replaced, st.just(("grid", "n_cells")), _NOT_A_CELL_COUNT),
    st.builds(_replaced, st.sampled_from(_OBJECTS), _NOT_AN_OBJECT),
    st.builds(_replaced, st.just(("output",)), _NOT_AN_OBJECT.filter(
        lambda v: v is not None and not isinstance(v, str))),
    st.builds(_deleted, st.sampled_from(_LEAVES + _OBJECTS)),
    st.builds(_with_unknown_key, st.sampled_from([()] + _OBJECTS),
              st.text(alphabet="xyz", min_size=1, max_size=3)),
    _NOT_AN_OBJECT,
)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(payload=MALFORMED_CONFIGS)
def test_malformed_config_exits_one_with_error_line(payload):
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "run.json"
        config_path.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            status = main(["simulate", "--config", str(config_path),
                           "--out", str(Path(tmp) / "out")])
    assert status == 1
    assert err.getvalue().startswith("error: ")
