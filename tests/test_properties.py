"""Hypothesis properties: every document gets a result or a clean error.

``parse_scenario`` turns any JSON value into a ``Scenario`` or raises
``ScenarioError``.  The CLI commands exit 0, 1 or 2 on generated documents
and never end in a traceback.  Documents are fixtures with one to three
fields replaced by arbitrary JSON values or deleted.

Numbers are drawn from small magnitudes (1e-3 to 5, small integers) plus
the extremes below.  Every valid generated document then simulates in at
most a few thousand steps at ``--horizon 1``; a rate times capacity near
1e6 would ask for about 1e8 steps, which no test budget holds.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flownet import dynamics
from flownet.cli import main
from flownet.scenario import Scenario, ScenarioError, parse_scenario

from conftest import DATA

EXTREMES = [0.0, -0.0, 5e-324, 1e-300, 1e308, -1e308, math.inf, -math.inf, math.nan,
            10 ** 400, 2 ** 53 + 1]
NUMBERS = st.one_of(st.integers(-3, 5), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3),
                    st.sampled_from(EXTREMES))
KEYS = st.one_of(st.sampled_from(["0", "1", "2", "a", "f_max", "eta", "weights", "eps",
                                  "dt", "links", "cut_attack", "alpha", "family"]),
                 st.text(max_size=3))
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=10)


def _base_documents():
    docs = [json.loads((DATA / name).read_text(encoding="utf-8"))
            for name in ("example3.json", "example3_cutattack.json", "diamond5.json",
                         "chain21.json", "bad_cycle.json")]
    extended = copy.deepcopy(docs[0])
    extended["perturbation"] = {"links": {"0": {"type": "scale", "eps": 0.5}}}
    extended["simulation"] = {"dt": 0.01, "record_stride": 2,
                              "initial_density": {"0": 0.5, "1": 0.1}}
    return docs + [extended]


BASES = _base_documents()


def _paths(value, prefix=()):
    """The path of every value nested inside ``value``."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *where, key = draw(st.sampled_from(paths))
        parent = doc
        for step in where:
            parent = parent[step]
        if draw(st.integers(0, 3)) == 0:
            del parent[key]
        else:
            parent[key] = draw(JSON)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(JSON, documents()))
def test_parse_gives_a_scenario_or_a_scenario_error(doc):
    try:
        result = parse_scenario(doc)
    except ScenarioError:
        return
    assert isinstance(result, Scenario)


COMMANDS = (["validate"], ["mincut"], ["limitflow"], ["simulate", "--horizon", "1"])


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_cli_exits_cleanly_on_generated_documents(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            if command[0] == "simulate":
                argv += ["--out", str(Path(tmp) / "run")]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue()


def _with_flow_functions(**params):
    doc = json.loads((DATA / "example3.json").read_text(encoding="utf-8"))
    for body in doc["flow_functions"].values():
        body.update(params)
    return doc


@pytest.mark.parametrize("doc, expected, message", [
    # the default step 0.01 / (a * f_max) underflows below any usable step
    (_with_flow_functions(a=1e308), 2, "error: time step "),
    # rates that underflow to zero leave nothing to integrate: one step
    (_with_flow_functions(a=5e-324, f_max=5e-324), 0, ""),
    # 2^53 rates ask for far more steps than the budget allows
    (_with_flow_functions(a=2 ** 53 + 1), 2, "error: time step "),
    (dict(_with_flow_functions(), simulation={"dt": 5e-324}), 2, "error: time step 5e-324 "),
], ids=["rate-overflow", "rate-underflow", "records-beyond-memory", "dt-subnormal"])
def test_step_count_extremes_exit_cleanly(doc, expected, message):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", str(path), "--horizon", "1", "--out", str(Path(tmp) / "run")])
    assert code == expected and err.getvalue().startswith(message)


@pytest.mark.parametrize("command", ["simulate", "resilience"])
def test_step_budget_exits_before_integrating(command, monkeypatch):
    # 1e8 steps at horizon 1, ten times the budget: refused before a single step
    def no_integration(*args, **kwargs):
        raise AssertionError("a run over the step budget was integrated")

    monkeypatch.setattr(dynamics, "_integrate", no_integration)
    doc = dict(_with_flow_functions(), simulation={"dt": 1e-8})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, str(path), "--horizon", "1"]
        if command == "simulate":
            argv += ["--out", str(Path(tmp) / "run")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == 2
    assert err.getvalue().startswith(f"error: time step 1e-08 over horizon 1.0 takes "
                                     f"{10 ** 8} steps, more than {dynamics.MAX_STEPS}")
