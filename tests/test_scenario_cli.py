"""Scenario-document parsing, end-to-end CLI commands, and output schemas."""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import flownet
from flownet import cli, dynamics, load_scenario, parse_scenario, resilience, topology
from flownet import Trajectory, validate_scenario
from flownet.cli import main
from flownet.scenario import ScenarioError

from conftest import DATA
from host_class import mismatch
from simulate_digests import DAG_DIGESTS, DIGESTS, dag_runs, simulate_digests, simulate_runs


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out if capsys else ""
    return code, out


class TestScenarioParsing:
    def test_two_route_document(self):
        sc = load_scenario(DATA / "example3.json")
        assert sc.topology.num_nodes == 2
        assert sc.network.capacities() == {0: 0.75, 1: 0.75}
        np.testing.assert_allclose(sc.policy.route(0, [0.0, 0.0]), [1 / 11, 10 / 11])
        assert sc.inflow == 1.0

    def test_invalid_json_reports_position(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"nodes": 2,\n  "links": [}\n', encoding="utf-8")
        with pytest.raises(ScenarioError, match=r"line 2"):
            load_scenario(bad)

    def test_missing_flow_function(self):
        doc = json.loads((DATA / "example3.json").read_text())
        del doc["flow_functions"]["1"]
        with pytest.raises(ScenarioError, match="missing entry for link 1"):
            parse_scenario(doc)

    def test_missing_policy_for_interior_node(self):
        doc = json.loads((DATA / "diamond5.json").read_text())
        del doc["policies"]["2"]
        with pytest.raises(ScenarioError, match="non-destination node 2"):
            parse_scenario(doc)

    @pytest.mark.parametrize("node", ["1", "5"])  # the destination, a node not in the graph
    def test_policy_for_a_node_without_outgoing_links(self, node):
        doc = json.loads((DATA / "example3.json").read_text())
        doc["policies"][node] = {"eta": 1.0, "weights": {}}
        message = rf"^policies: entries for unknown or destination nodes \['{node}'\]$"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(doc)

    @pytest.mark.parametrize("lid", ["4", "7"])  # a link out of another node, no link at all
    def test_weight_for_a_link_not_leaving_its_node(self, lid):
        doc = json.loads((DATA / "diamond5.json").read_text())
        doc["policies"]["1"]["weights"][lid] = 1.0
        with pytest.raises(ScenarioError, match=rf"^policies\.1\.weights: weights for links not "
                                                rf"leaving node 1: \['{lid}'\]$"):
            parse_scenario(doc)

    def test_unknown_perturbation_link(self):
        doc = json.loads((DATA / "example3.json").read_text())
        doc["perturbation"] = {"links": {"7": {"type": "scale", "eps": 0.5}}}
        with pytest.raises(ScenarioError, match="unknown links"):
            parse_scenario(doc)

    def test_cut_attack_spec_magnitude(self):
        sc = load_scenario(DATA / "example3_cutattack.json")
        spec = sc.perturbation_spec()
        assert spec.magnitude == pytest.approx(1.5 - 0.25 / 2.0, abs=1e-12)
        assert sc.attack_alpha == 0.25

    def test_semantic_validation_verdicts(self):
        assert validate_scenario(load_scenario(DATA / "example3.json"))["ok"]
        report = validate_scenario(load_scenario(DATA / "bad_cycle.json"))
        assert not report["ok"]
        assert any("cycle" in f["message"] for f in report["findings"])


def write_mutated(tmp_path, path, value, source="example3.json"):
    """``source`` with the field at ``path`` set to ``value``, written under tmp_path."""
    doc = json.loads((DATA / source).read_text())
    target = doc
    for key in path[:-1]:
        target = target.setdefault(key, {})
    target[path[-1]] = value
    out = tmp_path / "mutated.json"
    out.write_text(json.dumps(doc), encoding="utf-8")
    return out


class TestMalformedNumbers:
    """Wrong types and non-finite numbers exit 1 with a message, never a traceback."""

    CASES = {
        "nodes-null": (("nodes",), None),
        "nodes-fraction": (("nodes",), 2.5),
        "link-tail-string": (("links",), [{"id": 0, "tail": "0", "head": 1},
                                          {"id": 1, "tail": 0, "head": 1}]),
        "a-bool": (("flow_functions", "0", "a"), True),
        "eta-null": (("policies", "0", "eta"), None),
        "weight-string": (("policies", "0", "weights", "1"), "6"),
        "inflow-null": (("inflow",), None),
        "inflow-nan-string": (("inflow",), "nan"),
        "inflow-nan": (("inflow",), math.nan),
        "inflow-huge-int": (("inflow",), 10 ** 400),
        "seed-null": (("seed",), None),
        "seed-negative": (("seed",), -1),
        "flow-functions-array": (("flow_functions",), []),
        "policies-array": (("policies",), []),
        "simulation-number": (("simulation",), 5),
        "simulation-dt-string": (("simulation", "dt"), "x"),
        "simulation-horizon-null": (("simulation", "horizon"), None),
        "simulation-tail-fraction-bool": (("simulation", "tail_fraction"), False),
        "simulation-transfer-tol-nan-string": (("simulation", "transfer_tol"), "nan"),
        # a removed setting is unknown, whatever its value
        "simulation-transfer-tol-five": (("simulation", "transfer_tol"), 5),
        "simulation-ceiling-huge-int": (("simulation", "density_ceiling"), 10 ** 400),
        "simulation-stride-fraction": (("simulation", "record_stride"), 2.5),
        "simulation-initial-density-string": (("simulation", "initial_density"), "x"),
        "simulation-initial-density-unknown-link": (("simulation", "initial_density"), {"99": 1.0}),
        "simulation-initial-density-non-id": (("simulation", "initial_density"), {"abc": 1.0}),
        "simulation-initial-density-negative": (("simulation", "initial_density"), {"0": -1.0}),
        "simulation-unknown-setting": (("simulation", "step"), 0.1),
        "simulation-tail-fraction-above-one": (("simulation", "tail_fraction"), 2),
        # the verdict window is the constant TAIL_FRACTION, so even its value is unknown
        "simulation-tail-fraction-default": (("simulation", "tail_fraction"), 0.2),
        "simulation-sat-threshold-above-one": (("simulation", "sat_threshold"), 1.5),
        "simulation-stride-zero": (("simulation", "record_stride"), 0),
        "simulation-dt-negative": (("simulation", "dt"), -1),
        "simulation-horizon-zero": (("simulation", "horizon"), 0),
        "simulation-ceiling-negative": (("simulation", "density_ceiling"), -1),
        "perturbation-both-forms": (("perturbation",), {"cut_attack": {"alpha": 0.25},
                                                        "links": {"0": {"eps": 0.5}}}),
    }

    @staticmethod
    def run(command, doc, tmp_path, capsys):
        extra = ["--horizon", "1", "--out", str(tmp_path / "run")] if command == "simulate" else []
        code = main([command, str(doc)] + extra)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if command != "validate":
            assert captured.err.startswith("error: ")
        return code, captured.out

    @pytest.mark.parametrize("command", ["validate", "limitflow", "simulate", "mincut",
                                         "resilience"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_one(self, tmp_path, capsys, command, case):
        doc = write_mutated(tmp_path, *self.CASES[case])
        code, out = self.run(command, doc, tmp_path, capsys)
        assert code == 1
        if command == "validate":
            (finding,) = json.loads(out)["findings"]
            assert finding["component"] == "document"

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_null_perturbation_eps(self, tmp_path, capsys, command):
        doc = write_mutated(tmp_path, ("perturbation",), {"links": {"0": {"eps": None}}})
        code, _ = self.run(command, doc, tmp_path, capsys)
        assert code == 1

    @pytest.mark.parametrize("command", ["validate", "limitflow", "simulate", "mincut",
                                         "resilience"])
    def test_attack_with_initial_density(self, tmp_path, capsys, command):
        # an attack run starts from the unperturbed limit flow, so a start density is refused
        doc = write_mutated(tmp_path, ("simulation", "initial_density"), {"0": 5.0, "1": 5.0},
                            source="example3_cutattack.json")
        code, out = self.run(command, doc, tmp_path, capsys)
        assert code == 1
        if command == "validate":
            (finding,) = json.loads(out)["findings"]
            assert finding["component"] == "document"
            assert finding["message"].startswith("simulation.initial_density: ")

    def test_nan_inflow_no_longer_validates(self, tmp_path, capsys):
        doc = write_mutated(tmp_path, ("inflow",), "nan")
        code, out = self.run("validate", doc, tmp_path, capsys)
        report = json.loads(out)
        assert code == 1 and report["ok"] is False
        assert report["findings"][0]["message"].startswith("inflow: ")


class TestUnknownFields:
    """A field no fixed-field object knows is a document error, not silently unread."""

    CASES = {
        "document": (lambda doc: doc.update(perturbaton={"cut_attack": {"alpha": 0.25}}),
                     "scenario", "perturbaton"),
        "link": (lambda doc: doc["links"][0].update(capacity=1.0), "links.0", "capacity"),
        "flow-function": (lambda doc: doc["flow_functions"]["1"].update(rate=2.0),
                          "flow_functions.1", "rate"),
        "policy": (lambda doc: doc["policies"]["0"].update(etta=2.0), "policies.0", "etta"),
        "perturbation": (lambda doc: doc.update(perturbation={"cut_attack": {"alpha": 0.25},
                                                              "scale": 0.5}),
                         "perturbation", "scale"),
        "cut-attack": (lambda doc: doc.update(perturbation={"cut_attack": {"alpha": 0.25,
                                                                           "alpah": 0.5}}),
                       "perturbation.cut_attack", "alpah"),
        "perturbed-link": (lambda doc: doc.update(perturbation={"links": {"0": {
            "type": "scale", "eps": 0.5, "epsilon": 0.5}}}), "perturbation.links.0", "epsilon"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_by_parse_and_validate(self, tmp_path, capsys, case):
        mutate, where, field = self.CASES[case]
        doc = json.loads((DATA / "example3.json").read_text())
        mutate(doc)
        message = f"{where}: unknown fields ['{field}']"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert str(exc.value) == message
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run_cli("validate", str(path), capsys=capsys)
        assert code == 1
        assert json.loads(out)["findings"] == [{"component": "document", "message": message}]

    def test_misspelt_perturbation_form_keeps_its_message(self):
        doc = json.loads((DATA / "example3.json").read_text())
        doc["perturbation"] = {"cut_atack": {"alpha": 0.25}}
        with pytest.raises(ScenarioError, match=r"^perturbation: expected a 'links' map or a "
                                                r"'cut_attack' section$"):
            parse_scenario(doc)


class TestUnreadableFiles:
    """An input that cannot be read or decoded exits 1 and an output that cannot be
    written exits 2, each with one ``error:`` line (``validate``: its report) and no
    traceback."""

    INPUTS = {
        "missing": None,
        "directory": "dir",
        "not-utf-8": b'{"name": "caf\xe9"}',
        "nested-past-the-recursion-limit": b"[" * 100_000 + b"]" * 100_000,
        "integer-of-5000-digits": b'{"nodes": ' + b"9" * 5000 + b"}",
    }

    @staticmethod
    def run(argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured

    @pytest.mark.parametrize("command", ["validate", "simulate", "mincut", "limitflow",
                                         "resilience"])
    @pytest.mark.parametrize("case", sorted(INPUTS))
    def test_unreadable_input_exits_one(self, tmp_path, capsys, command, case):
        path = tmp_path / "scenario.json"
        content = self.INPUTS[case]
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        extra = ["--out", str(tmp_path / "run")] if command == "simulate" else []
        code, captured = self.run([command, str(path)] + extra, capsys)
        assert code == 1
        if command == "validate":
            report = json.loads(captured.out)
            assert report["ok"] is False
            (finding,) = report["findings"]
            assert finding["component"] == "document"
            assert finding["message"].startswith(f"{path}: ")
        else:
            assert captured.err.startswith(f"error: {path}: ")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["mincut", str(DATA / "example3.json"), "--out", "{file}/x"],
        ["simulate", str(DATA / "example3.json"), "--horizon", "1", "--out", "{file}/x"],
        ["limitflow", str(DATA / "example3.json"), "--out", "{file}/x"],
        ["validate", str(DATA / "example3.json"), "--report", "{dir}"],
        ["resilience", str(DATA / "diamond5.json"), "--alphas", "0.5", "--samples", "1",
         "--horizon", "40", "--out", "{file}/x"],
    ], ids=["mincut-out-under-a-file", "simulate-out-under-a-file",
            "limitflow-out-under-a-file", "validate-report-a-directory",
            "resilience-out-under-a-file"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, argv):
        # stdout comes after every output file: a failed write leaves it empty
        (tmp_path / "file").write_text("", encoding="utf-8")
        (tmp_path / "dir").mkdir()
        argv = [a.format(file=tmp_path / "file", dir=tmp_path / "dir") for a in argv]
        code, captured = self.run(argv, capsys)
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command,flag", [
        ("validate", "--report"), ("simulate", "--out"), ("mincut", "--out"),
        ("resilience", "--out"), ("limitflow", "--out")])
    def test_empty_output_path_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                command, flag):
        def no_work(*args):
            raise AssertionError("no scenario may be loaded")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "load_scenario", no_work)
        with pytest.raises(SystemExit) as exc:
            main([command, str(DATA / "diamond5.json"), flag, ""])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument {flag}: expected a nonempty path" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestNodeCount:
    """A node count beyond what the links can join is a document error, found before
    any per-node table is built."""

    def test_one_more_node_than_links_parses(self):
        doc = json.loads((DATA / "chain21.json").read_text())
        assert doc["nodes"] == len(doc["links"]) + 1
        assert parse_scenario(doc).topology.num_nodes == doc["nodes"]

    def test_two_more_nodes_than_links_rejected(self):
        doc = json.loads((DATA / "chain21.json").read_text())
        doc["nodes"] = len(doc["links"]) + 2
        with pytest.raises(ScenarioError, match=r"^nodes: 4 nodes .*at most 3 nodes"):
            parse_scenario(doc)

    @pytest.mark.parametrize("command", ["validate", "limitflow", "simulate"])
    def test_billion_nodes_exit_one_fast(self, tmp_path, capsys, command):
        doc = write_mutated(tmp_path, ("nodes",), 10 ** 9)
        start = time.perf_counter()
        code, out = TestMalformedNumbers.run(command, doc, tmp_path, capsys)
        assert time.perf_counter() - start < 5.0
        assert code == 1
        if command == "validate":
            (finding,) = json.loads(out)["findings"]
            assert finding["component"] == "document"
            assert finding["message"].startswith("nodes: 1000000000 nodes")


class TestCmdValidate:
    def test_good_scenario_exit_zero(self, capsys):
        code, out = run_cli("validate", str(DATA / "example3.json"), capsys=capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_fast_exponential_validates(self, tmp_path, capsys):
        # rate 1e8: 50 median densities lie below 1e-6, where an absolute
        # lower end would have run the certification grid downward
        doc = write_mutated(tmp_path, ("flow_functions", "1", "a"), 1e8, source="chain21.json")
        code, out = run_cli("validate", str(doc), capsys=capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_cycle_named_in_report(self, capsys):
        code, out = run_cli("validate", str(DATA / "bad_cycle.json"), capsys=capsys)
        assert code == 1
        report = json.loads(out)
        assert any("cycle" in f["message"] and "1" in f["message"]
                   for f in report["findings"])

    def test_anti_cooperative_policy_flagged(self, capsys):
        code, out = run_cli("validate", str(DATA / "anti_cooperative.json"), capsys=capsys)
        assert code == 1
        report = json.loads(out)
        assert any(f["component"] == "policy[0]" and "cross-partial" in f["message"]
                   for f in report["findings"])

    def test_negative_seed_is_a_document_finding(self, tmp_path, capsys):
        code, out = run_cli("validate", str(write_mutated(tmp_path, ("seed",), -1)),
                            capsys=capsys)
        assert code == 1
        (finding,) = json.loads(out)["findings"]
        assert finding["component"] == "document" and finding["message"].startswith("seed: ")

    def test_cut_attack_within_transfer_slack_is_a_perturbation_finding(self, tmp_path,
                                                                        capsys):
        doc = write_mutated(tmp_path, ("perturbation", "cut_attack", "alpha"), 0.001,
                            source="example3_cutattack.json")
        code, out = run_cli("validate", str(doc), capsys=capsys)
        assert code == 1
        (finding,) = json.loads(out)["findings"]
        assert finding["component"] == "perturbation"
        assert finding["message"].startswith("alpha 0.001 is at or below the 1e-3 transfer slack")

    def test_stray_policy_entries_are_a_document_finding(self, tmp_path, capsys):
        # a weight for a link that does not exist, entries for the destination and for
        # a node that does not exist: each one alone makes the document malformed
        doc = json.loads((DATA / "example3.json").read_text())
        doc["policies"]["0"]["weights"]["7"] = 1.0
        doc["policies"]["1"] = doc["policies"]["5"] = {"eta": 1.0, "weights": {}}
        path = tmp_path / "stray.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run_cli("validate", str(path), capsys=capsys)
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        (finding,) = report["findings"]
        assert finding == {"component": "document", "message":
                           "policies.0.weights: weights for links not leaving node 0: ['7']"}

    def test_unparseable_document_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        bad.write_text("{", encoding="utf-8")
        code, out = run_cli("validate", str(bad), capsys=capsys)
        assert code == 1
        assert json.loads(out)["ok"] is False


class TestCmdSimulate:
    def test_two_route_summary_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _ = run_cli("simulate", str(DATA / "example3.json"),
                          "--horizon", "200", "--out", str(out), capsys=capsys)
        assert code == 0
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert summary["terminal_flow"]["0"] == pytest.approx(1 / 3, abs=1e-4)
        assert summary["terminal_flow"]["1"] == pytest.approx(2 / 3, abs=1e-4)
        assert summary["converged"] is True
        assert summary["saturated_links"] == []
        assert summary["max_undershoot"] <= 1e-9
        csv = (tmp_path / "run.csv").read_text().splitlines()
        assert csv[0] == "t,rho_0,rho_1,f_0,f_1,lambda_0,lambda_1"
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["tool_version"]
        assert len(manifest["scenario_sha256"]) == 64

    def test_zero_inflow_terminal_zero(self, tmp_path, capsys):
        doc = json.loads((DATA / "example3.json").read_text())
        doc["inflow"] = 0.0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _ = run_cli("simulate", str(path), "--horizon", "80",
                          "--out", str(tmp_path / "z"), capsys=capsys)
        assert code == 0
        summary = json.loads((tmp_path / "z.summary.json").read_text())
        assert abs(summary["terminal_flow"]["0"]) < 1e-6
        assert abs(summary["terminal_flow"]["1"]) < 1e-6

    # a step too coarse for diamond5: RK4 clamps densities from far below
    # zero and settles on a wrong flow (at dt 5, an outflow of 1.6 from an
    # inflow of 1.0), so the tail alone would read as converged
    @pytest.mark.parametrize("dt, tail_min", [("5", 1.5999999999438903),
                                              ("3", 0.9015445950079508)])
    def test_clamping_step_is_not_converged(self, tmp_path, capsys, dt, tail_min):
        code, _ = run_cli("simulate", str(DATA / "diamond5.json"), "--dt", dt,
                          "--horizon", "200", "--out", str(tmp_path / "run"), capsys=capsys)
        assert code == 0
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert summary["tail_min_outflow"] == tail_min
        assert summary["tail_variation"] <= 0.05
        assert summary["max_undershoot"] > dynamics.UNDERSHOOT_TOL
        assert summary["converged"] is False

    def test_cut_attack_scenario_defeated(self, tmp_path, capsys):
        code, _ = run_cli("simulate", str(DATA / "example3_cutattack.json"),
                          "--out", str(tmp_path / "atk"), capsys=capsys)
        assert code == 0
        summary = json.loads((tmp_path / "atk.summary.json").read_text())
        assert summary["attack"]["alpha"] == 0.25
        assert summary["attack"]["defeated"] is True
        assert summary["tail_min_outflow"] < 0.25 * 1.0
        assert summary["attack"]["magnitude"] == pytest.approx(1.375, abs=1e-12)

    def test_cut_attack_within_transfer_slack_exits_two(self, tmp_path, capsys):
        # the threshold alpha*inflow - 1e-3*inflow is 0: no outflow could defeat it
        doc = write_mutated(tmp_path, ("perturbation", "cut_attack", "alpha"), 0.001,
                            source="example3_cutattack.json")
        code = main(["simulate", str(doc), "--out", str(tmp_path / "atk")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: alpha 0.001 is at or below the 1e-3 transfer slack")
        assert not (tmp_path / "atk.summary.json").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        for name in ("a", "b"):
            run_cli("simulate", str(DATA / "chain21.json"), "--horizon", "5",
                    "--out", str(tmp_path / name), capsys=capsys)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.summary.json").read_bytes() == (tmp_path / "b.summary.json").read_bytes()

    def test_outdir_environment_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FLOWNET_OUTDIR", str(tmp_path / "sandbox"))
        code, _ = run_cli("simulate", str(DATA / "chain21.json"), "--horizon", "2",
                          "--out", "rel/run", capsys=capsys)
        assert code == 0
        assert (tmp_path / "sandbox" / "rel" / "run.csv").exists()

    def test_null_dt_keeps_default_step(self, tmp_path, capsys):
        steps = []
        for name, doc in [("null", write_mutated(tmp_path, ("simulation", "dt"), None)),
                          ("plain", DATA / "example3.json")]:
            code, _ = run_cli("simulate", str(doc), "--horizon", "1",
                              "--out", str(tmp_path / name), capsys=capsys)
            assert code == 0
            steps.append(json.loads((tmp_path / f"{name}.summary.json").read_text())["dt"])
        assert steps[0] == steps[1]

    def test_cyclic_topology_named(self, tmp_path, capsys):
        code = main(["simulate", str(DATA / "bad_cycle.json"), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cycle through nodes [1, 2]; ")

    @pytest.mark.parametrize("flag, value", [("--horizon", "inf"), ("--horizon", "nan"),
                                             ("--dt", "inf")])
    def test_non_finite_setting_is_runtime_failure(self, tmp_path, capsys, flag, value):
        code = main(["simulate", str(DATA / "diamond5.json"), flag, value,
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "finite" in err
        assert not (tmp_path / "run.csv").exists()


class TestStreamedFailure:
    """A ``simulate`` run that fails while its CSV streams writes no file, leaves an
    earlier run's files as they were and reaps its encoder process."""

    OUTPUTS = ("csv", "csv.tmp", "summary.json", "manifest.json")

    @staticmethod
    def recorded_encoders(monkeypatch):
        started = []

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(subprocess, "Popen", Recorded)
        return started

    def earlier_run(self, tmp_path, capsys):
        """An overloaded example3 run, short enough to succeed; its files by extension."""
        doc = write_mutated(tmp_path, ("inflow",), 2.0)
        prefix = tmp_path / "run"
        code, _ = run_cli("simulate", str(doc), "--horizon", "5", "--out", str(prefix),
                          capsys=capsys)
        assert code == 0
        files = {ext: Path(f"{prefix}.{ext}") for ext in self.OUTPUTS}
        return doc, prefix, {ext: p.read_bytes() for ext, p in files.items() if p.exists()}

    def assert_untouched(self, prefix, before, started):
        after = {ext: Path(f"{prefix}.{ext}").read_bytes() for ext in self.OUTPUTS
                 if Path(f"{prefix}.{ext}").exists()}
        assert after == before
        assert "csv.tmp" not in after
        (encoder,) = started
        assert encoder.returncode is not None  # waited for: no zombie left
        assert encoder.stdin.closed and encoder.stderr.closed

    def test_blow_up_after_many_blocks(self, tmp_path, capsys, monkeypatch):
        doc, prefix, before = self.earlier_run(tmp_path, capsys)
        # the overloaded densities pass the lowered ceiling near t = 189, 1 888 steps in
        monkeypatch.setattr(dynamics, "DENSITY_CEILING", 50.0)
        started = self.recorded_encoders(monkeypatch)
        code = main(["simulate", str(doc), "--horizon", "400", "--dt", "0.1",
                     "--out", str(prefix)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: integration unstable at t=188.")
        assert 188.0 / 0.1 > dynamics._BLOCK_RECORDS
        self.assert_untouched(prefix, before, started)

    def test_encoder_failure(self, tmp_path, capsys, monkeypatch):
        doc, prefix, before = self.earlier_run(tmp_path, capsys)
        failing = tmp_path / "failing_encoder.py"
        failing.write_text("import sys\nsys.exit('no room left')\n", encoding="utf-8")
        monkeypatch.setattr(cli, "_CSV_ENCODER", failing)
        started = self.recorded_encoders(monkeypatch)
        code = main(["simulate", str(doc), "--horizon", "400", "--dt", "0.1",
                     "--out", str(prefix)])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: the CSV encoder exited with status 1: no room left\n"
        self.assert_untouched(prefix, before, started)

    def test_keyboard_interrupt(self, tmp_path, capsys, monkeypatch):
        doc, prefix, before = self.earlier_run(tmp_path, capsys)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        # once every block has gone to the encoder
        monkeypatch.setattr(cli, "limit_flow_estimate", interrupted)
        started = self.recorded_encoders(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            main(["simulate", str(doc), "--horizon", "40", "--out", str(prefix)])
        self.assert_untouched(prefix, before, started)


class TestCmdMincut:
    def test_two_route_capacity(self, capsys):
        code, out = run_cli("mincut", str(DATA / "example3.json"), capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["capacity"] == pytest.approx(1.5, abs=1e-15)
        assert doc["max_flow"] == pytest.approx(1.5, abs=1e-15)
        assert doc["cut"]["links"] == [0, 1]

    def test_chain_bottleneck(self, capsys):
        code, out = run_cli("mincut", str(DATA / "chain21.json"), capsys=capsys)
        assert json.loads(out)["capacity"] == 1.0

    def test_one_max_flow_run(self, monkeypatch, capsys):
        sc = load_scenario(DATA / "random8.json")
        expected, _, _ = topology._max_flow(sc.topology, sc.network.capacities())
        runs = []
        real = topology._max_flow

        def counting(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(topology, "_max_flow", counting)
        code, out = run_cli("mincut", str(DATA / "random8.json"), capsys=capsys)
        assert code == 0 and len(runs) == 1
        assert json.loads(out)["max_flow"] == expected

    def test_random_dag_frozen_oracle(self, capsys):
        # 1.53 brute-forced by standalone enumeration when the fixture was made
        code, out = run_cli("mincut", str(DATA / "random8.json"), capsys=capsys)
        doc = json.loads(out)
        assert doc["capacity"] == pytest.approx(1.53, abs=1e-9)
        assert doc["cut"]["origin_side"] == [0, 3]

    def test_invalid_topology_exit_code(self, capsys):
        code, _ = run_cli("mincut", str(DATA / "bad_cycle.json"), capsys=capsys)
        assert code == 2


class TestCmdLimitflow:
    def test_sweep_monotone_to_saturation(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _ = run_cli("limitflow", str(DATA / "example3.json"),
                          "--sweep", "0:2:9", "--out", str(out), capsys=capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda0,f_0,f_1,sat_0,sat_1,status"
        rows = [l.split(",") for l in lines[1:]]
        f1 = [float(r[1]) for r in rows]
        f2 = [float(r[2]) for r in rows]
        # slack covers the 1e-10 stationary-solver residual
        assert all(b >= a - 1e-9 for a, b in zip(f1, f1[1:]))  # nondecreasing
        assert f1[0] == 0.0 and f2[0] == 0.0
        assert f1[-3:] == [0.75] * 3 and f2[-3:] == [0.75] * 3  # constant at capacity
        assert all(r[-1] == "ok" for r in rows)

    def test_parallel_jobs_identical_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("limitflow", str(DATA / "diamond5.json"), "--sweep", "0:2:5",
                "--out", str(a), capsys=capsys)
        run_cli("limitflow", str(DATA / "diamond5.json"), "--sweep", "0:2:5",
                "--jobs", "2", "--out", str(b), capsys=capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_singular_newton_step_is_a_failed_row(self, capsys):
        # the anti-cooperative policy makes the Newton Jacobian singular in places
        code, out = run_cli("limitflow", str(DATA / "anti_cooperative.json"),
                            "--sweep", "0:2:41", capsys=capsys)
        assert code == 0
        statuses = [line.split(",")[-1] for line in out.splitlines()[1:]]
        assert len(statuses) == 41
        assert all(s == "ok" or s.startswith("solver failed: residual ") for s in statuses)

    @pytest.mark.parametrize("sweep", ["nan:1:3", "0:inf:3", "-1.7e308:1.7e308:3"])
    def test_non_finite_sweep_grid_exit_one(self, capsys, sweep):
        # the last grid overflows between finite endpoints
        code = main(["limitflow", str(DATA / "diamond5.json"), f"--sweep={sweep}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--sweep grid must be finite" in captured.err

    @pytest.mark.parametrize("sweep", ["0:1", "a:1:3", "0:1:2.5", "0:1:x"])
    def test_malformed_sweep_exit_one(self, capsys, sweep):
        code = main(["limitflow", str(DATA / "diamond5.json"), f"--sweep={sweep}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --sweep expects start:stop:num, got {sweep!r}\n"

    def test_negative_sweep_point_exit_one(self, capsys):
        code = main(["limitflow", str(DATA / "diamond5.json"), "--sweep=-1:1:3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --sweep grid must be nonnegative, got point -1.0 in '-1:1:3'\n"

    def test_sweep_larger_than_memory_exit_two(self, capsys):
        # a 73 TiB grid: the allocation is refused at once, nothing is touched
        code = main(["limitflow", str(DATA / "diamond5.json"), "--sweep", "0:1:10000000000000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: ")
        assert captured.err.count("\n") == 1

    # anti_cooperative's sweep has failed rows among its ok ones
    @pytest.mark.parametrize("name", ["diamond5", "anti_cooperative"])
    def test_chunked_sweep_matches_one_chunk(self, tmp_path, capsys, monkeypatch, name):
        outputs = []
        for chunk in (7, 10**9):
            monkeypatch.setattr(cli, "_SWEEP_CHUNK", chunk)
            out = tmp_path / f"{chunk}.csv"
            code, stdout = run_cli("limitflow", str(DATA / f"{name}.json"), "--sweep", "0:2:41",
                                   capsys=capsys)
            assert code == 0
            assert run_cli("limitflow", str(DATA / f"{name}.json"), "--sweep", "0:2:41",
                           "--out", str(out), capsys=capsys)[0] == 0
            assert out.read_text() == stdout
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 42

    def test_sweep_memory_follows_its_text(self, tmp_path, monkeypatch):
        # each chunk's limit flows go once formatted: what stays is the
        # grid and the row text, not a dict per point
        monkeypatch.setattr(cli, "_SWEEP_CHUNK", 64)
        out = tmp_path / "sweep.csv"
        argv = ["limitflow", str(DATA / "diamond5.json"), "--sweep", "0:2:3000", "--out", str(out)]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * out.stat().st_size

    def test_failed_sweep_writes_no_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_SWEEP_CHUNK", 4)
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("cascade failed")
            return dynamics.network_limit_flows(*args)

        monkeypatch.setattr(cli, "network_limit_flows", failing)
        out = tmp_path / "sweep.csv"
        code = main(["limitflow", str(DATA / "diamond5.json"), "--sweep", "0:2:9",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and len(calls) == 2
        assert captured.out == "" and captured.err == "error: cascade failed\n"
        assert list(tmp_path.iterdir()) == []

    def test_single_point_to_stdout(self, capsys):
        code, out = run_cli("limitflow", str(DATA / "chain21.json"), capsys=capsys)
        assert code == 0
        line = out.splitlines()[1].split(",")
        assert float(line[1]) == pytest.approx(0.5, abs=1e-9)
        assert float(line[2]) == pytest.approx(0.5, abs=1e-9)


class TestCmdResilience:
    # at dt 5 the second sample settles on an outflow of 1.6 from an inflow
    # of 1.0 after clamping, and is not counted as preserved; at dt 7 the
    # defeating audit clamps, though its tail lands on the oracle's outflow
    @pytest.mark.parametrize("dt, samples, head", [
        ("5", "2", "sample of magnitude delta 1.074057380820026: simulated tail_min 1.6, "),
        ("7", "0", "alpha 0.5, cut scaling eps 0.307861328125: limit-flow oracle outflow "),
    ])
    def test_clamping_verdict_exits_two(self, capsys, dt, samples, head):
        code = main(["resilience", str(DATA / "diamond5.json"), "--dt", dt,
                     "--samples", samples, "--alphas", "0.5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: " + head)
        assert captured.err.endswith(
            "below zero, a step too coarse for the dynamics; try a smaller --dt\n")

    def test_report_written_and_deterministic(self, tmp_path, capsys):
        args = ("resilience", str(DATA / "example3.json"),
                "--alphas", "0.1", "--samples", "4", "--seed", "5",
                "--horizon", "150", "--dt", "0.02")
        code, out1 = run_cli(*args, capsys=capsys)
        assert code == 0
        code, out2 = run_cli(*args, capsys=capsys)
        assert out1 == out2  # byte-identical report
        doc = json.loads(out1)
        assert doc["min_cut"] == pytest.approx(1.5)
        lo, hi = doc["bracket"]
        assert lo <= hi + 1e-12
        assert doc["alpha_sweep"][0]["defeating_delta"] <= 1.5 - 0.05 + 0.015 + 1e-9

    def test_jobs_flag_writes_identical_report(self, tmp_path, capsys):
        # verdicts run as in-process ensembles; --jobs is accepted and ignored
        reports = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            code, stdout = run_cli("resilience", str(DATA / "diamond5.json"), "--alphas", "0.5",
                                   "--samples", "3", "--seed", "11", "--horizon", "10",
                                   "--jobs", jobs, "--out", str(out), capsys=capsys)
            assert code == 0
            reports.append((stdout, out.read_bytes()))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_negative_seed_rejected_before_any_work(self, monkeypatch, capsys, seed):
        def no_work(*args):
            raise AssertionError("no scenario may be loaded")

        monkeypatch.setattr(cli, "load_scenario", no_work)
        with pytest.raises(SystemExit) as exc:
            main(["resilience", str(DATA / "diamond5.json"), "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: expected a nonnegative integer, got '{seed}'" in err

    @pytest.mark.parametrize("samples", ["-3", "x"])
    def test_negative_sample_count_rejected_before_any_work(self, monkeypatch, capsys, samples):
        def no_work(*args):
            raise AssertionError("no scenario may be loaded")

        monkeypatch.setattr(cli, "load_scenario", no_work)
        with pytest.raises(SystemExit) as exc:
            main(["resilience", str(DATA / "diamond5.json"), "--samples", samples])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --samples: expected a nonnegative integer, got '{samples}'" in err

    @pytest.mark.parametrize("alphas", ["0.5,", "", "0.5,x", "0.5;0.2"])
    def test_malformed_alphas_rejected_by_the_parser(self, monkeypatch, capsys, alphas):
        def no_work(*args):
            raise AssertionError("no scenario may be loaded")

        monkeypatch.setattr(cli, "load_scenario", no_work)
        with pytest.raises(SystemExit) as exc:
            main(["resilience", str(DATA / "diamond5.json"), "--alphas", alphas])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument --alphas: expected comma-separated numbers, got '{alphas}'" in err

    def test_cut_bound_at_the_threshold_halves_the_scaling(self, capsys):
        # alpha in (1e-3, 2e-3]: the cut argument's outflow bound alpha * inflow / 2
        # is not below the threshold alpha * inflow - 1e-3 * inflow, so the
        # scaling alpha * inflow / (2 C) is halved before the bisection
        code, out = run_cli("resilience", str(DATA / "diamond5.json"), "--alphas", "0.0015",
                            "--samples", "1", "--horizon", "60", capsys=capsys)
        assert code == 0
        (point,) = json.loads(out)["alpha_sweep"]
        assert point["defeating_eps"] == pytest.approx(0.5 * 0.0015 / (2 * 1.6), rel=1e-12)

    def test_infinite_horizon_is_runtime_failure(self, capsys):
        code = main(["resilience", str(DATA / "diamond5.json"), "--alphas", "0.5",
                     "--samples", "2", "--horizon", "inf"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("alphas", ["0.001", "0.5,0.0005"])
    def test_alpha_within_transfer_slack_rejected_up_front(self, monkeypatch, capsys, alphas):
        def no_oracle(*args):
            raise AssertionError("no limit flow may be computed")

        monkeypatch.setattr(resilience, "network_limit_flows", no_oracle)
        code = main(["resilience", str(DATA / "diamond5.json"), "--alphas", alphas])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: alpha {alphas.split(',')[-1]} ") and "1e-3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("alphas", ["1.5", "nan", "inf", "0.5,-0.2"])
    def test_alpha_outside_unit_interval_rejected_up_front(self, monkeypatch, capsys, alphas):
        def no_oracle(*args):
            raise AssertionError("no limit flow may be computed")

        monkeypatch.setattr(resilience, "network_limit_flows", no_oracle)
        code = main(["resilience", str(DATA / "diamond5.json"), "--alphas", alphas])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: alpha {alphas.split(',')[-1]} must be in (0, 1]\n"

    def test_anti_cooperative_policy_is_runtime_failure(self, capsys):
        code, _ = run_cli("resilience", str(DATA / "anti_cooperative.json"),
                          "--alphas", "0.1", "--samples", "2", capsys=capsys)
        assert code == 2

    def test_responsiveness_failure_is_validates_first_finding(self, capsys):
        # one judgement: resilience raises the first policy finding validate reports
        code, out = run_cli("validate", str(DATA / "anti_cooperative.json"), capsys=capsys)
        first = next(f for f in json.loads(out)["findings"] if f["component"].startswith("policy"))
        assert main(["resilience", str(DATA / "anti_cooperative.json"),
                     "--alphas", "0.1", "--samples", "2", "--seed", "0"]) == 2
        node = first["component"][len("policy["):-1]
        assert capsys.readouterr().err == f"error: node {node}: {first['message']}\n"


    def test_non_positive_split_is_validates_first_finding(self, tmp_path, capsys):
        # eta = 10 passes properties (a) and (b) on diamond5, but a probed split underflows
        doc = json.loads((DATA / "diamond5.json").read_text())
        for body in doc["policies"].values():
            body["eta"] = 10.0
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run_cli("validate", str(path), capsys=capsys)
        assert code == 1
        assert json.loads(out)["findings"] == [
            {"component": "policy[1]", "message": "routing split is not strictly positive"}]
        assert main(["resilience", str(path), "--alphas", "0.5", "--samples", "1",
                     "--horizon", "30"]) == 2
        assert capsys.readouterr().err == "error: node 1: routing split is not strictly positive\n"


class TestPerLinkPerturbation:
    """A ``{"perturbation": {"links": ...}}`` document: its factors are judged by
    ``validate`` and applied by ``simulate``, which reports no cut-attack verdict."""

    @staticmethod
    def document(tmp_path, eps0):
        links = {"0": {"type": "scale", "eps": eps0}, "3": {"type": "scale", "eps": 0.25}}
        return write_mutated(tmp_path, ("perturbation",), {"links": links}, source="diamond5.json")

    def test_validated_and_simulated(self, tmp_path, capsys):
        doc = self.document(tmp_path, 0.5)
        code, out = run_cli("validate", str(doc), capsys=capsys)
        assert code == 0 and json.loads(out)["ok"] is True
        code, _ = run_cli("simulate", str(doc), "--horizon", "5",
                          "--out", str(tmp_path / "run"), capsys=capsys)
        assert code == 0
        attack = json.loads((tmp_path / "run.summary.json").read_text())["attack"]
        assert sorted(attack) == ["alpha", "magnitude", "stretching"]  # no "defeated"
        assert attack["alpha"] is None
        # link 0 loses 0.5 of its 1.0 capacity, link 3 0.75 of its 0.8
        assert attack["magnitude"] == pytest.approx(1.1, abs=1e-12)

    def test_factor_above_one(self, tmp_path, capsys):
        doc = self.document(tmp_path, 1.5)
        message = "scaling factor must be in (0, 1], got 1.5"
        code, out = run_cli("validate", str(doc), capsys=capsys)
        assert code == 1
        assert json.loads(out)["findings"] == [{"component": "perturbation", "message": message}]
        code = main(["simulate", str(doc), "--horizon", "5", "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mutated.json"]


class TestManifests:
    """A manifest records the arguments ``main`` parsed and the digest of the
    scenario bytes the run read; relative outputs land under ``$FLOWNET_OUTDIR`` once."""

    RESILIENCE = ("resilience", "--alphas", "0.5", "--samples", "1", "--horizon", "40")

    def test_command_is_the_parsed_argv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["flownet", "--some-host-flag"])
        argv = ["limitflow", str(DATA / "diamond5.json"), "--out", str(tmp_path / "lf.csv")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "lf.csv.manifest.json").read_text())
        assert manifest["command"] == argv

    def test_digest_of_the_bytes_parsed(self, tmp_path, capsys, monkeypatch):
        scenario = tmp_path / "diamond5.json"
        original = (DATA / "diamond5.json").read_bytes()
        scenario.write_bytes(original)

        def rewriting(*args, **kwargs):  # the file changes while the run is in progress
            scenario.write_bytes(original.replace(b'"inflow": 1.0', b'"inflow": 0.5'))
            return resilience.estimate_weak_resilience(*args, **kwargs)

        monkeypatch.setattr(cli, "estimate_weak_resilience", rewriting)
        command, *flags = self.RESILIENCE
        out = tmp_path / "res.json"
        assert main([command, str(scenario), *flags, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["min_cut"] == pytest.approx(1.6)
        assert scenario.read_bytes() != original
        manifest = json.loads((tmp_path / "res.json.manifest.json").read_text())
        assert manifest["scenario_sha256"] == hashlib.sha256(original).hexdigest()

    def test_relative_outdir_applies_once(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("FLOWNET_OUTDIR", "sandbox")
        scenario = str(DATA / "diamond5.json")
        assert main(["simulate", scenario, "--horizon", "2", "--out", "rel/run"]) == 0
        simulated = json.loads(capsys.readouterr().out)["outputs"]
        command, *flags = self.RESILIENCE
        assert main([command, scenario, *flags, "--out", "rel/res.json"]) == 0
        run = ["sandbox/rel/run.csv", "sandbox/rel/run.summary.json",
               "sandbox/rel/run.manifest.json"]
        assert simulated == run
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
        assert written == sorted(run + ["sandbox/rel/res.json",
                                        "sandbox/rel/res.json.manifest.json"])
        for manifest, outputs in (("run.manifest.json", run[:2]),
                                  ("res.json.manifest.json", ["sandbox/rel/res.json"])):
            assert json.loads((tmp_path / "sandbox" / "rel" / manifest).read_text())[
                "outputs"] == outputs


class TestGoldenFiles:
    """Byte-level pins of the versioned CSV/JSON output schemas."""

    GOLDEN = DATA / "golden"

    def test_trajectory_csv_and_summary(self, tmp_path, capsys):
        run_cli("simulate", str(DATA / "chain21.json"), "--horizon", "0.5", "--dt", "0.25",
                "--out", str(tmp_path / "chain_tiny"), capsys=capsys)
        assert (tmp_path / "chain_tiny.csv").read_bytes() == \
            (self.GOLDEN / "chain_tiny.csv").read_bytes(), mismatch("chain_tiny.csv")
        assert (tmp_path / "chain_tiny.summary.json").read_bytes() == \
            (self.GOLDEN / "chain_tiny.summary.json").read_bytes(), \
            mismatch("chain_tiny.summary.json")

    def test_mincut_json(self, tmp_path, capsys):
        run_cli("mincut", str(DATA / "chain21.json"),
                "--out", str(tmp_path / "mc.json"), capsys=capsys)
        assert (tmp_path / "mc.json").read_bytes() == \
            (self.GOLDEN / "chain_mincut.json").read_bytes(), mismatch("chain_mincut.json")

    def test_resilience_report_json(self, capsys):
        # two alphas: both bisect on the oracle, then one ensemble audits their brackets
        code, out = run_cli("resilience", str(DATA / "diamond5.json"), "--alphas", "0.5,0.05",
                            "--samples", "4", "--horizon", "10", "--seed", "3", capsys=capsys)
        assert code == 0
        assert out.encode() == (self.GOLDEN / "diamond5_resilience.json").read_bytes(), \
            mismatch("diamond5_resilience.json")

    # recorded when the verdicts kept whole trajectories and split these 16 members 15 + 1
    DIAMOND5_16_MEMBERS_SHA256 = "132d0b4d366d27f587a8c03f080317dd3858587b3379895efe5f225a38334542"

    def test_default_horizon_verdicts_run_as_one_ensemble(self, monkeypatch, capsys):
        # two alphas' bracket audits and 12 samples at the default horizon of 200
        sizes = []
        real = dynamics._integrate

        def counting(deriv, rho0, *args):
            sizes.append(len(rho0))  # the (B, m) start densities of one ensemble
            return real(deriv, rho0, *args)

        monkeypatch.setattr(dynamics, "_integrate", counting)
        code, out = run_cli("resilience", str(DATA / "diamond5.json"), "--alphas", "0.5,0.05",
                            "--samples", "12", "--seed", "3", capsys=capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIAMOND5_16_MEMBERS_SHA256, \
            mismatch("diamond5 16-member resilience digest")
        assert sizes == [16]

    def test_simulate_outputs_match_pinned_digests(self, tmp_path):
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
        runs = simulate_runs(tmp_path)
        assert sorted(runs) == sorted(pinned)
        for name, (path, extra) in runs.items():
            assert simulate_digests(path, extra, tmp_path) == pinned[name], \
                mismatch(f"{name} simulate digests")

    def test_dag_simulate_outputs_match_pinned_digests(self, tmp_path):
        # node inflows summed over up to 8 in-links, wider sums than any tests/data scenario has
        pinned = json.loads(DAG_DIGESTS.read_text(encoding="utf-8"))
        runs = dag_runs(tmp_path)
        assert sorted(runs) == sorted(pinned)
        for name, (path, extra) in runs.items():
            assert simulate_digests(path, extra, tmp_path) == pinned[name], \
                mismatch(f"{name} simulate digests")

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_block_size_keeps_pinned_digests(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(dynamics, "_BLOCK_RECORDS", block_rows)
        self.test_simulate_outputs_match_pinned_digests(tmp_path)

    # the attack run's 175 KB trajectory is pinned by digest, its summary by bytes
    CUTATTACK_CSV_SHA256 = "3572d8ef67ea32ec7fd27f46075bfb3473cfb5c730e4e7414518c326f0b404a0"

    def test_cut_attack_trajectory_and_summary(self, tmp_path, capsys):
        code, _ = run_cli("simulate", str(DATA / "example3_cutattack.json"), "--horizon", "20",
                          "--out", str(tmp_path / "example3_cutattack"), capsys=capsys)
        assert code == 0
        csv = (tmp_path / "example3_cutattack.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == self.CUTATTACK_CSV_SHA256, \
            mismatch("example3_cutattack.csv digest")
        assert (tmp_path / "example3_cutattack.summary.json").read_bytes() == \
            (self.GOLDEN / "example3_cutattack.summary.json").read_bytes(), \
            mismatch("example3_cutattack.summary.json")

    def test_limitflow_sweep_csv(self, tmp_path, capsys):
        run_cli("limitflow", str(DATA / "chain21.json"), "--sweep", "0:1.2:4",
                "--out", str(tmp_path / "sweep.csv"), capsys=capsys)
        assert (tmp_path / "sweep.csv").read_bytes() == \
            (self.GOLDEN / "chain_sweep.csv").read_bytes(), mismatch("chain_sweep.csv")


def _one_string_csv(traj) -> str:
    """The trajectory CSV built as one string, row by row."""
    cols = (["t"] + [f"rho_{lid}" for lid in traj.link_ids]
            + [f"f_{lid}" for lid in traj.link_ids]
            + [f"lambda_{v}" for v in range(traj.node_inflows.shape[1])])
    lines = [",".join(cols)]
    for i in range(len(traj.times)):
        row = [repr(float(traj.times[i]))]
        row += [repr(float(x)) for x in traj.rho[i]]
        row += [repr(float(x)) for x in traj.flows[i]]
        row += [repr(float(x)) for x in traj.node_inflows[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_csv_blocks_match_one_string(offset, tmp_path):
    block = dynamics._BLOCK_RECORDS
    rows = 2 if offset is None else block + offset
    rng = np.random.default_rng(rows)
    # floats of every repr shape: integral, tiny, huge, negative, long mantissas
    values = rng.standard_normal((rows, 3 + 3 + 4)) * 10.0 ** rng.integers(-30, 30, (rows, 10))
    values[::7, 1] = 0.0
    values[::5, 4] = 1.0
    traj = Trajectory(times=np.cumsum(rng.uniform(0.0, 0.1, rows)), rho=values[:, :3],
                      flows=values[:, 3:6], node_inflows=values[:, 6:], link_ids=(0, 4, 2),
                      inflow=1.0, dt=0.1, destination=3)
    expected = _one_string_csv(traj)
    table = np.column_stack((traj.times, traj.rho, traj.flows, traj.node_inflows))
    path = tmp_path / "run.csv"
    # the encoder process writes the blocks simulate sends it
    with cli._csv_encoder(path, expected.split("\n", 1)[0].split(",")) as send:
        for lo in range(0, rows, block):
            send(table[lo:lo + block])
    assert path.read_text(encoding="utf-8") == expected
    assert expected.count("\n") == rows + 1
    assert not (tmp_path / "run.csv.tmp").exists()


class TestSweepAgainstSimulation:
    def test_limit_flow_rows_match_ode_tails(self, tmp_path, capsys):
        out = tmp_path / "spots.csv"
        run_cli("limitflow", str(DATA / "example3.json"),
                "--sweep", "0.25:1.25:5", "--out", str(out), capsys=capsys)
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        sc = load_scenario(DATA / "example3.json")
        from flownet import SimulationConfig, simulate

        for row in rows:
            lam = float(row[0])
            traj = simulate(sc.network, sc.policy,
                            SimulationConfig(inflow=lam, horizon=400.0, dt=0.02,
                                             record_stride=20))
            np.testing.assert_allclose(
                [float(row[1]), float(row[2])], traj.terminal_flow(), atol=1e-3)


def test_readme_python_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("```", 1)[0], {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1].startswith("True ")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flownet.cli", "validate", str(DATA / "example3.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    def test_parser_built_once_answers_every_call_alike(self, monkeypatch, capsys):
        builds = []
        real = cli.build_parser

        def counting():
            builds.append(1)
            return real()

        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", functools.cache(counting))
        fresh = real()
        for _ in range(2):
            for argv, stream in ((["--help"], "out"), (["simulate", "--help"], "out"),
                                 (["simulate", str(DATA / "example3.json")], "err"),
                                 (["resilience", "x", "--seed", "-1"], "err")):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                text = getattr(capsys.readouterr(), stream)
                with pytest.raises(SystemExit) as ref_exc:
                    fresh.parse_args(argv)
                assert exc.value.code == ref_exc.value.code
                assert text == getattr(capsys.readouterr(), stream)
            code, out = run_cli("validate", str(DATA / "example3.json"), capsys=capsys)
            assert code == 0 and json.loads(out)["ok"] is True
        assert len(builds) == 1

    def test_unstable_run_prints_only_its_error(self, tmp_path):
        # the huge step overflows expm1 and matmul before the ceiling check stops the run
        src = str(Path(flownet.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "flownet.cli", "simulate", str(DATA / "diamond5.json"),
             "--dt", "1e9", "--out", str(tmp_path / "X")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: integration unstable")
        assert "Warning" not in proc.stderr


def test_loading_scenarios_and_every_command_leave_scipy_unimported(tmp_path):
    # No module of the package imports scipy, which the tests alone need (about
    # 50 MB and most of a cold start's import time).  The test process has
    # imported it already, so the check runs in a fresh interpreter.
    code = ("import contextlib, io, pathlib, sys\n"
            "import flownet\n"
            "from flownet import cli\n"
            "data, out = pathlib.Path(sys.argv[1]), sys.argv[2]\n"
            "for path in sorted(data.glob('*.json')):\n"
            "    flownet.load_scenario(path)\n"
            "doc = str(data / 'diamond5.json')\n"
            "for argv in (['validate', doc], ['mincut', doc],\n"
            "             ['limitflow', doc, '--sweep', '0:3:5'],\n"
            "             ['simulate', doc, '--horizon', '1', '--out', out],\n"
            "             ['resilience', doc, '--alphas', '0.5', '--samples', '1',\n"
            "              '--horizon', '20']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    src = str(Path(flownet.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(DATA), str(tmp_path / "run")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
