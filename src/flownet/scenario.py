"""Scenario documents: one JSON file describing a whole experiment.

A scenario carries the topology, per-link flow-function parameters,
per-node routing parameters, the origin inflow, and optionally a
perturbation section and simulation overrides.  Explicit link ids keep
parallel links unambiguous.

Example::

    {
      "name": "two-route",
      "nodes": 2,
      "links": [{"id": 0, "tail": 0, "head": 1},
                {"id": 1, "tail": 0, "head": 1}],
      "flow_functions": {"0": {"family": "exp", "a": 1.0, "f_max": 0.75},
                         "1": {"family": "exp", "a": 1.0, "f_max": 0.75}},
      "policies": {"0": {"eta": 1.0, "weights": {"0": 0.6, "1": 6.0}}},
      "inflow": 1.0,
      "perturbation": {"cut_attack": {"alpha": 0.25}},
      "seed": 0
    }

A per-link perturbation instead looks like
``{"links": {"0": {"type": "scale", "eps": 0.5}}}``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .flows import ExponentialFlow, FlowNetwork, InadmissiblePerturbation, PerturbationSpec
from .resilience import cut_attack
from .routing import LogitPolicy, responsiveness_findings
from .topology import Link, NetworkTopology, TopologyError, validate_topology

__all__ = ["Scenario", "ScenarioError", "load_scenario", "parse_scenario", "validate_scenario"]


class ScenarioError(ValueError):
    """Malformed scenario document; the message carries field context."""


@dataclass
class Scenario:
    name: str
    topology: NetworkTopology
    network: FlowNetwork
    policy: LogitPolicy
    inflow: float
    seed: int = 0
    simulation: dict = field(default_factory=dict)
    perturbation: dict | None = None

    def perturbation_spec(self) -> PerturbationSpec | None:
        """Materialize the perturbation section, if any."""
        if not self.perturbation:
            return None
        alpha = self.attack_alpha()
        if alpha is not None:
            return cut_attack(self.network, alpha, self.inflow)
        factors = {}
        for key, body in self.perturbation["links"].items():
            where = f"perturbation.links.{key}"
            body = _object(body, where)
            if body.get("type", "scale") != "scale":
                raise ScenarioError(f"{where}: unknown type {body.get('type')!r}")
            factors[int(key)] = _number(_need(body, "eps", where), f"{where}.eps")
        return PerturbationSpec.scaling(self.network, factors)

    def attack_alpha(self) -> float | None:
        if self.perturbation and "cut_attack" in self.perturbation:
            where = "perturbation.cut_attack"
            return _number(_need(_object(self.perturbation["cut_attack"], where), "alpha", where),
                           f"{where}.alpha")
        return None


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return doc[key]


def _kind(value) -> str:
    """What ``value`` is in JSON terms, for error messages."""
    names = {dict: "an object", list: "an array", str: "a string", bool: "a boolean"}
    return "null" if value is None else names.get(type(value), type(value).__name__)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected a JSON object, got {_kind(value)}")
    return value


def _number(value, where: str, integer: bool = False):
    """A JSON number as a finite float (an int with ``integer``), else ``ScenarioError``.

    Strings, booleans and null are wrong types even where ``float()`` would
    take them; NaN and infinities are rejected.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {_kind(value)}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: must be finite, got {value!r}")
    if not integer:
        return number
    if not number.is_integer():
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return int(value)


# ``SimulationConfig`` fields a scenario's ``simulation`` section may set
SIMULATION_SETTINGS = ("dt", "horizon", "tail_fraction", "transfer_tol", "sat_threshold",
                       "density_ceiling", "record_stride")


def _simulation_section(raw, topo: NetworkTopology) -> dict:
    """The ``simulation`` section with every value checked.

    ``dt`` and ``transfer_tol`` may be null, which keeps their defaults;
    ``record_stride`` is an integer; ``initial_density``, unless null, maps
    ids of ``topo``'s links to nonnegative densities (links it leaves out
    start empty).
    """
    sim = dict(_object(raw, "simulation"))
    stray = set(sim) - set(SIMULATION_SETTINGS) - {"initial_density"}
    if stray:
        raise ScenarioError(f"simulation: unknown settings {sorted(stray)}")
    for key, value in sim.items():
        where = f"simulation.{key}"
        if value is None and key in ("dt", "transfer_tol", "initial_density"):
            continue
        if key == "initial_density":
            density = _object(value, where)
            stray = set(density) - {str(lid) for lid in topo.link_ids}
            if stray:
                raise ScenarioError(f"{where}: unknown links {sorted(stray)}")
            sim[key] = {lid: _number(rho, f"{where}.{lid}") for lid, rho in density.items()}
            for lid, rho in sim[key].items():
                if rho < 0:
                    raise ScenarioError(f"{where}.{lid}: must be nonnegative, got {rho!r}")
        else:
            sim[key] = _number(value, where, integer=key == "record_stride")
    return sim


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    """Build a Scenario from a decoded JSON object, checking cross-references."""
    doc = _object(doc, "scenario document")
    name = str(doc.get("name", name))
    nodes = _number(_need(doc, "nodes", "scenario"), "nodes", integer=True)
    raw_links = _need(doc, "links", "scenario")
    if not isinstance(raw_links, list):
        raise ScenarioError(f"links: expected a JSON array, got {_kind(raw_links)}")
    # every node but the destination has an outgoing link
    if nodes > len(raw_links) + 1:
        raise ScenarioError(f"nodes: {nodes} nodes cannot all be joined by "
                            f"{len(raw_links)} links (at most {len(raw_links) + 1} nodes)")
    links = []
    for i, raw in enumerate(raw_links):
        where = f"links.{i}"
        raw = _object(raw, where)
        lid, tail, head = (_number(_need(raw, key, where), f"{where}.{key}", integer=True)
                           for key in ("id", "tail", "head"))
        links.append(Link(lid, tail, head))
    try:
        topo = NetworkTopology(nodes, links)
    except TopologyError as exc:
        raise ScenarioError(f"links: {exc}") from exc

    ff_doc = _object(_need(doc, "flow_functions", "scenario"), "flow_functions")
    fns = {}
    for lid in topo.link_ids:
        where = f"flow_functions.{lid}"
        body = ff_doc.get(str(lid))
        if body is None:
            raise ScenarioError(f"flow_functions: missing entry for link {lid}")
        body = _object(body, where)
        family = body.get("family", "exp")
        if family != "exp":
            raise ScenarioError(f"{where}: unknown family {family!r}")
        rate = _number(_need(body, "a", where), f"{where}.a")
        f_max = _number(_need(body, "f_max", where), f"{where}.f_max")
        try:
            fns[lid] = ExponentialFlow(rate, f_max)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    stray = set(ff_doc) - {str(lid) for lid in topo.link_ids}
    if stray:
        raise ScenarioError(f"flow_functions: entries for unknown links {sorted(stray)}")
    network = FlowNetwork(topo, fns)

    pol_doc = _object(_need(doc, "policies", "scenario"), "policies")
    eta, weights = {}, {}
    for v in range(topo.num_nodes):
        out = topo.outgoing[v]
        if not out:
            continue
        where = f"policies.{v}"
        body = pol_doc.get(str(v))
        if body is None:
            raise ScenarioError(f"policies: missing entry for non-destination node {v}")
        body = _object(body, where)
        eta[v] = _number(_need(body, "eta", where), f"{where}.eta")
        w = _object(body.get("weights", {}), f"{where}.weights")
        for lid in out:
            if str(lid) not in w:
                raise ScenarioError(f"{where}: missing weight for outgoing link {lid}")
            weights[lid] = _number(w[str(lid)], f"{where}.weights.{lid}")
    try:
        policy = LogitPolicy(topo, eta, weights)
    except ValueError as exc:
        raise ScenarioError(f"policies: {exc}") from exc

    inflow = _number(_need(doc, "inflow", "scenario"), "inflow")
    if inflow < 0:
        raise ScenarioError("inflow: must be nonnegative")

    seed = _number(doc.get("seed", 0), "seed", integer=True)
    if seed < 0:
        raise ScenarioError(f"seed: must be a nonnegative integer, got {seed}")

    pert = doc.get("perturbation")
    if pert is not None:
        if not isinstance(pert, dict) or not ({"links", "cut_attack"} & set(pert)):
            raise ScenarioError("perturbation: expected a 'links' map or a 'cut_attack' section")
        if "links" in pert:
            stray = set(_object(pert["links"], "perturbation.links")) \
                - {str(lid) for lid in topo.link_ids}
            if stray:
                raise ScenarioError(f"perturbation.links: unknown links {sorted(stray)}")

    return Scenario(
        name=name,
        topology=topo,
        network=network,
        policy=policy,
        inflow=inflow,
        seed=seed,
        simulation=_simulation_section(doc.get("simulation", {}), topo),
        perturbation=pert,
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_scenario(doc, name=str(path))


def validate_scenario(scenario: Scenario) -> dict:
    """Full semantic validation: topology, flow certification, policy properties.

    Returns a machine-readable report; ``ok`` is the overall verdict.
    """
    findings = []
    topo_result = validate_topology(scenario.topology)
    for msg in topo_result.violations:
        findings.append({"component": "topology", "message": msg})

    for lid in scenario.topology.link_ids:
        for msg in scenario.network.flow_functions[lid].certify():
            findings.append({"component": f"flow_function[{lid}]", "message": msg})

    if topo_result.ok:
        for v, msg in responsiveness_findings(scenario.policy, scenario.seed):
            findings.append({"component": f"policy[{v}]", "message": msg})
        if scenario.perturbation is not None:
            try:
                scenario.perturbation_spec()
            except (InadmissiblePerturbation, ScenarioError, ValueError) as exc:
                findings.append({"component": "perturbation", "message": str(exc)})

    return {"ok": not findings, "scenario": scenario.name, "findings": findings}
