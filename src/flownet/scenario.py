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

import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import DENSITY_CEILING, LocalSolverError, SimulationConfig
from .flows import ExponentialFlow, FlowNetwork, PerturbationSpec
from .resilience import _attack_setup, _require_positive_threshold, cut_attack
from .routing import LogitPolicy, responsiveness_findings
from .topology import Link, NetworkTopology, TopologyError, validate_topology

__all__ = ["Scenario", "ScenarioError", "load_scenario", "parse_scenario", "validate_scenario"]


class ScenarioError(ValueError):
    """Malformed scenario document; the message carries field context."""


@dataclass
class Scenario:
    """A checked scenario document: ``config`` holds its inflow and ``simulation``
    settings, ``initial_density`` its start densities in ``topology.link_ids``
    order (None: empty), and its perturbation is a cut attack at level
    ``attack_alpha`` or the per-link factors ``scalings`` (both None without one).
    A perturbed run starts from the unperturbed limit flow, so a scenario
    with a perturbation has no ``initial_density``.  ``sha256`` is the
    digest of the file bytes ``load_scenario`` parsed (None for a parsed
    document).
    """

    name: str
    topology: NetworkTopology
    network: FlowNetwork
    policy: LogitPolicy
    inflow: float
    config: SimulationConfig
    seed: int = 0
    initial_density: np.ndarray | None = None
    attack_alpha: float | None = None
    scalings: dict | None = None
    sha256: str | None = None

    def perturbation_spec(self) -> PerturbationSpec | None:
        """Materialize the perturbation, if any; a cut attack at a level whose
        transfer verdict could not be judged is a ``ValueError``."""
        if self.attack_alpha is not None:
            _require_positive_threshold(self.attack_alpha, self.inflow)
            return cut_attack(self.network, self.attack_alpha, self.inflow)
        if self.scalings is not None:
            return PerturbationSpec(self.network, self.scalings)
        return None


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return doc[key]


def _known(body: dict, keys, where: str, _what: str = "unknown fields") -> None:
    """Refuse keys of ``body`` outside ``keys`` as ``"{where}: {_what} [keys]"``: a
    misspelt key would otherwise go unread."""
    stray = set(body) - set(keys)
    if stray:
        raise ScenarioError(f"{where}: {_what} {sorted(stray)}")


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
SIMULATION_SETTINGS = tuple(f.name for f in fields(SimulationConfig) if f.name != "inflow")


def _simulation_section(raw, topo: NetworkTopology, inflow: float):
    """The ``SimulationConfig`` of ``inflow`` and the ``simulation`` section, and
    the start densities in ``topo.link_ids`` order (None to start empty).

    ``dt`` and ``initial_density`` may be null for their defaults;
    ``initial_density`` maps link ids to nonnegative densities at most
    ``DENSITY_CEILING`` (links it leaves out start empty).  A setting out
    of range is a ``ScenarioError``.
    """
    sim = dict(_object(raw, "simulation"))
    density = sim.pop("initial_density", None)
    _known(sim, SIMULATION_SETTINGS, "simulation", "unknown settings")
    settings = {key: _number(value, f"simulation.{key}", integer=key == "record_stride")
                for key, value in sim.items()
                if value is not None or key != "dt"}
    try:
        config = SimulationConfig(inflow=inflow, **settings)
    except ValueError as exc:
        raise ScenarioError(f"simulation: {exc}") from exc
    if density is None:
        return config, None
    where = "simulation.initial_density"
    _known(_object(density, where), map(str, topo.link_ids), where, "unknown links")
    rho = [_number(density.get(str(lid), 0.0), f"{where}.{lid}") for lid in topo.link_ids]
    for lid, value in zip(topo.link_ids, rho):
        if value < 0:
            raise ScenarioError(f"{where}.{lid}: must be nonnegative, got {value!r}")
        if value > DENSITY_CEILING:
            raise ScenarioError(f"{where}.{lid}: must be at most the density ceiling "
                                f"{DENSITY_CEILING:g}, got {value!r}")
    return config, np.array(rho)


def _perturbation_section(raw, topo: NetworkTopology):
    """The cut-attack level and the per-link scaling factors of a
    ``perturbation`` section; exactly one of the two is not None."""
    forms = {"links", "cut_attack"} & set(raw) if isinstance(raw, dict) else set()
    if not forms:
        raise ScenarioError("perturbation: expected a 'links' map or a 'cut_attack' section")
    if len(forms) > 1:
        raise ScenarioError("perturbation: holds both a 'links' map and a 'cut_attack' section")
    _known(raw, ("links", "cut_attack"), "perturbation")
    if "cut_attack" in raw:
        where = "perturbation.cut_attack"
        body = _object(raw["cut_attack"], where)
        alpha = _number(_need(body, "alpha", where), f"{where}.alpha")
        _known(body, ("alpha",), where)
        return alpha, None
    links = _object(raw["links"], "perturbation.links")
    _known(links, map(str, topo.link_ids), "perturbation.links", "unknown links")
    scalings = {}
    for key, body in links.items():
        where = f"perturbation.links.{key}"
        body = _object(body, where)
        if body.get("type", "scale") != "scale":
            raise ScenarioError(f"{where}: unknown type {body.get('type')!r}")
        scalings[int(key)] = _number(_need(body, "eps", where), f"{where}.eps")
        _known(body, ("type", "eps"), where)
    return None, scalings


# The fields of a scenario document; any other is refused
DOCUMENT_FIELDS = ("name", "nodes", "links", "flow_functions", "policies", "inflow", "seed",
                   "perturbation", "simulation")


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    """Build a Scenario from a decoded JSON object, checking cross-references.

    Every fixed-field object (the document, a link, a flow function, a
    policy, the perturbation and its parts) refuses fields it does not
    know, after its own checks.
    """
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
        _known(raw, ("id", "tail", "head"), where)
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
        _known(body, ("family", "a", "f_max"), where)
        try:
            fns[lid] = ExponentialFlow(rate, f_max)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    _known(ff_doc, map(str, topo.link_ids), "flow_functions", "entries for unknown links")
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
        _known(w, map(str, out), f"{where}.weights", f"weights for links not leaving node {v}:")
        _known(body, ("eta", "weights"), where)
    _known(pol_doc, map(str, eta), "policies", "entries for unknown or destination nodes")
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
    attack_alpha, scalings = (None, None) if pert is None else _perturbation_section(pert, topo)
    config, initial_density = _simulation_section(doc.get("simulation", {}), topo, inflow)
    if pert is not None and initial_density is not None:
        raise ScenarioError("simulation.initial_density: a run with a perturbation starts from "
                            "the unperturbed limit flow; drop one of the two")
    _known(doc, DOCUMENT_FIELDS, "scenario")

    return Scenario(
        name=name,
        topology=topo,
        network=network,
        policy=policy,
        inflow=inflow,
        config=config,
        seed=seed,
        initial_density=initial_density,
        attack_alpha=attack_alpha,
        scalings=scalings,
    )


def load_scenario(path) -> Scenario:
    """Read, decode and parse the scenario file at ``path``.

    The file is read once: the returned ``Scenario`` keeps the SHA-256 of
    the bytes it was parsed from.  A file that cannot be read, is not UTF-8
    or is not JSON that Python can decode (nested past the recursion limit,
    an integer literal past the digit limit) is a ``ScenarioError`` naming
    the path.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # newlines as text mode reads them, so JSON error positions count lines alike
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read the file: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path}: JSON nested too deeply to decode") from exc
    except ValueError as exc:  # e.g. an integer literal past sys.get_int_max_str_digits()
        raise ScenarioError(f"{path}: cannot decode the JSON: {exc}") from exc
    scenario = parse_scenario(doc, name=str(path))
    scenario.sha256 = hashlib.sha256(data).hexdigest()
    return scenario


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
        try:
            if scenario.perturbation_spec() is not None:
                # the attack run's start, refused as ``simulate`` refuses it
                _attack_setup(scenario.network, scenario.policy, scenario.inflow, None)
        except (ValueError, LocalSolverError) as exc:  # an inadmissible perturbation among them
            findings.append({"component": "perturbation", "message": str(exc)})

    return {"ok": not findings, "scenario": scenario.name, "findings": findings}
