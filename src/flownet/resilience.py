"""Adversarial capacity attacks and weak-resilience estimation.

The adversary replaces flow functions with pointwise-smaller ones; the
defender's routing policy is unaware and reacts only through the densities
it observes.  The benchmark is the min-cut capacity C: scaling a minimal
cut down far enough defeats any routing policy with a perturbation of
magnitude C - alpha * inflow / 2, while locally responsive strictly
positive policies survive (keep a positive outflow trickle) under every
scaling attack of magnitude bounded away from C.  The estimator brackets
the critical magnitude by bisecting on the limit-flow oracle, and
simulates only its random samples and the bracket endpoints it audits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .dynamics import (
    SimulationConfig,
    _ensemble_blocks,
    _transfer_estimate,
    _transfer_threshold,
    default_dt,
    network_limit_flow,
)
from .flows import FlowNetwork, PerturbationSpec
from .routing import RoutingPolicy, responsiveness_findings
from .topology import min_cut_capacity

__all__ = [
    "AlphaSweepPoint",
    "ResilienceReport",
    "cut_attack",
    "evaluate_attacks",
    "estimate_weak_resilience",
    "require_locally_responsive",
    "sample_scaling_perturbations",
]

# Lower side of the bracket: random samples reach (1 - MARGIN) C ...
MARGIN = 0.1
# ... and each must keep its tail outflow at or above ALPHA_FLOOR * inflow.
ALPHA_FLOOR = 1e-3
# Upper side: cut-scaling bisections stop within this fraction of C.
BISECT_TOL_FRAC = 0.01


@dataclass(frozen=True)
class AlphaSweepPoint:
    alpha: float
    defeating_delta: float
    defeating_eps: float
    preserved_delta: float
    evaluations: int


@dataclass
class ResilienceReport:
    min_cut: float
    witness_cut: tuple
    alpha_sweep: list
    preserved_delta_max: float
    samples: list
    seed: int
    inflow: float

    @property
    def bracket(self):
        """(largest delta verified preserved, smallest delta verified defeating).

        The defeating end is taken at the smallest alpha swept: the critical
        magnitude is nonincreasing in alpha, so the deepest sweep point is
        the best available stand-in for the alpha -> 0 limit.
        """
        deepest = min(self.alpha_sweep, key=lambda p: p.alpha)
        return (self.preserved_delta_max, deepest.defeating_delta)

    def to_dict(self) -> dict:
        """Every field, the witness cut as a list, and the bracket."""
        return {**asdict(self), "witness_cut": list(self.witness_cut), "bracket": list(self.bracket)}


def cut_attack(network: FlowNetwork, alpha: float, inflow: float) -> PerturbationSpec:
    """Scale every link of a minimal cut by alpha * inflow / (2 C).

    The resulting magnitude is C - alpha * inflow / 2 and, on exponential
    links, the attack does not move any median density (stretching 1).
    By the cut argument the perturbed network cannot alpha-transfer.
    """
    if inflow <= 0:
        raise ValueError("cut_attack needs a positive inflow")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    capacity, cut = min_cut_capacity(network.topology, network.capacities())
    eps = alpha * inflow / (2.0 * capacity)
    if eps >= 1:
        raise ValueError("alpha * inflow >= 2 * min-cut: scaling attack degenerates")
    return PerturbationSpec.scaling(network, {lid: eps for lid in sorted(cut.cut_links)})


def _require_positive_threshold(alpha: float, inflow: float, tol: float | None = None):
    """Raise ``ValueError`` unless ``_transfer_threshold`` is positive: at or
    below zero no outflow falls short of it, so no attack could be judged defeated."""
    if not inflow > 0:
        raise ValueError("a transfer verdict needs a positive inflow")
    if not _transfer_threshold(alpha, inflow, tol) > 0:  # NaN included
        slack = "the 1e-3 transfer slack" if tol is None else f"the transfer slack {tol!r}"
        raise ValueError(f"alpha {alpha!r} is at or below {slack}: the outflow alpha-transfer "
                         f"needs is not positive, so no attack can defeat it")


def _initial_densities(network: FlowNetwork, f_init) -> np.ndarray:
    """Densities realizing the pre-attack flow under the unperturbed functions.

    The attack changes flow functions, not the mass already on the links,
    so the perturbed run starts from the unperturbed preimage of f_init.
    """
    topo = network.topology
    rho0 = []
    for i, lid in enumerate(topo.link_ids):
        ff = network.flow_functions[lid]
        f = float(f_init[i])
        if f >= ff.f_max:
            raise ValueError(
                f"initial flow on link {lid} sits at capacity; no finite initial density"
            )
        rho0.append(ff.inverse(f))
    return np.array(rho0)


def _attack_setup(network: FlowNetwork, policy: RoutingPolicy, inflow: float,
                  config: SimulationConfig | None):
    """The run settings every attack on ``network`` shares: the config with
    the time step of the unperturbed rates, and the start densities, which
    realize the unperturbed limit flow."""
    if config is None:
        config = SimulationConfig(inflow=inflow)
    elif config.inflow != inflow:
        config = replace(config, inflow=inflow)
    if config.dt is None:
        config = replace(config, dt=default_dt(network))
    base_limit = network_limit_flow(network, policy, inflow)
    if any(base_limit.saturated.values()):
        raise ValueError(
            "inflow saturates the unperturbed network; an attack run needs an "
            "interior start flow (inflow < C)"
        )
    return config, _initial_densities(network, base_limit.flow_vector(network.topology))


def evaluate_attacks(network: FlowNetwork, policy: RoutingPolicy, inflow: float, attacks,
                     config: SimulationConfig | None = None) -> list:
    """Simulate each attack on ``network`` and judge alpha-transfer on its tail.

    ``attacks`` holds ``(perturbation, alpha, transfer_tol)`` triples, with
    alpha in (0, 1] and ``transfer_tol`` None for the default slack; one
    ``TransferEstimate`` per attack comes back, in order (an attack defeats
    alpha where it is not ``transferring``); a threshold that is not
    positive raises ``ValueError`` before any simulation.  Every run starts
    from the unperturbed network's limit flow and keeps the time step
    implied by the unperturbed rates, which dominate the perturbed ones.
    The attacks run as one ensemble, and each verdict is the one
    ``alpha_transfer_estimate`` gives the attack's own ``simulate`` run.
    """
    attacks = list(attacks)
    if not attacks:
        return []
    config, rho0 = _attack_setup(network, policy, inflow, config)
    return _simulate_attacks(network, policy, config, rho0, attacks)


def _simulate_attacks(network: FlowNetwork, policy: RoutingPolicy, config: SimulationConfig,
                      rho0, attacks) -> list:
    """``evaluate_attacks`` from the ``config`` and ``rho0`` of ``_attack_setup``.

    The attacks run as one ``_ensemble_blocks`` ensemble that records only
    the ``TAIL_FRACTION`` window the verdict reads, in blocks of
    ``dynamics._BLOCK_RECORDS`` records; each block's outflows are folded
    into every member's running minimum and maximum and dropped, so memory
    does not grow with the horizon.
    """
    for _, alpha, transfer_tol in attacks:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        _require_positive_threshold(alpha, config.inflow, transfer_tol)
    compiled, _, _, blocks = _ensemble_blocks(
        [network.perturbed(spec) for spec, _, _ in attacks], policy, config,
        [rho0] * len(attacks), "tail")
    lo, hi = np.inf, -np.inf  # every member's running outflow extremes
    for _, states, _ in blocks:
        outflow = compiled.outflow(states)
        lo, hi = np.minimum(lo, outflow.min(axis=0)), np.maximum(hi, outflow.max(axis=0))
    return [_transfer_estimate(float(tail_min), float(tail_max), config.inflow, alpha,
                               transfer_tol)
            for tail_min, tail_max, (_, alpha, transfer_tol) in zip(lo, hi, attacks)]


def require_locally_responsive(policy: RoutingPolicy, network: FlowNetwork, seed: int = 0):
    """Raise unless sampled checks support the locally responsive properties
    and strictly positive splits that the resilience guarantee assumes.

    The properties are judged by ``responsiveness_findings``; the first
    finding is raised.
    """
    findings = responsiveness_findings(policy, seed)
    if findings:
        v, message = findings[0]
        raise ValueError(f"node {v}: {message}")
    rng = np.random.default_rng(seed)
    topo = network.topology
    for v in range(topo.num_nodes):
        links = topo.outgoing[v]
        if not links:
            continue
        probe = 10.0 ** rng.uniform(-2, 2, size=(32, len(links)))
        if policy.route(v, probe).min() <= 0.0:
            raise ValueError(f"node {v}: routing split is not strictly positive")


def sample_scaling_perturbations(network: FlowNetwork, budget: float, n_samples: int,
                                 seed: int = 0):
    """Random per-link scaling attacks of total magnitude at most ``budget``.

    The first sample is the deterministic worst shape (the whole budget
    spread uniformly over a minimal cut); the rest pick random link subsets
    with random reduction weights summing to a random fraction of the
    budget.  Scaling factors are floored at 1e-3 so every sample stays an
    admissible (strictly increasing) replacement.
    """
    capacity, cut = min_cut_capacity(network.topology, network.capacities())
    return _sample_scalings(network, budget, n_samples, seed, capacity, sorted(cut.cut_links))


def _sample_scalings(network: FlowNetwork, budget: float, n_samples: int, seed: int,
                     capacity: float, cut_links):
    """``sample_scaling_perturbations`` around a min cut the caller already has."""
    rng = np.random.default_rng(seed)
    all_ids = list(network.topology.link_ids)
    caps = network.capacities()
    if budget >= capacity:
        raise ValueError("budget must stay below the min-cut capacity")
    specs = []
    for i in range(n_samples):
        if i == 0:
            factors = {lid: 1.0 - budget / capacity for lid in cut_links}
        else:
            target = budget * rng.uniform(0.3, 1.0)
            chosen = [lid for lid in all_ids if rng.random() < 0.5] \
                or [all_ids[int(rng.integers(len(all_ids)))]]
            weights = rng.uniform(0.2, 1.0, size=len(chosen))
            weights *= target / weights.sum()
            factors = {lid: max(1.0 - reduction / caps[lid], 1e-3)
                       for lid, reduction in zip(chosen, weights)}
        specs.append(PerturbationSpec.scaling(network, factors))
    return specs


def _bisect_scaling(defeated, eps_lo: float, capacity: float, delta_tol: float):
    """The smallest defeating uniform cut scaling, to within ``delta_tol`` in magnitude.

    ``defeated(eps)`` is the verdict on scaling the cut by eps.  ``eps_lo``
    (the provably fatal scaling) is confirmed first, then bisected against
    the identity.  Returns ``(eps_lo, eps_hi, evaluations)``: the final
    defeating and preserved scalings and the number of verdicts taken.
    """
    evaluations = 1
    while not defeated(eps_lo):
        eps_lo *= 0.5  # should not happen; keep the bracket honest
        if eps_lo < 1e-12:
            raise RuntimeError("failed to find a defeating attack below min-cut scale")
        evaluations += 1
    eps_hi = 1.0  # identity: magnitude 0, trivially preserved
    while (eps_hi - eps_lo) * capacity > delta_tol:
        mid = 0.5 * (eps_lo + eps_hi)
        evaluations += 1
        if defeated(mid):
            eps_lo = mid
        else:
            eps_hi = mid
    return eps_lo, eps_hi, evaluations


def estimate_weak_resilience(network: FlowNetwork, policy: RoutingPolicy, inflow: float,
                             config: SimulationConfig | None = None,
                             alphas=(0.5, 0.2, 0.1, 0.05), n_samples: int = 50,
                             seed: int = 0) -> ResilienceReport:
    """Bracket the weak-resilience magnitude against the min-cut capacity.

    Upper side: for each alpha (swept downward), bisect the uniform scaling
    factor on a minimal cut for the smallest magnitude that defeats
    alpha-transfer, to within ``BISECT_TOL_FRAC`` of C.  Lower side: random
    scaling perturbations of magnitude up to (1 - ``MARGIN``) C, each of which
    must keep the tail outflow at or above ``ALPHA_FLOOR * inflow``
    (checked without slack) over a tail that has settled: a sample whose
    tail still varies by more than 5% of the inflow raises ``RuntimeError``.

    The bisection is judged on the limit-flow oracle: the perturbed flow
    converges to its unique limit flow, whose destination inflow is the
    asymptotic outflow, so an attack defeats alpha when that inflow falls
    below the threshold simulated verdicts use.  One simulated ensemble
    then holds the samples and, as audits, every alpha's final defeating
    and preserved scalings.  An audit whose simulated verdict differs from
    the oracle's, or whose tail still varies by more than 5% of the inflow,
    raises ``RuntimeError``: the horizon is too short for the tail to reach
    the limit.  The report is deterministic for a fixed seed.
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("alphas must name at least one alpha")
    require_locally_responsive(policy, network, seed=seed)
    if inflow <= 0:
        raise ValueError("resilience estimation needs a positive inflow")
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples!r}")
    for alpha in alphas:
        if not 0 < alpha <= 1:  # NaN included
            raise ValueError(f"alpha {alpha!r} must be in (0, 1]")
        _require_positive_threshold(alpha, inflow)
    capacity, cut = min_cut_capacity(network.topology, network.capacities())
    cut_links = sorted(cut.cut_links)
    config, rho0 = _attack_setup(network, policy, inflow, config)

    def cut_spec(eps: float) -> PerturbationSpec:
        return PerturbationSpec.scaling(network, {lid: eps for lid in cut_links})

    def oracle_outflow(eps: float) -> float:
        limit = network_limit_flow(network.perturbed(cut_spec(eps)), policy, inflow)
        return limit.node_inflows[network.topology.destination]

    brackets = []  # (alpha, eps_lo, eps_hi, evaluations)
    for alpha in sorted(alphas, reverse=True):
        threshold = _transfer_threshold(alpha, inflow)
        brackets.append((alpha, *_bisect_scaling(
            lambda eps: not oracle_outflow(eps) >= threshold,
            alpha * inflow / (2.0 * capacity), capacity, BISECT_TOL_FRAC * capacity)))

    audits = [(alpha, eps, defeated) for alpha, eps_lo, eps_hi, _ in brackets
              for eps, defeated in ((eps_lo, True), (eps_hi, False))]
    audit_specs = [cut_spec(eps) for _, eps, _ in audits]
    specs = _sample_scalings(network, (1.0 - MARGIN) * capacity, n_samples, seed, capacity,
                             cut_links)
    outcomes = _simulate_attacks(
        network, policy, config, rho0,
        [(spec, alpha, None) for spec, (alpha, _, _) in zip(audit_specs, audits)]
        + [(spec, ALPHA_FLOOR, 0.0) for spec in specs])
    for (alpha, eps, defeated), out in zip(audits, outcomes):
        if (not out.transferring) != defeated or out.inconclusive:
            raise RuntimeError(
                f"alpha {alpha!r}, cut scaling eps {eps!r}: limit-flow oracle outflow "
                f"{oracle_outflow(eps)!r} ({'defeated' if defeated else 'preserved'}), simulated "
                f"tail_min {out.tail_min!r}, tail variation {out.tail_variation!r}; the run has "
                f"not converged, try a longer --horizon")

    sweep = [AlphaSweepPoint(alpha=alpha, defeating_delta=lo_spec.magnitude, defeating_eps=eps_lo,
                             preserved_delta=(1.0 - eps_hi) * capacity, evaluations=evaluations)
             for (alpha, eps_lo, eps_hi, evaluations), lo_spec in zip(brackets, audit_specs[::2])]
    samples = []
    preserved_max = 0.0
    for spec, out in zip(specs, outcomes[len(audits):]):
        if out.inconclusive:
            raise RuntimeError(
                f"sample of magnitude delta {spec.magnitude!r}: simulated tail_min "
                f"{out.tail_min!r}, but the tail still varies by {out.tail_variation!r}, more "
                f"than 5% of the inflow; the run has not converged, try a longer --horizon")
        preserved = out.transferring
        samples.append({
            "delta": spec.magnitude,
            "tail_min": out.tail_min,
            "preserved": preserved,
            "links": sorted(spec.replacements),
        })
        if preserved:
            preserved_max = max(preserved_max, spec.magnitude)
    return ResilienceReport(
        min_cut=capacity,
        witness_cut=tuple(cut_links),
        alpha_sweep=sweep,
        preserved_delta_max=preserved_max,
        samples=samples,
        seed=seed,
        inflow=inflow,
    )
