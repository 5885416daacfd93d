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
    UNDERSHOOT_TOL,
    LimitFlows,
    SimulationConfig,
    _ensemble_blocks,
    _transfer_estimate,
    _transfer_threshold,
    network_limit_flows,
)
from .flows import FlowNetwork, PerturbationSpec
from .routing import LogitPolicy, responsiveness_findings
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
# Upper side: cut-scaling bisections stop within this fraction of C ...
BISECT_TOL_FRAC = 0.01
# ... and halve a start scaling that does not defeat down to this floor.
HALVING_FLOOR = 1e-12


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

    The resulting magnitude is C - alpha * inflow / 2, and no median density
    moves.  By the cut argument the perturbed network cannot alpha-transfer.
    """
    if inflow <= 0:
        raise ValueError("cut_attack needs a positive inflow")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    capacity, cut = min_cut_capacity(network.topology, network.capacities())
    eps = alpha * inflow / (2.0 * capacity)
    if eps >= 1:
        raise ValueError("alpha * inflow >= 2 * min-cut: scaling attack degenerates")
    return _cut_spec(network, sorted(cut.cut_links), eps)


def _require_positive_threshold(alpha: float, inflow: float, tol: float | None = None):
    """Raise ``ValueError`` unless ``_transfer_threshold`` is positive: at or
    below zero no outflow falls short of it, so no attack could be judged defeated."""
    if not inflow > 0:
        raise ValueError("a transfer verdict needs a positive inflow")
    if not _transfer_threshold(alpha, inflow, tol) > 0:  # NaN included
        slack = "the 1e-3 transfer slack" if tol is None else f"the transfer slack {tol!r}"
        raise ValueError(f"alpha {alpha!r} is at or below {slack}: the outflow alpha-transfer "
                         f"needs is not positive, so no attack can defeat it")


def _start_densities(network: FlowNetwork, limits: LimitFlows) -> np.ndarray:
    """Every attack run's start densities: those realizing row 0 of ``limits``,
    the unperturbed limit flow (its ``LocalSolverError`` is raised).

    The attack changes flow functions, not the mass already on the links,
    so the perturbed run starts from the unperturbed preimage of that flow,
    finite only below capacity: a link at capacity raises ``ValueError``
    (a saturated node's out-links sit there, as can a node that local
    routing overloads below C)."""
    if limits.errors[0] is not None:
        raise limits.errors[0]
    rho0 = []
    for lid, f in zip(limits.link_ids, limits.flows[0].tolist()):
        ff = network.flow_functions[lid]
        if f >= ff.f_max:
            raise ValueError(f"the unperturbed limit flow on link {lid} sits at its capacity "
                             f"{ff.f_max!r}; an attack run needs a finite start density")
        rho0.append(ff.inverse(f))
    return np.array(rho0)


def _attack_setup(network: FlowNetwork, policy: LogitPolicy, inflow: float,
                  config: SimulationConfig | None):
    """The run settings every attack on ``network`` shares: ``config`` at
    ``inflow`` and the ``_start_densities`` of the unperturbed limit flow.
    An unset step is left to ``_ensemble_blocks``: ``default_dt(network)``."""
    config = SimulationConfig(inflow=inflow) if config is None else replace(config, inflow=inflow)
    return config, _start_densities(network, network_limit_flows(network, policy, [inflow]))


def evaluate_attacks(network: FlowNetwork, policy: LogitPolicy, inflow: float, attacks,
                     config: SimulationConfig | None = None) -> list:
    """Simulate each attack on ``network`` and judge alpha-transfer on its tail.

    ``attacks`` holds ``(perturbation, alpha, transfer_tol)`` triples, with
    alpha in (0, 1] and ``transfer_tol`` None for the default slack; one
    ``TransferEstimate`` per attack comes back, in order (an attack defeats
    alpha where it is not ``transferring``); a threshold that is not
    positive raises ``ValueError`` before any simulation.  Every run starts
    from the unperturbed network's limit flow, and runs ``network`` with its
    spec's ``scalings`` row; an unset step is ``_ensemble_blocks``' rule,
    the unperturbed network's ``default_dt``, as no scaling speeds a link up.
    The attacks run as one ensemble, and each verdict is the one
    ``alpha_transfer_estimate`` gives the attack's own ``simulate`` run.
    """
    attacks = list(attacks)
    if not attacks:
        return []
    config, rho0 = _attack_setup(network, policy, inflow, config)
    return _simulate_attacks(network, policy, config, rho0, attacks)


def _simulate_attacks(network: FlowNetwork, policy: LogitPolicy, config: SimulationConfig,
                      rho0, attacks) -> list:
    """``evaluate_attacks`` from the ``config`` and ``rho0`` of ``_attack_setup``.

    The attacks run as one ``_ensemble_blocks`` ensemble that records only
    the ``TAIL_FRACTION`` window the verdict reads, in blocks of
    ``dynamics._BLOCK_RECORDS`` records; each block's outflows are folded
    into every member's running minimum and maximum and dropped, so memory
    does not grow with the horizon.  The last block carries every member's
    worst clamp over the run.
    """
    for _, alpha, transfer_tol in attacks:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        _require_positive_threshold(alpha, config.inflow, transfer_tol)
    compiled, _, _, blocks = _ensemble_blocks(
        network, policy, config, [rho0] * len(attacks),
        np.array([spec.scalings for spec, _, _ in attacks]), "tail")
    lo, hi = np.inf, -np.inf  # every member's running outflow extremes
    for _, states, undershoot in blocks:
        outflow = compiled.outflow(states)
        lo, hi = np.minimum(lo, outflow.min(axis=0)), np.maximum(hi, outflow.max(axis=0))
    return [_transfer_estimate(float(tail_min), float(tail_max), config.inflow, alpha,
                               transfer_tol, float(clamp))
            for tail_min, tail_max, clamp, (_, alpha, transfer_tol)
            in zip(lo, hi, undershoot, attacks)]


def require_locally_responsive(policy: LogitPolicy, seed: int = 0):
    """Raise unless sampled checks support the locally responsive properties
    and strictly positive splits that the resilience guarantee assumes.

    Both are judged by ``responsiveness_findings``; the first finding is
    raised.
    """
    findings = responsiveness_findings(policy, seed)
    if findings:
        v, message = findings[0]
        raise ValueError(f"node {v}: {message}")


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
    _require_sample_count(n_samples)
    if not budget >= 0:  # NaN included
        raise ValueError(f"budget must be nonnegative, got {budget!r}")
    if budget >= capacity:
        raise ValueError("budget must stay below the min-cut capacity")
    rng = np.random.default_rng(seed)
    all_ids = list(network.topology.link_ids)
    caps = network.capacities()
    specs = [_cut_spec(network, cut_links, 1.0 - budget / capacity)] if n_samples else []
    for _ in range(1, n_samples):
        target = budget * rng.uniform(0.3, 1.0)
        chosen = [lid for lid in all_ids if rng.random() < 0.5] \
            or [all_ids[int(rng.integers(len(all_ids)))]]
        weights = rng.uniform(0.2, 1.0, size=len(chosen))
        weights *= target / weights.sum()
        specs.append(PerturbationSpec(network, {lid: max(1.0 - reduction / caps[lid], 1e-3)
                                                for lid, reduction in zip(chosen, weights)}))
    return specs


def _require_sample_count(n_samples):
    """Raise ``ValueError`` unless ``n_samples`` is a nonnegative integer, a
    Python or numpy one (a bool is refused)."""
    if isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer)):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples!r}")


def _halved(eps_lo: float):
    """The start scaling ``_bisect_scaling`` judges once ``eps_lo`` has not
    defeated: ``eps_lo / 2``, or None below ``HALVING_FLOOR``."""
    eps_lo *= 0.5
    return eps_lo if eps_lo >= HALVING_FLOOR else None


def _midpoint(lo: float, hi: float, capacity: float, delta_tol: float):
    """The scaling ``_bisect_scaling`` judges in the bracket (lo, hi), or None
    once the bracket's magnitude is within ``delta_tol``."""
    return 0.5 * (lo + hi) if (hi - lo) * capacity > delta_tol else None


def _bisect_scaling(defeated, eps_lo: float, capacity: float, delta_tol: float):
    """The smallest defeating uniform cut scaling, to within ``delta_tol`` in magnitude.

    ``defeated(eps)`` is the verdict on scaling the cut by eps.  ``eps_lo``
    (the cut argument's scaling) is confirmed first and halved until it
    defeats (``_halved``), then bisected against the identity
    (``_midpoint``).  Halving is needed for alpha in (1e-3, 2e-3]: there
    the cut's bound on the outflow, alpha * inflow / 2, is not below the
    verdict threshold alpha * inflow - 1e-3 * inflow.  Returns
    ``(eps_lo, eps_hi, evaluations)``: the final defeating and preserved
    scalings and the number of verdicts taken.
    """
    evaluations = 1
    while not defeated(eps_lo):
        eps_lo = _halved(eps_lo)  # the cut bound is not below the threshold
        if eps_lo is None:
            raise RuntimeError("failed to find a defeating attack below min-cut scale")
        evaluations += 1
    eps_hi = 1.0  # identity: magnitude 0, trivially preserved
    while (mid := _midpoint(eps_lo, eps_hi, capacity, delta_tol)) is not None:
        evaluations += 1
        if defeated(mid):
            eps_lo = mid
        else:
            eps_hi = mid
    return eps_lo, eps_hi, evaluations


def _halvings(eps_lo: float) -> list:
    """Every start scaling ``_bisect_scaling`` judges after ``eps_lo`` while none defeats."""
    chain = []
    while (eps_lo := _halved(eps_lo)) is not None:
        chain.append(eps_lo)
    return chain


def _bisection_tree(eps_lo: float, capacity: float, delta_tol: float) -> list:
    """Every midpoint ``_bisect_scaling`` can judge once ``eps_lo`` has defeated,
    whatever its verdicts: 2**d - 1 of them for d halvings of the bracket
    down to ``delta_tol`` (127 at ``BISECT_TOL_FRAC``)."""
    points, brackets = [], [(eps_lo, 1.0)]
    while brackets:
        lo, hi = brackets.pop()
        if (mid := _midpoint(lo, hi, capacity, delta_tol)) is not None:
            points.append(mid)
            brackets += [(lo, mid), (mid, hi)]
    return points


def _cut_spec(network: FlowNetwork, cut_links, eps: float) -> PerturbationSpec:
    """The cut ``cut_links`` scaled by eps, certified."""
    return PerturbationSpec(network, {lid: eps for lid in cut_links})


def _oracle_bisections(network: FlowNetwork, policy: LogitPolicy, inflow: float, alphas,
                       capacity: float, cut_links):
    """Every alpha's ``_bisect_scaling`` on the cut ``cut_links``, judged on the limit-flow oracle.

    The verdicts do not depend on each other, so the scalings a bisection
    can judge are solved before any is read, in two ``network_limit_flows``
    cascades.  The first holds the unperturbed network (the cut scaled by
    1.0) and each alpha's start scaling eps_lo with, when the cut bound
    eps_lo * capacity is below the alpha's threshold so eps_lo defeats,
    its ``_bisection_tree``; otherwise its ``_halvings``.  The second
    holds the tree of each alpha's first start that the judged verdicts
    show defeating, where it is not yet solved.  The loops then walk
    their paths through these limit flows and report the midpoints,
    brackets and verdict counts a one-point oracle would; a scaling a path
    reaches that neither cascade holds is solved when read.  A scaling on
    a path is certified as ``PerturbationSpec`` certifies it, and it or
    its failed cascade raises at the verdict that reads it; a scaling off
    every path raises nothing.

    Returns ``(rho0, brackets, outflow)``: the attack runs' start densities
    (``_start_densities``, checked before any verdict), one ``(alpha,
    eps_lo, eps_hi, evaluations)`` per alpha, largest alpha first, and the
    judged outflow at any scaling of a path or at 1.0.
    """
    delta_tol = BISECT_TOL_FRAC * capacity
    order = sorted(alphas, reverse=True)
    starts = [alpha * inflow / (2.0 * capacity) for alpha in order]
    thresholds = [_transfer_threshold(alpha, inflow) for alpha in order]
    destination = network.topology.destination
    cut_cols = [network.topology.link_ids.index(lid) for lid in cut_links]
    judged = {}  # cut scaling -> (its outflow, None or its LocalSolverError)

    def judge(points) -> LimitFlows | None:
        """Add the outflows of the cut scaled by each new one of ``points`` to
        ``judged`` in one cascade, and return it, its rows those points in
        order (None when no point is new)."""
        points = [eps for eps in dict.fromkeys(points) if eps not in judged]
        if not points:
            return None
        eps = np.ones((len(points), len(network.topology.link_ids)))
        eps[:, cut_cols] = np.array(points)[:, None]
        limits = network_limit_flows(network, policy, [inflow] * len(points), eps)
        judged.update(zip(points, zip(limits.node_inflows[:, destination].tolist(),
                                      limits.errors)))
        return limits

    def solved(eps: float) -> bool:
        """Whether the limit flow at ``eps`` is judged and converged."""
        return eps in judged and judged[eps][1] is None

    def outflow(eps: float) -> float:
        _cut_spec(network, cut_links, eps)
        judge([eps])
        value, error = judged[eps]
        if error is not None:
            raise error
        return value

    rho0 = _start_densities(network, judge(  # row 0: the unperturbed network
        [1.0] + [eps for eps_lo, threshold in zip(starts, thresholds)
                 for eps in [eps_lo] + (_bisection_tree(eps_lo, capacity, delta_tol)
                                        if eps_lo * capacity < threshold
                                        else _halvings(eps_lo))]))
    trees = []
    for eps_lo, threshold in zip(starts, thresholds):
        while eps_lo is not None and solved(eps_lo) and judged[eps_lo][0] >= threshold:
            eps_lo = _halved(eps_lo)
        if solved(eps_lo):  # a judged defeating start
            trees += _bisection_tree(eps_lo, capacity, delta_tol)
    judge(trees)
    brackets = [(alpha, *_bisect_scaling(lambda eps: not outflow(eps) >= threshold,
                                         eps_lo, capacity, delta_tol))
                for alpha, eps_lo, threshold in zip(order, starts, thresholds)]
    return rho0, brackets, outflow


def _not_converged(out) -> str:
    """Why an inconclusive simulated verdict is not trusted, and what to change."""
    if out.max_undershoot > UNDERSHOOT_TOL:
        return (f"the run clamped a density from {out.max_undershoot!r} below zero, a step "
                "too coarse for the dynamics; try a smaller --dt")
    return "the run has not converged, try a longer --horizon"


def estimate_weak_resilience(network: FlowNetwork, policy: LogitPolicy, inflow: float,
                             config: SimulationConfig | None = None,
                             alphas=(0.5, 0.2, 0.1, 0.05), n_samples: int = 50,
                             seed: int = 0) -> ResilienceReport:
    """Bracket the weak-resilience magnitude against the min-cut capacity.

    Upper side: for each alpha (swept downward), bisect the uniform scaling
    factor on a minimal cut for the smallest magnitude that defeats
    alpha-transfer, to within ``BISECT_TOL_FRAC`` of C; an inflow at or
    above C raises ``ValueError`` before any cascade.  Lower side: random
    scaling perturbations of magnitude up to (1 - ``MARGIN``) C, each of which
    must keep the tail outflow at or above ``ALPHA_FLOOR * inflow``
    (checked without slack) over a tail that has settled: a sample whose
    tail still varies by more than 5% of the inflow raises ``RuntimeError``.

    The bisection is judged on the limit-flow oracle: the perturbed flow
    converges to its unique limit flow, whose destination inflow is the
    asymptotic outflow, so an attack defeats alpha when that inflow falls
    below the threshold simulated verdicts use.  The verdicts depend only
    on their scalings, so every alpha's are judged together in batched
    cascades, two at most when the cut bound predicts which start
    scalings defeat (``_oracle_bisections``); the midpoints, verdict
    counts and brackets are those of one oracle call per verdict.  One
    simulated ensemble then holds the samples and, as audits, every
    alpha's final defeating and preserved scalings.  An audit whose
    simulated verdict differs from the oracle's, or whose tail still
    varies by more than 5% of the inflow, raises ``RuntimeError``: the
    horizon is too short for the tail to reach the limit.  A sample or
    audit whose run clamped a density from more than ``UNDERSHOOT_TOL``
    below zero raises too: its step is too coarse for the dynamics.  The
    report is deterministic for a fixed seed.
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("alphas must name at least one alpha")
    require_locally_responsive(policy, seed=seed)
    if inflow <= 0:
        raise ValueError("resilience estimation needs a positive inflow")
    _require_sample_count(n_samples)
    for alpha in alphas:
        if not 0 < alpha <= 1:  # NaN included
            raise ValueError(f"alpha {alpha!r} must be in (0, 1]")
        _require_positive_threshold(alpha, inflow)
    capacity, cut = min_cut_capacity(network.topology, network.capacities())
    if inflow >= capacity:
        raise ValueError(f"inflow {inflow!r} is at or above the min-cut capacity {capacity!r}: "
                         "no attack run starts from a finite density")
    cut_links = sorted(cut.cut_links)
    config = SimulationConfig(inflow=inflow) if config is None else replace(config, inflow=inflow)
    rho0, brackets, oracle_outflow = _oracle_bisections(network, policy, inflow, alphas,
                                                        capacity, cut_links)

    audits = [(alpha, eps, defeated) for alpha, eps_lo, eps_hi, _ in brackets
              for eps, defeated in ((eps_lo, True), (eps_hi, False))]
    audit_specs = [_cut_spec(network, cut_links, eps) for _, eps, _ in audits]
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
                f"tail_min {out.tail_min!r}, tail variation {out.tail_variation!r}; "
                + _not_converged(out))

    sweep = [AlphaSweepPoint(alpha=alpha, defeating_delta=lo_spec.magnitude, defeating_eps=eps_lo,
                             preserved_delta=(1.0 - eps_hi) * capacity, evaluations=evaluations)
             for (alpha, eps_lo, eps_hi, evaluations), lo_spec in zip(brackets, audit_specs[::2])]
    samples = []
    preserved_max = 0.0
    for spec, out in zip(specs, outcomes[len(audits):]):
        if out.max_undershoot > UNDERSHOOT_TOL:
            raise RuntimeError(
                f"sample of magnitude delta {spec.magnitude!r}: simulated tail_min "
                f"{out.tail_min!r}, tail variation {out.tail_variation!r}; " + _not_converged(out))
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
