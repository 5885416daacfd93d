"""Exponential density-to-flow functions, their derived quantities, and perturbations.

A flow function maps link density to link flow: zero at zero density,
strictly increasing, continuously differentiable with bounded derivative,
and saturating at a finite capacity.  The one family is the saturating
exponential ``capacity * (1 - exp(-rate * rho))``, with a finite positive
rate and capacity.

A perturbation replaces flow functions with pointwise-smaller ones.  Its
magnitude is the sum over links of the sup-norm reductions, and its
stretching coefficient is the worst-case inflation of the half-capacity
("median") density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import NetworkTopology, TopologyError

__all__ = [
    "ExponentialFlow",
    "FlowNetwork",
    "PerturbationSpec",
    "InadmissiblePerturbation",
    "scale_perturbation",
    "supremum_gap",
]

CERTIFICATION_GRID_POINTS = 10_000
# Density samples behind ``ExponentialFlow.certify``.
SELF_CERTIFICATION_POINTS = 512
SUP_GRID_POINTS = 4_096
SUP_STABLE_TOL = 1e-6


class InadmissiblePerturbation(ValueError):
    """Perturbed flow function is not admissible (exceeds the original somewhere)."""


@dataclass(frozen=True)
class ExponentialFlow:
    """``f_max * (1 - exp(-rate * rho))``: the saturating exponential flow function."""

    rate: float
    f_max: float

    def __post_init__(self):
        if not (self.rate > 0 and self.f_max > 0):
            raise ValueError("rate and capacity must be positive")
        if not (math.isfinite(self.rate) and math.isfinite(self.f_max)):
            raise ValueError(f"rate and capacity must be finite, got rate {self.rate!r} "
                             f"and capacity {self.f_max!r}")

    def __call__(self, rho):
        return self.f_max * -np.expm1(-self.rate * np.asarray(rho, dtype=float))

    def eval(self, rho: float) -> float:
        """Flow at a single nonnegative density."""
        if rho < 0:
            raise ValueError(f"negative density {rho}")
        return float(self(rho))

    def inverse(self, f: float) -> float:
        """Density at which the flow equals ``f``; requires 0 <= f < f_max."""
        if not 0 <= f < self.f_max:
            raise ValueError(f"flow {f} outside [0, f_max={self.f_max}); no finite preimage")
        return -math.log1p(-f / self.f_max) / self.rate

    def median_density(self) -> float:
        """The unique density carrying half the capacity."""
        return math.log(2.0) / self.rate

    def derivative(self, rho: float) -> float:
        return self.rate * self.f_max * math.exp(-self.rate * rho)

    def rate_scale(self) -> float:
        """Fastest local relaxation rate: the derivative at zero density."""
        return self.rate * self.f_max

    def certify(self) -> list:
        """Sampled Assumption-style checks in floating point; returns violation messages.

        The flow is evaluated on a geometric grid up to 50 median densities:
        it must rise strictly from one sample to the next and end within
        0.1 % of its capacity.
        """
        violations = []
        grid = np.concatenate([[0.0], np.geomspace(1e-6, 50.0 * self.median_density(),
                                                   SELF_CERTIFICATION_POINTS)])
        vals = self(grid)
        if np.any(np.diff(vals) <= 0):
            violations.append("not strictly increasing on the certification grid")
        if vals[-1] < 0.999 * self.f_max:
            violations.append("does not approach its capacity (saturation check failed)")
        return violations


def scale_perturbation(ff: ExponentialFlow, eps: float) -> ExponentialFlow:
    """The uniformly scaled function ``eps * ff``.

    Scaling preserves the exponential family (only the capacity shrinks, the
    median density is unchanged).  ``eps`` must be positive: the zero
    function is not strictly increasing, hence not an admissible
    replacement.
    """
    if not 0 < eps <= 1:
        raise ValueError(f"scaling factor must be in (0, 1], got {eps}")
    return ExponentialFlow(ff.rate, eps * ff.f_max)


def supremum_gap(base: ExponentialFlow, pert: ExponentialFlow) -> float:
    """sup over densities of ``base - pert``.

    Same-rate exponential pairs have the analytic value ``f_max - f_max~``.
    Otherwise the sup is taken on a geometric grid reaching 50x the larger
    median density, with the reach doubled until the value is stable to
    1e-6 (sound because both functions saturate).
    """
    if base.rate == pert.rate:
        return base.f_max - pert.f_max
    hi = 50.0 * max(base.median_density(), pert.median_density())
    prev = -math.inf
    for _ in range(40):
        grid = np.concatenate([[0.0], np.geomspace(1e-4, hi, SUP_GRID_POINTS)])
        sup = float(np.max(np.asarray(base(grid)) - np.asarray(pert(grid))))
        if abs(sup - prev) < SUP_STABLE_TOL:
            return sup
        prev = sup
        hi *= 2.0
    raise RuntimeError("supremum grid did not stabilize")


def _certify_admissible(base: ExponentialFlow, pert: ExponentialFlow, link_id: int):
    """pert <= base everywhere, checked on a dense grid unless a slower rate and a
    lower capacity settle it analytically."""
    if pert.rate <= base.rate and pert.f_max <= base.f_max:
        return
    hi = 50.0 * max(base.median_density(), pert.median_density())
    grid = np.concatenate([[0.0], np.geomspace(1e-6, hi, CERTIFICATION_GRID_POINTS)])
    excess = np.asarray(pert(grid)) - np.asarray(base(grid))
    worst = float(np.max(excess))
    if worst > 1e-12 or pert.f_max > base.f_max + 1e-12:
        raise InadmissiblePerturbation(
            f"link {link_id}: perturbed flow exceeds the original (worst excess {worst:.3e})"
        )


class FlowNetwork:
    """A topology paired with one flow function per link."""

    def __init__(self, topology: NetworkTopology, flow_functions: dict):
        missing = set(topology.link_ids) - set(flow_functions)
        extra = set(flow_functions) - set(topology.link_ids)
        if missing or extra:
            raise TopologyError(f"flow functions mismatch links (missing={sorted(missing)}, extra={sorted(extra)})")
        self.topology = topology
        self.flow_functions = dict(flow_functions)

    def capacities(self) -> dict:
        return {lid: self.flow_functions[lid].f_max for lid in self.topology.link_ids}

    def perturbed(self, spec: "PerturbationSpec") -> "FlowNetwork":
        fns = dict(self.flow_functions)
        fns.update(spec.replacements)
        return FlowNetwork(self.topology, fns)


class PerturbationSpec:
    """Per-link replacement flow functions, certified admissible at build time.

    Exposes the per-link gaps, the total magnitude (their sum), and the
    stretching coefficient (worst ratio of perturbed to original median
    density over all links; untouched links contribute 1).
    """

    def __init__(self, network: FlowNetwork, replacements: dict):
        unknown = set(replacements) - set(network.topology.link_ids)
        if unknown:
            raise TopologyError(f"perturbation names unknown links {sorted(unknown)}")
        self.replacements = dict(replacements)
        self.gaps = {}
        worst_stretch = 1.0 if len(replacements) < len(network.topology.link_ids) else 0.0
        for lid, pert in sorted(self.replacements.items()):
            base = network.flow_functions[lid]
            bad = pert.certify()
            if bad:
                raise InadmissiblePerturbation(f"link {lid}: replacement fails certification: {bad}")
            _certify_admissible(base, pert, lid)
            self.gaps[lid] = supremum_gap(base, pert)
            worst_stretch = max(worst_stretch, pert.median_density() / base.median_density())
        self.magnitude = math.fsum(self.gaps.values())
        self.stretching = worst_stretch

    @classmethod
    def scaling(cls, network: FlowNetwork, factors: dict) -> "PerturbationSpec":
        """Build from per-link scaling factors ``{link_id: eps}``."""
        return cls(network, {lid: scale_perturbation(network.flow_functions[lid], e) for lid, e in factors.items()})
