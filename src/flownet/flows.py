"""Exponential density-to-flow functions, their derived quantities, and perturbations.

A flow function maps link density to link flow: zero at zero density,
strictly increasing, continuously differentiable with bounded derivative,
and saturating at a finite capacity.  The one family is the saturating
exponential ``capacity * (1 - exp(-rate * rho))``, with a finite positive
rate and capacity.

A perturbation scales the capacities of some links by factors in (0, 1].
A scaled exponential lies below the original at every density and keeps
its half-capacity ("median") density; its sup-norm reduction is the lost
capacity, and the perturbation's magnitude is the sum of these over links.
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
]

# Density samples behind ``ExponentialFlow.certify``.
SELF_CERTIFICATION_POINTS = 512


class InadmissiblePerturbation(ValueError):
    """A scaled flow function fails ``certify`` (say, a subnormal capacity)."""


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

        The flow is evaluated on a geometric grid from 1e-6 to 50 median
        densities: it must rise strictly from one sample to the next and end
        within 0.1 % of its capacity.  A NaN sample fails both checks.
        """
        violations = []
        median = self.median_density()
        grid = np.concatenate([[0.0], np.geomspace(1e-6 * median, 50.0 * median,
                                                   SELF_CERTIFICATION_POINTS)])
        vals = self(grid)
        if not (np.diff(vals) > 0).all():
            violations.append("not strictly increasing on the certification grid")
        if not vals[-1] >= 0.999 * self.f_max:
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
    """Per-link capacity scalings ``{link_id: eps}``, each eps in (0, 1].

    ``replacements`` maps each named link to its scaled flow function, each
    certified at build time; ``scalings`` is the factors in link-id order,
    1.0 off the named links; ``magnitude`` is the summed capacity reduction.
    """

    def __init__(self, network: FlowNetwork, factors: dict):
        unknown = set(factors) - set(network.topology.link_ids)
        if unknown:
            raise TopologyError(f"perturbation names unknown links {sorted(unknown)}")
        fns = network.flow_functions
        self.replacements = {lid: scale_perturbation(fns[lid], eps) for lid, eps in factors.items()}
        for lid, pert in sorted(self.replacements.items()):
            bad = pert.certify()
            if bad:
                raise InadmissiblePerturbation(f"link {lid}: replacement fails certification: {bad}")
        self.scalings = np.array([factors.get(lid, 1.0) for lid in network.topology.link_ids])
        self.magnitude = math.fsum(fns[lid].f_max - pert.f_max for lid, pert in self.replacements.items())
