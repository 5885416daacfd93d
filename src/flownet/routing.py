"""The logit routing policy: per-node maps from local densities to flow splits.

The policy assigns every non-destination node a map from the densities on
its outgoing links to a probability vector over those links, the logit
split ``G_e = a_e exp(-eta * rho_e) / sum_j a_j exp(-eta * rho_j)``, which
shifts flow away from congested links when ``eta > 0``.

The module also houses the checkable "locally responsive" properties:

* property (a): nonnegative cross-partials (raising one link's density
  never lowers the share of the others);
* property (b): links whose density blows up are abandoned, the surviving
  shares converging to a limit split over the remaining links;
* the cooperative gap ``sum_e sgn(sigma_e - zeta_e) (G_e(sigma) - G_e(zeta))``,
  which is nonpositive for any policy satisfying property (a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import NetworkTopology

__all__ = [
    "LogitPolicy",
    "PropertyReport",
    "finite_difference_jacobian",
    "check_property_a",
    "check_property_b",
    "responsiveness_findings",
    "cooperative_gap",
]

# Density samples per node behind each property-(a) verdict.
POLICY_SAMPLES = 300
# Central-difference step, relative to the density (absolute below 1).
FD_REL_STEP = 1e-6
# Property (a): the most negative cross-partial still counted as nonnegative.
CROSS_PARTIAL_TOL = 1e-9
# Property (b): the split share left on congested links, and the largest
# change between successive escalations, that still pass.
LIMIT_MASS_TOL = 1e-4
LIMIT_CAUCHY_TOL = 1e-5


def finite_difference_jacobian(fn, x) -> np.ndarray:
    """Central differences at one density vector ``x`` (k,); entry [e, j]
    approximates d fn_j / d x_e."""
    x = np.asarray(x, dtype=float)
    k = x.size
    out = np.empty((k, k))
    for e in range(k):
        h = FD_REL_STEP * max(1.0, abs(x[e]))
        up, dn = x.copy(), x.copy()
        up[e] += h
        dn[e] = max(dn[e] - h, 0.0)
        out[e] = (np.asarray(fn(up)) - np.asarray(fn(dn))) / (up[e] - dn[e])
    return out


class LogitPolicy:
    """Logit split with per-link weights a_e > 0 and per-node sensitivity eta.

    eta > 0 is the locally responsive regime.  eta = 0 (a constant split)
    and eta < 0 (a congestion-seeking split) are accepted so that the
    property checks have something to reject; they fail property (b),
    respectively property (a).
    """

    def __init__(self, topology: NetworkTopology, eta: dict, weights: dict):
        for v in range(topology.num_nodes):
            if topology.outgoing[v] and v not in eta:
                raise ValueError(f"missing eta for non-destination node {v}")
        for lid in topology.link_ids:
            if lid not in weights:
                raise ValueError(f"missing logit weight for link {lid}")
            if not weights[lid] > 0:
                raise ValueError(f"logit weight of link {lid} must be positive")
        self.topology = topology
        self.eta = dict(eta)
        self.weights = dict(weights)
        self._a = {v: np.array([weights[lid] for lid in topology.outgoing[v]])
                   for v in range(topology.num_nodes) if topology.outgoing[v]}

    def outgoing_links(self, v: int):
        links = self.topology.outgoing[v]
        if not links:
            raise ValueError(f"node {v} is the destination; it has no outgoing links to route over")
        return links

    def route(self, v: int, rho_v) -> np.ndarray:
        """Split the inflow of node v given its local density vector.

        ``rho_v`` has shape (k,) or (..., k), one density vector per row;
        the splits come back in the same shape.
        """
        self.outgoing_links(v)
        a = self._a[v]
        rho = np.asarray(rho_v, dtype=float)
        if rho.shape[-1:] != a.shape:
            raise ValueError(f"node {v} expects {a.size} local densities, "
                             f"got {rho.shape[-1] if rho.ndim else 1}")
        if (rho < 0).any():
            raise ValueError("negative density")
        return _logit_split(-self.eta[v], a, rho)

    def jacobian(self, v: int, rho_v) -> np.ndarray:
        """Matrix [e, j] = d G_j / d rho_e (rows sum to 0 on the simplex), in
        closed form on the split ``route`` gives; density vectors of shape
        (..., k) give Jacobians of shape (..., k, k)."""
        return _logit_jacobian(self.route(v, rho_v), self.eta[v], -self.eta[v])


def _logit_split(neg_eta, a, rho):
    """Logit splits of densities (..., k): weights ``a`` and ``neg_eta`` = -eta,
    each a scalar or array that broadcasts against ``rho`` row by row."""
    ex = neg_eta * rho
    # shift for overflow/underflow safety; the split is shift-invariant
    ex -= ex.max(axis=-1, keepdims=True)
    w = a * np.exp(ex)
    return w / w.sum(axis=-1, keepdims=True)


def _logit_jacobian(g, eta, neg_eta):
    """[..., e, j] = dG_j/drho_e of logit splits ``g`` (..., k); ``eta`` broadcasts
    against the (..., k, k) result, ``neg_eta`` = -eta against ``g``."""
    k = g.shape[-1]
    jac = eta * (g[..., :, None] * g[..., None, :])
    jac.reshape(g.shape[:-1] + (k * k,))[..., ::k + 1] = neg_eta * g * (1.0 - g)  # the diagonal
    return jac


@dataclass
class PropertyReport:
    passed: bool
    detail: dict


def _sample_densities(k: int, n_samples: int, rng) -> np.ndarray:
    """Mixed-scale samples: log-uniform over [1e-2, 1e2] with zeros sprinkled in."""
    rho = 10.0 ** rng.uniform(-2, 2, size=(n_samples, k))
    rho[rng.random((n_samples, k)) < 0.1] = 0.0
    return rho


def check_property_a(policy: LogitPolicy, v: int, n_samples: int = 1000,
                     rng=None) -> PropertyReport:
    """Sample local densities and require all cross-partials >= -``CROSS_PARTIAL_TOL``.

    All samples go through one batched ``policy.jacobian`` call.  A sample
    whose Jacobian holds a NaN neither counts as a violation nor moves the
    reported minimum.
    """
    rng = np.random.default_rng(rng)
    k = len(policy.outgoing_links(v))
    rho = _sample_densities(k, n_samples, rng)
    if k > 1 and n_samples:
        off = policy.jacobian(v, rho)[:, ~np.eye(k, dtype=bool)]
        sample_min = off.min(axis=1)
    else:
        sample_min = np.zeros(n_samples)
    # the first of tied minima and no NaN, as a running ``min`` keeps them
    worst = min([np.inf] + sample_min.tolist())
    violations = [{"rho": rho[i].tolist(), "min_cross_partial": float(sample_min[i])}
                  for i in np.flatnonzero(sample_min < -CROSS_PARTIAL_TOL)[:10]]
    return PropertyReport(not violations, {"min_cross_partial": worst, "violations": violations})


def check_property_b(policy: LogitPolicy, v: int, subset) -> PropertyReport:
    """Drive densities outside ``subset`` to 10^2..10^6 (inside: 0) and watch the split.

    The share outside the subset must decay below ``LIMIT_MASS_TOL`` and the
    share inside must settle (successive escalations Cauchy within
    ``LIMIT_CAUCHY_TOL``).  The limit split itself is reported but not compared
    against anything: property (b) claims only its existence.
    """
    links = policy.outgoing_links(v)
    subset = tuple(subset)
    if not (0 < len(subset) < len(links)) or not set(subset) <= set(links):
        raise ValueError("subset must be a nonempty proper subset of the node's outgoing links")
    inside = np.array([lid in subset for lid in links])
    rho = np.zeros(len(links))
    limits = []
    off_mass = []
    for k in range(2, 7):
        rho[~inside] = 10.0 ** k
        g = policy.route(v, rho)
        off_mass.append(float(g[~inside].sum()))
        limits.append(g[inside])
    gaps = [float(np.abs(limits[i + 1] - limits[i]).max()) for i in range(len(limits) - 1)]
    passed = off_mass[-1] < LIMIT_MASS_TOL and max(gaps) < LIMIT_CAUCHY_TOL
    return PropertyReport(passed, {
        "off_subset_mass": off_mass[-1],
        "cauchy_gap": max(gaps),
        "limit_split": limits[-1].tolist(),
    })


def responsiveness_findings(policy: LogitPolicy, seed: int = 0) -> list:
    """Where sampled checks contradict the locally responsive properties or
    the strictly positive splits the resilience guarantee assumes.

    Every non-destination node gets property (a) on ``POLICY_SAMPLES``
    densities drawn from ``seed`` (the same draws at every node) and, with
    two or more outgoing links, property (b) with its first link as the
    surviving subset.  Then every such node, in node order, routes 32
    log-uniform density vectors over [1e-2, 1e2] drawn from one generator
    seeded with ``seed``, and every share must be above 0.  Returns
    ``(node, message)`` pairs: the property findings in node order ((a)
    before (b) at a node), then the positivity findings in node order; an
    empty list means every check passed.
    """
    topo = policy.topology
    findings = []
    senders = [v for v in range(topo.num_nodes) if topo.outgoing[v]]
    for v in senders:
        out = topo.outgoing[v]
        rep = check_property_a(policy, v, n_samples=POLICY_SAMPLES, rng=seed)
        if not rep.passed:
            findings.append((v, "cross-partial property (a) violated: inflow share may rise "
                                f"with congestion (min cross-partial {rep.detail['min_cross_partial']:.3e})"))
        if len(out) >= 2:
            rep_b = check_property_b(policy, v, subset=out[:1])
            if not rep_b.passed:
                findings.append((v, "limit property (b) violated: congested links keep "
                                    f"{rep_b.detail['off_subset_mass']:.3e} of the split"))
    rng = np.random.default_rng(seed)
    for v in senders:
        probe = 10.0 ** rng.uniform(-2, 2, size=(32, len(topo.outgoing[v])))
        if policy.route(v, probe).min() <= 0.0:
            findings.append((v, "routing split is not strictly positive"))
    return findings


def cooperative_gap(policy: LogitPolicy, v: int, sigma, varsigma) -> float:
    """sum_e sgn(sigma_e - zeta_e) (G_e(sigma) - G_e(zeta)); sgn(0) = 0.

    Nonpositive for every policy with nonnegative cross-partials.
    """
    sigma = np.asarray(sigma, dtype=float)
    varsigma = np.asarray(varsigma, dtype=float)
    signs = np.sign(sigma - varsigma)
    return float(np.dot(signs, policy.route(v, sigma) - policy.route(v, varsigma)))
