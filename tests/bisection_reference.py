"""An independent limit-flow reference: nested bracketed bisection, no Newton.

For a logit node with ``eta > 0`` on exponential links, the stationary
condition ``lam * G_e(rho) = mu_e(rho_e)`` on every out-link e reduces to
one monotone scalar root.  Dividing by the split's numerator gives

    mu_e(rho_e) * exp(eta * rho_e) = a_e * s,   s = lam / sum_j a_j exp(-eta * rho_j),

with one s for all the node's links.  The left side rises from 0 to
infinity in rho_e, so each s fixes every rho_e(s) (the inner bisection),
and the node's total flow ``sum_e mu_e(rho_e(s))`` rises from 0 to the
node's capacity, so s is the root of ``sum_e mu_e(rho_e(s)) = lam`` (the
outer bisection, on log s).  Both are bracketed and bisected, vectorised
over (points, links).  A node whose inflow reaches its total capacity
saturates, every link at capacity, as in the cascade.  The nodes are
visited in ``topological_order``.  Nothing here calls the package's
limit-flow solver.

For ``eta <= 0`` the left side need not be monotone, and property (a) fails
(``eta < 0``) or links saturate one by one (``eta = 0``), so such a node is
refused with ``ValueError``.
"""

import math

import numpy as np

from flownet.topology import topological_order

# The outer bisection stops once its bracket's flows differ by at most
# OUTER_TOL in the L1 norm; since every link's flow rises with s, the
# node's exact flows lie within that of the returned ones.
OUTER_TOL = 1e-12
# Each inner root is bisected this many times from its bracket [0, hi] ...
INNER_HALVINGS = 64
# ... and must then pin the link's flow within INNER_TOL.
INNER_TOL = 1e-14
_MAX_EXPANSIONS = 64
_MAX_OUTER = 200


def node_tolerance(k: int) -> float:
    """L1 distance within which a node's returned flows lie from its exact
    stationary flows at the inflow it was given, for k out-links."""
    return OUTER_TOL + 2 * k * INNER_TOL


def _link_densities(u, log_ratio, rate, f_max, eta):
    """rho (P, k) with ``log mu(rho) + eta * rho - log a = u`` (P, 1), by bisection.

    ``log_ratio`` is ``log(f_max / a)`` per link, so the root solves
    ``log(-expm1(-rate * rho)) + eta * rho = u - log_ratio``.
    """
    target = u - log_ratio

    def phi(rho):
        with np.errstate(divide="ignore"):  # rho = 0: log 0 = -inf, below every target
            return np.log(-np.expm1(-rate * rho)) + eta * rho

    hi = np.broadcast_to(1.0 / rate, target.shape).copy()
    for _ in range(_MAX_EXPANSIONS):
        short = phi(hi) < target
        if not short.any():
            break
        hi[short] *= 2.0
    else:
        raise RuntimeError("no upper bracket for a link density")
    lo = np.zeros_like(hi)
    for _ in range(INNER_HALVINGS):
        mid = 0.5 * (lo + hi)
        below = phi(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    width = f_max * (np.expm1(-rate * lo) - np.expm1(-rate * hi))
    if not width.max(initial=0.0) <= INNER_TOL:
        raise RuntimeError(f"inner bisection pinned a flow only to {width.max():.3e}")
    return 0.5 * (lo + hi)


def node_flows(lams, rate, f_max, weights, eta):
    """Stationary flows (P, k) and saturation flags (P,) of one node at inflows ``lams`` (P,).

    ``rate`` and ``weights`` are the node's per-link arrays (k,), and
    ``f_max`` its links' capacities at every point (k,) or at each (P, k).
    """
    if not eta > 0:
        raise ValueError(f"the bisection reference needs eta > 0, got {eta!r}")
    lams = np.asarray(lams, dtype=float)
    f_max = np.broadcast_to(f_max, (lams.size, len(rate)))
    saturated = lams >= f_max.sum(axis=1)
    flows = np.where(saturated[:, None], f_max, 0.0)
    inner = np.flatnonzero((lams > 0) & ~saturated)
    if not inner.size:
        return flows, saturated
    lam = lams[inner][:, None]
    cap = f_max[inner]
    log_ratio = np.log(cap / weights)

    def mu(u, rows=slice(None)):
        """The flows at ``u`` of the inner points ``rows``."""
        rho = _link_densities(u, log_ratio[rows], rate, cap[rows], eta)
        return -cap[rows] * np.expm1(-rate * rho)

    # each f_e = a_e s exp(-eta rho_e) is at most a_e s, so s = lam / sum(a) leaves
    # the total flow at most lam
    u_lo = np.log(lam / weights.sum())
    f_lo = mu(u_lo)
    u_hi, step = u_lo + 1.0, np.ones_like(u_lo)
    f_hi = mu(u_hi)
    for _ in range(_MAX_EXPANSIONS):
        short = f_hi.sum(axis=1) < lam[:, 0]
        if not short.any():
            break
        u_lo[short], f_lo[short] = u_hi[short], f_hi[short]
        step[short] *= 2.0
        u_hi[short] += step[short]
        f_hi[short] = mu(u_hi[short], short)
    else:
        raise RuntimeError("no upper bracket for a node's flow")
    for _ in range(_MAX_OUTER):
        open_ = np.flatnonzero((f_hi - f_lo).sum(axis=1) > OUTER_TOL)
        if not open_.size:
            break
        u_mid = 0.5 * (u_lo[open_] + u_hi[open_])
        f_mid = mu(u_mid, open_)
        below = f_mid.sum(axis=1) < lam[open_, 0]
        lo, hi = open_[below], open_[~below]
        u_lo[lo], f_lo[lo] = u_mid[below], f_mid[below]
        u_hi[hi], f_hi[hi] = u_mid[~below], f_mid[~below]
    else:
        raise RuntimeError("outer bisection did not close its bracket")
    flows[inner] = f_hi
    return flows, saturated


def reference_limit_flows(network, policy, inflows, scalings=None):
    """The node cascade at every inflow: ``(flows, saturated, node_inflows)``.

    ``flows`` and ``saturated`` map link ids to (P,) arrays, and
    ``node_inflows`` is (nodes, P), each node's inflow summed over its
    in-links as the cascade reaches them.  ``scalings``, when given, is a
    (P, m) array of capacity factors, columns in link-id order: point p's
    capacities are ``scalings[p] * f_max``.
    """
    topo = network.topology
    lams = np.asarray(inflows, dtype=float).reshape(-1)
    eps = np.ones((lams.size, len(topo.link_ids))) if scalings is None else np.asarray(scalings)
    col = {lid: j for j, lid in enumerate(topo.link_ids)}
    node_in = np.zeros((topo.num_nodes, lams.size))
    node_in[topo.origin] = lams
    flows, saturated = {}, {}
    for v in topological_order(topo):
        out = topo.outgoing[v]
        if not out:
            continue
        fns = [network.flow_functions[lid] for lid in out]
        f, sat = node_flows(node_in[v], np.array([ff.rate for ff in fns]),
                            eps[:, [col[lid] for lid in out]] * [ff.f_max for ff in fns],
                            np.array([policy.weights[lid] for lid in out]), policy.eta[v])
        for j, lid in enumerate(out):
            flows[lid], saturated[lid] = f[:, j], sat
            node_in[topo.link(lid).head] += f[:, j]
    return flows, saturated, node_in


def cascade_bound(topology, local_tol: float) -> float:
    """Largest flow difference, on any link, between the reference and a cascade
    whose node solves leave a residual of at most ``local_tol`` per link.

    By property (a), a node's flows lie within the L1 norm of its residual
    ``lam * G(mu^-1(f)) - f`` of the exact ones, and an inflow error moves
    them by at most itself, so both cascades' errors sum over the nodes:
    at most ``local_tol`` per link for the cascade, ``node_tolerance`` per
    node for the reference.
    """
    degrees = [len(out) for out in topology.outgoing.values() if out]
    return math.fsum([local_tol * k + node_tolerance(k) for k in degrees])
