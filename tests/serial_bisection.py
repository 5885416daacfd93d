"""A serial cut-scaling bisection on the one-point limit-flow oracle: the
reference for ``estimate_weak_resilience``'s ``alpha_sweep``.

``serial_alpha_sweep`` takes each alpha in turn (largest first) and judges
every scaling the moment its bisection reaches it, by one
``network_limit_flow`` call on the network with its minimal cut scaled by a
certified ``PerturbationSpec``.  The estimator judges all of them from one
or two batched cascades and must report the same sweep point for point, and
raise the same error where a judged scaling fails.
"""

from flownet import PerturbationSpec, min_cut_capacity, network_limit_flow
from flownet.dynamics import _transfer_threshold
from flownet.resilience import BISECT_TOL_FRAC, AlphaSweepPoint


def serial_alpha_sweep(network, policy, inflow, alphas, visited=None) -> list:
    """One ``AlphaSweepPoint`` per alpha, in the estimator's order.

    ``visited``, when given, is a list that each judged scaling is appended
    to, in the order judged.
    """
    capacity, cut = min_cut_capacity(network.topology, network.capacities())
    cut_links = sorted(cut.cut_links)
    destination = network.topology.destination

    def spec(eps):
        return PerturbationSpec(network, {lid: eps for lid in cut_links})

    sweep = []
    for alpha in sorted(alphas, reverse=True):
        threshold = _transfer_threshold(alpha, inflow)

        def defeated(eps):
            if visited is not None:
                visited.append(eps)
            limit = network_limit_flow(network.perturbed(spec(eps)), policy, inflow)
            return not limit.node_inflows[destination] >= threshold

        eps_lo, evaluations = alpha * inflow / (2.0 * capacity), 1
        while not defeated(eps_lo):
            eps_lo *= 0.5
            if eps_lo < 1e-12:
                raise RuntimeError("failed to find a defeating attack below min-cut scale")
            evaluations += 1
        eps_hi = 1.0
        while (eps_hi - eps_lo) * capacity > BISECT_TOL_FRAC * capacity:
            mid = 0.5 * (eps_lo + eps_hi)
            evaluations += 1
            if defeated(mid):
                eps_lo = mid
            else:
                eps_hi = mid
        sweep.append(AlphaSweepPoint(alpha=alpha, defeating_delta=spec(eps_lo).magnitude,
                                     defeating_eps=eps_lo,
                                     preserved_delta=(1.0 - eps_hi) * capacity,
                                     evaluations=evaluations))
    return sweep
