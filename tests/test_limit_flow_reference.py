"""``network_limit_flows`` against the bisection reference, which shares no solver code.

Both cascades stop short of the exact limit flow: Newton once a node's
residual is within ``LOCAL_TOL`` per link, the reference once its brackets
close (``bisection_reference.node_tolerance``).  Property (a) turns each
residual into a bound on the flow error, and the bounds add up along the
cascade (``bisection_reference.cascade_bound``), so every link's flows
must agree within that sum.  A saturation flag may differ only where a
node's inflow lies within the same bound of its total capacity.
"""

import numpy as np
import pytest

from flownet import LocalSolverError, load_scenario, min_cut_capacity, network_limit_flows
from flownet.dynamics import LOCAL_TOL
from flownet.scenario import parse_scenario

from bisection_reference import cascade_bound, node_flows, reference_limit_flows
from cli_digests import DATA, SWEEP_POINTS, _generate_dag

generate_dag = _generate_dag()


def _scenario(name):
    if name.startswith("dag20-seed"):
        return parse_scenario(generate_dag(int(name.removeprefix("dag20-seed"))))
    return load_scenario(DATA / f"{name}.json")


def _compare(sc, lams):
    """Check every point; return the (point, node) pairs on a saturation knife edge."""
    topo = sc.topology
    bound = cascade_bound(topo, LOCAL_TOL)
    flows, saturated, node_in = reference_limit_flows(sc.network, sc.policy, lams)
    knife_edges = []
    for p, limit in enumerate(network_limit_flows(sc.network, sc.policy, lams)):
        assert not isinstance(limit, LocalSolverError), (lams[p], limit)
        gap = max(abs(limit.flows[lid] - flows[lid][p]) for lid in topo.link_ids)
        assert gap <= bound, (lams[p], gap, bound)
        for v, out in topo.outgoing.items():
            if not out:
                continue
            capacity = sum(sc.network.flow_functions[lid].f_max for lid in out)
            if abs(limit.node_inflows[v] - capacity) <= bound:
                knife_edges.append((p, v))
            else:
                assert limit.saturated[out[0]] == saturated[out[0]][p], (lams[p], v)
    return knife_edges


@pytest.mark.parametrize("name, points", [
    ("diamond5", SWEEP_POINTS), ("random8", SWEEP_POINTS), ("example3", SWEEP_POINTS),
    ("chain21", SWEEP_POINTS), ("dag20-seed0", 11), ("dag20-seed43", 11),
])
def test_sweep_to_twice_the_min_cut_matches_the_reference(name, points):
    sc = _scenario(name)
    cap, _ = min_cut_capacity(sc.topology, sc.network.capacities())
    _compare(sc, np.linspace(0.0, 2.0 * cap, points))


def test_chain21_at_its_min_cut_is_a_knife_edge():
    # node 1's one link carries the min cut, C = 1.0; at inflow C node 0 passes on
    # C up to its residual, so node 1 sits on its capacity within the bound
    sc = _scenario("chain21")
    cap, _ = min_cut_capacity(sc.topology, sc.network.capacities())
    assert cap == 1.0
    assert _compare(sc, np.array([cap])) == [(0, 1)]


def test_reference_refuses_a_node_that_is_not_responsive():
    sc = _scenario("anti_cooperative")
    assert sc.policy.eta[0] < 0
    with pytest.raises(ValueError, match="eta > 0"):
        reference_limit_flows(sc.network, sc.policy, [0.5])
    with pytest.raises(ValueError, match="eta > 0"):
        node_flows([0.5], np.ones(2), np.ones(2), np.ones(2), 0.0)
