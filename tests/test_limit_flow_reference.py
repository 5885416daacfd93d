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
from hypothesis import given, settings, strategies as st

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


def _compare(sc, lams, scalings=None):
    """Check every point; return the (point, node) pairs on a saturation knife edge.

    ``scalings``, when given, scales point p's capacities by its row p of
    factors in link-id order; both solvers get the one (P, m) array.
    """
    topo = sc.topology
    bound = cascade_bound(topo, LOCAL_TOL)
    flows, saturated, node_in = reference_limit_flows(sc.network, sc.policy, lams, scalings)
    knife_edges = []
    limits = network_limit_flows(sc.network, sc.policy, lams, scalings)
    col = {lid: j for j, lid in enumerate(limits.link_ids)}
    eps = np.ones(limits.flows.shape) if scalings is None else scalings
    for p, error in enumerate(limits.errors):
        assert not isinstance(error, LocalSolverError), (lams[p], error)
        gap = max(abs(limits.flows[p, col[lid]] - flows[lid][p]) for lid in topo.link_ids)
        assert gap <= bound, (lams[p], gap, bound)
        for v, out in topo.outgoing.items():
            if not out:
                continue
            capacity = sum(eps[p, col[lid]] * sc.network.flow_functions[lid].f_max
                           for lid in out)
            if abs(limits.node_inflows[p, v] - capacity) <= bound:
                knife_edges.append((p, v))
            else:
                assert limits.saturated[p, col[out[0]]] == saturated[out[0]][p], (lams[p], v)
    return knife_edges


@pytest.mark.parametrize("name, points", [
    ("diamond5", SWEEP_POINTS), ("random8", SWEEP_POINTS), ("example3", SWEEP_POINTS),
    ("chain21", SWEEP_POINTS), ("dag20-seed0", 11), ("dag20-seed43", 11),
])
def test_sweep_to_twice_the_min_cut_matches_the_reference(name, points):
    sc = _scenario(name)
    cap, _ = min_cut_capacity(sc.topology, sc.network.capacities())
    _compare(sc, np.linspace(0.0, 2.0 * cap, points))


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31), nodes=st.integers(6, 30), extra=st.integers(0, 30),
       scale_seed=st.integers(0, 2**31),
       fractions=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4))
def test_generated_dags_with_scaled_capacities_match_the_reference(seed, nodes, extra,
                                                                   scale_seed, fractions):
    # DAGs drawn as the level-cascade property draws them (every eta > 0), each
    # inflow with its own capacity scalings (some links by 1.0), below and above
    # its scaled min cut C: the rows the cascade builds already scaled
    sc = parse_scenario(generate_dag(seed, nodes, 2 * (nodes - 2) + extra))
    rng = np.random.default_rng(scale_seed)
    ids = sc.topology.link_ids
    fractions = [0.5, 1.5] + fractions
    shape = (len(fractions), len(ids))
    scalings = np.where(rng.random(shape) < 0.3, 1.0, rng.uniform(0.05, 1.0, shape))
    f_max = np.array([sc.network.flow_functions[lid].f_max for lid in ids])
    caps = [min_cut_capacity(sc.topology, dict(zip(ids, row * f_max)))[0] for row in scalings]
    _compare(sc, np.array(caps) * fractions, scalings)


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
