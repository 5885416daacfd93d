"""The level cascade of ``network_limit_flows`` against the node-by-node reference.

``network_limit_flows`` solves all nodes of one level with the same
out-degree in one Newton run; ``serial_cascade.serial_limit_flows`` solves
one node at a time in ``topological_order``.  Every point must be equal
(``==``) in both: flows, saturation flags, node inflows, and the residual of
the first failing node.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flownet import (
    ExponentialFlow,
    FlowNetwork,
    LocalSolverError,
    LogitPolicy,
    NetworkTopology,
    min_cut_capacity,
    network_limit_flow,
)
from flownet import cli, dynamics
from flownet.dynamics import network_limit_flows
from flownet.scenario import parse_scenario

from cli_digests import DATA, SWEEP_POINTS, _generate_dag
from serial_cascade import serial_limit_flows

generate_dag = _generate_dag()


def _assert_equal(results, reference):
    assert results.link_ids == reference.link_ids
    assert len(results.errors) == len(reference.errors)
    for got, want in zip(results.errors, reference.errors):
        if isinstance(want, LocalSolverError):
            assert isinstance(got, LocalSolverError)
            assert (got.residual, str(got)) == (want.residual, str(want))
        else:
            assert not isinstance(got, LocalSolverError), got
    ok = [err is None for err in reference.errors]
    assert np.array_equal(results.flows[ok], reference.flows[ok])
    assert np.array_equal(results.saturated[ok], reference.saturated[ok])
    assert np.array_equal(results.node_inflows[ok], reference.node_inflows[ok])


def _sweep(scenario):
    cap, _ = min_cut_capacity(scenario.topology, scenario.network.capacities())
    return np.linspace(0.0, 2.0 * cap, SWEEP_POINTS)


def _anti_cooperative_dag(seed, nodes, extra_links, anti_share):
    """``generate_dag`` with a share of its multi-link nodes given a negative eta."""
    rng = random.Random(seed)
    doc = generate_dag(seed, nodes, 2 * (nodes - 2) + extra_links)
    multi = [v for v in range(nodes - 1) if len(doc["policies"][str(v)]["weights"]) >= 2]
    for v in rng.sample(multi, round(anti_share * len(multi))):
        doc["policies"][str(v)]["eta"] = -rng.uniform(2.0, 6.0)
    return parse_scenario(doc)


def test_seeded_dags_match_the_serial_cascade():
    failed = straddling = 0
    for seed in range(10):
        rng = random.Random(seed)
        nodes = rng.randint(6, 30)
        sc = _anti_cooperative_dag(seed, nodes, rng.randint(0, nodes), 1 / 3)
        lams = _sweep(sc)
        reference = serial_limit_flows(sc.network, sc.policy, lams)
        _assert_equal(network_limit_flows(sc.network, sc.policy, lams), reference)
        failed += sum(isinstance(err, LocalSolverError) for err in reference.errors)
        plan = dynamics._CascadePlan(sc.topology)
        level = {v: depth for depth, (level_nodes, _) in enumerate(plan.levels)
                 for v in level_nodes}
        straddling += sum(len({level[sc.topology.link(lid).tail] for lid in incoming}) >= 3
                          for incoming in sc.topology.incoming.values())
    # the cases the two orders guard: failing points, and inflows summed across levels
    assert failed >= 50 and straddling >= 20


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31), nodes=st.integers(6, 30), extra=st.integers(0, 30),
       anti_share=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_generated_dags_match_the_serial_cascade(seed, nodes, extra, anti_share):
    sc = _anti_cooperative_dag(seed, nodes, extra, anti_share)
    lams = _sweep(sc)
    _assert_equal(network_limit_flows(sc.network, sc.policy, lams),
                  serial_limit_flows(sc.network, sc.policy, lams))


def _level_order_dag():
    """Node 3 is on level 3 and node 4 on level 1, but 3 comes first in topological order.

    Node 0 splits its inflow evenly between the chain 1 -> 2 -> 3 and node
    4; nodes 3 and 4 are anti-cooperative, with failing inflows that overlap.
    """
    topo = NetworkTopology(6, [(0, 0, 1), (1, 0, 4), (2, 1, 2), (3, 2, 3),
                               (4, 3, 5), (5, 3, 5), (6, 4, 5), (7, 4, 5)])
    wide = ExponentialFlow(1.0, 5.0)
    net = FlowNetwork(topo, {0: wide, 1: wide, 2: wide, 3: wide,
                             4: ExponentialFlow(1.0, 0.8), 5: ExponentialFlow(1.0, 0.8),
                             6: ExponentialFlow(1.0, 0.75), 7: ExponentialFlow(1.0, 0.75)})
    policy = LogitPolicy(topo, eta={0: 1.0, 1: 1.0, 2: 1.0, 3: -1.0, 4: -1.0},
                         weights={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0,
                                  4: 0.5, 5: 5.0, 6: 0.6, 7: 6.0})
    return net, policy


def test_first_failure_in_topological_order_is_reported():
    net, policy = _level_order_dag()
    plan = dynamics._CascadePlan(net.topology)
    assert [nodes for nodes, _ in plan.levels] == [[0], [1, 4], [2], [3], [5]]
    assert plan.pos[3] < plan.pos[4]
    lams = np.linspace(0.0, 4.0, 81)
    results = network_limit_flows(net, policy, lams)
    _assert_equal(results, serial_limit_flows(net, policy, lams))

    # the inflows of nodes 3 and 4 come from nodes 0-2, whatever nodes 3 and 4 do
    upstream = LogitPolicy(net.topology, eta={**policy.eta, 3: 1.0, 4: 1.0},
                           weights=policy.weights)

    def node_error(v, inflow):
        _, _, (err,) = dynamics.local_limit_flow(net, policy, v, [inflow])
        return err

    both = 0
    for lam, res in zip(lams, results.errors):
        inflows = network_limit_flow(net, upstream, lam).node_inflows
        err3, err4 = node_error(3, inflows[3]), node_error(4, inflows[4])
        assert isinstance(res, LocalSolverError) == (err3 is not None or err4 is not None)
        if err3 is not None and err4 is not None:
            both += 1
            # node 4 fails first in level order, node 3 first in topological order
            assert res.residual == err3.residual != err4.residual
    assert both >= 5


def test_dag43_sweep_solves_fourteen_node_groups(monkeypatch):
    sc = parse_scenario(generate_dag(43))
    rows = []
    real = dynamics._local_solve

    def spy(group_rows, lams):
        rows.append(lams.size)
        return real(group_rows, lams)

    monkeypatch.setattr(dynamics, "_local_solve", spy)
    network_limit_flows(sc.network, sc.policy, _sweep(sc))
    # 19 nodes route, in 14 groups of one level and out-degree
    assert sum(bool(out) for out in sc.topology.outgoing.values()) == 19
    assert len(rows) == 14 and sum(rows) == 19 * SWEEP_POINTS


def test_every_command_succeeds_on_every_valid_fixture_and_dag20(tmp_path, capsys):
    # exit 0 and nothing on stderr, for each command on each valid document
    dag = tmp_path / "dag20-seed3.json"
    dag.write_text(json.dumps(generate_dag(3)), encoding="utf-8")
    valid = [DATA / f"{name}.json" for name in ("example3", "example3_cutattack", "diamond5",
                                                "random8", "chain21")] + [dag]
    for path in valid:
        for argv in (["validate", str(path)], ["mincut", str(path)],
                     ["limitflow", str(path), "--sweep", "0:3:41"],
                     ["simulate", str(path), "--horizon", "5", "--out", str(tmp_path / "run")],
                     ["resilience", str(path), "--alphas", "0.5", "--samples", "1",
                      "--horizon", "40"]):
            assert cli.main(argv) == 0, argv
            assert capsys.readouterr().err == "", argv
