"""The batched limit-flow cascade: byte-pinned CLI output and per-member behaviour."""

import json

import numpy as np
import pytest

from flownet import (
    CustomFlow,
    ExponentialFlow,
    FlowNetwork,
    GenericPolicy,
    LocalSolverError,
    LogitPolicy,
    NetworkTopology,
    load_scenario,
    min_cut_capacity,
    network_limit_flow,
)
from flownet import cli, dynamics
from flownet.dynamics import network_limit_flows

from cli_digests import DIGESTS, cli_digests, scenario_paths
from conftest import DATA


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_cli_output_matches_the_serial_cascade(tmp_path, pinned):
    paths = scenario_paths(tmp_path)
    assert sorted(paths) == sorted(pinned)
    for name, path in paths.items():
        assert cli_digests(path) == pinned[name], name


def test_exponential_sweeps_make_no_scalar_derivative_calls(tmp_path, monkeypatch):
    # every slope of an all-exponential node comes from the node's slope map
    dag = scenario_paths(tmp_path)["dag20-seed0.json"]
    networks = [load_scenario(DATA / "diamond5.json"), load_scenario(dag)]

    def scalar(self, rho):
        raise AssertionError("scalar ExponentialFlow.derivative call")

    monkeypatch.setattr(ExponentialFlow, "derivative", scalar)
    for sc in networks:
        cap, _ = min_cut_capacity(sc.topology, sc.network.capacities())
        lams = np.linspace(0.0, 2.0 * cap, 41)
        limits = network_limit_flows(sc.network, sc.policy, lams)
        # Newton ran: some point carries flow with no link saturated
        assert any(0 < lam and not any(lf.saturated.values())
                   for lam, lf in zip(lams, limits))


def _csv_rows(out: str):
    return [line.split(",") for line in out.splitlines()[1:]]


def test_anti_cooperative_failed_rows_keep_their_residuals(capsys):
    # the congestion-seeking policy leaves 14 points without a stationary split
    assert cli.main(["limitflow", str(DATA / "anti_cooperative.json"), "--sweep", "0:2:41"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    failed = [r for r in rows if r[-1] != "ok"]
    assert len(rows) == 41 and len(failed) == 14
    for row in failed:
        assert row[1:-1] == [""] * 4
        lam = float(row[0])
        with pytest.raises(LocalSolverError) as exc:
            sc = load_scenario(DATA / "anti_cooperative.json")
            network_limit_flow(sc.network, sc.policy, lam)
        assert row[-1] == f"solver failed: residual {exc.value.residual:.3e}"


def test_failed_member_is_masked_downstream(monkeypatch):
    # an anti-cooperative split at node 0 fails at some inflows; the others
    # must cascade on unchanged while the failed ones skip every later node
    topo = NetworkTopology(3, [(0, 0, 1), (1, 0, 1), (2, 1, 2), (3, 1, 2)])
    net = FlowNetwork(topo, {i: ExponentialFlow(1.0, 0.75) for i in range(4)})
    policy = LogitPolicy(topo, eta={0: -1.0, 1: 1.0}, weights={0: 0.6, 1: 6.0, 2: 1.0, 3: 2.0})
    lams = list(np.linspace(0.0, 2.0, 41))
    seen = []
    real = dynamics._local_solve

    def spy(rows, inflow):  # the cascade's one local solve per node group
        seen.append(np.atleast_1d(inflow).shape[0])
        return real(rows, inflow)

    monkeypatch.setattr(dynamics, "_local_solve", spy)
    results = network_limit_flows(net, policy, lams)
    failed = [i for i, r in enumerate(results) if isinstance(r, LocalSolverError)]
    assert failed and len(failed) < len(lams)
    # node 1 is solved only for the members that got through node 0
    assert seen == [len(lams), len(lams) - len(failed)]
    for lam, res in zip(lams, results):
        if isinstance(res, LocalSolverError):
            with pytest.raises(LocalSolverError) as exc:
                network_limit_flow(net, policy, lam)
            assert exc.value.residual == res.residual
        else:
            one = network_limit_flow(net, policy, lam)
            assert (res.flows, res.saturated, res.node_inflows) == \
                (one.flows, one.saturated, one.node_inflows)


def _assert_same(batch, single):
    assert batch.flows == single.flows
    assert batch.saturated == single.saturated
    assert batch.node_inflows == single.node_inflows
    assert all(type(x) is float for x in batch.flows.values())


def test_single_point_is_the_one_member_batch(diamond):
    _, net, policy = diamond
    assert network_limit_flows(net, policy, []) == []
    for lam in (0.0, 0.3, 1.0, 1.59, 1.6, 2.5):
        _assert_same(network_limit_flows(net, policy, [lam])[0],
                     network_limit_flow(net, policy, lam))


def test_batch_equals_one_point_calls_on_random8():
    sc = load_scenario(DATA / "random8.json")
    lams = np.linspace(0.0, 3.0, 17)
    for lam, res in zip(lams, network_limit_flows(sc.network, sc.policy, lams)):
        _assert_same(res, network_limit_flows(sc.network, sc.policy, [lam])[0])


def test_generic_policy_and_custom_flows_take_the_row_fallback(diamond):
    _, net, logit = diamond
    generic = GenericPolicy(net.topology, {v: (lambda r, _v=v: logit.route(_v, r))
                                           for v in range(4)})
    custom = FlowNetwork(net.topology, {
        lid: CustomFlow(lambda r, _f=ff: _f(r), ff.f_max, name=f"exp{lid}")
        for lid, ff in net.flow_functions.items()})
    lams = [0.0, 0.4, 1.1, 1.7]
    for network, policy in ((net, generic), (custom, logit), (custom, generic)):
        for lam, res in zip(lams, network_limit_flows(network, policy, lams)):
            _assert_same(res, network_limit_flow(network, policy, lam))
            # and the all-logit, all-exponential network agrees to solver tolerance
            np.testing.assert_allclose(res.flow_vector(net.topology),
                                       network_limit_flow(net, logit, lam).flow_vector(net.topology),
                                       atol=1e-8)


def test_batched_logit_route_and_jacobian_equal_row_calls():
    sc = load_scenario(DATA / "random8.json")
    rng = np.random.default_rng(0)
    for v in range(sc.topology.num_nodes):
        k = len(sc.topology.outgoing[v])
        if not k:
            continue
        rho = 10.0 ** rng.uniform(-2, 2, size=(64, k))
        rho[rng.random((64, k)) < 0.1] = 0.0
        g = sc.policy.route(v, rho)
        jac = sc.policy.jacobian(v, rho)
        assert g.shape == (64, k) and jac.shape == (64, k, k)
        assert np.array_equal(g, np.array([sc.policy.route(v, r) for r in rho]))
        assert np.array_equal(jac, np.array([sc.policy.jacobian(v, r) for r in rho]))
