"""The batched limit-flow cascade: byte-pinned CLI output and per-member behaviour."""

import json

import numpy as np
import pytest

from flownet import (
    ExponentialFlow,
    FlowNetwork,
    LimitFlows,
    LocalSolverError,
    LogitPolicy,
    NetworkTopology,
    PerturbationSpec,
    TopologyError,
    load_scenario,
    local_limit_flow,
    min_cut_capacity,
    network_limit_flow,
)
from flownet import cli, dynamics
from flownet.dynamics import network_limit_flows
from flownet.scenario import parse_scenario
from flownet.topology import topological_order

from cli_digests import (DIGESTS, LONG_DIGESTS, _generate_dag, cli_digests, long_sweep_argv,
                         long_sweep_digests, scenario_paths)
from conftest import DATA
from host_class import mismatch
from serial_cascade import serial_limit_flows


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_cli_output_matches_the_serial_cascade(tmp_path, pinned):
    paths = scenario_paths(tmp_path)
    assert sorted(paths) == sorted(pinned)
    for name, path in paths.items():
        assert cli_digests(path) == pinned[name], mismatch(f"{name} mincut/limitflow digests")


def test_sweeps_longer_than_a_chunk_match_their_recorded_digests(tmp_path):
    pinned = json.loads(LONG_DIGESTS.read_text(encoding="utf-8"))
    assert long_sweep_digests(scenario_paths(tmp_path)) == pinned, mismatch("long sweep digests")


def _row(limits, p):
    """Point p of ``limits`` as a ``LimitFlow``'s dicts: flows, flags, node inflows."""
    return (dict(zip(limits.link_ids, limits.flows[p].tolist())),
            dict(zip(limits.link_ids, limits.saturated[p].tolist())),
            dict(enumerate(limits.node_inflows[p].tolist())))


def _expected_row(lam, limits, p, lids) -> str:
    """The row of sweep point p, built field by field from its row of ``limits``."""
    if isinstance(limits.errors[p], LocalSolverError):
        return ",".join([repr(lam)] + [""] * (2 * len(lids))
                        + [f"solver failed: residual {limits.errors[p].residual:.3e}"])
    flows, saturated, _ = _row(limits, p)
    return ",".join([repr(lam)] + [repr(flows[lid]) for lid in lids]
                    + [str(int(saturated[lid])) for lid in lids] + ["ok"])


@pytest.mark.parametrize("name", ["diamond5.json", "anti_cooperative.json", "dag20-seed0.json"])
def test_long_sweep_rows_equal_their_limit_flows(tmp_path, capsys, name):
    paths = scenario_paths(tmp_path)
    argv = long_sweep_argv(paths)[name]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    sc = load_scenario(paths[name])
    start, stop, num = argv[-1].split(":")
    lams = np.linspace(float(start), float(stop), int(num))
    lids = sc.topology.link_ids
    assert len(lams) > cli._SWEEP_CHUNK and len(lines) == len(lams) + 1
    limits = network_limit_flows(sc.network, sc.policy, lams)
    for p, (lam, line) in enumerate(zip(lams.tolist(), lines[1:], strict=True)):
        assert line == _expected_row(lam, limits, p, lids)
    if name == "anti_cooperative.json":
        # failed and ok rows on both sides of the first chunk boundary
        for side in (limits.errors[:cli._SWEEP_CHUNK], limits.errors[cli._SWEEP_CHUNK:]):
            assert {isinstance(err, LocalSolverError) for err in side} == {True, False}


def test_exponential_sweeps_make_no_scalar_derivative_calls(tmp_path, monkeypatch):
    # every slope comes from ``_LogitRows.slope``, never a scalar call per element
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
        assert any(0 < lam and not sat.any() for lam, sat in zip(lams, limits.saturated))


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
    failed = [i for i, r in enumerate(results.errors) if isinstance(r, LocalSolverError)]
    assert failed and len(failed) < len(lams)
    # node 1 is solved only for the members that got through node 0
    assert seen == [len(lams), len(lams) - len(failed)]
    for p, (lam, res) in enumerate(zip(lams, results.errors)):
        if isinstance(res, LocalSolverError):
            with pytest.raises(LocalSolverError) as exc:
                network_limit_flow(net, policy, lam)
            assert exc.value.residual == res.residual
        else:
            one = network_limit_flow(net, policy, lam)
            assert _row(results, p) == (one.flows, one.saturated, one.node_inflows)


def _assert_same(batch, p, single):
    """Point p of the cascade ``batch`` is the ``LimitFlow`` ``single``."""
    assert _row(batch, p) == (single.flows, single.saturated, single.node_inflows)
    assert all(type(x) is float for x in single.flows.values())


def test_single_point_is_the_one_member_batch(diamond):
    _, net, policy = diamond
    assert network_limit_flows(net, policy, []).errors == ()
    for lam in (0.0, 0.3, 1.0, 1.59, 1.6, 2.5):
        _assert_same(network_limit_flows(net, policy, [lam]), 0,
                     network_limit_flow(net, policy, lam))


def test_batch_equals_one_point_calls_on_random8():
    sc = load_scenario(DATA / "random8.json")
    lams = np.linspace(0.0, 3.0, 17)
    batch = network_limit_flows(sc.network, sc.policy, lams)
    for p, lam in enumerate(lams):
        assert _row(batch, p) == _row(network_limit_flows(sc.network, sc.policy, [lam]), 0)


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


def _scaled_points(scenario, n_points, seed):
    """Inflows in [0, 1.5 C] and one factor map per point: each link scaled with
    chance 1/2, by 1.0 one time in four and else by a factor in [0.05, 1)."""
    rng = np.random.default_rng(seed)
    cap, _ = min_cut_capacity(scenario.topology, scenario.network.capacities())
    ids = scenario.topology.link_ids
    scalings = [{lid: 1.0 if rng.random() < 0.25 else float(rng.uniform(0.05, 1.0))
                 for lid in ids if rng.random() < 0.5} for _ in range(n_points)]
    return rng.uniform(0.0, 1.5 * cap, n_points), scalings


@pytest.mark.parametrize("name", ["diamond5", "random8", "example3", "chain21",
                                  "dag20-seed0", "dag20-seed1", "dag20-seed2"])
def test_scaled_points_equal_their_perturbed_cascades(name):
    if name.startswith("dag20-"):
        sc = parse_scenario(_generate_dag()(int(name[len("dag20-seed"):])))
    else:
        sc = load_scenario(DATA / f"{name}.json")
    lams, scalings = _scaled_points(sc, 40, seed=len(name))
    batch = network_limit_flows(sc.network, sc.policy, lams, scalings)
    for p, (lam, factors) in enumerate(zip(lams, scalings, strict=True)):
        perturbed = sc.network.perturbed(PerturbationSpec(sc.network, factors))
        _assert_same(batch, p, network_limit_flow(perturbed, sc.policy, lam))
    # the points cover saturating and interior limit flows, and unit factors
    assert set(batch.saturated.any(axis=1).tolist()) == {True, False}
    assert any(1.0 in factors.values() for factors in scalings)


def test_failed_scaled_points_keep_their_first_error():
    sc = load_scenario(DATA / "anti_cooperative.json")
    lams, scalings = _scaled_points(sc, 40, seed=3)
    failed = 0
    batch = network_limit_flows(sc.network, sc.policy, lams, scalings)
    for p, (lam, factors, res) in enumerate(zip(lams, scalings, batch.errors)):
        perturbed = sc.network.perturbed(PerturbationSpec(sc.network, factors))
        try:
            one = network_limit_flow(perturbed, sc.policy, lam)
        except LocalSolverError as exc:
            failed += 1
            assert isinstance(res, LocalSolverError)
            assert (str(res), res.residual) == (str(exc), exc.residual)
        else:
            _assert_same(batch, p, one)
    assert 0 < failed < len(lams)


def test_unscaled_points_are_the_all_ones_case(diamond):
    _, net, policy = diamond
    lams = [0.0, 0.7, 1.6, 2.5]
    for scalings in ([{}] * 4, [dict.fromkeys(net.topology.link_ids, 1.0)] * 4):
        res = network_limit_flows(net, policy, lams, scalings)
        one = network_limit_flows(net, policy, lams)
        assert [_row(res, p) for p in range(4)] == [_row(one, p) for p in range(4)]


@pytest.mark.parametrize("scalings, error", [
    ([{5: 0.0}], ValueError), ([{5: 1.5}], ValueError), ([{5: float("nan")}], ValueError),
    ([{9: 0.5}], TopologyError), ([{5: 0.5}, {5: 0.5}], ValueError),
])
def test_bad_factor_maps_are_refused(diamond, scalings, error):
    _, net, policy = diamond
    with pytest.raises(error):
        network_limit_flows(net, policy, [1.0], scalings)


class TestLimitFlowsContract:
    """``network_limit_flows`` returns one ``LimitFlows``: (P, m) flows and flags with
    columns in link-id order, (P, n) node inflows, and one error slot per point."""

    def test_columns_follow_link_ids_not_the_cascade_order(self):
        sc = load_scenario(DATA / "random8.json")
        topo = sc.topology
        cascade = tuple(lid for v in topological_order(topo) for lid in topo.outgoing[v])
        assert cascade != topo.link_ids and sorted(cascade) == list(topo.link_ids)
        lams = np.linspace(0.0, 3.0, 17)
        limits = network_limit_flows(sc.network, sc.policy, lams)
        assert isinstance(limits, LimitFlows) and limits.link_ids == topo.link_ids
        assert limits.flows.shape == limits.saturated.shape == (17, len(topo.link_ids))
        assert limits.node_inflows.shape == (17, topo.num_nodes)
        assert limits.errors == (None,) * 17
        reference = serial_limit_flows(sc.network, sc.policy, lams)
        assert np.array_equal(limits.flows, reference.flows)
        assert np.array_equal(limits.saturated, reference.saturated)
        assert np.array_equal(limits.node_inflows, reference.node_inflows)
        # a saturated column holds its own link's capacity
        for j, lid in enumerate(topo.link_ids):
            f_max = sc.network.flow_functions[lid].f_max
            assert (limits.flows[limits.saturated[:, j], j] == f_max).all()
        assert limits.saturated.any() and not limits.saturated.all()

    def test_no_points_give_empty_arrays(self, diamond):
        topo, net, policy = diamond
        limits = network_limit_flows(net, policy, [])
        assert limits.flows.shape == limits.saturated.shape == (0, len(topo.link_ids))
        assert limits.node_inflows.shape == (0, topo.num_nodes)
        assert limits.errors == ()

    def test_a_failed_point_keeps_its_nans_and_its_first_error(self):
        sc = load_scenario(DATA / "anti_cooperative.json")
        topo = sc.topology
        lams = np.linspace(0.0, 2.0, 41)
        limits = network_limit_flows(sc.network, sc.policy, lams)
        failed = [p for p, err in enumerate(limits.errors) if err is not None]
        assert 0 < len(failed) < len(lams)
        first = next(v for v in topological_order(topo) if topo.outgoing[v])
        for p in failed:
            _, _, (err,) = local_limit_flow(sc.network, sc.policy, first, [lams[p]])
            assert (str(limits.errors[p]), limits.errors[p].residual) == (str(err), err.residual)
            assert np.isnan(limits.flows[p]).all() and not limits.saturated[p].any()
            assert limits.node_inflows[p, topo.origin] == lams[p]
            assert np.isnan(np.delete(limits.node_inflows[p], topo.origin)).all()
        ok = [p for p in range(len(lams)) if p not in failed]
        assert not np.isnan(limits.flows[ok]).any()

    def test_scaled_points_keep_their_own_capacities(self, diamond):
        topo, net, policy = diamond
        origin_links = topo.outgoing[topo.origin]
        scalings = [{}, dict.fromkeys(origin_links, 0.5), {origin_links[0]: 0.25}]
        limits = network_limit_flows(net, policy, [5.0] * 3, scalings)
        for p, factors in enumerate(scalings):
            for lid in origin_links:
                j = topo.link_ids.index(lid)
                assert limits.saturated[p, j]
                assert limits.flows[p, j] == factors.get(lid, 1.0) * net.flow_functions[lid].f_max
        assert len({row.tobytes() for row in limits.flows}) == 3

    @pytest.mark.parametrize("lam", [0.0, 0.45, 1.0, 1.55, 2.0])
    def test_one_point_is_row_zero(self, lam):
        sc = load_scenario(DATA / "anti_cooperative.json")
        limits = network_limit_flows(sc.network, sc.policy, [lam])
        (error,) = limits.errors
        if error is not None:
            with pytest.raises(LocalSolverError) as exc:
                network_limit_flow(sc.network, sc.policy, lam)
            assert (str(exc.value), exc.value.residual) == (str(error), error.residual)
            return
        one = network_limit_flow(sc.network, sc.policy, lam)
        assert _row(limits, 0) == (one.flows, one.saturated, one.node_inflows)
        assert np.array_equal(list(one.flows.values()), limits.flows[0])
        assert list(one.flows) == list(limits.link_ids)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_failing_splits_raise_no_numpy_warnings():
    # the points whose split fails overflow on their way; only their errors say so
    sc = load_scenario(DATA / "anti_cooperative.json")
    lams = np.linspace(0.0, 1.55, 1100)
    limits = network_limit_flows(sc.network, sc.policy, lams)
    failed = [p for p, err in enumerate(limits.errors) if err is not None]
    assert 0 < len(failed) < len(lams)
    with pytest.raises(LocalSolverError):
        network_limit_flow(sc.network, sc.policy, float(lams[failed[0]]))
