"""The batched limit-flow cascade: byte-pinned CLI output and per-member behaviour."""

import json

import numpy as np
import pytest

from flownet import (
    ExponentialFlow,
    FlowNetwork,
    LocalSolverError,
    LogitPolicy,
    NetworkTopology,
    PerturbationSpec,
    TopologyError,
    load_scenario,
    min_cut_capacity,
    network_limit_flow,
)
from flownet import cli, dynamics
from flownet.dynamics import network_limit_flows
from flownet.scenario import parse_scenario

from cli_digests import (DIGESTS, LONG_DIGESTS, _generate_dag, cli_digests, long_sweep_argv,
                         long_sweep_digests, scenario_paths)
from conftest import DATA


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_cli_output_matches_the_serial_cascade(tmp_path, pinned):
    paths = scenario_paths(tmp_path)
    assert sorted(paths) == sorted(pinned)
    for name, path in paths.items():
        assert cli_digests(path) == pinned[name], name


def test_sweeps_longer_than_a_chunk_match_their_recorded_digests(tmp_path):
    pinned = json.loads(LONG_DIGESTS.read_text(encoding="utf-8"))
    assert long_sweep_digests(scenario_paths(tmp_path)) == pinned


def _expected_row(lam, limit, lids) -> str:
    """The row of one sweep point, built field by field from its ``LimitFlow``."""
    if isinstance(limit, LocalSolverError):
        return ",".join([repr(lam)] + [""] * (2 * len(lids))
                        + [f"solver failed: residual {limit.residual:.3e}"])
    return ",".join([repr(lam)] + [repr(limit.flows[lid]) for lid in lids]
                    + [str(int(limit.saturated[lid])) for lid in lids] + ["ok"])


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
    with np.errstate(over="ignore", invalid="ignore"):  # as ``cli.main`` runs it
        limits = network_limit_flows(sc.network, sc.policy, lams)
    for lam, limit, line in zip(lams.tolist(), limits, lines[1:], strict=True):
        assert line == _expected_row(lam, limit, lids)
    if name == "anti_cooperative.json":
        # failed and ok rows on both sides of the first chunk boundary
        for side in (limits[:cli._SWEEP_CHUNK], limits[cli._SWEEP_CHUNK:]):
            assert {isinstance(lf, LocalSolverError) for lf in side} == {True, False}


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
    for lam, factors, res in zip(lams, scalings, batch, strict=True):
        perturbed = sc.network.perturbed(PerturbationSpec(sc.network, factors))
        _assert_same(res, network_limit_flow(perturbed, sc.policy, lam))
    # the points cover saturating and interior limit flows, and unit factors
    assert {any(res.saturated.values()) for res in batch} == {True, False}
    assert any(1.0 in factors.values() for factors in scalings)


def test_failed_scaled_points_keep_their_first_error():
    sc = load_scenario(DATA / "anti_cooperative.json")
    lams, scalings = _scaled_points(sc, 40, seed=3)
    failed = 0
    for lam, factors, res in zip(lams, scalings,
                                 network_limit_flows(sc.network, sc.policy, lams, scalings)):
        perturbed = sc.network.perturbed(PerturbationSpec(sc.network, factors))
        try:
            one = network_limit_flow(perturbed, sc.policy, lam)
        except LocalSolverError as exc:
            failed += 1
            assert isinstance(res, LocalSolverError)
            assert (str(res), res.residual) == (str(exc), exc.residual)
        else:
            _assert_same(res, one)
    assert 0 < failed < len(lams)


def test_unscaled_points_are_the_all_ones_case(diamond):
    _, net, policy = diamond
    lams = [0.0, 0.7, 1.6, 2.5]
    for scalings in ([{}] * 4, [dict.fromkeys(net.topology.link_ids, 1.0)] * 4):
        for res, one in zip(network_limit_flows(net, policy, lams, scalings),
                            network_limit_flows(net, policy, lams), strict=True):
            _assert_same(res, one)


@pytest.mark.parametrize("scalings, error", [
    ([{5: 0.0}], ValueError), ([{5: 1.5}], ValueError), ([{5: float("nan")}], ValueError),
    ([{9: 0.5}], TopologyError), ([{5: 0.5}, {5: 0.5}], ValueError),
])
def test_bad_factor_maps_are_refused(diamond, scalings, error):
    _, net, policy = diamond
    with pytest.raises(error):
        network_limit_flows(net, policy, [1.0], scalings)
