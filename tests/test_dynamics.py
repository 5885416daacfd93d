"""Integration, limit flows, transfer estimation, and the cooperative-system laws."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from flownet import (
    ExponentialFlow,
    FlowNetwork,
    LocalSolverError,
    LogitPolicy,
    NetworkTopology,
    PerturbationSpec,
    SimulationConfig,
    SimulationError,
    alpha_transfer_estimate,
    convergence_check,
    evaluate_attacks,
    local_limit_flow,
    network_limit_flow,
    load_scenario,
    parse_scenario,
    simulate,
    simulate_ensemble,
    simulate_local,
)
from flownet import dynamics
from flownet.dynamics import default_dt, limit_flow_estimate

from cli_digests import _generate_dag
from conftest import (
    DATA,
    diamond_network,
    diamond_policy,
    two_route_limit_flow,
    two_route_network,
    two_route_policy,
)


def two_route_fixed_point_oracle(lam: float) -> np.ndarray:
    """Independent stationary split for the two-route fixture.

    Scalar root solve of lam * G_1(mu^-1(f1), mu^-1(lam - f1)) = f1; no
    closed form, no solver code shared with the package's Newton cascade.
    """
    assert 0 < lam < 1.5
    a = np.array([0.6, 6.0])

    def residual(f1):
        f = np.array([f1, lam - f1])
        rho = -np.log1p(-f / 0.75)
        w = a * np.exp(-rho)
        return lam * w[0] / w.sum() - f1

    lo = max(1e-12, lam - 0.75 + 1e-12)
    hi = min(lam, 0.75) - 1e-12
    f1 = brentq(residual, lo, hi, xtol=1e-14)
    return np.array([f1, lam - f1])


def compiled_rhs(network, policy, inflow, rho):
    """``_Compiled.rhs`` at one state given and returned in ``topology.links`` order."""
    compiled = dynamics._Compiled([network], policy, inflow)
    rho = np.asarray(rho, dtype=float)
    return compiled.rhs(0.0, rho[compiled.to_sorted])[compiled.to_topo]


class TestRhs:
    def test_two_route_origin_at_rest(self, two_route):
        topo, net, policy = two_route
        np.testing.assert_allclose(compiled_rhs(net, policy, 1.0, [0.0, 0.0]), [1 / 11, 10 / 11],
                                   atol=1e-15)

    def test_drain_without_inflow(self):
        topo = NetworkTopology(2, [(0, 0, 1)])
        net = FlowNetwork(topo, {0: ExponentialFlow(1.0, 1.0)})
        policy = LogitPolicy(topo, eta={0: 1.0}, weights={0: 1.0})
        out = compiled_rhs(net, policy, 0.0, [2.0])
        assert out[0] == pytest.approx(-(1.0 - math.exp(-2.0)), abs=1e-15)
        assert out[0] < 0

    def test_matched_equilibrium_is_stationary(self):
        # admissible equilibrium flow on the diamond, policy weights chosen
        # so the split reproduces it exactly
        net = diamond_network()
        topo = net.topology
        f_eq = {0: 0.4, 1: 0.6, 2: 0.15, 3: 0.25, 4: 0.75, 5: 1.0}
        rho_eq = np.array([net.flow_functions[lid].inverse(f_eq[lid]) for lid in topo.link_ids])
        weights = {lid: f_eq[lid] * math.exp(rho_eq[i]) for i, lid in enumerate(topo.link_ids)}
        policy = LogitPolicy(topo, eta={v: 1.0 for v in range(4)}, weights=weights)
        np.testing.assert_allclose(compiled_rhs(net, policy, 1.0, rho_eq), 0.0, atol=1e-14)


class TestSimulate:
    def test_equilibrium_stays_put(self, two_route):
        topo, net, policy = two_route
        f_star = two_route_fixed_point_oracle(1.0)
        rho_star = np.array([net.flow_functions[i].inverse(f_star[i]) for i in (0, 1)])
        traj = simulate(net, policy, SimulationConfig(inflow=1.0, horizon=20.0), rho_star)
        assert np.abs(traj.rho - rho_star).max() < 1e-9

    def test_terminal_flow_matches_oracle(self, two_route):
        topo, net, policy = two_route
        traj = simulate(net, policy, SimulationConfig(inflow=1.0, horizon=200.0))
        oracle = two_route_fixed_point_oracle(1.0)
        np.testing.assert_allclose(traj.terminal_flow(), oracle, atol=1e-4)
        # and the conftest closed form agrees with the numeric oracle
        np.testing.assert_allclose(two_route_limit_flow(1.0), oracle, atol=1e-12)

    def test_halving_dt_barely_moves_terminal_state(self, two_route):
        topo, net, policy = two_route
        t1 = simulate(net, policy, SimulationConfig(inflow=1.0, horizon=40.0, dt=0.02))
        t2 = simulate(net, policy, SimulationConfig(inflow=1.0, horizon=40.0, dt=0.01))
        assert np.abs(t1.rho[-1] - t2.rho[-1]).max() < 1e-6

    def test_zero_inflow_drains(self, two_route):
        topo, net, policy = two_route
        traj = simulate(net, policy, SimulationConfig(inflow=0.0, horizon=60.0),
                        np.array([2.0, 3.0]))
        assert np.abs(traj.terminal_flow()).max() < 1e-6
        assert traj.max_undershoot <= 1e-9

    def test_flows_and_inflows_consistent(self, two_route):
        topo, net, policy = two_route
        traj = simulate(net, policy, SimulationConfig(inflow=0.8, horizon=30.0))
        expect = 0.75 * -np.expm1(-traj.rho)
        np.testing.assert_allclose(traj.flows, expect, atol=1e-14)
        np.testing.assert_allclose(traj.node_inflows[:, 1], traj.flows.sum(axis=1), atol=1e-14)
        np.testing.assert_allclose(traj.node_inflows[:, 0], 0.8, atol=0)

    def test_runaway_density_reported(self, two_route, monkeypatch):
        # the right-hand side is globally bounded, so the blow-up detector in
        # practice is the density ceiling: an overloaded network grows without
        # bound and must abort with a diagnostic instead of running forever
        topo, net, policy = two_route
        monkeypatch.setattr(dynamics, "DENSITY_CEILING", 50.0)
        with pytest.raises(SimulationError):
            simulate(net, policy, SimulationConfig(inflow=2.0, horizon=500.0, dt=0.05))

    @pytest.mark.parametrize("rho0, message", [
        ([-1.0, 0.2], "nonnegative"), ([np.nan, 0.2], "finite"), ([0.2, np.inf], "finite"),
        ([-np.inf, 0.2], "finite"), ([0.2], "one entry per link"),
        ([2e9, 0.2], "at most the density ceiling 1e\\+09"),
    ])
    def test_bad_start_refused_before_any_step(self, two_route, monkeypatch, rho0, message):
        topo, net, policy = two_route

        def no_step(*args, **kwargs):
            raise AssertionError("a run from a bad start reached the integrator")

        monkeypatch.setattr(dynamics, "_integrate", no_step)
        config = SimulationConfig(inflow=1.0, horizon=1.0, dt=0.1)
        runs = [
            lambda: simulate(net, policy, config, rho0),
            lambda: simulate_ensemble([net, net], policy, config, [None, rho0]),
            lambda: simulate_local(net, policy, 0, lambda t: 1.0, rho0, dt=0.1, horizon=1.0),
        ]
        for run in runs:
            with pytest.raises(ValueError, match=message):
                run()

    def test_record_stride_keeps_endpoints(self, two_route):
        topo, net, policy = two_route
        full = simulate(net, policy, SimulationConfig(inflow=1.0, horizon=10.0, dt=0.01))
        thin = simulate(net, policy, SimulationConfig(inflow=1.0, horizon=10.0, dt=0.01,
                                                      record_stride=50))
        assert thin.times[0] == 0.0 and thin.times[-1] == full.times[-1]
        np.testing.assert_allclose(thin.rho[-1], full.rho[-1], atol=0)


class TestAlphaTransfer:
    def test_unperturbed_fully_transferring(self, two_route):
        topo, net, policy = two_route
        traj = simulate(net, policy, SimulationConfig(inflow=1.0, horizon=200.0))
        est = alpha_transfer_estimate(traj, 1.0)
        assert est.transferring and not est.inconclusive

    def test_strangled_origin_not_transferring(self, two_route):
        topo, net, policy = two_route
        spec = PerturbationSpec(net, {0: 0.01, 1: 0.01})
        traj = simulate(net.perturbed(spec), policy, SimulationConfig(inflow=1.0, horizon=200.0, dt=0.02))
        est = alpha_transfer_estimate(traj, 0.5)
        assert not est.transferring
        assert est.tail_min <= 0.015 + 1e-6  # at most the scaled total capacity

    def test_alpha_zero_always_transfers(self, two_route):
        topo, net, policy = two_route
        spec = PerturbationSpec(net, {0: 0.01, 1: 0.01})
        traj = simulate(net.perturbed(spec), policy, SimulationConfig(inflow=1.0, horizon=120.0, dt=0.02))
        assert alpha_transfer_estimate(traj, 0.0).transferring

    def test_short_horizon_flagged_inconclusive(self, two_route):
        topo, net, policy = two_route
        traj = simulate(net, policy, SimulationConfig(inflow=1.0, horizon=2.0))
        assert alpha_transfer_estimate(traj, 1.0).inconclusive

    def test_clamped_run_flagged_inconclusive(self):
        # the coarse step of TestEnsemble.test_undershoot_recorded_per_member:
        # the member that clamps is not trusted however flat its tail
        topo = NetworkTopology(2, [(0, 0, 1), (1, 0, 1)])
        net = FlowNetwork(topo, {0: ExponentialFlow(2.214, 0.3844),
                                 1: ExponentialFlow(10.942, 0.5013)})
        policy = LogitPolicy(topo, eta={0: 13.73}, weights={0: 1.0, 1: 0.1306})
        config = SimulationConfig(inflow=0.2561, horizon=27.67, dt=2.767)
        clamped, clean = (simulate(net.perturbed(PerturbationSpec(net, {0: eps})), policy,
                                   config, [3.2586, 2.207]) for eps in (1.0, 0.9))
        assert clamped.max_undershoot > dynamics.UNDERSHOOT_TOL
        assert clean.max_undershoot == 0.0
        for traj, inconclusive in ((clamped, True), (clean, False)):
            est = alpha_transfer_estimate(traj, 0.5)
            assert est.max_undershoot == traj.max_undershoot
            assert est.inconclusive is inconclusive
            assert est.tail_variation <= 0.05 * config.inflow

    def test_undershoot_tolerance_is_the_boundary(self):
        tol = dynamics.UNDERSHOOT_TOL
        assert not dynamics._transfer_estimate(1.0, 1.0, 1.0, 0.5, None, tol).inconclusive
        assert dynamics._transfer_estimate(1.0, 1.0, 1.0, 0.5, None, 2 * tol).inconclusive
        assert dynamics._transfer_estimate(0.0, 0.0, 0.0, 0.5, None, 2 * tol).inconclusive


class TestLocalLimitFlow:
    def test_zero_inflow(self, two_route):
        topo, net, policy = two_route
        (f,), (sat,), _ = local_limit_flow(net, policy, 0, [0.0])
        assert not sat
        np.testing.assert_array_equal(f, [0.0, 0.0])

    def test_interior_fixed_point_matches_scalar_oracle(self, two_route):
        topo, net, policy = two_route
        for lam in (0.25, 0.7, 1.0, 1.45):
            (f,), (sat,), _ = local_limit_flow(net, policy, 0, [lam])
            assert not sat
            np.testing.assert_allclose(f, two_route_fixed_point_oracle(lam), atol=1e-9)
            assert f.sum() == pytest.approx(lam, abs=1e-9)  # conservation

    def test_saturation_at_and_above_total_capacity(self, two_route):
        topo, net, policy = two_route
        for lam in (1.5, 2.0):
            (f,), (sat,), _ = local_limit_flow(net, policy, 0, [lam])
            assert sat
            np.testing.assert_array_equal(f, [0.75, 0.75])

    def test_continuity_and_conservation_sweep(self, two_route):
        topo, net, policy = two_route
        grid = np.linspace(0.0, 1.5 * 1.5, 121)
        prev = None
        step = grid[1] - grid[0]
        for lam in grid:
            (f,), _, _ = local_limit_flow(net, policy, 0, [lam])
            assert f.sum() == pytest.approx(min(lam, 1.5), abs=1e-8)
            if prev is not None:
                assert np.abs(f - prev).max() < 12.0 * step  # continuity, O(grid step)
            prev = f


    @pytest.mark.parametrize("lam", [-0.5, math.nan])
    def test_negative_or_nan_inflow_refused(self, two_route, lam):
        topo, net, policy = two_route
        with pytest.raises(ValueError, match="inflow must be nonnegative"):
            local_limit_flow(net, policy, 0, [0.5, lam])

    def test_destination_refused(self, diamond):
        topo, net, policy = diamond
        with pytest.raises(ValueError, match="is the destination"):
            local_limit_flow(net, policy, topo.destination, [0.5])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("field, key, value", [
        ("eta", 0, math.nan), ("eta", 0, math.inf), ("weights", 0, math.inf)])
    def test_nan_residual_is_a_solver_error(self, two_route, field, key, value):
        # a policy mutated past its constructor's checks splits into NaN
        topo, net, policy = two_route
        getattr(policy, field)[key] = value
        f, sat, (err,) = local_limit_flow(net, policy, 0, [1.0])
        assert isinstance(err, LocalSolverError) and math.isnan(err.residual)
        assert np.isnan(f).all() and not sat.any()
        limits = dynamics.network_limit_flows(net, policy, [1.0])
        (error,) = limits.errors
        assert isinstance(error, LocalSolverError) and math.isnan(error.residual)
        assert np.isnan(limits.flows).all()
        assert np.isnan(limits.node_inflows[0, topo.destination])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_row_is_its_own_solver_error(self, two_route):
        topo, net, policy = two_route
        rows = dynamics._group_rows(net, policy, [0], [2], np.ones((2, 2)))
        rows.params[1, -2:] = math.nan  # row 1's -eta and eta
        f, sat, errors = dynamics._local_solve(rows, np.array([1.0, 1.0]))
        assert errors[0] is None
        np.testing.assert_allclose(f[0], two_route_fixed_point_oracle(1.0), atol=1e-9)
        assert isinstance(errors[1], LocalSolverError) and math.isnan(errors[1].residual)
        assert np.isnan(f[1]).all() and not sat.any()


class TestNetworkLimitFlow:
    def test_zero_inflow_everywhere_zero(self):
        net = diamond_network()
        lf = network_limit_flow(net, diamond_policy(net.topology), 0.0)
        assert all(v == 0.0 for v in lf.flows.values())

    def test_two_route_values(self, two_route):
        topo, net, policy = two_route
        lf = network_limit_flow(net, policy, 1.0)
        np.testing.assert_allclose([lf.flows[lid] for lid in topo.link_ids],
                                   two_route_fixed_point_oracle(1.0), atol=1e-9)
        assert not any(lf.saturated.values())

    def test_chain_saturating_middle_pins_its_links(self, chain):
        topo, net, policy = chain
        lf = network_limit_flow(net, policy, 1.5)
        assert lf.flows[0] == pytest.approx(1.5, abs=1e-9)   # below its 2.0 capacity
        assert lf.flows[1] == 1.0 and lf.saturated[1]        # middle node saturated
        assert not lf.saturated[0]
        assert lf.node_inflows[2] == pytest.approx(1.0)

    def test_matches_simulation_on_diamond(self, diamond):
        topo, net, policy = diamond
        lf = network_limit_flow(net, policy, 1.0)
        traj = simulate(net, policy, SimulationConfig(inflow=1.0, horizon=150.0, dt=0.02))
        np.testing.assert_allclose(traj.terminal_flow(), [lf.flows[lid] for lid in topo.link_ids],
                                   atol=1e-6)

    def test_unsaturated_conservation_at_every_node(self, diamond):
        topo, net, policy = diamond
        lf = network_limit_flow(net, policy, 1.2)
        assert not any(lf.saturated.values())
        for v in range(topo.num_nodes):
            out = topo.outgoing[v]
            if out:
                assert sum(lf.flows[lid] for lid in out) == pytest.approx(
                    lf.node_inflows[v], abs=1e-9)


class TestConvergence:
    def test_two_route_ten_starts(self, two_route):
        topo, net, policy = two_route
        report = convergence_check(net, policy, 1.0, n_initial=10,
                                   config=SimulationConfig(inflow=1.0, horizon=250.0, dt=0.02),
                                   seed=1)
        assert report.passed
        np.testing.assert_allclose(report.limit_reference, two_route_fixed_point_oracle(1.0),
                                   atol=1e-9)

    def test_zero_inflow_all_drain(self, two_route):
        topo, net, policy = two_route
        report = convergence_check(net, policy, 0.0, n_initial=3,
                                   config=SimulationConfig(inflow=0.0, horizon=300.0, dt=0.02),
                                   seed=2)
        assert report.passed
        assert np.abs(report.terminal_flows).max() < 1e-3


class TestLocalSystemLaws:
    def _node_fixture(self):
        net = two_route_network()
        return net, two_route_policy(net.topology)

    def test_monotone_in_the_input_signal(self):
        net, policy = self._node_fixture()
        lam_lo = lambda t: 0.5
        lam_hi = lambda t: 0.5 + 0.3 * (1.0 + math.sin(t)) / 2.0
        rho0 = np.array([0.2, 0.2])
        lo = simulate_local(net, policy, 0, lam_lo, rho0, dt=0.01, horizon=40.0)
        hi = simulate_local(net, policy, 0, lam_hi, rho0, dt=0.01, horizon=40.0)
        assert np.all(lo.rho <= hi.rho + 1e-9)

    def test_constant_input_equals_network_simulation(self):
        # the local system is the network kernel on one origin with parallel links
        net, policy = self._node_fixture()
        rho0 = np.array([0.3, 0.1])
        local = simulate_local(net, policy, 0, lambda t: 0.9, rho0, dt=0.01, horizon=20.0)
        traj = simulate(net, policy, SimulationConfig(inflow=0.9, dt=0.01, horizon=20.0), rho0)
        assert np.array_equal(local.times, traj.times)
        assert np.array_equal(local.rho, traj.rho)
        assert np.array_equal(local.flows, traj.flows)
        assert local.max_undershoot == traj.max_undershoot

    def test_attractivity_under_convergent_input(self):
        net, policy = self._node_fixture()
        lam = 0.8
        decaying = lambda t: lam + 0.5 * math.exp(-t)
        traj = simulate_local(net, policy, 0, decaying, np.array([1.0, 0.1]), dt=0.01,
                              horizon=100.0)
        target = two_route_fixed_point_oracle(lam)
        np.testing.assert_allclose(traj.flows[-1], target, atol=1e-4)

    @pytest.mark.parametrize("v", [0, 1, 2])
    def test_node_of_a_network_settles_at_its_local_limit_flow(self, diamond, v):
        # nodes 1 and 2 route over links whose ids are not 0..k-1, with their own
        # weights and capacities; node 2 has a single out-link
        topo, net, policy = diamond
        rho0 = np.zeros(len(topo.outgoing[v]))
        traj = simulate_local(net, policy, v, lambda t: 0.6, rho0, dt=0.01, horizon=60.0)
        (f,), (sat,), _ = local_limit_flow(net, policy, v, [0.6])
        assert not sat
        np.testing.assert_allclose(traj.flows[-1], f, atol=1e-8)

    def test_destination_refused(self, diamond):
        topo, net, policy = diamond
        with pytest.raises(ValueError, match="is the destination"):
            simulate_local(net, policy, topo.destination, lambda t: 0.5, [], dt=0.1,
                           horizon=1.0)


class TestIntegratorOrder:
    def test_error_shrinks_sixteen_fold(self, two_route):
        topo, net, policy = two_route
        def terminal(dt):
            return simulate(net, policy, SimulationConfig(inflow=1.0, horizon=4.0, dt=dt)).rho[-1]
        reference = terminal(0.2 / 128.0)
        err_coarse = np.abs(terminal(0.2) - reference).max()
        err_fine = np.abs(terminal(0.1) - reference).max()
        assert err_coarse / err_fine >= 12.0


class TestSimulationConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(inflow=-1.0)
        with pytest.raises(ValueError):
            SimulationConfig(inflow=1.0, dt=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(inflow=1.0, horizon=-5.0)
        with pytest.raises(ValueError):
            SimulationConfig(inflow=1.0, record_stride=0)

    @pytest.mark.parametrize("stride", [0, -3, 2.5, 3.0, True, np.True_, np.float64(2.0), "3"])
    def test_record_stride_must_be_a_positive_integer(self, stride):
        with pytest.raises(ValueError, match=r"^record_stride must be an integer >= 1, got "):
            SimulationConfig(inflow=1.0, record_stride=stride)

    def test_numpy_integer_record_stride_runs_as_the_int(self, two_route):
        topo, net, policy = two_route
        runs = [simulate(net, policy, SimulationConfig(inflow=1.0, horizon=1.0, dt=0.1,
                                                       record_stride=stride))
                for stride in (3, np.int64(3), np.uint8(3))]
        for traj in runs[1:]:
            _assert_same_trajectory(traj, runs[0])

    @pytest.mark.parametrize("field", ["inflow", "dt", "horizon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, field, value):
        # nan < 0 is false, so a sign check alone lets NaN through
        kwargs = {"inflow": 1.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            SimulationConfig(**kwargs)

    def test_default_dt_follows_fastest_link(self, two_route):
        from flownet.dynamics import default_dt
        topo, net, policy = two_route
        assert default_dt(net) == pytest.approx(0.01 / 0.75)


class TestSaturationDetection:
    def test_overloaded_two_route_flags_both(self, two_route):
        topo, net, policy = two_route
        traj = simulate(net, policy, SimulationConfig(inflow=2.0, horizon=120.0))
        est, flags = limit_flow_estimate(traj, net)
        assert flags == {0: True, 1: True}
        np.testing.assert_array_equal(est, [0.75, 0.75])

    def test_below_capacity_no_flags(self, two_route):
        topo, net, policy = two_route
        traj = simulate(net, policy, SimulationConfig(inflow=1.0, horizon=150.0))
        est, flags = limit_flow_estimate(traj, net)
        assert flags == {0: False, 1: False}


def _assert_same_trajectory(traj, ref):
    for field in ("times", "rho", "flows", "node_inflows"):
        assert np.array_equal(getattr(traj, field), getattr(ref, field)), field
    assert traj.max_undershoot == ref.max_undershoot
    assert traj.dt == ref.dt


class TestEnsemble:
    """``simulate_ensemble`` equals member-by-member ``simulate`` bit for bit."""

    @staticmethod
    def perturbed_members(net, size, seed):
        rng = np.random.default_rng(seed)
        ids = net.topology.link_ids
        nets, rho0s = [], []
        for _ in range(size):
            factors = {lid: float(rng.uniform(0.4, 1.0)) for lid in ids if rng.random() < 0.5}
            nets.append(net.perturbed(PerturbationSpec(net, factors)))
            rho0s.append(rng.uniform(0.0, 2.0, size=len(ids)))
        return nets, rho0s

    # random8 has nodes where a matrix-matrix product sums the head-node
    # inflows in a different order than the single-run matrix-vector product
    @pytest.mark.parametrize("name", ["random8", "diamond5"])
    @pytest.mark.parametrize("size", [1, 5])
    def test_matches_serial_runs(self, name, size):
        sc = load_scenario(DATA / f"{name}.json")
        nets, rho0s = self.perturbed_members(sc.network, size, seed=size)
        config = SimulationConfig(inflow=sc.inflow, horizon=5.0, dt=default_dt(sc.network))
        ensemble = simulate_ensemble(nets, sc.policy, config, rho0s)
        assert len(ensemble) == size
        for net, rho0, traj in zip(nets, rho0s, ensemble):
            _assert_same_trajectory(traj, simulate(net, sc.policy, config, rho0))

    def test_undershoot_recorded_per_member(self):
        # a coarse step that drives the unperturbed member below zero density
        topo = NetworkTopology(2, [(0, 0, 1), (1, 0, 1)])
        net = FlowNetwork(topo, {0: ExponentialFlow(2.214, 0.3844),
                                 1: ExponentialFlow(10.942, 0.5013)})
        policy = LogitPolicy(topo, eta={0: 13.73}, weights={0: 1.0, 1: 0.1306})
        config = SimulationConfig(inflow=0.2561, horizon=27.67, dt=2.767)
        nets = [net.perturbed(PerturbationSpec(net, {0: eps})) for eps in (1.0, 0.9, 0.7)]
        rho0s = [[3.2586, 2.207]] * 3
        ensemble = simulate_ensemble(nets, policy, config, rho0s)
        serial = [simulate(n, policy, config, r) for n, r in zip(nets, rho0s)]
        assert serial[0].max_undershoot > 0.0
        assert serial[1].max_undershoot == 0.0
        for traj, ref in zip(ensemble, serial):
            _assert_same_trajectory(traj, ref)

    def test_member_blow_up_raises(self, monkeypatch):
        net = two_route_network()
        policy = two_route_policy(net.topology)
        strangled = net.perturbed(PerturbationSpec(net, {0: 0.3, 1: 0.3}))
        monkeypatch.setattr(dynamics, "DENSITY_CEILING", 50.0)
        config = SimulationConfig(inflow=1.0, horizon=200.0, dt=0.05)
        simulate(net, policy, config)  # the healthy member alone is fine
        with pytest.raises(SimulationError):
            simulate_ensemble([net, strangled, net], policy, config)

    def test_members_must_share_topology(self):
        with pytest.raises(ValueError):
            simulate_ensemble([two_route_network(), diamond_network()],
                              two_route_policy(two_route_network().topology),
                              SimulationConfig(inflow=1.0, horizon=1.0, dt=0.1))

    def test_flows_built_member_by_member(self):
        sc = load_scenario(DATA / "diamond5.json")
        nets, rho0s = self.perturbed_members(sc.network, 8, seed=3)
        config = SimulationConfig(inflow=sc.inflow, horizon=20.0, dt=0.01)
        tracemalloc.start()
        try:
            ensemble = simulate_ensemble(nets, sc.policy, config, rho0s)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beyond the trajectories it returns, a run holds the ensemble's states
        # and a few (records, m) blocks of one member, never every member's flows
        block = 8 * len(ensemble[0].times) * len(sc.topology.links)
        assert peak - kept <= (len(nets) + 3) * block


class TestFlatKernel:
    """The RK4 kernel on one flat state of all members' densities, stepped in place."""

    # a step this many times the default one drives some members' densities
    # below zero within 40 steps, and no member's past the ceiling; members
    # are drawn from one seed, so a smaller ensemble is a prefix of a larger
    COARSE = {"random8": 300, "diamond5": 600}
    SEED = 7

    @staticmethod
    def distinct_members(net, size, seed):
        """Members that each scale every link by their own factors, with some empty links at start."""
        rng = np.random.default_rng(seed)
        ids = net.topology.link_ids
        nets, rho0s = [], []
        for _ in range(size):
            factors = {lid: float(rng.uniform(0.3, 1.0)) for lid in ids}
            nets.append(net.perturbed(PerturbationSpec(net, factors)))
            rho0 = rng.uniform(0.0, 3.0, size=len(ids))
            rho0[rng.random(len(ids)) < 0.3] = 0.0
            rho0s.append(rho0)
        return nets, rho0s

    def coarse_run(self, name, size, coarse=True):
        sc = load_scenario(DATA / f"{name}.json")
        nets, rho0s = self.distinct_members(sc.network, size, self.SEED)
        dt = default_dt(sc.network) * (self.COARSE[name] if coarse else 1)
        return sc, nets, rho0s, SimulationConfig(inflow=sc.inflow, horizon=40 * dt, dt=dt)

    # random8 has out-degrees up to 4 and in-degrees up to 5
    @pytest.mark.parametrize("name", ["random8", "diamond5"])
    @pytest.mark.parametrize("size", [1, 3, 58])
    @pytest.mark.parametrize("coarse", [False, True])
    def test_matches_serial_runs(self, name, size, coarse):
        sc, nets, rho0s, config = self.coarse_run(name, size, coarse)
        capacities = {tuple(sorted(net.capacities().items())) for net in nets}
        assert len(capacities) == size
        ensemble = simulate_ensemble(nets, sc.policy, config, rho0s)
        serial = [simulate(net, sc.policy, config, rho0) for net, rho0 in zip(nets, rho0s)]
        for traj, ref in zip(ensemble, serial):
            _assert_same_trajectory(traj, ref)
        undershoots = [ref.max_undershoot for ref in serial]
        if coarse and size > 1:  # members clamp at different steps by different amounts
            assert max(undershoots) > 0.0
            assert len(set(undershoots)) > 1
        if not coarse:
            assert max(undershoots) == 0.0

    @pytest.mark.parametrize("name", ["random8", "diamond5"])
    def test_yielded_states_are_never_written_again(self, name):
        sc, nets, rho0s, config = self.coarse_run(name, 3)
        compiled = dynamics._Compiled(nets, sc.policy, config.inflow)
        rho0 = np.array(rho0s)[:, compiled.to_sorted]
        (_, whole, undershoot), = dynamics._integrate(compiled.rhs, rho0, config.dt,
                                                      config.horizon)
        assert len(whole) == 41 and undershoot.max() > 0.0  # clamps ran

        blocks, block_seen = [], []
        for times, states, under in dynamics._integrate(compiled.rhs, rho0, config.dt,
                                                        config.horizon, block_records=6):
            blocks.append((times, states, under))
            block_seen.append((times.copy(), states.copy(), under.copy()))
        assert len(blocks) == 7
        for block, copy in zip(blocks, block_seen):
            for array, array_copy in zip(block, copy):
                assert np.array_equal(array, array_copy)
        joined = np.concatenate([states for _, states, _ in blocks])
        assert np.array_equal(joined, whole)
        assert np.array_equal(blocks[-1][2], undershoot)

    def test_a_nan_member_leaves_the_clamp_to_the_others(self):
        # two members of two links; member 0's first density turns NaN in the
        # step that drives its second and member 1's first below zero
        slope = np.array([np.nan, -100.0, -100.0, 0.0])
        blocks = dynamics._integrate(lambda t, rho: slope.copy(), np.ones((2, 2)), 0.1, 0.1,
                                     block_records=1)
        times, states, undershoot = next(blocks)  # the start
        assert times.tolist() == [0.0] and np.array_equal(states, np.ones((1, 2, 2)))
        assert undershoot.tolist() == [0.0, 0.0]
        with pytest.raises(SimulationError) as exc:
            next(blocks)
        # the NaN member is the one shown, with its clamped second density
        assert str(exc.value).startswith("integration unstable at t=0.1 (state=[nan  0.]);")
        assert "-" not in str(exc.value)  # no negative density is shown


class TestFloatingPointFaults:
    """An unstable run's overflow ends in its ``SimulationError``, not a numpy
    warning, and the caller's numpy error settings hold outside the RK4 steps."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("run", ["simulate", "evaluate_attacks", "simulate_local"])
    def test_too_coarse_a_step_raises_simulation_error(self, run):
        sc = load_scenario(DATA / "diamond5.json")
        net, policy, inflow = sc.network, sc.policy, sc.inflow
        config = SimulationConfig(inflow=inflow, dt=50.0, horizon=2000.0)
        attack = (PerturbationSpec(net, {sc.topology.link_ids[0]: 0.5}), 0.5, None)
        calls = {
            "simulate": lambda: simulate(net, policy, config),
            "evaluate_attacks": lambda: evaluate_attacks(net, policy, inflow, [attack], config),
            "simulate_local": lambda: simulate_local(net, policy, 0, lambda t: inflow, None,
                                                     1e9, 1e10),
        }
        with np.errstate(over="raise", invalid="raise"):
            caller = np.geterr()
            with pytest.raises(SimulationError, match="integration unstable"):
                calls[run]()
            assert np.geterr() == caller

    def test_steps_are_guarded_and_blocks_yielded_under_the_callers_settings(self):
        inside = []

        def deriv(t, rho):
            inside.append(np.geterr())
            return -rho

        with np.errstate(over="raise", invalid="raise"):
            caller = np.geterr()
            blocks = dynamics._integrate(deriv, np.ones((1, 2)), 0.1, 0.5, block_records=2)
            for _ in blocks:
                assert np.geterr() == caller
        assert len(inside) == 5 * 4  # every stage of every step
        assert all((e["over"], e["invalid"]) == ("ignore", "ignore") for e in inside)


def per_node_rhs(compiled, networks, policy, inflow, rho):
    """d rho / dt at the flat state ``rho`` with node inflows built per node.

    Each member's node inflows are one matrix-vector product with the
    (nodes, m) head incidence, the origin's is set to ``inflow``, and every
    link takes its tail node's; flows and splits take the operations of
    ``_Compiled.rhs``.  The reference its per-link tail gather must match
    bit for bit.
    """
    links, n_members, n_nodes = compiled.links, len(networks), compiled.n_nodes
    m = len(links)
    tails = np.array([link.tail for link in links])
    head_mat = np.zeros((n_nodes, m))
    head_mat[compiled.heads, np.arange(m)] = 1.0
    f = compiled.flows(rho[None])[0]
    lam = np.matmul(head_mat, f.reshape(n_members, m, 1))
    lam[:, compiled.origin] = inflow
    offsets = np.arange(n_members)[:, None]
    new_group = np.r_[True, tails[1:] != tails[:-1]]
    starts = (np.flatnonzero(new_group) + m * offsets).ravel()
    group_of_link = (np.cumsum(new_group) - 1 + new_group.sum() * offsets).ravel()
    g = -np.tile([policy.eta[link.tail] for link in links], n_members) * rho
    g -= np.maximum.reduceat(g, starts).take(group_of_link)
    np.exp(g, out=g)
    g *= np.tile([policy.weights[link.id] for link in links], n_members)
    g /= np.add.reduceat(g, starts).take(group_of_link)
    g *= lam.take((tails + n_nodes * offsets).ravel())
    g -= f
    return g


class TestTailGather:
    """Each link's tail inflow, gathered by one matrix-vector product per member, is
    the per-node inflow bit for bit, at the states RK4 stages reach (negative ones too)."""

    @staticmethod
    def scenario(name):
        if name == "dag20-seed6":  # in-degrees up to 8
            return parse_scenario(_generate_dag()(6))
        return load_scenario(DATA / f"{name}.json")

    @staticmethod
    def states(rng, size):
        rho = rng.uniform(-0.5, 4.0, size=(40, size))
        rho[:, ::3] *= 10.0 ** rng.uniform(-3, 1, size=rho[:, ::3].shape)
        return rho

    @classmethod
    def kernel(cls, name, size):
        """``(compiled, nets, policy, inflow)`` of ``size`` perturbed members of ``name``."""
        sc = cls.scenario(name)
        nets, _ = TestEnsemble.perturbed_members(sc.network, size, seed=size)
        return dynamics._Compiled(nets, sc.policy, sc.inflow), nets, sc.policy, sc.inflow

    @staticmethod
    def timed_kernel():
        """simulate_local's kernel: a node as the origin of a two-node network, fed by a
        function of time.  ``(compiled, nets, policy, inflow_fn)``."""
        fns = [ExponentialFlow(1.3, 0.9), ExponentialFlow(0.5, 2.0), ExponentialFlow(2.0, 0.4)]
        topo = NetworkTopology(2, [(i, 0, 1) for i in range(len(fns))])
        policy = LogitPolicy(topo, eta={0: 1.2}, weights={0: 1.0, 1: 0.5, 2: 2.0})
        nets = [FlowNetwork(topo, dict(enumerate(fns)))]
        inflow_fn = lambda t: 1.0 + 0.5 * math.sin(3.0 * t)
        return dynamics._Compiled(nets, policy, inflow_fn), nets, policy, inflow_fn

    @pytest.mark.parametrize("name", ["random8", "diamond5", "dag20-seed6"])
    @pytest.mark.parametrize("size", [1, 3, 58])
    def test_matches_per_node_inflows(self, name, size):
        compiled, nets, policy, inflow = self.kernel(name, size)
        for rho in self.states(np.random.default_rng(size), size * len(compiled.links)):
            want = per_node_rhs(compiled, nets, policy, inflow, rho)
            assert np.array_equal(compiled.rhs(0.0, rho), want)

    def test_time_varying_inflow(self):
        compiled, nets, policy, inflow_fn = self.timed_kernel()
        rng = np.random.default_rng(3)
        for t, rho in zip(rng.uniform(0.0, 10.0, 40), self.states(rng, len(compiled.links))):
            want = per_node_rhs(compiled, nets, policy, inflow_fn(t), rho)
            assert np.array_equal(compiled.rhs(t, rho), want)

    # The RHS overwrites its flow and inflow buffers on every call: a derivative it
    # returned must be neither of them nor share memory with them, so that k1 to k4
    # of one RK4 step stay what they were.  These tests keep every result until the
    # last call has been made.
    @pytest.mark.parametrize("size", [1, 3, 58])
    def test_results_outlive_later_calls(self, size):
        compiled, nets, policy, inflow = self.kernel("random8", size)
        states = self.states(np.random.default_rng(size + 1), size * len(compiled.links))
        got = [compiled.rhs(0.0, rho) for rho in states]
        for rho, g in zip(states, got):
            assert np.array_equal(g, per_node_rhs(compiled, nets, policy, inflow, rho))

    def test_time_varying_results_outlive_later_calls(self):
        compiled, nets, policy, inflow_fn = self.timed_kernel()
        rng = np.random.default_rng(4)
        times, states = rng.uniform(0.0, 10.0, 40), self.states(rng, len(compiled.links))
        got = [compiled.rhs(t, rho) for t, rho in zip(times, states)]
        for t, rho, g in zip(times, states, got):
            assert np.array_equal(g, per_node_rhs(compiled, nets, policy, inflow_fn(t), rho))

    def test_consecutive_calls_return_distinct_arrays(self):
        compiled, *_ = self.kernel("diamond5", 3)
        rho = self.states(np.random.default_rng(5), 3 * len(compiled.links))[0]
        first, second = compiled.rhs(0.0, rho), compiled.rhs(0.0, rho)
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, second)


class TestFlowMap:
    def test_member_flows_allocate_one_result_block(self):
        # a member's densities are a strided view of the ensemble's (records, B, m) states;
        # numpy's iterator buffers (8 192 floats per operand) stay small beside the
        # result at this many records
        sc = load_scenario(DATA / "diamond5.json")
        nets, _ = TestEnsemble.perturbed_members(sc.network, 2, seed=1)
        compiled = dynamics._Compiled(nets, sc.policy, sc.inflow)
        states = np.random.default_rng(2).uniform(0.0, 5.0,
                                                  size=(10_000, 2, len(sc.topology.links)))
        member = states[:, 1]
        assert not member.flags.c_contiguous
        compiled.flows(member, 1)  # warm up before measuring
        tracemalloc.start()
        try:
            flows = compiled.flows(member, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * flows.nbytes

    @pytest.mark.parametrize("rows", [1, 9])
    def test_exponential_rows_equal_flow_calls(self, rows):
        # parameters hoisted as (1, k) rows; densities negative as RK4 stages may be, too
        rng = np.random.default_rng(rows)
        fns = [ExponentialFlow(float(a), float(c)) for a, c in 10.0 ** rng.uniform(-1, 1, (5, 2))]
        rho = TestSlopeMap.densities(rng, np.array([ff.rate for ff in fns]), rows)
        rho[rng.random(rho.shape) < 0.2] *= -0.01
        f_max, neg_rate = dynamics._exponential_params(fns)[:, None]
        got = dynamics._exponential_flows(neg_rate, -f_max, rho)
        assert got.shape == (rows, len(fns))
        assert np.array_equal(got, np.column_stack([ff(rho[:, j]) for j, ff in enumerate(fns)]))

    def test_member_columns_equal_stacked_map_and_flow_calls(self):
        # each member's flows read its columns of the kernel's one pair of parameter rows
        sc = load_scenario(DATA / "diamond5.json")
        nets, _ = TestEnsemble.perturbed_members(sc.network, 3, seed=3)
        compiled = dynamics._Compiled(nets, sc.policy, sc.inflow)
        m = len(compiled.links)
        rho = np.random.default_rng(3).uniform(-0.5, 5.0, size=(50, 3 * m))
        stacked = compiled.flows(rho)
        for b, net in enumerate(nets):
            member = rho[:, b * m:(b + 1) * m]
            got = compiled.flows(member, b)
            assert np.array_equal(got, stacked[:, b * m:(b + 1) * m])
            fns = [net.flow_functions[link.id] for link in compiled.links]
            assert np.array_equal(got, np.column_stack([ff(member[:, j])
                                                        for j, ff in enumerate(fns)]))


def _derivative_rows(flow_fns, rho):
    """The reference slopes: one scalar ``derivative`` call per element."""
    return np.array([[ff.derivative(x) for ff, x in zip(flow_fns, row)] for row in rho.tolist()])


class TestSlopeMap:
    @staticmethod
    def densities(rng, rates, n):
        """(n, k) densities: zeros, 1e-300, mid-range, and rate * rho past 745."""
        mid = 10.0 ** rng.uniform(-3, 2, size=(n, len(rates)))
        # (-rate) * rho from -760 to -700: exp is normal, subnormal or 0
        tail = rng.uniform(700.0, 760.0, size=(n, len(rates))) / rates
        pick = rng.integers(0, 4, size=(n, len(rates)))
        return np.choose(pick, [np.zeros_like(mid), np.full_like(mid, 1e-300), mid, tail])

    def test_exponential_slopes_equal_derivative_calls(self):
        rng = np.random.default_rng(16)
        tiny = np.finfo(float).tiny
        subnormal = underflow = 0
        for k in range(1, 6):
            for n in range(1, 65):
                rates = 10.0 ** rng.uniform(-1, 1, size=k)
                fns = [ExponentialFlow(float(a), float(c))
                       for a, c in zip(rates, 10.0 ** rng.uniform(-1, 1, size=k))]
                rho = self.densities(rng, rates, n)
                f_max, neg_rate = dynamics._exponential_params(fns)[:, None]
                got = dynamics._exponential_slopes(neg_rate, -neg_rate * f_max, rho)
                assert got.shape == (n, k)
                assert np.array_equal(got, _derivative_rows(fns, rho)), (n, k)
                subnormal += int(((got > 0) & (got < tiny)).sum())
                underflow += int((got == 0).sum())
        assert subnormal and underflow  # the exp tail was exercised


class TestLogitRows:
    """``_LogitRows``' maps on rows stacked from several nodes are bit for bit the
    nodes' own flow functions and policy, row by row."""

    POINTS = 24

    @pytest.mark.parametrize("name", ["random8", "dag20-seed6"])
    def test_maps_equal_the_nodes_calls(self, name):
        sc = TestTailGather.scenario(name)
        topo, net, policy = sc.topology, sc.network, sc.policy
        rng = np.random.default_rng(12)
        by_degree = {}
        for v, out in topo.outgoing.items():
            if out:
                by_degree.setdefault(len(out), []).append(v)
        assert 1 in by_degree and len(by_degree) >= 2
        n = self.POINTS
        for k, nodes in by_degree.items():
            fns = {v: [net.flow_functions[lid] for lid in topo.outgoing[v]] for v in nodes}
            rows = dynamics._group_rows(net, policy, nodes, [n] * len(nodes),
                                        np.ones((len(nodes) * n, k)))
            rho = np.concatenate([TestSlopeMap.densities(rng, np.array([ff.rate for ff in fns[v]]), n)
                                  for v in nodes])
            stage = rho.copy()  # an RK4 stage's densities, some below zero
            stage[rng.random(stage.shape) < 0.2] *= -0.01
            assert (stage < 0).any()
            mu, slope, g = rows.mu(stage), rows.slope(rho), rows.route(rho)
            jac = rows.jac(rho, g)
            for i, v in enumerate(nodes):
                block = slice(i * n, (i + 1) * n)
                assert np.array_equal(mu[block], np.column_stack(
                    [ff(stage[block, j]) for j, ff in enumerate(fns[v])]))
                assert np.array_equal(slope[block], _derivative_rows(fns[v], rho[block]))
                if k == 1:
                    assert np.array_equal(g[block], np.ones((n, 1)))  # exactly 1.0
                    assert np.array_equal(jac[block], np.zeros((n, 1, 1)))
                else:
                    assert np.array_equal(g[block], policy.route(v, rho[block]))
                    assert np.array_equal(jac[block], policy.jacobian(v, rho[block]))


class TestRecordWindow:
    """Runs that keep only a trailing window hold the full run's rows bit for bit."""

    @staticmethod
    def _assert_tail_rows(traj, full, first):
        for field in ("times", "rho", "flows", "node_inflows"):
            assert np.array_equal(getattr(traj, field), getattr(full, field)[first:]), field
        assert traj.max_undershoot == full.max_undershoot
        assert traj.dt == full.dt

    @pytest.mark.parametrize("name", ["random8", "diamond5"])
    def test_every_first_record(self, name):
        # the node inflows of a tail block are the full run's rows at every offset
        sc = load_scenario(DATA / f"{name}.json")
        nets, rho0s = TestEnsemble.perturbed_members(sc.network, 5, seed=4)
        config = SimulationConfig(inflow=sc.inflow, horizon=0.5, dt=default_dt(sc.network))
        full = simulate_ensemble(nets, sc.policy, config, rho0s)
        compiled = dynamics._Compiled(nets, sc.policy, config.inflow)
        rho0 = np.array(rho0s)[:, compiled.to_sorted]
        for first in range(len(full[0].times)):
            (block,) = dynamics._integrate(compiled.rhs, rho0, config.dt, config.horizon,
                                           first_record=first)
            tails = dynamics._member_trajectories(compiled, block, config.inflow, full[0].dt)
            for traj, ref in zip(tails, full, strict=True):
                self._assert_tail_rows(traj, ref, first)

    def test_blocks_of_every_size_join_to_the_one_block_run(self):
        # members that clamp, a stride that misses the final step, and every
        # block size up to past the record count, from the start, the tail
        # start and the last record
        sc, nets, rho0s, config = TestFlatKernel().coarse_run("random8", 3)
        compiled = dynamics._Compiled(nets, sc.policy, config.inflow)
        rho0 = np.array(rho0s)[:, compiled.to_sorted]
        n_steps, dt = dynamics._time_grid(config.horizon, config.dt)
        stride = 3
        n_records = dynamics._record_count(n_steps, stride)
        assert n_steps % stride and n_records == 15
        for first in (0, dynamics._tail_start(n_steps, dt, stride), n_records - 1):
            (times, states, undershoot), = dynamics._integrate(
                compiled.rhs, rho0, config.dt, config.horizon, stride, first)
            assert len(times) == n_records - first and undershoot.max() > 0.0
            for size in range(1, n_records + 2):
                blocks = list(dynamics._integrate(compiled.rhs, rho0, config.dt, config.horizon,
                                                  stride, first, size))
                assert len(blocks) == -(-(n_records - first) // size)
                assert np.array_equal(np.concatenate([b[0] for b in blocks]), times)
                assert np.array_equal(np.concatenate([b[1] for b in blocks]), states)
                assert np.array_equal(blocks[-1][2], undershoot)

    @pytest.mark.parametrize("name", ["random8", "diamond5"])
    @pytest.mark.parametrize("stride", [1, 3, 7])
    def test_window_is_the_tail_slice(self, name, stride):
        sc = load_scenario(DATA / f"{name}.json")
        nets, rho0s = TestEnsemble.perturbed_members(sc.network, 3, seed=stride)
        config = SimulationConfig(inflow=sc.inflow, horizon=5.0, dt=default_dt(sc.network),
                                  record_stride=stride)
        n_steps = dynamics._step_count(config.horizon, config.dt)
        assert n_steps % 7 and n_steps % 3  # the final step lies off the stride grid
        full = simulate_ensemble(nets, sc.policy, config, rho0s)
        for keep in ("all", "tail", "last"):
            compiled, dt, tail_start, blocks = dynamics._ensemble_blocks(
                nets, sc.policy, config, rho0s, keep)
            tails = list(dynamics._member_trajectories(compiled, next(blocks), config.inflow,
                                                       dt))
            assert next(blocks, None) is None
            for traj, ref in zip(tails, full, strict=True):
                assert tail_start == ref.tail_slice().start
                first = {"all": 0, "tail": tail_start, "last": len(ref.times) - 1}[keep]
                self._assert_tail_rows(traj, ref, first)
                if keep == "tail":
                    # the window is one of run time: a kept tail is the whole of itself
                    assert traj.tail_slice() == slice(0, len(traj.times))
                    for alpha, tol in ((0.5, None), (0.05, 0.0)):
                        assert alpha_transfer_estimate(traj, alpha, tol) == \
                            alpha_transfer_estimate(ref, alpha, tol)

    def test_convergence_check_reads_only_the_last_state(self, two_route, monkeypatch):
        topo, net, policy = two_route
        config = SimulationConfig(inflow=1.2, horizon=40.0, dt=0.02, record_stride=3)
        keeps = []
        real = dynamics._ensemble_blocks

        def full_record(networks, policy, config, rho0s, records="all"):
            keeps.append(records)
            compiled, dt, tail_start, blocks = real(networks, policy, config, rho0s)
            (times, states, undershoot), = blocks
            return compiled, dt, tail_start, iter([(times[-1:], states[-1:], undershoot)])

        report = convergence_check(net, policy, 1.2, n_initial=4, config=config, seed=5)
        monkeypatch.setattr(dynamics, "_ensemble_blocks", full_record)
        reference = convergence_check(net, policy, 1.2, n_initial=4, config=config, seed=5)
        assert keeps == ["last"]
        assert np.array_equal(report.terminal_flows, reference.terminal_flows)
        assert np.array_equal(report.limit_reference, reference.limit_reference)
        assert (report.max_pairwise_gap, report.max_reference_gap, report.passed) == \
            (reference.max_pairwise_gap, reference.max_reference_gap, reference.passed)
