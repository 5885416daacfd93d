"""Routing-policy simplex outputs, Jacobians, and responsiveness properties."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flownet import (
    ExponentialFlow,
    FlowNetwork,
    LogitPolicy,
    NetworkTopology,
    SimulationConfig,
    check_property_a,
    check_property_b,
    cooperative_gap,
    simulate,
)
from flownet.routing import (_sample_densities, finite_difference_jacobian,
                             responsiveness_findings)

from conftest import two_route_policy, two_route_topology


def three_link_node():
    topo = NetworkTopology(2, [(0, 0, 1), (1, 0, 1), (2, 0, 1)])
    policy = LogitPolicy(topo, eta={0: 1.0}, weights={0: 1.0, 1: 2.0, 2: 0.5})
    return topo, policy


def anti_cooperative_policy(topo):
    """Logit drawn toward congestion: the property-(a) counterexample."""
    return LogitPolicy(topo, eta={0: -1.0}, weights={0: 0.6, 1: 6.0})


def constant_policy(topo):
    return LogitPolicy(topo, eta={0: 0.0}, weights={0: 0.3, 1: 0.7})


class TestRoute:
    def test_symmetric_uniform_split(self):
        topo, policy = three_link_node()
        uniform = LogitPolicy(topo, eta={0: 2.0}, weights={0: 1.0, 1: 1.0, 2: 1.0})
        np.testing.assert_allclose(uniform.route(0, [0.7, 0.7, 0.7]), np.ones(3) / 3, atol=1e-15)

    def test_zero_density_split_of_two_route_fixture(self):
        policy = two_route_policy(two_route_topology())
        np.testing.assert_allclose(policy.route(0, [0.0, 0.0]), [1 / 11, 10 / 11], atol=1e-15)

    def test_congested_link_abandoned(self):
        policy = two_route_policy(two_route_topology())
        for rho in (50.0, 200.0, 1e4):
            g = policy.route(0, [rho, 0.3])
            assert g[0] < 1e-4 or rho < 60
            assert g[0] == pytest.approx(0.0, abs=math.exp(-min(rho, 700) + 3))

    @pytest.mark.parametrize("eta, weights, message", [
        (math.nan, {0: 0.6, 1: 6.0}, "eta of node 0 must be finite, got nan"),
        (math.inf, {0: 0.6, 1: 6.0}, "eta of node 0 must be finite, got inf"),
        (-math.inf, {0: 0.6, 1: 6.0}, "eta of node 0 must be finite, got -inf"),
        (1.0, {0: 0.6, 1: math.inf}, "logit weight of link 1 must be finite, got inf"),
        (1.0, {0: 0.6, 1: math.nan}, "logit weight of link 1 must be positive"),
        (1.0, {0: 0.0, 1: 6.0}, "logit weight of link 0 must be positive"),
    ])
    def test_non_finite_parameters_refused(self, eta, weights, message):
        # a non-finite eta or weight splits into NaN
        with pytest.raises(ValueError) as exc:
            LogitPolicy(two_route_topology(), eta={0: eta}, weights=weights)
        assert str(exc.value) == message

    def test_destination_has_no_split(self):
        policy = two_route_policy(two_route_topology())
        with pytest.raises(ValueError):
            policy.route(1, [])

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=2))
    def test_simplex_output(self, rho):
        policy = two_route_policy(two_route_topology())
        g = policy.route(0, rho)
        assert abs(g.sum() - 1.0) <= 1e-12
        assert np.all(g >= 0.0)

    # positivity holds mathematically everywhere; in float64 the minority
    # share underflows to 0 once eta * (rho_e - rho_min) exceeds ~745, so the
    # test sticks to the mixed sampling scales the property checks use
    @given(st.floats(min_value=0.0, max_value=1e2), st.floats(min_value=0.0, max_value=1e2))
    def test_strict_positivity(self, r1, r2):
        policy = two_route_policy(two_route_topology())
        assert np.all(policy.route(0, [r1, r2]) > 0.0)

    def test_distributedness(self):
        # a 3-node chain: node 0's split sees only its own links, so their
        # densities evolve the same whatever the downstream link holds
        topo = NetworkTopology(3, [(0, 0, 1), (1, 0, 1), (2, 1, 2)])
        net = FlowNetwork(topo, {lid: ExponentialFlow(1.0, 1.0) for lid in topo.link_ids})
        policy = LogitPolicy(topo, eta={0: 1.0, 1: 1.0}, weights={0: 1.0, 1: 2.0, 2: 1.0})
        config = SimulationConfig(inflow=1.0, horizon=5.0, dt=0.05)
        base = simulate(net, policy, config, [0.4, 0.9, 0.1]).rho[:, :2]
        for downstream in (0.0, 5.0, 1e3):
            np.testing.assert_array_equal(
                simulate(net, policy, config, [0.4, 0.9, downstream]).rho[:, :2], base
            )

    def test_weights_must_be_positive(self):
        topo = two_route_topology()
        with pytest.raises(ValueError):
            LogitPolicy(topo, eta={0: 1.0}, weights={0: 0.0, 1: 1.0})


class TestJacobian:
    def test_off_diagonals_nonnegative(self):
        topo, policy = three_link_node()
        rng = np.random.default_rng(5)
        for _ in range(50):
            jac = policy.jacobian(0, rng.uniform(0, 3, size=3))
            off = jac[~np.eye(3, dtype=bool)]
            assert np.all(off >= 0.0)

    def test_symmetric_cross_terms_two_links(self):
        policy = two_route_policy(two_route_topology())
        jac = policy.jacobian(0, [0.8, 0.8])
        assert jac[0, 1] == pytest.approx(jac[1, 0], rel=1e-12)

    def test_rows_sum_to_zero(self):
        topo, policy = three_link_node()
        rng = np.random.default_rng(6)
        for _ in range(50):
            jac = policy.jacobian(0, rng.uniform(0, 5, size=3))
            np.testing.assert_allclose(jac.sum(axis=1), 0.0, atol=1e-9)

    def test_analytic_matches_finite_differences(self):
        topo, policy = three_link_node()
        rng = np.random.default_rng(7)
        for _ in range(100):
            rho = rng.uniform(0.0, 3.0, size=3)
            analytic = policy.jacobian(0, rho)
            numeric = finite_difference_jacobian(lambda x: policy.route(0, x), rho)
            scale = max(float(np.abs(analytic).max()), 1e-12)
            assert float(np.abs(analytic - numeric).max()) / scale < 1e-5


class TestPropertyA:
    def test_logit_passes(self):
        policy = two_route_policy(two_route_topology())
        assert check_property_a(policy, 0, n_samples=1000, rng=0).passed

    def test_anti_cooperative_fails(self):
        policy = anti_cooperative_policy(two_route_topology())
        report = check_property_a(policy, 0, n_samples=200, rng=0)
        assert not report.passed
        assert report.detail["min_cross_partial"] < 0

    def test_constant_policy_passes_with_zero_jacobian(self):
        policy = constant_policy(two_route_topology())
        report = check_property_a(policy, 0, n_samples=200, rng=0)
        assert report.passed
        assert report.detail["min_cross_partial"] == pytest.approx(0.0, abs=1e-12)


def _property_a_one_sample_at_a_time(policy, v, n_samples, rng, tol=1e-9):
    """Reference: the check with one Jacobian call per sampled density vector."""
    rng = np.random.default_rng(rng)
    k = len(policy.outgoing_links(v))
    worst, violations = np.inf, []
    off_mask = ~np.eye(k, dtype=bool)
    for rho in _sample_densities(k, n_samples, rng):
        off = policy.jacobian(v, rho)[off_mask]
        m = float(off.min()) if off.size else 0.0
        worst = min(worst, m)
        if m < -tol and len(violations) < 10:
            violations.append({"rho": rho.tolist(), "min_cross_partial": m})
    return not violations, {"min_cross_partial": worst, "violations": violations}


class TestPropertyABatched:
    @pytest.mark.parametrize("make", [
        lambda: three_link_node()[1],
        lambda: anti_cooperative_policy(two_route_topology()),
        lambda: constant_policy(two_route_topology()),
        lambda: LogitPolicy(NetworkTopology(2, [(0, 0, 1)]), eta={0: 1.0}, weights={0: 1.0}),
    ])
    def test_equals_one_sample_at_a_time(self, make):
        policy = make()
        report = check_property_a(policy, 0, n_samples=300, rng=4)
        passed, detail = _property_a_one_sample_at_a_time(policy, 0, 300, 4)
        assert report.passed == passed
        assert repr(report.detail) == repr(detail)  # same floats, same first ten violations

    def test_one_jacobian_call_per_node(self, monkeypatch):
        _, policy = three_link_node()
        calls = []
        real = policy.jacobian

        def counting(v, rho):
            calls.append(np.shape(rho))
            return real(v, rho)

        monkeypatch.setattr(policy, "jacobian", counting)
        check_property_a(policy, 0, n_samples=200, rng=0)
        assert calls == [(200, 3)]


class TestPropertyB:
    def test_logit_two_links(self):
        policy = two_route_policy(two_route_topology())
        assert check_property_b(policy, 0, subset=[0]).passed
        assert check_property_b(policy, 0, subset=[1]).passed

    def test_constant_policy_fails(self):
        policy = constant_policy(two_route_topology())
        report = check_property_b(policy, 0, subset=[0])
        assert not report.passed
        assert report.detail["off_subset_mass"] > 0.5

    def test_three_link_limit_is_restricted_logit(self):
        # the subset's densities stay at zero: the limit is its weights renormalized
        topo, policy = three_link_node()
        report = check_property_b(policy, 0, subset=[0, 1])
        assert report.passed
        w = np.array([1.0, 2.0])
        np.testing.assert_allclose(report.detail["limit_split"], w / w.sum(), atol=1e-8)

    def test_subset_must_be_proper(self):
        policy = two_route_policy(two_route_topology())
        with pytest.raises(ValueError):
            check_property_b(policy, 0, subset=[0, 1])
        with pytest.raises(ValueError):
            check_property_b(policy, 0, subset=[])


class TestCooperativeGap:
    def test_identical_arguments(self):
        policy = two_route_policy(two_route_topology())
        assert cooperative_gap(policy, 0, [1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_logit_gap_nonpositive_randomized(self):
        topo, policy = three_link_node()
        rng = np.random.default_rng(8)
        worst = -np.inf
        for _ in range(1000):
            sigma = 10.0 ** rng.uniform(-2, 2, size=3)
            varsigma = 10.0 ** rng.uniform(-2, 2, size=3)
            worst = max(worst, cooperative_gap(policy, 0, sigma, varsigma))
        assert worst <= 1e-12

    def test_anti_cooperative_positive_gap_exists(self):
        policy = anti_cooperative_policy(two_route_topology())
        rng = np.random.default_rng(9)
        gaps = [
            cooperative_gap(policy, 0, 10.0 ** rng.uniform(-2, 2, 2), 10.0 ** rng.uniform(-2, 2, 2))
            for _ in range(200)
        ]
        assert max(gaps) > 1e-3


class TestResponsivenessFindings:
    def test_positivity_finding_follows_the_property_findings(self):
        # eta = -50 seeks congestion so hard that a probed share underflows to 0
        policy = LogitPolicy(two_route_topology(), eta={0: -50.0}, weights={0: 0.6, 1: 6.0})
        findings = responsiveness_findings(policy)
        assert [message.split(" ")[0] for _, message in findings] == \
            ["cross-partial", "limit", "routing"]
        assert findings[-1] == (0, "routing split is not strictly positive")

    def test_steep_responsive_split_is_not_strictly_positive(self):
        # eta = 50 passes properties (a) and (b), but exp(-50 * rho) underflows
        policy = LogitPolicy(two_route_topology(), eta={0: 50.0}, weights={0: 0.6, 1: 6.0})
        assert responsiveness_findings(policy) == [(0, "routing split is not strictly positive")]
        assert responsiveness_findings(two_route_policy(two_route_topology())) == []
