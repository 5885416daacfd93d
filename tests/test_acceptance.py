"""Acceptance suite: one test per shipped guarantee, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they pass; tolerances are pinned here and nowhere else.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from flownet import (
    LogitPolicy,
    SimulationConfig,
    convergence_check,
    cooperative_gap,
    cut_attack,
    evaluate_attacks,
    estimate_weak_resilience,
    min_cut_capacity,
    network_limit_flow,
    simulate,
    simulate_local,
)
from flownet.dynamics import limit_flow_estimate
from flownet.resilience import sample_scaling_perturbations
from flownet.routing import finite_difference_jacobian

from conftest import (
    diamond_network,
    diamond_policy,
    random_dag,
    random_exponential_network,
    two_route_network,
    two_route_policy,
    uniform_logit_policy,
)

FAST = SimulationConfig(inflow=1.0, horizon=200.0, dt=0.02)


def verdict(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def closed_form_split(lam):
    """Two-route limit flow: root of 12 f^2 + (11 - 12 lam) f - lam = 0.

    Note the discriminant (12 lam - 11)^2 + 48 lam; the constant is pinned
    by continuity at lam = 3/2 (f -> 3/4) and re-verified against the
    independent fixed-point solve below before any assertion uses it.
    """
    if lam >= 1.5:
        return np.array([0.75, 0.75])
    d = 12.0 * lam - 11.0
    f1 = (d + math.sqrt(d * d + 48.0 * lam)) / 24.0
    return np.array([f1, lam - f1])


def independent_split_oracle(lam):
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


def test_criterion_01_closed_form_limit_flow():
    net = two_route_network()
    policy = two_route_policy(net.topology)
    worst = 0.0
    for lam, horizon in ((0.25, 200.0), (0.5, 200.0), (1.0, 200.0), (1.4, 600.0)):
        target = closed_form_split(lam)
        assert np.abs(target - independent_split_oracle(lam)).max() < 1e-10
        lf = network_limit_flow(net, policy, lam).flow_vector(net.topology)
        traj = simulate(net, policy,
                        SimulationConfig(inflow=lam, horizon=horizon, record_stride=10))
        tail = traj.outflow[traj.tail_slice()]
        assert float(tail.max() - tail.min()) < 1e-5  # horizon long enough
        worst = max(worst,
                    float(np.abs(lf - target).max()),
                    float(np.abs(traj.terminal_flow() - target).max()))
    assert worst <= 1e-4
    for lam, horizon, dt in ((1.5, 4000.0, 0.05), (2.0, 200.0, None)):
        lf = network_limit_flow(net, policy, lam)
        assert lf.flows == {0: 0.75, 1: 0.75}
        assert lf.saturated == {0: True, 1: True}
        traj = simulate(net, policy,
                        SimulationConfig(inflow=lam, horizon=horizon, dt=dt, record_stride=50))
        est, flags = limit_flow_estimate(traj, net)
        assert flags == {0: True, 1: True}
        np.testing.assert_array_equal(est, [0.75, 0.75])
    verdict(1, "closed-form limit flow", worst <= 1e-4,
            f"max deviation {worst:.2e} (tol 1e-4); saturation flagged at 1.5 and 2.0")


def test_criterion_02_global_attractivity():
    results = {}
    net = two_route_network()
    results["two-route"] = convergence_check(
        net, two_route_policy(net.topology), 1.0, n_initial=10,
        config=SimulationConfig(inflow=1.0, horizon=250.0, dt=0.02), seed=42)
    dnet = diamond_network()
    results["diamond"] = convergence_check(
        dnet, diamond_policy(dnet.topology), 1.0, n_initial=10,
        config=SimulationConfig(inflow=1.0, horizon=250.0, dt=0.02), seed=43)
    gaps = {k: r.max_pairwise_gap for k, r in results.items()}
    ok = all(r.passed for r in results.values())
    verdict(2, "global attractivity", ok,
            f"10 initial conditions each; pairwise gaps {gaps} (tol 1e-3)")


def test_criterion_03_saturation_block_property():
    rng = np.random.default_rng(2024)
    checked = 0
    saturated_nodes = 0
    for _ in range(20):
        net = random_exponential_network(rng, max_nodes=6, cap_range=(0.3, 2.0))
        topo = net.topology
        policy = uniform_logit_policy(topo, rng)
        capacity, _ = min_cut_capacity(topo, net.capacities())
        lf = network_limit_flow(net, policy, 1.25 * capacity)
        found_sat = False
        for v in range(topo.num_nodes):
            out = topo.outgoing[v]
            if not out:
                continue
            flags = [lf.saturated[lid] for lid in out]
            assert len(set(flags)) == 1  # all-or-none per node
            if flags[0]:
                found_sat = True
                for lid in out:
                    assert lf.flows[lid] == net.flow_functions[lid].f_max
            else:
                for lid in out:
                    assert lf.flows[lid] < net.flow_functions[lid].f_max
        assert found_sat  # inflow above min-cut must saturate somewhere
        saturated_nodes += found_sat
        checked += 1
    verdict(3, "saturation block property", checked == 20,
            f"{checked} random overloaded networks, flags all-or-none per node")


def test_criterion_04_min_cut_duality():
    rng = np.random.default_rng(77)
    for _ in range(100):
        topo = random_dag(rng, max_nodes=8)
        caps = {l.id: Fraction(int(rng.integers(10, 501)), 100) for l in topo.links}
        enum_value, cut = min_cut_capacity(topo, caps)
        assert enum_value == cut.flow_value  # exact rational equality
        assert sum(caps[lid] for lid in cut.cut_links) == enum_value
    verdict(4, "min-cut/max-flow duality", True,
            "100 random DAGs (<= 8 nodes), exact agreement in rational arithmetic")


def test_criterion_05_cut_attack_upper_bound():
    cases = []
    for name, net, policy, lam in (
        ("two-route", two_route_network(), None, 1.0),
        ("diamond", diamond_network(), None, 1.0),
    ):
        policy = two_route_policy(net.topology) if name == "two-route" else diamond_policy(net.topology)
        capacity, _ = min_cut_capacity(net.topology, net.capacities())
        for alpha in (0.25, 0.5):
            spec = cut_attack(net, alpha, lam)
            assert abs(spec.magnitude - (capacity - alpha * lam / 2.0)) <= 1e-12
            out = evaluate_attacks(net, policy, lam, [(spec, alpha, None)],
                                   SimulationConfig(inflow=lam, horizon=200.0, dt=0.02))[0]
            assert not out.transferring and not out.inconclusive
            assert out.tail_min < alpha * lam
            cases.append(f"{name}@a={alpha}: tail {out.tail_min:.3f} < {alpha * lam}")
    verdict(5, "cut attack defeats its transfer level", True, "; ".join(cases))


def test_criterion_06_weak_resilience_bracket():
    net = two_route_network()
    policy = two_route_policy(net.topology)
    report = estimate_weak_resilience(
        net, policy, 1.0,
        config=SimulationConfig(inflow=1.0, horizon=200.0, dt=0.02),
        alphas=(0.2, 0.05), n_samples=50, seed=0,
    )
    capacity = report.min_cut
    assert capacity == pytest.approx(1.5, abs=1e-12)
    lo, hi = report.bracket
    tol = 0.01 * capacity  # bisection resolution
    conditions = {
        "ordering": lo <= hi + 1e-12,
        "width": hi - lo <= 0.15 + 1e-9,
        "lo within 10% of C": capacity - lo <= 0.15 + 1e-9,
        "hi within 10% of C": capacity - hi <= 0.15 + 1e-9,
        "hi below proof bound": hi <= capacity - 0.05 * 1.0 / 2.0 + tol + 1e-9,
        "all samples preserved": all(s["preserved"] for s in report.samples),
    }
    verdict(6, "weak-resilience bracket", all(conditions.values()),
            f"bracket [{lo:.4f}, {hi:.4f}] around C=1.5, width {hi - lo:.4f}; "
            + ", ".join(k for k, v in conditions.items() if not v))


def test_criterion_07_survival_below_min_cut():
    net = diamond_network()
    policy = diamond_policy(net.topology)
    lam = 1.0
    capacity, _ = min_cut_capacity(net.topology, net.capacities())
    specs = sample_scaling_perturbations(net, 0.9 * capacity, 50, seed=7)
    floor = 1e-3 * lam
    # the 50 attacks run as one ensemble; each outcome is the one
    # that attack gets alone
    outcomes = evaluate_attacks(net, policy, lam, [(spec, 1e-3, 0.0) for spec in specs],
                                SimulationConfig(inflow=lam, horizon=200.0, dt=0.02))
    worst = math.inf
    for spec, out in zip(specs, outcomes):
        assert spec.magnitude <= 0.9 * capacity + 1e-9
        worst = min(worst, out.tail_min)
        assert out.tail_min >= floor
    verdict(7, "survival below min-cut", worst >= floor,
            f"50 random scaling attacks (delta <= 0.9C={0.9 * capacity:.2f}); "
            f"worst tail outflow {worst:.4f} >= {floor}")


def test_criterion_08_cooperativity():
    rng = np.random.default_rng(5150)
    net = diamond_network()
    dpolicy = diamond_policy(net.topology)
    tpolicy = two_route_policy(two_route_network().topology)
    worst = -math.inf
    for policy, v, k in ((tpolicy, 0, 2), (dpolicy, 0, 2), (dpolicy, 1, 2)):
        for _ in range(1000):
            sigma = 10.0 ** rng.uniform(-2, 2, size=k)
            varsigma = 10.0 ** rng.uniform(-2, 2, size=k)
            worst = max(worst, cooperative_gap(policy, v, sigma, varsigma))
    anti = LogitPolicy(two_route_network().topology, eta={0: -1.0}, weights={0: 0.6, 1: 6.0})
    anti_gaps = [cooperative_gap(anti, 0, 10.0 ** rng.uniform(-2, 2, 2),
                                 10.0 ** rng.uniform(-2, 2, 2)) for _ in range(500)]
    ok = worst <= 1e-12 and max(anti_gaps) > 0
    verdict(8, "cooperative routing inequality", ok,
            f"worst logit gap {worst:.2e} <= 1e-12; congestion-seeking fixture "
            f"reaches +{max(anti_gaps):.3f}")


def test_criterion_09_local_monotonicity():
    net = two_route_network()
    policy = two_route_policy(net.topology)
    rho0 = np.array([0.3, 0.3])
    lo = simulate_local(net, policy, 0, lambda t: 0.5, rho0, dt=0.01, horizon=60.0)
    hi = simulate_local(net, policy, 0, lambda t: 0.5 + 0.3 * (1 + math.sin(t)) / 2.0,
                        rho0, dt=0.01, horizon=60.0)
    margin = float((hi.rho - lo.rho).min())
    ok = bool(np.all(lo.rho <= hi.rho + 1e-9))
    verdict(9, "monotonicity in the input signal", ok,
            f"rho(-) <= rho(+) + 1e-9 at all {lo.rho.shape[0]} grid times "
            f"(worst margin {margin:.2e})")


def test_criterion_10_jacobian_correctness():
    rng = np.random.default_rng(99)
    net = diamond_network()
    policies = [
        (two_route_policy(two_route_network().topology), 0, 2),
        (diamond_policy(net.topology), 0, 2),
        (diamond_policy(net.topology), 1, 2),
    ]
    worst_rel = 0.0
    min_offdiag = math.inf
    for i in range(100):
        policy, v, k = policies[i % len(policies)]
        rho = rng.uniform(0.0, 3.0, size=k)
        analytic = policy.jacobian(v, rho)
        numeric = finite_difference_jacobian(lambda x: policy.route(v, x), rho)
        scale = max(float(np.abs(analytic).max()), 1e-12)
        worst_rel = max(worst_rel, float(np.abs(analytic - numeric).max()) / scale)
        off = analytic[~np.eye(k, dtype=bool)]
        min_offdiag = min(min_offdiag, float(off.min()))
    ok = worst_rel < 1e-5 and min_offdiag >= 0.0
    verdict(10, "analytic routing Jacobian", ok,
            f"100 points: max relative error {worst_rel:.2e} < 1e-5, "
            f"min off-diagonal {min_offdiag:.2e} >= 0")


def test_criterion_11_integrator_order():
    net = two_route_network()
    policy = two_route_policy(net.topology)
    ratios = []
    for lam in (0.5, 1.0):
        def terminal(dt):
            cfg = SimulationConfig(inflow=lam, horizon=4.0, dt=dt)
            return simulate(net, policy, cfg).rho[-1]
        reference = terminal(0.2 / 128.0)
        err_coarse = float(np.abs(terminal(0.2) - reference).max())
        err_fine = float(np.abs(terminal(0.1) - reference).max())
        ratios.append(err_coarse / err_fine)
    ok = all(r >= 12.0 for r in ratios)
    verdict(11, "fourth-order step convergence", ok,
            f"halving dt shrinks terminal error by {[round(r, 1) for r in ratios]} (>= 12)")
