"""Cut attacks, attack evaluation, and the weak-resilience bracket."""

import json
import tracemalloc
from dataclasses import replace

import pytest

from flownet import dynamics, resilience
from flownet import (
    PerturbationSpec,
    SimulationConfig,
    alpha_transfer_estimate,
    cut_attack,
    estimate_weak_resilience,
    evaluate_attacks,
    load_scenario,
    simulate,
)
from flownet.cli import main
from flownet.dynamics import _transfer_threshold
from flownet.resilience import (
    AlphaSweepPoint,
    require_locally_responsive,
    sample_scaling_perturbations,
)
from flownet.topology import min_cut_capacity

from conftest import (
    DATA,
    chain_network,
    diamond_network,
    diamond_policy,
    two_route_network,
    two_route_policy,
    uniform_logit_policy,
)

FAST = SimulationConfig(inflow=1.0, horizon=150.0, dt=0.02)
SHORT = SimulationConfig(inflow=1.0, horizon=10.0, dt=0.02)


class TestCutAttack:
    def test_two_route_construction(self):
        net = two_route_network()
        spec = cut_attack(net, alpha=0.5, inflow=1.0)
        assert sorted(spec.replacements) == [0, 1]
        for lid in (0, 1):
            assert spec.replacements[lid].f_max == pytest.approx(0.75 / 6.0, rel=1e-12)
        assert spec.magnitude == pytest.approx(1.25, abs=1e-12)  # C - alpha*lam/2
        assert spec.stretching == 1.0

    def test_magnitude_formula_to_machine_precision(self):
        for net, lam, alpha, C in [
            (two_route_network(), 1.0, 0.25, 1.5),
            (two_route_network(), 1.0, 0.5, 1.5),
            (diamond_network(), 1.0, 0.25, 1.6),
            (chain_network(), 0.5, 1.0, 1.0),
        ]:
            spec = cut_attack(net, alpha=alpha, inflow=lam)
            assert abs(spec.magnitude - (C - alpha * lam / 2.0)) <= 1e-12

    def test_vanishing_alpha_magnitude_approaches_min_cut(self):
        net = two_route_network()
        spec = cut_attack(net, alpha=1e-6, inflow=1.0)
        assert spec.magnitude == pytest.approx(1.5, abs=1e-6)

    def test_chain_attack_hits_bottleneck_only(self):
        net = chain_network()
        spec = cut_attack(net, alpha=1.0, inflow=0.5)
        assert sorted(spec.replacements) == [1]
        assert spec.replacements[1].f_max == pytest.approx(0.25, rel=1e-12)  # eps = 1/4
        assert spec.magnitude == pytest.approx(0.75, abs=1e-12)

    def test_zero_inflow_rejected(self):
        with pytest.raises(ValueError):
            cut_attack(two_route_network(), alpha=0.5, inflow=0.0)


class TestEvaluateAttack:
    def test_identity_perturbation_not_defeated(self):
        net = two_route_network()
        policy = two_route_policy(net.topology)
        spec = PerturbationSpec.scaling(net, {})
        out = evaluate_attacks(net, policy, 1.0, [(spec, 0.1, None)], FAST)[0]
        assert out.transferring
        assert out.tail_min == pytest.approx(1.0, abs=1e-3)

    def test_cut_attack_defeats_its_alpha(self):
        net = two_route_network()
        policy = two_route_policy(net.topology)
        spec = cut_attack(net, alpha=0.5, inflow=1.0)
        out = evaluate_attacks(net, policy, 1.0, [(spec, 0.5, None)], FAST)[0]
        assert not out.transferring
        # the strangled cut passes at most eps * C = alpha * lam / 2
        assert out.tail_min <= 0.25 + 1e-6

    def test_tiny_off_cut_scaling_harmless(self):
        net = diamond_network()
        policy = diamond_policy(net.topology)
        spec = PerturbationSpec.scaling(net, {0: 0.99})  # link 0 is off the min cut {5}
        out = evaluate_attacks(net, policy, 1.0, [(spec, 0.5, None)], FAST)[0]
        assert out.transferring

    def test_saturated_baseline_rejected(self):
        net = two_route_network()
        policy = two_route_policy(net.topology)
        spec = PerturbationSpec.scaling(net, {})
        with pytest.raises(ValueError):
            evaluate_attacks(net, policy, 2.0, [(spec, 0.5, None)],
                             SimulationConfig(inflow=2.0, horizon=50.0, dt=0.02))


    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    def test_alpha_outside_unit_interval_rejected_before_simulating(self, monkeypatch, alpha):
        net = two_route_network()
        policy = two_route_policy(net.topology)
        monkeypatch.setattr(dynamics, "_integrate", None)  # any simulation fails
        attacks = [(cut_attack(net, 0.5, 1.0), 0.5, None),
                   (PerturbationSpec.scaling(net, {}), alpha, None)]
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\]$"):
            evaluate_attacks(net, policy, 1.0, attacks, FAST)

    @pytest.mark.parametrize("inflow, alpha, tol, message", [
        (1.0, 1e-3, None, "alpha 0.001 is at or below the 1e-3 transfer slack: "),
        (1.0, 0.5, 0.5, "alpha 0.5 is at or below the transfer slack 0.5: "),
        (1.0, 0.5, float("nan"), "alpha 0.5 is at or below the transfer slack nan: "),
        (0.0, 0.5, None, "a transfer verdict needs a positive inflow"),
    ])
    def test_threshold_at_or_below_zero_rejected_before_simulating(self, monkeypatch, inflow,
                                                                   alpha, tol, message):
        net = two_route_network()
        policy = two_route_policy(net.topology)
        monkeypatch.setattr(dynamics, "_integrate", None)  # any simulation fails
        spec = cut_attack(net, 0.5, 1.0)
        with pytest.raises(ValueError) as exc:
            evaluate_attacks(net, policy, inflow, [(spec, alpha, tol)], FAST)
        assert str(exc.value).startswith(message)

    def test_no_attacks_no_outcomes(self):
        net = two_route_network()
        assert evaluate_attacks(net, two_route_policy(net.topology), 1.0, []) == []


class TestWeakResilience:
    def test_two_route_bracket_and_bounds(self):
        net = two_route_network()
        policy = two_route_policy(net.topology)
        report = estimate_weak_resilience(
            net, policy, 1.0, config=FAST, alphas=(0.5, 0.1), n_samples=8, seed=3,
        )
        assert report.min_cut == pytest.approx(1.5, abs=1e-12)
        lo, hi = report.bracket
        assert lo <= hi + 1e-12
        # per-alpha, the cut construction bounds the defeating magnitude above
        for point in report.alpha_sweep:
            assert point.defeating_delta <= 1.5 - point.alpha * 0.5 + 0.015 + 1e-9
        # deeper alpha pushes the defeating magnitude toward the min cut
        by_alpha = {p.alpha: p.defeating_delta for p in report.alpha_sweep}
        assert by_alpha[0.1] >= by_alpha[0.5] - 0.015
        # nothing with magnitude <= 0.9 C defeated the floor transfer level
        assert all(s["preserved"] for s in report.samples)
        assert report.preserved_delta_max == pytest.approx(0.9 * 1.5, abs=1e-9)

    def test_report_deterministic_under_seed(self):
        net = two_route_network()
        policy = two_route_policy(net.topology)
        kwargs = dict(config=FAST, alphas=(0.5,), n_samples=4, seed=11)
        a = estimate_weak_resilience(net, policy, 1.0, **kwargs).to_dict()
        b = estimate_weak_resilience(net, policy, 1.0, **kwargs).to_dict()
        assert a == b

    def test_non_responsive_policy_rejected(self):
        net = two_route_network()
        from flownet import LogitPolicy
        anti = LogitPolicy(net.topology, eta={0: -1.0}, weights={0: 0.6, 1: 6.0})
        with pytest.raises(ValueError):
            require_locally_responsive(anti, net)
        with pytest.raises(ValueError):
            estimate_weak_resilience(net, anti, 1.0, config=FAST, alphas=(0.5,), n_samples=2)

    def test_negative_sample_count_rejected(self, monkeypatch):
        net = two_route_network()
        monkeypatch.setattr(resilience, "min_cut_capacity", None)  # no work may start
        with pytest.raises(ValueError, match=r"^n_samples must be nonnegative, got -3$"):
            estimate_weak_resilience(net, two_route_policy(net.topology), 1.0, config=FAST,
                                     alphas=(0.5,), n_samples=-3)

    def test_empty_alphas_rejected(self, monkeypatch):
        net = two_route_network()
        monkeypatch.setattr(resilience, "require_locally_responsive", None)  # no work may start
        monkeypatch.setattr(resilience, "min_cut_capacity", None)
        with pytest.raises(ValueError, match=r"^alphas must name at least one alpha$"):
            estimate_weak_resilience(net, two_route_policy(net.topology), 1.0, config=FAST,
                                     alphas=(), n_samples=2)

    def test_diamond_policy_certified(self):
        net = diamond_network()
        require_locally_responsive(diamond_policy(net.topology), net)
        require_locally_responsive(uniform_logit_policy(net.topology), net)


class TestBatchedVerdicts:
    def test_min_cut_computed_once_per_estimate(self, monkeypatch):
        net = diamond_network()
        calls = []
        real = resilience.min_cut_capacity

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(resilience, "min_cut_capacity", counting)
        estimate_weak_resilience(net, diamond_policy(net.topology), 1.0, config=SHORT,
                                 alphas=(0.5, 0.1), n_samples=3, seed=1)
        assert len(calls) == 1
        sample_scaling_perturbations(net, 1.0, 2, seed=1)  # the public sampler finds its own
        assert len(calls) == 2

    def test_one_ensemble_holds_samples_and_audits(self, monkeypatch):
        net = diamond_network()
        sizes = []
        real = dynamics._integrate

        def counting(deriv, rho0, *args):
            sizes.append(len(rho0))  # the (B, m) start densities of one ensemble
            return real(deriv, rho0, *args)

        monkeypatch.setattr(dynamics, "_integrate", counting)
        estimate_weak_resilience(net, diamond_policy(net.topology), 1.0, config=SHORT,
                                 alphas=(0.5, 0.05), n_samples=4, seed=3)
        # both endpoints of both alphas' brackets, then every sample
        assert sizes == [2 * 2 + 4]

    @pytest.mark.parametrize("fixture, config, alphas", [
        ("diamond", SHORT, (0.5, 0.05)),
        ("two_route", FAST, (0.5, 0.1)),
    ])
    def test_oracle_bisection_matches_simulated_bisection(self, fixture, config, alphas, request):
        _, net, policy = request.getfixturevalue(fixture)
        capacity, cut = min_cut_capacity(net.topology, net.capacities())

        def judge(eps, alpha):
            """Whether scaling the cut by eps defeats alpha, and the attack's magnitude."""
            spec = PerturbationSpec.scaling(net, {lid: eps for lid in sorted(cut.cut_links)})
            out = evaluate_attacks(net, policy, 1.0, [(spec, alpha, None)], config)[0]
            return not out.transferring, spec.magnitude

        reference = []
        for alpha in sorted(alphas, reverse=True):
            eps_lo, eps_hi = alpha / (2.0 * capacity), 1.0
            defeated, lo_delta = judge(eps_lo, alpha)
            assert defeated
            evaluations = 1
            while (eps_hi - eps_lo) * capacity > 0.01 * capacity:
                mid = 0.5 * (eps_lo + eps_hi)
                defeated, delta = judge(mid, alpha)
                evaluations += 1
                if defeated:
                    eps_lo, lo_delta = mid, delta
                else:
                    eps_hi = mid
            reference.append(AlphaSweepPoint(alpha, lo_delta, eps_lo,
                                             (1.0 - eps_hi) * capacity, evaluations))
        report = estimate_weak_resilience(net, policy, 1.0, config=config, alphas=alphas,
                                          n_samples=1, seed=0)
        assert report.alpha_sweep == reference

    def test_audit_disagreement_exits_two(self, monkeypatch, capsys):
        argv = ["resilience", str(DATA / "diamond5.json"), "--alphas", "0.5",
                "--samples", "2", "--horizon", "10", "--seed", "3"]
        real = resilience.network_limit_flow
        calls = []

        def oracle(network, policy, inflow):
            limit = real(network, policy, inflow)
            calls.append(None)
            if len(calls) == flip_at:
                # reflect the outflow across the threshold: the verdict flips
                dest = network.topology.destination
                limit.node_inflows[dest] = (2.0 * _transfer_threshold(0.5, inflow)
                                            - limit.node_inflows[dest])
            return limit

        monkeypatch.setattr(resilience, "network_limit_flow", oracle)
        flip_at = None
        assert main(argv) == 0
        # the last oracle call is the last bisection verdict, a final endpoint
        flip_at, calls[:] = len(calls), []
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha 0.5, cut scaling eps ")
        assert "Traceback" not in err
        for part in ("limit-flow oracle outflow", "simulated tail_min", "--horizon"):
            assert part in err

    def test_inconclusive_audit_exits_two(self, monkeypatch, capsys):
        argv = ["resilience", str(DATA / "diamond5.json"), "--alphas", "0.5",
                "--samples", "2", "--horizon", "10", "--seed", "3"]
        assert main(argv) == 0
        capsys.readouterr()
        real = resilience._simulate_attacks

        def unsettled_first_audit(*args):
            outcomes = real(*args)
            # the verdict still agrees with the oracle; only its tail is unsettled
            outcomes[0] = replace(outcomes[0], inconclusive=True)
            return outcomes

        monkeypatch.setattr(resilience, "_simulate_attacks", unsettled_first_audit)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha 0.5, cut scaling eps ")
        assert "Traceback" not in err
        for part in ("simulated tail_min", "tail variation", "--horizon"):
            assert part in err

    def test_inconclusive_sample_exits_two(self, monkeypatch, capsys):
        argv = ["resilience", str(DATA / "diamond5.json"), "--alphas", "0.5",
                "--samples", "2", "--horizon", "10", "--seed", "3"]
        assert main(argv) == 0
        last = json.loads(capsys.readouterr().out)["samples"][-1]
        real = resilience._simulate_attacks

        def unsettled_last_sample(*args):
            outcomes = real(*args)
            outcomes[-1] = replace(outcomes[-1], inconclusive=True)
            return outcomes

        monkeypatch.setattr(resilience, "_simulate_attacks", unsettled_last_sample)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: sample of magnitude delta {last['delta']!r}: "
                              f"simulated tail_min {last['tail_min']!r}, ")
        assert "Traceback" not in err
        for part in ("still varies by", "--horizon"):
            assert part in err

    def test_ensemble_verdicts_match_evaluate_attack(self):
        net = diamond_network()
        policy = diamond_policy(net.topology)
        specs = sample_scaling_perturbations(net, 1.2, 4, seed=2)
        attacks = list(zip(specs, (0.5, 0.05, 1e-3, 0.2), (None, 0.0, 0.0, 1e-2)))
        batched = evaluate_attacks(net, policy, 1.0, attacks, SHORT)
        assert batched == [evaluate_attacks(net, policy, 1.0, [attack], SHORT)[0]
                           for attack in attacks]

    # the ids name the one window a verdict reads, TAIL_FRACTION
    @pytest.mark.parametrize("stride", [1, 3, 7],
                             ids=lambda stride: f"{stride}-{dynamics.TAIL_FRACTION}")
    def test_tail_only_verdicts_match_full_trajectories(self, stride):
        net = diamond_network()
        policy = diamond_policy(net.topology)
        config = SimulationConfig(inflow=1.0, horizon=4.0, dt=0.02, record_stride=stride)
        assert dynamics._step_count(config.horizon, config.dt) % 7  # 200 steps
        config, rho0 = resilience._attack_setup(net, policy, 1.0, config)
        specs = sample_scaling_perturbations(net, 1.3, 5, seed=6)
        # a cut attack, and origin links scaled down: the outflow still falls at the horizon
        specs += [cut_attack(net, 0.05, 1.0), PerturbationSpec.scaling(net, {0: 0.1, 1: 0.1})]
        attacks = [(spec, alpha, tol)
                   for spec in specs for alpha, tol in ((0.5, None), (0.05, 0.0))]
        outcomes = evaluate_attacks(net, policy, 1.0, attacks, config)
        for (spec, alpha, tol), out in zip(attacks, outcomes, strict=True):
            traj = simulate(net.perturbed(spec), policy, config, rho0)
            assert out == alpha_transfer_estimate(traj, alpha, tol)
        # the mix exercises both sides of each judgement
        assert {out.transferring for out in outcomes} == {out.inconclusive for out in outcomes} \
            == {True, False}

    @pytest.mark.parametrize("name", ["diamond5", "random8"])
    @pytest.mark.parametrize("stride", [1, 3, 7])
    @pytest.mark.parametrize("block_records", [1, 7])
    def test_verdict_blocks_match_full_trajectories(self, monkeypatch, name, stride,
                                                    block_records):
        # the running extremes cross block boundaries at every offset of the tail window
        monkeypatch.setattr(dynamics, "_BLOCK_RECORDS", block_records)
        sc = load_scenario(DATA / f"{name}.json")
        net, policy, inflow = sc.network, sc.policy, sc.inflow
        dt = dynamics.default_dt(net)
        config = SimulationConfig(inflow=inflow, horizon=204.5 * dt, dt=dt, record_stride=stride)
        n_steps = dynamics._step_count(config.horizon, config.dt)
        assert n_steps % 7 and n_steps % 3  # the final step lies off the stride grid
        config, rho0 = resilience._attack_setup(net, policy, inflow, config)
        capacity, _ = min_cut_capacity(net.topology, net.capacities())
        specs = sample_scaling_perturbations(net, 0.9 * capacity, 3, seed=stride)
        specs.append(cut_attack(net, 0.05, inflow))
        attacks = [(spec, alpha, tol)
                   for spec in specs for alpha, tol in ((0.5, None), (0.05, 0.0))]
        outcomes = evaluate_attacks(net, policy, inflow, attacks, config)
        for (spec, alpha, tol), out in zip(attacks, outcomes, strict=True):
            traj = simulate(net.perturbed(spec), policy, config, rho0)
            assert out == alpha_transfer_estimate(traj, alpha, tol)

    @pytest.mark.parametrize("size", [1, 2])
    def test_judged_tail_blocks_do_not_outlive_the_next_block(self, monkeypatch, size):
        net = diamond_network()
        policy = diamond_policy(net.topology)
        config, rho0 = resilience._attack_setup(
            net, policy, 1.0, SimulationConfig(inflow=1.0, horizon=200.0, dt=0.02))
        attacks = [(spec, 0.05, None)
                   for spec in sample_scaling_perturbations(net, 1.2, 6, seed=2)]
        # 2 001 tail-window records judged in blocks of 500 * size: 5 or 3 blocks
        monkeypatch.setattr(dynamics, "_BLOCK_RECORDS", 500 * size)
        # one verdict block: (records, B, m) float64 densities of every attack
        block = 8 * 500 * size * len(attacks) * len(net.topology.links)
        tracemalloc.start()
        try:
            resilience._simulate_attacks(net, policy, config, rho0, attacks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a block of densities being filled, the block before it and its
        # stacked flows: a judged block is gone once the next is full, while
        # the tail window's densities and flows would not fit in three blocks
        assert peak <= 3 * block

    def test_verdicts_run_as_one_ensemble_and_build_no_trajectory(self, monkeypatch):
        net = diamond_network()
        policy = diamond_policy(net.topology)
        attacks = [(spec, 0.05, None)
                   for spec in sample_scaling_perturbations(net, 1.2, 6, seed=2)]
        sizes = []
        real = dynamics._integrate

        def counting(deriv, rho0, *args):
            sizes.append(len(rho0))  # the (B, m) start densities of one ensemble
            return real(deriv, rho0, *args)

        def no_trajectory(*args, **kwargs):
            raise AssertionError("a verdict built a trajectory")

        monkeypatch.setattr(dynamics, "_integrate", counting)
        monkeypatch.setattr(dynamics, "Trajectory", no_trajectory)
        # one block at the default size, then two: 1 001 and 2 001 tail-window records
        block = 8 * dynamics._BLOCK_RECORDS * len(attacks) * len(net.topology.links)
        for horizon in (100.0, 200.0):
            sizes.clear()
            config, rho0 = resilience._attack_setup(
                net, policy, 1.0, SimulationConfig(inflow=1.0, horizon=horizon, dt=0.02))
            tracemalloc.start()
            try:
                resilience._simulate_attacks(net, policy, config, rho0, attacks)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # one ensemble of every attack, judged from its densities block
            # by block: no verdict builds a trajectory
            assert sizes == [len(attacks)], horizon
            # memory does not grow with the horizon
            assert peak <= 3 * block, horizon
