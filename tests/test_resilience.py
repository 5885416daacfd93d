"""Cut attacks, attack evaluation, and the weak-resilience bracket."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from flownet import dynamics, resilience
from flownet import (
    ExponentialFlow,
    InadmissiblePerturbation,
    LocalSolverError,
    PerturbationSpec,
    SimulationConfig,
    alpha_transfer_estimate,
    cut_attack,
    estimate_weak_resilience,
    evaluate_attacks,
    load_scenario,
    network_limit_flow,
    simulate,
)
from flownet.cli import main
from flownet.dynamics import _transfer_threshold, network_limit_flows
from flownet.scenario import parse_scenario
from flownet.resilience import (
    ALPHA_FLOOR,
    BISECT_TOL_FRAC,
    MARGIN,
    AlphaSweepPoint,
    require_locally_responsive,
    sample_scaling_perturbations,
)
from flownet.topology import min_cut_capacity

from cli_digests import _generate_dag
from serial_bisection import serial_alpha_sweep
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
        for lid, pert in spec.replacements.items():
            assert pert.median_density() == net.flow_functions[lid].median_density()

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
        spec = PerturbationSpec(net, {})
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
        spec = PerturbationSpec(net, {0: 0.99})  # link 0 is off the min cut {5}
        out = evaluate_attacks(net, policy, 1.0, [(spec, 0.5, None)], FAST)[0]
        assert out.transferring

    def test_saturated_baseline_rejected(self):
        net = two_route_network()
        policy = two_route_policy(net.topology)
        spec = PerturbationSpec(net, {})
        with pytest.raises(ValueError):
            evaluate_attacks(net, policy, 2.0, [(spec, 0.5, None)],
                             SimulationConfig(inflow=2.0, horizon=50.0, dt=0.02))


    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    def test_alpha_outside_unit_interval_rejected_before_simulating(self, monkeypatch, alpha):
        net = two_route_network()
        policy = two_route_policy(net.topology)
        monkeypatch.setattr(dynamics, "_integrate", None)  # any simulation fails
        attacks = [(cut_attack(net, 0.5, 1.0), 0.5, None),
                   (PerturbationSpec(net, {}), alpha, None)]
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

    def test_unset_step_is_the_unperturbed_networks(self):
        sc = load_scenario(DATA / "diamond5.json")
        net, policy, inflow = sc.network, sc.policy, sc.inflow
        spec = PerturbationSpec(net, {5: 0.5})  # the fastest link, slowed
        step = dynamics.default_dt(net)
        assert (step, dynamics.default_dt(net.perturbed(spec))) == \
            (pytest.approx(0.00625), pytest.approx(0.01 / 1.2))
        config = SimulationConfig(inflow=inflow, horizon=20.0)
        _, rho0 = resilience._attack_setup(net, policy, inflow, config)
        (out,) = evaluate_attacks(net, policy, inflow, [(spec, 0.5, None)], config)
        assert out == alpha_transfer_estimate(
            simulate(net.perturbed(spec), policy, replace(config, dt=step), rho0), 0.5)
        # the perturbed network's own, longer step gives other bits
        assert out != alpha_transfer_estimate(simulate(net.perturbed(spec), policy, config, rho0),
                                              0.5)

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
            require_locally_responsive(anti)
        with pytest.raises(ValueError):
            estimate_weak_resilience(net, anti, 1.0, config=FAST, alphas=(0.5,), n_samples=2)

    def test_negative_sample_count_rejected(self, monkeypatch):
        net = two_route_network()
        monkeypatch.setattr(resilience, "min_cut_capacity", None)  # no work may start
        with pytest.raises(ValueError, match=r"^n_samples must be nonnegative, got -3$"):
            estimate_weak_resilience(net, two_route_policy(net.topology), 1.0, config=FAST,
                                     alphas=(0.5,), n_samples=-3)

    def test_non_integer_sample_count_rejected(self, monkeypatch):
        net = two_route_network()
        monkeypatch.setattr(resilience, "min_cut_capacity", None)  # no work may start
        with pytest.raises(ValueError, match=r"^n_samples must be an integer, got 2.5$"):
            estimate_weak_resilience(net, two_route_policy(net.topology), 1.0, config=FAST,
                                     alphas=(0.5,), n_samples=2.5)

    def test_empty_alphas_rejected(self, monkeypatch):
        net = two_route_network()
        monkeypatch.setattr(resilience, "require_locally_responsive", None)  # no work may start
        monkeypatch.setattr(resilience, "min_cut_capacity", None)
        with pytest.raises(ValueError, match=r"^alphas must name at least one alpha$"):
            estimate_weak_resilience(net, two_route_policy(net.topology), 1.0, config=FAST,
                                     alphas=(), n_samples=2)

    def test_diamond_policy_certified(self):
        net = diamond_network()
        require_locally_responsive(diamond_policy(net.topology))
        require_locally_responsive(uniform_logit_policy(net.topology))


def _judge_audits_on_limit_flows(monkeypatch):
    """Let each audit's limit flow stand in for its simulation: the bisection runs alone."""
    def judged(network, policy, config, rho0, attacks):
        outcomes = []
        for spec, alpha, tol in attacks:
            limit = network_limit_flow(network.perturbed(spec), policy, config.inflow)
            out = limit.node_inflows[network.topology.destination]
            outcomes.append(dynamics._transfer_estimate(out, out, config.inflow, alpha, tol))
        return outcomes

    monkeypatch.setattr(resilience, "_simulate_attacks", judged)


class TestOracleBisection:
    """Every verdict of every alpha's bisection comes from at most two batched
    cascades; the sweep, and any error a judged scaling raises, are those of
    the serial one-point bisection (``tests/serial_bisection.py``)."""

    @pytest.mark.parametrize("alphas", [(0.5, 0.2, 0.1, 0.05), (0.0015,)],
                             ids=["four-alphas", "halving"])
    @pytest.mark.parametrize("name", ["diamond5", "random8", "example3"])
    def test_sweep_equals_the_serial_bisection(self, monkeypatch, name, alphas):
        sc = load_scenario(DATA / f"{name}.json")
        _judge_audits_on_limit_flows(monkeypatch)
        report = estimate_weak_resilience(sc.network, sc.policy, sc.inflow, alphas=alphas,
                                          n_samples=0)
        reference = serial_alpha_sweep(sc.network, sc.policy, sc.inflow, alphas)
        assert report.alpha_sweep == reference
        if alphas == (0.0015,):  # the cut argument's scaling was halved
            capacity, _ = min_cut_capacity(sc.topology, sc.network.capacities())
            assert reference[0].defeating_eps < 0.0015 * sc.inflow / (2.0 * capacity)

    def test_every_bisection_takes_at_most_two_cascades(self, monkeypatch):
        sc = load_scenario(DATA / "diamond5.json")
        _judge_audits_on_limit_flows(monkeypatch)
        calls = []
        real = resilience.network_limit_flows

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(resilience, "network_limit_flows", counting)
        for alphas, cascades in (((0.05,), 1), ((0.5, 0.2, 0.1, 0.05), 1),
                                 ((0.9, 0.5, 0.2, 0.1, 0.05, 0.02, 0.0018, 0.0015), 2)):
            calls.clear()
            estimate_weak_resilience(sc.network, sc.policy, sc.inflow, alphas=alphas,
                                     n_samples=0)
            assert len(calls) == cascades, alphas

    def test_a_halving_alpha_adds_its_halvings_and_one_tree(self, monkeypatch):
        """alpha 0.0015's cut bound does not clear its threshold: the first cascade
        holds its start's halvings, the second the tree of the one that defeats."""
        sc = load_scenario(DATA / "diamond5.json")
        _judge_audits_on_limit_flows(monkeypatch)
        sizes = []
        real = resilience.network_limit_flows

        def counting(network, policy, inflows, scalings):
            sizes.append(len(inflows))
            return real(network, policy, inflows, scalings)

        monkeypatch.setattr(resilience, "network_limit_flows", counting)
        estimate_weak_resilience(sc.network, sc.policy, sc.inflow, alphas=(0.0015,),
                                 n_samples=0)
        capacity, _ = min_cut_capacity(sc.topology, sc.network.capacities())
        halvings = resilience._halvings(0.0015 * sc.inflow / (2.0 * capacity))
        # the unperturbed network, the start and its 28 halvings; then 2**7 - 1 midpoints
        assert len(halvings) == 28
        assert sizes == [2 + len(halvings), 127]

    @pytest.mark.parametrize("on_path", [True, False], ids=["on-path", "off-path"])
    @pytest.mark.parametrize("failure", ["solver", "certification"])
    def test_a_failing_scaling_raises_only_on_the_path(self, monkeypatch, failure, on_path):
        sc = load_scenario(DATA / "diamond5.json")
        net, policy, inflow = sc.network, sc.policy, sc.inflow
        capacity, cut = min_cut_capacity(net.topology, net.capacities())
        (cut_link,) = cut.cut_links
        judged = []
        serial_alpha_sweep(net, policy, inflow, (0.05,), judged)
        spare = [eps for eps in resilience._bisection_tree(
            judged[0], capacity, BISECT_TOL_FRAC * capacity) if eps not in judged]
        # the cut link's capacity at a midpoint the bisection judges, or at one it never does
        bad = (judged[3] if on_path else spare[0]) * net.flow_functions[cut_link].f_max
        assert bad not in net.capacities().values()
        hits = []
        if failure == "solver":
            real = dynamics._local_solve

            def solve(rows, lams):
                f, sat, errs = real(rows, lams)
                for i in np.flatnonzero((np.broadcast_to(rows.f_max, f.shape) == bad).any(axis=1)):
                    hits.append(None)
                    f[i] = np.nan
                    errs[i] = LocalSolverError(f"no split at capacity {bad!r}", bad)
                return f, sat, errs

            monkeypatch.setattr(dynamics, "_local_solve", solve)
            error = LocalSolverError
        else:
            real = ExponentialFlow.certify

            def certify(ff):
                if ff.f_max == bad:
                    hits.append(None)
                    return ["refused for the test"]
                return real(ff)

            monkeypatch.setattr(ExponentialFlow, "certify", certify)
            error = InadmissiblePerturbation
        _judge_audits_on_limit_flows(monkeypatch)
        if on_path:
            with pytest.raises(error) as want:
                serial_alpha_sweep(net, policy, inflow, (0.05,))
            with pytest.raises(error) as got:
                estimate_weak_resilience(net, policy, inflow, alphas=(0.05,), n_samples=0)
            assert str(got.value) == str(want.value)
            assert getattr(got.value, "residual", None) == getattr(want.value, "residual", None)
        else:
            report = estimate_weak_resilience(net, policy, inflow, alphas=(0.05,), n_samples=0)
            # the cascade solved the point off the path, and nothing certified it
            assert bool(hits) == (failure == "solver")
            assert report.alpha_sweep == serial_alpha_sweep(net, policy, inflow, (0.05,))


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

    @pytest.mark.parametrize("budget, n_samples, message", [
        (1.0, -1, r"^n_samples must be nonnegative, got -1$"),
        (0.5, 2.5, r"^n_samples must be an integer, got 2.5$"),
        (0.5, 2.0, r"^n_samples must be an integer, got 2.0$"),
        (0.5, True, r"^n_samples must be an integer, got True$"),
        (-0.5, 3, r"^budget must be nonnegative, got -0.5$"),
        (float("nan"), 3, r"^budget must be nonnegative, got nan$"),
        (1.6, 3, r"^budget must stay below the min-cut capacity$"),
        (float("inf"), 3, r"^budget must stay below the min-cut capacity$"),
    ])
    def test_sampler_refuses_bad_arguments_up_front(self, monkeypatch, budget, n_samples,
                                                    message):
        sc = load_scenario(DATA / "diamond5.json")
        capacity, _ = min_cut_capacity(sc.topology, sc.network.capacities())
        assert capacity == 1.6
        monkeypatch.setattr(resilience, "PerturbationSpec", None)  # no sample may be drawn
        with pytest.raises(ValueError, match=message):
            sample_scaling_perturbations(sc.network, budget, n_samples)

    def test_sampler_takes_numpy_integers(self):
        net = diamond_network()

        def rows(n):
            return [spec.scalings.tolist() for spec in sample_scaling_perturbations(net, 0.5, n)]

        assert rows(np.int64(3)) == rows(3)

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
            spec = PerturbationSpec(net, {lid: eps for lid in sorted(cut.cut_links)})
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
        real = resilience.network_limit_flows

        def oracle(network, policy, inflows, scalings):
            limits = real(network, policy, inflows, scalings)
            for p, (inflow, factors) in enumerate(zip(inflows, scalings)):
                if flip_at in factors:
                    # reflect the outflow across the threshold: the verdict flips
                    dest = network.topology.destination
                    limits.node_inflows[p, dest] = (2.0 * _transfer_threshold(0.5, inflow)
                                                    - limits.node_inflows[p, dest])
            return limits

        monkeypatch.setattr(resilience, "network_limit_flows", oracle)
        flip_at = None
        assert main(argv) == 0
        # the last scaling judged is the last bisection verdict, a final endpoint
        judged = []
        sc = load_scenario(DATA / "diamond5.json")
        serial_alpha_sweep(sc.network, sc.policy, sc.inflow, (0.5,), judged)
        flip_at = judged[-1]
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
        specs += [cut_attack(net, 0.05, 1.0), PerturbationSpec(net, {0: 0.1, 1: 0.1})]
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


def _adversarial_scenario(name):
    if name.startswith("dag20-seed"):
        return parse_scenario(_generate_dag()(int(name[len("dag20-seed"):])))
    return load_scenario(DATA / f"{name}.json")


def _worst_scalings(sc, n_points=1000, rounds=3, keep=20, seed=0):
    """A seeded search for the capacity scalings of magnitude (1 - MARGIN) C that
    lower the limit-flow outflow most, scored one ``network_limit_flows`` call per
    round.  The first round spreads each point's budget over random links, half of
    the points biased onto the min cut; each later round draws log-normal moves of
    the ``keep`` worst points so far.  Returns the (P, m) factors of every point
    scored, their outflows and errors, and the worst point's factor row."""
    topo, net = sc.topology, sc.network
    cap, cut = min_cut_capacity(topo, net.capacities())
    caps = np.array([net.flow_functions[lid].f_max for lid in topo.link_ids])
    cut_cols = [topo.link_ids.index(lid) for lid in sorted(cut.cut_links)]
    budget = (1.0 - MARGIN) * cap
    rng = np.random.default_rng(seed)
    m = caps.size
    factors, outflows, errors = [], [], []
    for k in range(rounds):
        if k == 0:
            w = rng.uniform(0.05, 1.0, (n_points, m)) * (rng.random((n_points, m)) < 0.5) + 1e-3
            w[:n_points // 2, cut_cols] += rng.uniform(1.0, 4.0, (n_points // 2, len(cut_cols)))
        else:
            scored = np.concatenate(factors)
            worst = scored[np.argsort(np.concatenate(outflows))[:keep]]
            w = (1.0 - worst[rng.integers(keep, size=n_points)]) * caps
            w = w * np.exp(rng.normal(0.0, 0.3, (n_points, m))) + 1e-3 * rng.random((n_points, m))
        reductions = np.minimum(w / w.sum(axis=1, keepdims=True) * budget, 0.999 * caps)
        eps = 1.0 - reductions / caps
        limits = network_limit_flows(net, sc.policy, np.full(n_points, sc.inflow), eps)
        factors.append(eps)
        outflows.append(limits.node_inflows[:, topo.destination])
        errors += limits.errors
    factors, outflows = np.concatenate(factors), np.concatenate(outflows)
    assert (((1.0 - factors) * caps).sum(axis=1) <= budget * (1.0 + 1e-12)).all()
    return factors, outflows, errors, factors[np.argmin(outflows)]


class TestAdversarialLowerSide:
    """No scaling attack of magnitude at most (1 - MARGIN) C found by a seeded
    worst-case search drives the limit-flow outflow below ALPHA_FLOOR * inflow."""

    @pytest.mark.parametrize("name", ["diamond5", "random8", "example3", "chain21",
                                      "dag20-seed0", "dag20-seed1", "dag20-seed2",
                                      "dag20-seed3"])
    def test_searched_scalings_keep_the_floor(self, name):
        sc = _adversarial_scenario(name)
        factors, outflows, errors, _ = _worst_scalings(sc)
        assert ((factors > 0) & (factors <= 1)).all()
        assert errors == [None] * len(factors)
        assert outflows.min() >= ALPHA_FLOOR * sc.inflow, (name, outflows.min())

    def test_worst_diamond_point_transfers_in_simulation(self):
        sc = _adversarial_scenario("diamond5")
        _, _, _, worst = _worst_scalings(sc)
        spec = PerturbationSpec(sc.network, dict(zip(sc.topology.link_ids, worst.tolist())))
        capacity, _ = min_cut_capacity(sc.topology, sc.network.capacities())
        assert spec.magnitude <= (1.0 - MARGIN) * capacity * (1.0 + 1e-12)
        (est,) = evaluate_attacks(sc.network, sc.policy, sc.inflow,
                                  [(spec, ALPHA_FLOOR, 0.0)])
        assert est.transferring and not est.inconclusive, est
