"""Exponential flow functions, medians, inverses, and perturbation metrics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from flownet import (
    ExponentialFlow,
    FlowNetwork,
    InadmissiblePerturbation,
    PerturbationSpec,
    scale_perturbation,
)
from flownet.topology import TopologyError

from conftest import two_route_network


class TestConstruction:
    @pytest.mark.parametrize("rate, f_max", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0),
                                             (-math.inf, 1.0), (1.0, -math.inf)])
    def test_non_positive_parameters_refused(self, rate, f_max):
        with pytest.raises(ValueError, match=r"^rate and capacity must be positive$"):
            ExponentialFlow(rate, f_max)

    @pytest.mark.parametrize("rate, f_max", [(math.inf, 1.0), (1.0, math.inf),
                                             (math.inf, math.inf)])
    def test_infinite_parameters_refused(self, rate, f_max):
        # an infinite rate or capacity passes the sign check, and would fail
        # later and elsewhere: in certify, the limit-flow cascade, perturbations
        with pytest.raises(ValueError, match=r"^rate and capacity must be finite"):
            ExponentialFlow(rate, f_max)


class TestEvaluation:
    def test_zero_density_zero_flow(self):
        assert ExponentialFlow(1.0, 0.75).eval(0.0) == 0.0

    def test_half_capacity_at_log2(self):
        assert ExponentialFlow(1.0, 0.75).eval(math.log(2.0)) == pytest.approx(0.375, abs=1e-15)

    def test_direct_formula(self):
        assert ExponentialFlow(2.0, 1.0).eval(1.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            ExponentialFlow(1.0, 1.0).eval(-0.1)

    # Float evaluation is only non-decreasing: a true gap below the spacing of
    # the results rounds away (rho = 40 against its lower neighbour differs by
    # about 1e-27).  The gap is at least f_max a exp(-a hi) (hi - lo); once that
    # bound exceeds 4 ulp of f(hi) it survives the rounding of a * rho, expm1
    # and the capacity scaling (over 2.9 million neighbouring-float pairs, the
    # largest bound that still gave equal flows was 1.95 ulp).

    @given(st.floats(min_value=0.0, max_value=40.0),
           st.floats(min_value=0.0, max_value=40.0))
    @example(r1=40.0, r2=39.99999999999999)
    def test_strict_monotonicity(self, r1, r2):
        ff = ExponentialFlow(0.7, 1.3)
        lo, hi = min(r1, r2), max(r1, r2)
        assert ff.eval(lo) <= ff.eval(hi)
        gap = ff.f_max * ff.rate * math.exp(-ff.rate * hi) * (hi - lo)
        if gap > 4.0 * math.ulp(ff.eval(hi)):
            assert ff.eval(lo) < ff.eval(hi)

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_saturation_bounds(self, rho):
        ff = ExponentialFlow(1.0, 0.75)
        val = ff.eval(rho)
        if rho <= 35.0:
            assert 0.0 <= val < 0.75
        else:
            assert 0.0 <= val <= 0.75
        if rho >= 10.0:
            assert val >= 0.999 * 0.75


class TestInverse:
    def test_zero(self):
        assert ExponentialFlow(1.0, 0.75).inverse(0.0) == 0.0

    def test_median_flow_maps_to_log2(self):
        assert ExponentialFlow(1.0, 0.75).inverse(0.375) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        ff = ExponentialFlow(1.7, 2.3)
        for f in rng.uniform(0.0, 0.99 * ff.f_max, size=100):
            assert ff.eval(ff.inverse(f)) == pytest.approx(f, abs=1e-12)

    def test_capacity_has_no_preimage(self):
        ff = ExponentialFlow(1.0, 0.75)
        for f in (0.75, 0.8, -0.01):
            with pytest.raises(ValueError):
                ff.inverse(f)


class TestMedianDensity:
    def test_exponential_analytic(self):
        assert ExponentialFlow(1.0, 0.75).median_density() == pytest.approx(math.log(2.0), rel=1e-15)
        assert ExponentialFlow(math.log(2.0), 5.0).median_density() == pytest.approx(1.0, rel=1e-15)

    def test_defining_property(self):
        ff = ExponentialFlow(0.3, 2.0)
        assert ff.eval(ff.median_density()) == pytest.approx(ff.f_max / 2.0, abs=1e-10)


class TestScaling:
    def test_identity_scale(self):
        ff = ExponentialFlow(1.0, 0.75)
        same = scale_perturbation(ff, 1.0)
        assert same.f_max == ff.f_max and same.rate == ff.rate

    def test_capacity_and_gap(self):
        ff = ExponentialFlow(1.0, 0.75)
        scaled = scale_perturbation(ff, 1.0 / 3.0)
        assert scaled.f_max == pytest.approx(0.25, abs=1e-15)
        assert PerturbationSpec(two_route_network(), {0: 1.0 / 3.0}).magnitude == \
            pytest.approx(0.5, abs=1e-15)

    def test_median_density_unchanged(self):
        ff = ExponentialFlow(1.0, 1.0)
        assert scale_perturbation(ff, 0.5).median_density() == ff.median_density()

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            scale_perturbation(ExponentialFlow(1.0, 1.0), 0.0)

    # A scaling keeps the rate and multiplies the capacity by eps <= 1, and
    # IEEE products round monotonically, so the scaled flow is never above
    # the original: the sup-norm gap is the lost capacity, met at saturation.
    @given(st.floats(min_value=1e-3, max_value=1e6), st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-300, max_value=1.0))  # keeps eps * f_max a normal float
    def test_scaling_guarantees(self, rate, f_max, eps):
        ff = ExponentialFlow(rate, f_max)
        net = FlowNetwork(two_route_network().topology, {0: ff, 1: ff})
        scaled = scale_perturbation(ff, eps)
        grid = ff.median_density() * np.concatenate([[0.0], np.geomspace(1e-6, 50.0, 512)])
        assert (scaled(grid) <= ff(grid)).all()
        assert scaled.median_density() == ff.median_density()
        assert PerturbationSpec(net, {0: eps}).magnitude == f_max - eps * f_max


class TestPerturbationSpec:
    def test_identity_magnitude_zero(self):
        net = two_route_network()
        spec = PerturbationSpec(net, {0: 1.0, 1: 1.0})
        assert spec.magnitude == 0.0
        for lid, pert in spec.replacements.items():
            assert pert.median_density() == net.flow_functions[lid].median_density()

    def test_cut_scaling_magnitude(self):
        net = two_route_network()
        spec = PerturbationSpec(net, {0: 1.0 / 6.0, 1: 1.0 / 6.0})
        assert spec.magnitude == pytest.approx(1.25, abs=1e-12)  # (1 - 1/6) * 3/2
        for lid, pert in spec.replacements.items():  # exponential scaling keeps medians
            assert pert.median_density() == net.flow_functions[lid].median_density()

    def test_inadmissible_rejected(self):
        net = two_route_network()
        with pytest.raises(ValueError, match=r"scaling factor must be in \(0, 1\], got 1.1"):
            PerturbationSpec(net, {0: 1.1})  # raises capacity

    def test_subnormal_capacity_is_inadmissible(self):
        with pytest.raises(InadmissiblePerturbation, match=r"^link 0: .*not strictly increasing"):
            PerturbationSpec(two_route_network(), {0: 1e-310})

    def test_unknown_link_is_named(self):
        with pytest.raises(TopologyError, match=r"unknown links \[99\]"):
            PerturbationSpec(two_route_network(), {99: 0.5})

    def test_perturbed_network_swaps_functions(self):
        net = two_route_network()
        spec = PerturbationSpec(net, {1: 0.5})
        pert = net.perturbed(spec)
        assert pert.flow_functions[0].f_max == 0.75
        assert pert.flow_functions[1].f_max == pytest.approx(0.375)


class TestCertification:
    def test_exponential_passes(self):
        assert ExponentialFlow(2.0, 0.3).certify() == []

    @pytest.mark.parametrize("rate,f_max", [(1e-3, 1e3), (1.0, 1.0), (1e3, 1e-3), (1e6, 2.0),
                                            (1e8, 1.0), (1e12, 1.0)])
    def test_exponentials_across_scales_pass(self, rate, f_max):
        assert ExponentialFlow(rate, f_max).certify() == []

    @pytest.mark.parametrize("rate,f_max", [(1e-320, 1.0), (1.0, 1e-310)])
    def test_degenerate_exponentials_fail(self, rate, f_max):
        # rate 1e-320 has an infinite median density, so its grid is NaN;
        # capacity 1e-310 is subnormal, so neighbouring samples round equal
        with np.errstate(invalid="ignore", over="ignore"):
            violations = ExponentialFlow(rate, f_max).certify()
        assert "not strictly increasing on the certification grid" in violations

    def test_rate_scale_is_the_slope_at_zero(self):
        ff = ExponentialFlow(2.5, 0.4)
        assert ff.rate_scale() == ff.derivative(0.0) == 2.5 * 0.4
