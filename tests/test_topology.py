"""Topology validation, ordering, cuts, and the min-cut/max-flow pair."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from flownet import (
    NetworkTopology,
    TopologyError,
    min_cut_capacity,
    topological_order,
    validate_topology,
)
from flownet import cli, topology

from conftest import DATA, random_dag
from cut_enumeration import canonical_relabel, enumerate_od_cuts


def brute_force_min_cut(topo, caps):
    """Independent oracle: direct subset enumeration, no library code."""
    origin, dest = topo.origin, topo.destination
    middle = [v for v in range(topo.num_nodes) if v not in (origin, dest)]
    best = None
    for r in range(len(middle) + 1):
        for combo in itertools.combinations(middle, r):
            side = {origin, *combo}
            val = sum(caps[l.id] for l in topo.links if l.tail in side and l.head not in side)
            best = val if best is None or val < best else best
    return best


def enumerated_lex_min_cut(topo, caps):
    """Reference tie rule: first strict minimum over the lexicographic cut list."""
    best = best_val = None
    for cut in enumerate_od_cuts(topo):
        val = sum(caps[lid] for lid in sorted(cut.cut_links))
        if best_val is None or val < best_val:
            best, best_val = cut, val
    return best_val, best


def shuffled_labels(topo, rng):
    """The same graph with its nodes renumbered at random (the origin need not be 0)."""
    perm = [int(v) for v in rng.permutation(topo.num_nodes)]
    return NetworkTopology(topo.num_nodes, [(l.id, perm[l.tail], perm[l.head]) for l in topo.links])


class TestValidation:
    def test_parallel_links_minimal_multigraph(self):
        topo = NetworkTopology(2, [(0, 0, 1), (1, 0, 1)])
        assert validate_topology(topo).ok

    def test_cycle_detected_and_named(self):
        topo = NetworkTopology(3, [(0, 0, 1), (1, 1, 2), (2, 2, 1)])
        res = validate_topology(topo)
        assert not res.ok
        assert any("cycle" in v and "1" in v and "2" in v for v in res.violations)

    def test_node_cut_off_from_destination(self):
        # node 2 only receives; oracle: BFS from the destination over reversed links
        topo = NetworkTopology(4, [(0, 0, 1), (1, 0, 3), (2, 1, 3), (3, 0, 2)])
        reach = {3}
        changed = True
        while changed:
            changed = False
            for l in topo.links:
                if l.head in reach and l.tail not in reach:
                    reach.add(l.tail)
                    changed = True
        assert 2 not in reach
        res = validate_topology(topo)
        assert not res.ok
        assert any("2" in v and "path" in v for v in res.violations)

    def test_multiple_origins_rejected(self):
        topo = NetworkTopology(3, [(0, 0, 2), (1, 1, 2)])
        res = validate_topology(topo)
        assert not res.ok and any("origin" in v for v in res.violations)

    def test_self_loop_rejected_at_construction(self):
        with pytest.raises(TopologyError):
            NetworkTopology(2, [(0, 0, 0), (1, 0, 1)])

    def test_duplicate_link_ids_rejected(self):
        with pytest.raises(TopologyError):
            NetworkTopology(2, [(0, 0, 1), (0, 0, 1)])


class TestTopologicalOrder:
    def test_chain_is_identity(self):
        topo = NetworkTopology(3, [(0, 0, 1), (1, 1, 2)])
        assert topological_order(topo) == [0, 1, 2]

    def test_parallel_pair(self):
        topo = NetworkTopology(2, [(0, 0, 1), (1, 0, 1)])
        assert topological_order(topo) == [0, 1]

    def test_diamond_with_cross_link(self):
        # nodes S=0, A=2, B=1, T=3; A->B forces A before B
        topo = NetworkTopology(4, [(0, 0, 2), (1, 0, 1), (2, 2, 3), (3, 1, 3), (4, 2, 1)])
        order = topological_order(topo)
        assert order[0] == 0 and order[-1] == 3
        assert order.index(2) < order.index(1)

    def test_relabeling_satisfies_head_above_tail(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            topo = random_dag(rng)
            relabeled, mapping = canonical_relabel(topo)
            assert mapping[topo.origin] == 0
            assert mapping[topo.destination] == topo.num_nodes - 1
            assert sorted(mapping.values()) == list(range(topo.num_nodes))
            for l in relabeled.links:
                assert l.tail < l.head

    def test_invalid_topology_refused(self):
        topo = NetworkTopology(3, [(0, 0, 1), (1, 1, 2), (2, 2, 1)])
        with pytest.raises(TopologyError):
            topological_order(topo)


class TestCutEnumeration:
    def test_two_nodes_single_cut(self):
        topo = NetworkTopology(2, [(0, 0, 1), (1, 0, 1)])
        cuts = enumerate_od_cuts(topo)
        assert len(cuts) == 1
        assert cuts[0].origin_side == frozenset({0})
        assert cuts[0].cut_links == frozenset({0, 1})

    def test_three_node_chain_two_cuts(self):
        topo = NetworkTopology(3, [(0, 0, 1), (1, 1, 2)])
        cuts = enumerate_od_cuts(topo)
        assert [sorted(c.origin_side) for c in cuts] == [[0], [0, 1]]
        assert [sorted(c.cut_links) for c in cuts] == [[0], [1]]

    def test_diamond_four_cuts(self):
        topo = NetworkTopology(4, [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 2, 3), (4, 1, 2)])
        cuts = enumerate_od_cuts(topo)
        assert len(cuts) == 4  # 2^(n-1) with n = 3

    def test_count_and_set_equation_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            topo = random_dag(rng, max_nodes=7)
            cuts = enumerate_od_cuts(topo)
            assert len(cuts) == 2 ** (topo.num_nodes - 2)
            for cut in cuts:
                expected = {
                    l.id for l in topo.links
                    if l.tail in cut.origin_side and l.head not in cut.origin_side
                }
                assert cut.cut_links == frozenset(expected)

    def test_enumeration_limit(self):
        links = [(i, i, i + 1) for i in range(24)]
        topo = NetworkTopology(25, links)
        with pytest.raises(TopologyError):
            enumerate_od_cuts(topo)


class TestMinCutMaxFlow:
    def test_parallel_links_paper_capacities(self):
        topo = NetworkTopology(2, [(0, 0, 1), (1, 0, 1)])
        caps = {0: 0.75, 1: 0.75}
        value, cut = min_cut_capacity(topo, caps)
        assert value == pytest.approx(1.5, abs=1e-15)
        assert cut.flow_value == pytest.approx(1.5, abs=1e-15)
        assert cut.cut_links == frozenset({0, 1})

    def test_chain_bottleneck(self):
        topo = NetworkTopology(3, [(0, 0, 1), (1, 1, 2)])
        value, cut = min_cut_capacity(topo, {0: 2.0, 1: 1.0})
        assert value == 1.0
        assert cut.cut_links == frozenset({1})

    def test_diamond_against_brute_force(self):
        topo = NetworkTopology(4, [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 2, 3), (4, 1, 2)])
        caps = {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.0}
        value, cut = min_cut_capacity(topo, caps)
        assert value == brute_force_min_cut(topo, caps) == 4.0
        assert cut.origin_side == frozenset({0, 1})  # S, A
        assert sum(caps[lid] for lid in cut.cut_links) == value

    def test_duality_on_random_fraction_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            topo = random_dag(rng)
            caps = {l.id: Fraction(int(rng.integers(10, 500)), 100) for l in topo.links}
            enum_val, cut = min_cut_capacity(topo, caps)
            assert enum_val == cut.flow_value  # exact rational equality
            assert enum_val == brute_force_min_cut(topo, caps)

    def test_mincut_ties_resolved_lexicographically(self):
        # both cuts of a 2-capacity chain tie; {0} beats {0, 1}
        topo = NetworkTopology(3, [(0, 0, 1), (1, 1, 2)])
        _, cut = min_cut_capacity(topo, {0: 1.0, 1: 1.0})
        assert sorted(cut.origin_side) == [0]

    def test_nonpositive_capacity_rejected(self):
        topo = NetworkTopology(2, [(0, 0, 1), (1, 0, 1)])
        with pytest.raises(TopologyError):
            min_cut_capacity(topo, {0: 1.0, 1: 0.0})

    def test_large_graph_uses_max_flow_path(self):
        links = [(i, i, i + 1) for i in range(24)]
        links.append((24, 0, 12))
        topo = NetworkTopology(25, links)
        caps = {lid: 1.0 for lid in topo.link_ids}
        caps[24] = 0.25
        value, cut = min_cut_capacity(topo, caps)
        # bottleneck: any single chain link beyond the shortcut's head
        assert value == pytest.approx(1.0)
        covered = {l.id for l in topo.links
                   if l.tail in cut.origin_side and l.head not in cut.origin_side}
        assert cut.cut_links == frozenset(covered)

    @pytest.mark.parametrize("kind", ["integer", "fraction"])
    def test_matches_enumerated_lexicographic_minimizer(self, kind):
        # small-integer capacities force many tied minimum cuts
        rng = np.random.default_rng(31 if kind == "integer" else 37)
        for _ in range(60):
            topo = random_dag(rng, max_nodes=9)
            if rng.random() < 0.5:
                topo = shuffled_labels(topo, rng)
            if kind == "integer":
                caps = {l.id: float(rng.integers(1, 4)) for l in topo.links}
            else:
                caps = {l.id: Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 4)))
                        for l in topo.links}
            value, cut = min_cut_capacity(topo, caps)
            ref_value, ref_cut = enumerated_lex_min_cut(topo, caps)
            assert value == ref_value and type(value) is type(ref_value)
            assert cut == ref_cut

    def test_lexicographic_not_inclusion_minimal(self):
        # {0, 2} and {0, 1, 2} both cut capacity 2; (0, 1, 2) precedes (0, 2)
        topo = NetworkTopology(4, [(0, 0, 1), (1, 1, 3), (2, 0, 2), (3, 2, 3)])
        caps = {0: 1.0, 1: 1.0, 2: 10.0, 3: 1.0}
        value, cut = min_cut_capacity(topo, caps)
        assert value == 2.0
        assert cut.origin_side == frozenset({0, 1, 2})
        assert cut.cut_links == frozenset({1, 3})

    def test_lexicographic_rule_beyond_enumeration_limit(self):
        # the 4-node tie case feeding a 22-node chain of capacity-2 links:
        # {0, 2} and every {0, 1, ..., k} with k >= 2 cut capacity 2, and the
        # shortest of the prefixes, (0, 1, 2), is the lexicographic minimum
        links = [(0, 0, 1), (1, 1, 3), (2, 0, 2), (3, 2, 3)]
        links += [(v + 1, v, v + 1) for v in range(3, 24)]
        topo = NetworkTopology(25, links)
        caps = {lid: 2.0 for lid in topo.link_ids}
        caps.update({0: 1.0, 1: 1.0, 2: 10.0, 3: 1.0})
        value, cut = min_cut_capacity(topo, caps)
        assert value == 2.0
        assert cut.origin_side == frozenset({0, 1, 2})

    def test_twenty_nodes_never_enumerates(self):
        # cut enumeration lives in the tests only; the library cannot reach it
        assert not hasattr(topology, "enumerate_od_cuts")
        topo = NetworkTopology(20, [(v, v, v + 1) for v in range(19)] + [(19, 0, 10)])
        caps = {lid: 1.0 for lid in topo.link_ids}
        value, cut = min_cut_capacity(topo, caps)
        assert value == 1.0
        assert cut.origin_side == frozenset(range(11))

    def test_disagreement_with_max_flow_is_topology_error(self, monkeypatch, capsys):
        real = topology._max_flow

        def inconsistent(topo, capacities):
            value, residual, backflow = real(topo, capacities)
            return value + 1.0, residual, backflow

        monkeypatch.setattr(topology, "_max_flow", inconsistent)
        topo = NetworkTopology(3, [(0, 0, 1), (1, 1, 2)])
        with pytest.raises(TopologyError, match="disagrees with max-flow"):
            min_cut_capacity(topo, {0: 2.0, 1: 1.0})
        assert cli.main(["mincut", str(DATA / "diamond5.json")]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: min-cut capacity") and "Traceback" not in err

