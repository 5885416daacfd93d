"""Exhaustive cut enumeration and canonical relabelling: exact references for tests.

``min_cut_capacity`` reads its cut off one max-flow residual network; the
tests compare it against every origin/destination cut listed here.
"""

from itertools import combinations

from flownet.topology import Cut, Link, NetworkTopology, TopologyError, topological_order

DEFAULT_ENUMERATION_LIMIT = 20


def canonical_relabel(topo: NetworkTopology):
    """Relabel nodes along ``topological_order``.

    Returns ``(new_topo, mapping)`` where ``mapping[old_node] = new_label``.
    Link ids are preserved.
    """
    order = topological_order(topo)
    mapping = {old: new for new, old in enumerate(order)}
    links = [Link(l.id, mapping[l.tail], mapping[l.head]) for l in topo.links]
    return NetworkTopology(topo.num_nodes, links), mapping


def enumerate_od_cuts(topo: NetworkTopology, limit: int = DEFAULT_ENUMERATION_LIMIT):
    """All 2^(n-1) origin/destination cuts, n+1 being the node count.

    Refuses graphs larger than ``limit`` nodes (the count is exponential).
    Cuts are listed with origin sides in lexicographic order.
    """
    topological_order(topo)
    if topo.num_nodes > limit:
        raise TopologyError(
            f"{topo.num_nodes} nodes exceeds the cut-enumeration limit of {limit}"
        )
    origin, dest = topo.origin, topo.destination
    middle = sorted(set(range(topo.num_nodes)) - {origin, dest})
    cuts = []
    for r in range(len(middle) + 1):
        for extra in combinations(middle, r):
            side = frozenset((origin,) + extra)
            cut_links = frozenset(
                l.id for l in topo.links if l.tail in side and l.head not in side
            )
            cuts.append(Cut(side, cut_links))
    cuts.sort(key=lambda c: tuple(sorted(c.origin_side)))
    return cuts
