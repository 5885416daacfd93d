"""Directed acyclic multigraph topologies, cuts, and min-cut capacity.

Networks have a unique origin (no incoming links), a unique destination
(no outgoing links), and every node can reach the destination.  Parallel
links are allowed and always kept as distinct link ids.

Min-cut capacity comes from one augmenting-path max-flow run: the minimum
cuts are exactly the origin sides closed in its residual network (Picard &
Queyranne 1980), and the lexicographically smallest of them is read off
that network directly, at any size.  The computation is arithmetic-agnostic,
so it runs exactly on ``fractions.Fraction`` capacities as well as on floats.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "Link",
    "NetworkTopology",
    "Cut",
    "ValidationResult",
    "TopologyError",
    "validate_topology",
    "topological_order",
    "min_cut_capacity",
]


class TopologyError(ValueError):
    """Raised when an operation is applied to an invalid topology."""


@dataclass(frozen=True)
class Link:
    """A directed link of the multigraph. Parallel links differ only by id."""

    id: int
    tail: int
    head: int


@dataclass(frozen=True)
class Cut:
    """An origin/destination cut: the origin-side node set and its crossing links.

    ``flow_value`` is the max-flow value a minimum cut was certified
    against (None for a cut built by hand); it takes no part in equality.
    """

    origin_side: frozenset
    cut_links: frozenset
    flow_value: object = field(default=None, compare=False)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple = ()


class NetworkTopology:
    """Immutable multigraph over nodes ``0..num_nodes-1``.

    Links are normalized to ascending-id order at construction; the
    per-node outgoing/incoming lists preserve that order, which fixes the
    local link ordering used everywhere else (routing simplices, density
    vectors, CSV columns).
    """

    def __init__(self, num_nodes: int, links):
        if num_nodes < 2:
            raise TopologyError("a flow network needs at least an origin and a destination")
        links = tuple(sorted((Link(*l) if isinstance(l, tuple) else l for l in links), key=lambda l: l.id))
        ids = [l.id for l in links]
        if len(set(ids)) != len(ids):
            raise TopologyError("duplicate link ids")
        for l in links:
            if not (0 <= l.tail < num_nodes and 0 <= l.head < num_nodes):
                raise TopologyError(f"link {l.id} endpoint out of range")
            if l.tail == l.head:
                raise TopologyError(f"link {l.id} is a self-loop")
        self.num_nodes = num_nodes
        self.links = links
        self._by_id = {l.id: l for l in links}
        out = {v: [] for v in range(num_nodes)}
        inc = {v: [] for v in range(num_nodes)}
        for l in links:
            out[l.tail].append(l.id)
            inc[l.head].append(l.id)
        self.outgoing = {v: tuple(out[v]) for v in range(num_nodes)}
        self.incoming = {v: tuple(inc[v]) for v in range(num_nodes)}

    def link(self, link_id: int) -> Link:
        return self._by_id[link_id]

    @property
    def link_ids(self):
        return tuple(l.id for l in self.links)

    def sources(self):
        return [v for v in range(self.num_nodes) if not self.incoming[v]]

    def sinks(self):
        return [v for v in range(self.num_nodes) if not self.outgoing[v]]

    @property
    def origin(self) -> int:
        (v,) = self.sources()
        return v

    @property
    def destination(self) -> int:
        (v,) = self.sinks()
        return v

    def __repr__(self):
        return f"NetworkTopology(num_nodes={self.num_nodes}, links={len(self.links)})"


def _reaches(topo: NetworkTopology, target: int):
    """Set of nodes with a directed path to ``target`` (reverse BFS)."""
    seen = {target}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for lid in topo.incoming[v]:
            t = topo.link(lid).tail
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def _validate(topo: NetworkTopology):
    """Violations of ``validate_topology`` and the order of its one Kahn pass.

    The pass pops the smallest ready node from a min-heap, so the nodes it
    places come in the lexicographically smallest topological order.  The
    nodes it cannot place lie on or behind a cycle and are reported as it.
    """
    indeg = {v: len(topo.incoming[v]) for v in range(topo.num_nodes)}
    heap = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for lid in topo.outgoing[v]:
            h = topo.link(lid).head
            indeg[h] -= 1
            if indeg[h] == 0:
                heapq.heappush(heap, h)
    violations = []
    acyclic = len(order) == topo.num_nodes
    if not acyclic:
        violations.append(f"cycle through nodes {sorted(set(range(topo.num_nodes)) - set(order))}")
    sources = topo.sources()
    if len(sources) != 1:
        violations.append(f"expected exactly one origin (no incoming links), found {sources}")
    sinks = topo.sinks()
    if len(sinks) != 1:
        violations.append(f"expected exactly one destination (no outgoing links), found {sinks}")
    if acyclic and sinks:
        # with several sinks, judge reachability against the best-connected one
        dest = max(sinks, key=lambda s: (len(_reaches(topo, s)), s))
        unreachable = sorted(set(range(topo.num_nodes)) - _reaches(topo, dest))
        if unreachable:
            violations.append(f"nodes {unreachable} have no path to the destination ({dest})")
    return tuple(violations), order


def validate_topology(topo: NetworkTopology) -> ValidationResult:
    """Check acyclicity, unique origin/destination, and destination reachability.

    Violations are returned as data (human-readable strings), not raised.
    """
    violations, _ = _validate(topo)
    return ValidationResult(not violations, violations)


def topological_order(topo: NetworkTopology) -> list:
    """Deterministic topological order of the nodes.

    Returns ``order`` with ``order[new_label] = old_node``; the origin maps
    to label 0, the destination to the last label, and every link points
    from a lower to a higher label.  Among all valid orders the
    lexicographically smallest (by original node index) is returned, via
    Kahn's algorithm with a min-heap.  An invalid topology raises
    ``TopologyError`` naming every violation.
    """
    violations, order = _validate(topo)
    if violations:
        raise TopologyError("; ".join(violations))
    return order


def _check_capacities(topo: NetworkTopology, capacities):
    for lid in topo.link_ids:
        if lid not in capacities:
            raise TopologyError(f"missing capacity for link {lid}")
        c = capacities[lid]
        if not (c > 0) or (isinstance(c, float) and not c < float("inf")):
            raise TopologyError(f"capacity of link {lid} must be finite and positive")


def min_cut_capacity(topo: NetworkTopology, capacities):
    """Minimum cut capacity and one minimizing cut, for a graph of any size.

    Ties are broken lexicographically: among all minimizing cuts, the one
    whose sorted origin side is the smallest tuple is returned (``(0, 1, 2)``
    precedes ``(0, 2)``).
    On float capacities, cuts whose sums tie only up to rounding follow the
    rounding of the flow rather than that of the cut sums.

    The minimizing origin sides are exactly the node sets that contain the
    origin, avoid the destination and are closed under reachability in the
    final max-flow residual network.  The smallest such set is built greedily
    over node indices: node ``x`` joins when the residual closure of the
    chosen nodes, ``x`` and the origin avoids the destination, and the scan
    stops once the chosen set is itself closed.  A closure that reaches a
    node passed over earlier contains that node's closure, which reached the
    destination, so the chosen set never needs a passed-over node.  That is
    one max-flow run plus O(n (n + m)) work.

    The returned capacity is the cut's summed link capacity (ascending link
    id).  It is certified by duality: it must agree with the max-flow value,
    since a feasible flow and a cut of equal value are both optimal, and a
    disagreement raises ``TopologyError``.  That flow value comes back as
    the cut's ``flow_value``.
    """
    topological_order(topo)
    _check_capacities(topo, capacities)
    flow_value, residual, backflow = _max_flow(topo, capacities)
    succ = {v: [] for v in range(topo.num_nodes)}
    for l in topo.links:
        if residual[l.id] > 0:
            succ[l.tail].append(l.head)
        if backflow[l.id] > 0:
            succ[l.head].append(l.tail)
    origin, dest = topo.origin, topo.destination
    chosen = set()
    for x in range(topo.num_nodes):
        closure = _closure(succ, chosen | {x, origin})
        if dest in closure:
            continue
        chosen.add(x)
        if closure == chosen:
            break
    side = frozenset(chosen)
    cut_links = frozenset(l.id for l in topo.links if l.tail in side and l.head not in side)
    value = sum(capacities[lid] for lid in sorted(cut_links))
    if not _agrees(value, flow_value):
        raise TopologyError(f"min-cut capacity ({value}) disagrees with max-flow ({flow_value})")
    return value, Cut(side, cut_links, flow_value)


def _closure(succ, nodes):
    """All nodes reachable from ``nodes`` along the successor lists ``succ``."""
    seen = set(nodes)
    stack = list(nodes)
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _agrees(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))
    return a == b


def _max_flow(topo: NetworkTopology, capacities):
    """BFS augmenting paths on the multigraph's residual network.

    Works with any ordered numeric type (float, Fraction, int).  Returns
    the flow value and the final residual state: per link id, the forward
    slack (capacity minus flow) and the backflow (the flow itself, which may
    be pushed back).
    """
    source, sink = topo.origin, topo.destination
    first = topo.link_ids[0]
    zero = capacities[first] - capacities[first]  # zero of the capacity type
    residual = {lid: capacities[lid] for lid in topo.link_ids}  # forward slack
    backflow = {lid: zero for lid in topo.link_ids}

    def bfs():
        # parent[node] = (link_id, forward?) on a shortest augmenting path
        parent = {source: None}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            if v == sink:
                break
            for lid in topo.outgoing[v]:
                h = topo.link(lid).head
                if h not in parent and residual[lid] > 0:
                    parent[h] = (lid, True)
                    queue.append(h)
            for lid in topo.incoming[v]:
                t = topo.link(lid).tail
                if t not in parent and backflow[lid] > 0:
                    parent[t] = (lid, False)
                    queue.append(t)
        return parent

    total = zero
    while True:
        parent = bfs()
        if sink not in parent:
            return total, residual, backflow
        # walk back from the sink collecting the path and its bottleneck
        path = []
        v = sink
        while v != source:
            lid, forward = parent[v]
            path.append((lid, forward))
            v = topo.link(lid).tail if forward else topo.link(lid).head
        bottleneck = min(residual[lid] if fwd else backflow[lid] for lid, fwd in path)
        for lid, fwd in path:
            if fwd:
                residual[lid] -= bottleneck
                backflow[lid] += bottleneck
            else:
                residual[lid] += bottleneck
                backflow[lid] -= bottleneck
        total = total + bottleneck
