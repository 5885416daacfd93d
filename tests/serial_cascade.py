"""A node-by-node limit-flow cascade: the exact reference for ``network_limit_flows``.

``serial_limit_flows`` visits the nodes one at a time in ``topological_order``
and solves each with one public ``local_limit_flow`` call on the points still
in the cascade.  A node's inflow is its in-links' flows summed from 0.0 in
the order the cascade reaches them, and a point whose split fails at a node
drops out of every later node, reporting that node's error.
"""

import numpy as np

from flownet import LimitFlow, local_limit_flow
from flownet.topology import topological_order


def serial_limit_flows(network, policy, inflows) -> list:
    """Entry p: the ``LimitFlow`` at ``inflows[p]``, or the ``LocalSolverError``
    of the first node in ``topological_order`` whose split fails there."""
    topo = network.topology
    lams = np.asarray(inflows, dtype=float).reshape(-1)
    node_in = np.zeros((topo.num_nodes, lams.size))
    node_in[topo.origin] = lams
    flows, saturated = {}, {}
    errors = [None] * lams.size
    live = np.arange(lams.size)
    for v in topological_order(topo):
        out = topo.outgoing[v]
        if not out or not live.size:
            continue
        f, sat, errs = local_limit_flow(network, policy, v, node_in[v, live])
        for j, lid in enumerate(out):
            flows.setdefault(lid, np.full(lams.size, np.nan))[live] = f[:, j]
            saturated.setdefault(lid, np.zeros(lams.size, dtype=bool))[live] = sat
            node_in[topo.link(lid).head, live] += f[:, j]
        failed = [i for i, err in enumerate(errs) if err is not None]
        for i in failed:
            errors[live[i]] = errs[i]
        live = np.delete(live, failed)
    return [err if err is not None else
            LimitFlow(flows={lid: float(col[p]) for lid, col in flows.items()},
                      saturated={lid: bool(col[p]) for lid, col in saturated.items()},
                      node_inflows={v: float(x) for v, x in enumerate(node_in[:, p])})
            for p, err in enumerate(errors)]
