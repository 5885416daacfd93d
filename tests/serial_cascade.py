"""A node-by-node limit-flow cascade: the exact reference for ``network_limit_flows``.

``serial_limit_flows`` visits the nodes one at a time in ``topological_order``
and solves each with one public ``local_limit_flow`` call on the points still
in the cascade.  A node's inflow is its in-links' flows summed from 0.0 in
the order the cascade reaches them, and a point whose split fails at a node
drops out of every later node, reporting that node's error.
"""

import numpy as np

from flownet import LimitFlows, local_limit_flow
from flownet.topology import topological_order


def serial_limit_flows(network, policy, inflows) -> LimitFlows:
    """Row p: the limit flow at ``inflows[p]``; ``errors[p]`` is the
    ``LocalSolverError`` of the first node in ``topological_order`` whose
    split fails there, or None."""
    topo = network.topology
    lams = np.asarray(inflows, dtype=float).reshape(-1)
    col = {lid: j for j, lid in enumerate(topo.link_ids)}
    node_in = np.zeros((lams.size, topo.num_nodes))
    node_in[:, topo.origin] = lams
    flows = np.full((lams.size, len(col)), np.nan)
    saturated = np.zeros((lams.size, len(col)), dtype=bool)
    errors = [None] * lams.size
    live = np.arange(lams.size)
    for v in topological_order(topo):
        out = topo.outgoing[v]
        if not out or not live.size:
            continue
        f, sat, errs = local_limit_flow(network, policy, v, node_in[live, v])
        for j, lid in enumerate(out):
            flows[live, col[lid]] = f[:, j]
            saturated[live, col[lid]] = sat
            node_in[live, topo.link(lid).head] += f[:, j]
        failed = [i for i, err in enumerate(errs) if err is not None]
        for i in failed:
            errors[live[i]] = errs[i]
        live = np.delete(live, failed)
    return LimitFlows(link_ids=topo.link_ids, flows=flows, saturated=saturated,
                      node_inflows=node_in, errors=tuple(errors))
