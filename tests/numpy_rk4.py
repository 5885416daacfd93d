"""The numpy RK4 kernel that ``_rk4.c`` replaced, kept as the reference its bits are checked against.

Not collected by pytest (no ``test_`` prefix).  ``numpy_rhs(compiled,
policy, inflow, n_members)`` is the right-hand side that ``_Compiled._rhs``
built, with ``self`` a ``dynamics._Compiled`` of the same members, and
``numpy_integrate(numpy_rhs(...), rho0, dt, horizon, ...)`` the Python step
loop that was ``dynamics._integrate``, both as they were: every kernel
record, undershoot and error text must equal theirs.
"""

import numpy as np

from flownet.dynamics import (DENSITY_CEILING, SimulationError, _record_count, _record_step,
                              _time_grid)


def numpy_rhs(self, policy, inflow, n_members):
    """``rhs(t, rho)``, built once with every array it reads bound as a local.

    Each link's routed inflow is its tail node's, gathered by one
    matrix-vector product per member: row e of ``tail_head`` is node
    tail(e)'s row of the head incidence, so link e sums that node's
    in-links in a per-node product's order, which the pinned outputs
    depend on.  The origin's links, one contiguous range, take the
    network inflow.  The logit softmax is one segmented reduction over
    all B*m densities (group starts offset per member).  It takes the
    densities below zero that an RK4 stage may reach before the step
    clamps them, as the exponential flows do.

    Only the returned derivative is fresh.  Every call overwrites two
    buffers bound here: the links' flows and the routed inflows, (B, m,
    1), written through a flat view and a view of the origin's range
    that are bound here too.  The IEEE operations are those of the
    same steps on fresh arrays, in the same order.
    """
    m = len(self.links)
    tails = np.array([l.tail for l in self.links])
    incidence = np.zeros((self.n_nodes, m))  # [v, j]: link j enters node v
    incidence[self.heads, np.arange(m)] = 1.0
    tail_head = incidence[tails]
    starts = [0] + [i for i in range(1, m) if tails[i] != tails[i - 1]]
    origin = next(slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [m])
                  if tails[lo] == self.origin)
    columns, timed = (n_members, m, 1), callable(inflow)
    neg_rate, neg_f_max = self.neg_rate[0], self.neg_f_max[0]
    flow_buf = np.empty(n_members * m)
    flow_col = flow_buf.reshape(columns)
    lam = np.empty(columns)
    lam_flat, lam_origin = lam.reshape(-1), lam[:, origin]
    offsets = np.arange(n_members)[:, None]  # per member, over the flat state
    group_starts = (np.array(starts) + m * offsets).ravel()
    group_of_link = (np.repeat(np.arange(len(starts)), np.diff(starts + [m]))
                     + len(starts) * offsets).ravel()
    a_pol = np.tile([policy.weights[l.id] for l in self.links], n_members)
    neg_eta = -np.tile([policy.eta[l.tail] for l in self.links], n_members)
    multiply, expm1, matmul, exp = np.multiply, np.expm1, np.matmul, np.exp
    max_at, add_at = np.maximum.reduceat, np.add.reduceat

    def rhs(t, rho):
        f = multiply(neg_rate, rho, flow_buf)
        expm1(f, f)
        f *= neg_f_max
        matmul(tail_head, flow_col, lam)
        lam_origin.fill(inflow(t) if timed else inflow)
        g = multiply(neg_eta, rho)
        g -= max_at(g, group_starts).take(group_of_link)
        exp(g, g)
        g *= a_pol
        g /= add_at(g, group_starts).take(group_of_link)
        g *= lam_flat
        g -= f
        return g

    return rhs


def numpy_integrate(deriv, rho0: np.ndarray, dt: float, horizon: float, record_stride: int = 1,
                    first_record: int = 0, block_records: int | None = None):
    """Classical fixed-step RK4 on the (B, m) densities of B members.

    ``deriv(t, rho)`` (a run's ``_Compiled.rhs``) maps the flat state to d
    rho / dt as a fresh array.  A step takes the IEEE operations of ``rho +
    sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)`` and of its stages ``rho +
    half * k`` in their order, only commutative operands swapped, in the
    buffers ``deriv`` returned (the new state in k2's) and one stage buffer
    that the run allocates once and every stage overwrites, then clamps
    densities at zero and checks ``DENSITY_CEILING``.  The step is shrunk
    to land on the horizon (``_time_grid``).  Yields the records (step 0,
    every ``record_stride``-th and the last) from index ``first_record`` on
    as ``(times, states, undershoot)`` blocks of at most ``block_records``
    records (default: one block), ``states`` of shape (records, B, m) and
    ``undershoot`` each member's worst clamp so far.  A block's buffers are
    allocated before the steps that fill them, which write into them.  An
    unstable step overflows before its ``SimulationError``: a block's steps
    run with numpy's overflow and invalid warnings off, left before its yield.
    """
    n_steps, dt = _time_grid(horizon, dt)
    shape = np.shape(rho0)
    members = shape[:1] + (-1,)
    rho = np.array(rho0, dtype=float).reshape(-1)
    undershoot = np.zeros(shape[0])
    end = _record_count(n_steps, record_stride)
    size = end - first_record if block_records is None else min(block_records, end - first_record)
    half, sixth = 0.5 * dt, dt / 6.0
    # 0-d arrays: an array times a Python float pays for converting the float on every call
    half_, dt_, sixth_, two = (np.array(x) for x in (half, dt, sixth, 2.0))
    lowest, highest, ceiling = np.minimum.reduce, np.maximum.reduce, DENSITY_CEILING
    multiply, s = np.multiply, np.empty_like(rho)  # s: the stage state, rewritten by every stage
    t, step = 0.0, 0
    for lo in range(first_record, end, size):
        rows = min(size, end - lo)
        try:
            times = np.empty(rows)
            states = np.empty((rows, rho.size))
        except (MemoryError, ValueError) as exc:
            raise SimulationError(f"{rows} recorded states do not fit in memory; raise dt "
                                  "or record_stride, or shorten the horizon") from exc
        with np.errstate(over="ignore", invalid="ignore"):  # left before the yield
            for i in range(rows):
                target = _record_step(lo + i, n_steps, record_stride)
                while step < target:
                    step += 1
                    k1 = deriv(t, rho)
                    multiply(k1, half_, s)
                    s += rho
                    k2 = deriv(t + half, s)
                    multiply(k2, half_, s)
                    s += rho
                    k3 = deriv(t + half, s)
                    multiply(k3, dt_, s)
                    s += rho
                    k4 = deriv(t + dt, s)
                    k2 *= two
                    k2 += k1
                    k3 *= two
                    k2 += k3
                    k2 += k4
                    k2 *= sixth_
                    k2 += rho
                    rho = k2
                    # a NaN anywhere makes the minimum NaN: clamp every member then too
                    if not lowest(rho) >= 0.0:
                        np.maximum(undershoot, -lowest(rho.reshape(members), axis=-1),
                                   out=undershoot)
                        np.maximum(rho, 0.0, out=rho)
                    t = step * dt
                    if not highest(rho) <= ceiling:  # also catches NaN
                        state = rho.reshape(members)
                        bad = state[np.argmin(state.max(axis=-1) <= ceiling)]
                        raise SimulationError(f"integration unstable at t={t:.6g} (state={bad}); "
                                              "reduce dt or the horizon")
                times[i] = t
                states[i] = rho
        yield times, states.reshape((rows,) + shape), undershoot.copy()
