"""Network density dynamics, trajectories, and limit flows.

Each link's density evolves as routed inflow minus density-dependent
outflow: for a link e out of node v,

    d rho_e / dt = lambda_v(t) * G_v_e(rho_v(t)) - mu_e(rho_e(t)),

where lambda_v is the constant network inflow at the origin and the sum of
incoming link flows elsewhere.  Trajectories are integrated with a
fixed-step classical Runge-Kutta scheme in a compiled kernel (``_rk4.c``),
which keeps runs reproducible bit-for-bit for a given (scenario, dt).

The asymptotic flow is also computed directly: each node's stationary
split solves ``lambda * G(mu^-1(f)) = f`` (or pins every outgoing link at
capacity once ``lambda`` reaches the node's total outgoing capacity), and
cascading these local solutions through the acyclic order yields the
network limit flow.  The cascade is the fast oracle the simulations are
checked against.
"""

from __future__ import annotations

import bisect
import ctypes
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _rk4
from .flows import FlowNetwork
from .routing import LogitPolicy, _logit_jacobian, _logit_split
from .topology import NetworkTopology, topological_order

__all__ = [
    "SimulationConfig",
    "Trajectory",
    "LocalTrajectory",
    "TransferEstimate",
    "LimitFlow",
    "LimitFlows",
    "ConvergenceReport",
    "SimulationError",
    "LocalSolverError",
    "simulate",
    "simulate_ensemble",
    "simulate_local",
    "alpha_transfer_estimate",
    "local_limit_flow",
    "network_limit_flow",
    "network_limit_flows",
    "convergence_check",
    "limit_flow_estimate",
    "default_dt",
]


class SimulationError(RuntimeError):
    """Integration blew up (NaN/Inf, a density past the ceiling) or needs too many steps."""


class LocalSolverError(RuntimeError):
    """Stationary-split iteration failed to converge; carries the best residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# A run aborts once a density passes DENSITY_CEILING (an overloaded network
# grows without bound) or before it takes more than MAX_STEPS RK4 steps; a
# link is saturated once its terminal flow reaches SAT_THRESHOLD of capacity,
# and a transfer verdict reads the trailing TAIL_FRACTION of a run's horizon.
# A run whose RK4 steps clamped a density from more than UNDERSHOOT_TOL below
# zero integrated another system than the dynamics: its verdict is inconclusive.
DENSITY_CEILING = 1e9
MAX_STEPS = 10**7
SAT_THRESHOLD = 0.999
TAIL_FRACTION = 0.2
UNDERSHOOT_TOL = 1e-9
# Records per block of a run read in blocks: a streamed trajectory or a verdict's tail.
_BLOCK_RECORDS = 1024


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for a single integration run.

    ``dt=None`` picks 0.01 over the fastest link relaxation rate (the
    flow-function derivative at zero density).  A run longer than
    ``MAX_STEPS`` steps, or whose densities pass ``DENSITY_CEILING``, raises
    ``SimulationError``; a transfer verdict compares the outflow over the
    trailing ``TAIL_FRACTION`` of the horizon with ``alpha * inflow - 1e-3 * inflow``.
    """

    inflow: float
    dt: float | None = None
    horizon: float = 200.0
    record_stride: int = 1

    def __post_init__(self):
        for name in ("inflow", "dt", "horizon"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.inflow < 0:
            raise ValueError("inflow must be nonnegative")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        stride = self.record_stride
        if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
            raise ValueError(f"record_stride must be an integer >= 1, got {stride!r}")


def default_dt(network: FlowNetwork) -> float:
    """0.01 over the fastest local relaxation rate among the links (inf if all are 0)."""
    fastest = max(ff.rate_scale() for ff in network.flow_functions.values())
    return 0.01 / fastest if fastest > 0 else math.inf


def _scalings(scalings, shape) -> np.ndarray:
    """The capacity factors ``scalings`` (all 1.0 when None), checked to be ``shape``."""
    eps = np.ones(shape) if scalings is None else np.asarray(scalings, dtype=float)
    if eps.shape != shape:
        raise ValueError(f"scalings must have shape {shape} (rows, links), got {eps.shape}")
    outside = ~((eps > 0) & (eps <= 1))  # NaN included
    if outside.any():
        raise ValueError(f"scaling factor must be in (0, 1], got {eps[outside][0]}")
    return eps


class _Compiled:
    """Link arrays grouped by tail node, and the compiled RK4 kernel built on them.

    Internally links are ordered by (tail, id) so per-node reductions are
    contiguous; ``arr_sorted[to_topo]`` converts back to the topology's
    id order and ``arr_topo[to_sorted]`` the other way.

    One instance serves B members of one network of exponential links
    under one logit policy, fed at the origin by ``inflow``, a constant or
    a function of time; member b's capacities are scaled by row b of the
    checked (B, m) ``scalings`` as ``scale_perturbation`` scales them.
    The links' exponential parameters are built once, as two (1, B*m) rows
    ``neg_rate`` and ``neg_f_max`` that the kernel and ``flows`` read.

    The kernel (``_rk4.c``, loaded by the first instance of a process)
    keeps its link flows, routed inflows and RK4 stages in buffers of this
    instance, overwritten by every call, so an instance is not reentrant:
    one run (one ``_integrate``) uses it at a time.  Every run builds its own.
    """

    def __init__(self, network: FlowNetwork, policy: LogitPolicy, inflow, scalings):
        topo = network.topology
        links = topo.links
        order = sorted(range(len(links)), key=lambda i: (links[i].tail, links[i].id))
        self.to_sorted = np.array(order)
        self.to_topo = np.argsort(order)
        self.links = [links[i] for i in order]
        self.heads = np.array([l.head for l in self.links])
        self.origin = topo.origin
        self.destination = topo.destination
        self.n_nodes = topo.num_nodes
        self.link_ids = topo.link_ids
        f_max, neg_rate = _exponential_params([network.flow_functions[l.id] for l in self.links])
        self.neg_rate = np.tile(neg_rate, (1, len(scalings)))
        self.neg_f_max = -(scalings[:, self.to_sorted] * f_max).reshape(1, -1)
        self.inflow = inflow
        self._build_kernel(policy, len(scalings))

    def _build_kernel(self, policy, n_members):
        """Fill ``self._kernel``, the ``_rk4.Kernel`` of this instance, and keep every
        array it points to alive as an attribute; ``shape`` is (B, m).

        Each link's routed inflow is its tail node's, gathered by one BLAS
        matrix-vector product per member: row e of ``tail_head`` is node
        tail(e)'s row of the head incidence, so link e sums that node's
        in-links in a per-node product's order, which the pinned outputs
        depend on.  The origin's links, one contiguous range, take the
        network inflow.  The logit split's groups are each member's nodes'
        out-links, offset per member over the flat state.
        """
        lib, numpy_code = _rk4.library()
        m = len(self.links)
        tails = np.array([l.tail for l in self.links])
        incidence = np.zeros((self.n_nodes, m))  # [v, j]: link j enters node v
        incidence[self.heads, np.arange(m)] = 1.0
        starts = [0] + [i for i in range(1, m) if tails[i] != tails[i - 1]]
        origin = next((lo, hi) for lo, hi in zip(starts, starts[1:] + [m])
                      if tails[lo] == self.origin)
        offsets = np.arange(n_members)[:, None]  # per member, over the flat state
        self._arrays = arrays = dict(
            group_start=np.append((np.array(starts) + m * offsets).ravel(), n_members * m),
            neg_rate=self.neg_rate[0], neg_f_max=self.neg_f_max[0],
            neg_eta=-np.tile([policy.eta[l.tail] for l in self.links], n_members),
            weight=np.tile([policy.weights[l.id] for l in self.links], n_members),
            tail_head=np.ascontiguousarray(incidence[tails]),
            **{name: np.zeros(n_members * m)
               for name in ("flow", "inflow", "k1", "k2", "k3", "k4", "stage")})
        self._lib, self.shape = lib, (n_members, m)
        self._kernel = _rk4.Kernel(members=n_members, links=m, groups=n_members * len(starts),
                                  origin_lo=origin[0], origin_hi=origin[1],
                                  **{name: a.ctypes.data for name, a in arrays.items()},
                                  **numpy_code)

    def flows(self, rho: np.ndarray, member: int | None = None) -> np.ndarray:
        """Link flows of (P, B*m) densities or, with ``member``, of that member's (P, m)
        from its column slice of the rows, as a fresh array: bit-for-bit each
        ``ExponentialFlow.__call__`` (negation is exact, IEEE products sign-symmetric)."""
        m = len(self.links)
        cols = slice(None) if member is None else slice(member * m, (member + 1) * m)
        return _exponential_flows(self.neg_rate[:, cols], self.neg_f_max[:, cols], rho)

    def rhs(self, t, rho) -> np.ndarray:
        """d rho / dt at time t and the flat state of all B*m densities, member
        after member, as a fresh array: one evaluation of the kernel's right-hand side."""
        rho = np.ascontiguousarray(rho, dtype=float)
        if rho.shape != (self.shape[0] * self.shape[1],):
            raise ValueError(f"rho must be a flat state of {self.shape} densities, got {rho.shape}")
        out = np.empty(rho.size)
        inflow = self.inflow(t) if callable(self.inflow) else self.inflow
        self._lib.flownet_rk4_rhs(ctypes.byref(self._kernel), float(inflow), rho.ctypes.data,
                                  out.ctypes.data)
        return out

    def steps(self, rho, undershoot, times, states, first, n_steps, stride, dt, step):
        """Integrate records ``first`` to ``first + len(times) - 1`` into ``times`` and
        the rows of ``states`` in one kernel call, from ``step`` steps taken with
        state ``rho``; a time-varying inflow is tabled first at each step's
        three stage times.

        ``rho`` and ``undershoot`` are updated in place.  Returns the steps
        taken, or raises ``SimulationError`` at a step past ``DENSITY_CEILING``.
        """
        at, table = np.array([step], dtype=np.int64), None
        if callable(self.inflow):
            half, last = 0.5 * dt, _record_step(first + len(times) - 1, n_steps, stride)
            table = np.array([[self.inflow(t), self.inflow(t + half), self.inflow(t + dt)]
                              for t in (s * dt for s in range(step, last))], dtype=float)
        failed = self._lib.flownet_rk4_block(
            ctypes.byref(self._kernel), rho.ctypes.data, undershoot.ctypes.data,
            times.ctypes.data, states.ctypes.data, first, len(times), n_steps, stride, dt,
            at.ctypes.data, None if table is None else table.ctypes.data,
            0.0 if table is not None else float(self.inflow), DENSITY_CEILING)
        if failed:
            t = int(at[0]) * dt
            with np.errstate(over="ignore", invalid="ignore"):
                state = rho.reshape(len(undershoot), -1)
                bad = state[np.argmin(state.max(axis=-1) <= DENSITY_CEILING)]
                raise SimulationError(f"integration unstable at t={t:.6g} (state={bad}); "
                                      "reduce dt or the horizon")
        return int(at[0])

    def outflow(self, states: np.ndarray) -> np.ndarray:
        """Destination inflow of (records, B, m) densities, of shape (records, B).

        The stacked flow map runs on all members at once; the links into
        the destination are then summed from 0.0 in the kernel's link order,
        the sum ``_member_trajectories`` takes for ``node_inflows``, so
        every entry is bit-for-bit that member's trajectory's outflow.
        """
        flows = self.flows(states.reshape(len(states), -1)).reshape(states.shape)
        out = np.zeros(states.shape[:-1])
        for j in np.flatnonzero(self.heads == self.destination):
            out += flows[..., j]
        return out


@dataclass
class Trajectory:
    """Recorded integration output, all arrays in ``topology.links`` order.

    ``node_inflows[:, v]`` is the total inflow at node v: the constant
    network inflow at the origin, the sum of incoming link flows elsewhere
    (for the destination that is the network outflow).
    """

    times: np.ndarray
    rho: np.ndarray
    flows: np.ndarray
    node_inflows: np.ndarray
    link_ids: tuple
    inflow: float
    dt: float
    destination: int
    max_undershoot: float = 0.0

    @property
    def outflow(self) -> np.ndarray:
        return self.node_inflows[:, self.destination]

    def terminal_flow(self) -> np.ndarray:
        return self.flows[-1]

    def tail_slice(self) -> slice:
        """Records in the trailing ``TAIL_FRACTION`` of run time: all of a kept tail."""
        t0 = _tail_t0(self.times[-1])
        return slice(int(np.searchsorted(self.times, t0)), len(self.times))


def _tail_t0(t_last):
    """Start of the trailing ``TAIL_FRACTION`` of [0, t_last]."""
    return t_last - TAIL_FRACTION * t_last


@dataclass
class LocalTrajectory:
    times: np.ndarray
    rho: np.ndarray
    flows: np.ndarray
    max_undershoot: float = 0.0


def _step_count(horizon: float, dt: float) -> int:
    steps = horizon / dt if dt > 0 else math.inf
    if not math.isfinite(steps):
        raise SimulationError(f"time step {dt!r} is too small for horizon {horizon!r}")
    n_steps = max(1, math.ceil(steps - 1e-12))
    if n_steps > MAX_STEPS:
        raise SimulationError(f"time step {dt!r} over horizon {horizon!r} takes {n_steps} "
                              f"steps, more than {MAX_STEPS}; raise dt or shorten the horizon")
    return n_steps


def _time_grid(horizon: float, dt: float):
    """``(n_steps, dt)`` of a run: the step shrunk to land exactly on the horizon."""
    n_steps = _step_count(horizon, dt)
    return n_steps, horizon / n_steps


def _record_count(n_steps: int, record_stride: int) -> int:
    """States kept: the start, every ``record_stride``-th step and the last."""
    return 1 + n_steps // record_stride + (n_steps % record_stride != 0)


def _record_step(record: int, n_steps: int, record_stride: int) -> int:
    """The step whose state is record ``record`` of a run."""
    return min(record * record_stride, n_steps)


def _tail_start(n_steps: int, dt: float, record_stride: int) -> int:
    """First record in the trailing ``TAIL_FRACTION`` of a run's horizon.

    This is the start of ``Trajectory.tail_slice()`` on the full record,
    known before integrating: record r lies at ``step * dt`` as
    ``_integrate`` computes it.
    """
    def time(record):
        return _record_step(record, n_steps, record_stride) * dt

    n_records = _record_count(n_steps, record_stride)
    t0 = _tail_t0(time(n_records - 1))
    return bisect.bisect_left(range(n_records), t0, key=time)


def _integrate(kernel: _Compiled, rho0: np.ndarray, dt: float, horizon: float,
               record_stride: int = 1, first_record: int = 0, block_records: int | None = None):
    """Classical fixed-step RK4 on the (B, m) densities of B members, in ``kernel``.

    A step takes the IEEE operations of ``rho + sixth * (k1 + 2.0 * k2 +
    2.0 * k3 + k4)`` and of its stages ``rho + half * k`` in their order,
    only commutative operands swapped, then clamps densities at zero and
    checks ``DENSITY_CEILING``; a density past it, or NaN, raises
    ``SimulationError``.  The step is shrunk to land on the horizon
    (``_time_grid``).  Yields the records (step 0, every
    ``record_stride``-th and the last) from index ``first_record`` on as
    ``(times, states, undershoot)`` blocks of at most ``block_records``
    records (default: one block), ``states`` of shape (records, B, m) and
    ``undershoot`` each member's worst clamp so far.  A block's buffers
    are allocated before the one kernel call (``_Compiled.steps``) that
    fills them.
    """
    n_steps, dt = _time_grid(horizon, dt)
    shape = np.shape(rho0)
    if shape != kernel.shape:
        raise ValueError(f"rho0 must have the kernel's shape {kernel.shape}, got {shape}")
    rho = np.array(rho0, dtype=float).reshape(-1)
    undershoot = np.zeros(shape[0])
    end = _record_count(n_steps, record_stride)
    size = end - first_record if block_records is None else min(block_records, end - first_record)
    step = 0
    for lo in range(first_record, end, size):
        rows = min(size, end - lo)
        try:
            times = np.empty(rows)
            states = np.empty((rows, rho.size))
        except (MemoryError, ValueError) as exc:
            raise SimulationError(f"{rows} recorded states do not fit in memory; raise dt "
                                  "or record_stride, or shorten the horizon") from exc
        step = kernel.steps(rho, undershoot, times, states, lo, n_steps, record_stride, dt, step)
        yield times, states.reshape((rows,) + shape), undershoot.copy()


def _start_state(rho0, m: int) -> np.ndarray:
    """A member's start densities: ``m`` finite, nonnegative entries at most
    ``DENSITY_CEILING`` (zeros for None)."""
    rho0 = np.zeros(m) if rho0 is None else np.asarray(rho0, dtype=float)
    if rho0.shape != (m,):
        raise ValueError(f"rho0 must have one entry per link ({m})")
    if not (np.isfinite(rho0) & (rho0 >= 0)).all():
        raise ValueError("initial densities must be finite and nonnegative")
    if not (rho0 <= DENSITY_CEILING).all():
        raise ValueError("initial densities must be at most the density ceiling "
                         f"{DENSITY_CEILING:g}")
    return rho0


def simulate(network: FlowNetwork, policy: LogitPolicy, config: SimulationConfig,
             rho0=None) -> Trajectory:
    """Integrate the network dynamics over [0, horizon].

    A perturbed run is this same operation on the perturbed network (the
    policy never changes; routers only see densities).  This is the
    one-member case of ``simulate_ensemble``, on the same flat kernel.
    """
    return simulate_ensemble(network, policy, config, [rho0])[0]


def simulate_ensemble(network: FlowNetwork, policy: LogitPolicy, config: SimulationConfig,
                      rho0s=None, scalings=None) -> list:
    """Integrate capacity-scaled copies of one network under one policy, in lockstep.

    Member b runs ``network`` scaled by row b of ``scalings``, (B, m)
    capacity factors as ``network_limit_flows`` takes them, from
    ``rho0s[b]`` (zeros where ``rho0s`` or its entry is None); all members
    share ``config`` and hence one time grid.  Each returned
    ``Trajectory`` is bit-for-bit ``simulate`` on that member's perturbed
    network alone.  A member that blows up raises ``SimulationError`` for
    the whole ensemble.  Every state of every member is integrated into
    one block, and the trajectories are built from it one member at a time.
    """
    compiled, dt, _, blocks = _ensemble_blocks(network, policy, config, rho0s, scalings)
    if not compiled.neg_rate.size:  # no members
        return []
    return list(_member_trajectories(compiled, next(blocks), config.inflow, dt))


def _ensemble_blocks(network: FlowNetwork, policy: LogitPolicy, config: SimulationConfig,
                     rho0s, scalings=None, records: str = "all"):
    """Check an ensemble run once, before any step, and return its kernel and record blocks.

    Every constant-inflow run is integrated here, a single run as an
    ensemble of one.  The members are ``rho0s``' entries, else ``scalings``'
    rows, else one.  The checks: the topology is acyclic, each member has
    finite, nonnegative start densities (zeros where ``rho0s`` or its entry
    is None), ``_scalings``, and the run fits ``MAX_STEPS``; an unset time
    step is ``default_dt(network)``, as no scaling speeds a link up.
    ``records`` picks the records integrated and their blocks:

    - ``"all"``: every record, in one block;
    - ``"stream"``: every record, in blocks of ``_BLOCK_RECORDS``;
    - ``"tail"``: the records of the trailing ``TAIL_FRACTION`` of the
      horizon, in blocks of ``_BLOCK_RECORDS``;
    - ``"last"``: the last state only.

    Every kept record is bit-for-bit that of the full run.  Returns
    ``(compiled, dt, tail_start, blocks)``: the members' kernel, the run's
    step shrunk to land on the horizon, the first record of the
    ``TAIL_FRACTION`` window in the full run (``_tail_start``), and
    ``_integrate``'s ``(times, states, undershoot)`` blocks, ``states`` of
    shape (records, B, m) with links in the kernel's order.
    """
    topo = network.topology
    topological_order(topo)
    if rho0s is None:
        rho0s = [None] * (1 if scalings is None else len(scalings))
    rho0s = [_start_state(r, len(topo.links)) for r in rho0s]
    eps = _scalings(scalings, (len(rho0s), len(topo.links)))
    dt = default_dt(network) if config.dt is None else config.dt
    n_steps, dt_run = _time_grid(config.horizon, dt)
    tail_start = _tail_start(n_steps, dt_run, config.record_stride)
    last = _record_count(n_steps, config.record_stride) - 1
    first, block_records = {"all": (0, None), "stream": (0, _BLOCK_RECORDS),
                            "tail": (tail_start, _BLOCK_RECORDS), "last": (last, None)}[records]
    compiled = _Compiled(network, policy, config.inflow, eps)
    blocks = _integrate(compiled, np.reshape(rho0s, eps.shape)[:, compiled.to_sorted], dt,
                        config.horizon, config.record_stride, first, block_records)
    return compiled, dt_run, tail_start, blocks


def _member_trajectories(compiled: _Compiled, block, inflow: float, dt: float):
    """Each member's ``Trajectory`` over one ``_integrate`` block, in member order.

    A member's flows come from its own densities, and its node inflows are
    its flows summed per column from 0.0 in the kernel's link order, as
    the pinned outputs were, so a block of rows gets the bits of the whole
    run.  A block's ``max_undershoot`` is the run's worst up to its last
    record.  One member's trajectory is built at a time.
    """
    times, states, undershoot = block
    for b in range(states.shape[1]):
        flows_sorted = compiled.flows(states[:, b], b)
        lam = np.zeros((len(times), compiled.n_nodes))
        for j, head in enumerate(compiled.heads):
            lam[:, head] += flows_sorted[:, j]
        lam[:, compiled.origin] = inflow
        yield Trajectory(
            times=times.copy(),
            rho=states[:, b][:, compiled.to_topo],
            flows=flows_sorted[:, compiled.to_topo],
            node_inflows=lam,
            link_ids=compiled.link_ids,
            inflow=inflow,
            dt=dt,
            destination=compiled.destination,
            max_undershoot=float(undershoot[b]),
        )


def simulate_local(network: FlowNetwork, policy: LogitPolicy, v: int, inflow_fn, rho0,
                   dt: float, horizon: float) -> LocalTrajectory:
    """Node v's local dynamics driven by a (possibly time-varying) input.

    Node v's out-links, in id order, become the parallel links of a
    two-node network with v's flow functions, routed by a ``LogitPolicy``
    with v's ``eta`` and weights; the network kernel integrates it as an
    ensemble of one with ``inflow_fn(t)`` in place of the constant inflow.
    ``rho0`` and the returned densities and flows follow the out-links'
    order.  The start densities are checked as every run's are
    (``_start_state``), before any step.  ``inflow_fn`` is evaluated at the
    Runge-Kutta stage times (each step's start, midpoint and end, tabled
    before the kernel takes the run's steps), so it should be continuous.
    """
    out = policy.outgoing_links(v)
    topo = NetworkTopology(2, [(i, 0, 1) for i in range(len(out))])
    rho0 = _start_state(rho0, len(out))
    local = LogitPolicy(topo, eta={0: policy.eta[v]},
                        weights={i: policy.weights[lid] for i, lid in enumerate(out)})
    # every link leaves node 0 in id order, so the kernel's order is the out-links'
    fns = {i: network.flow_functions[lid] for i, lid in enumerate(out)}
    compiled = _Compiled(FlowNetwork(topo, fns), local, inflow_fn, np.ones((1, len(out))))
    times, states, undershoot = next(_integrate(compiled, rho0[None], dt, horizon))
    return LocalTrajectory(times, states[:, 0], compiled.flows(states[:, 0]), float(undershoot[0]))


def _transfer_threshold(alpha: float, inflow: float, tol: float | None = None) -> float:
    """The outflow alpha-transfer needs: ``alpha * inflow - tol`` (default tol 1e-3 * inflow).

    Simulated tails and limit-flow outflows are judged against this one bound.
    """
    if tol is None:
        tol = 1e-3 * inflow
    return alpha * inflow - tol


@dataclass(frozen=True)
class TransferEstimate:
    """Tail-window verdict on whether the outflow clears alpha * inflow.

    ``max_undershoot`` is the run's worst density clamp (``Trajectory``'s).
    """

    transferring: bool
    tail_min: float
    tail_variation: float
    inconclusive: bool
    max_undershoot: float = 0.0


def alpha_transfer_estimate(traj: Trajectory, alpha: float,
                            tol: float | None = None) -> TransferEstimate:
    """Approximate the asymptotic outflow bound by the tail-window minimum.

    The verdict compares the minimum outflow over the trailing
    ``TAIL_FRACTION`` of run time against ``alpha * inflow - tol``, with the
    run's inflow (default tol: 1e-3 * inflow), so a trajectory that kept
    only that window is judged as the full one.  A tail still varying by
    more than 5% of the inflow, or a run that clamped a density from more
    than ``UNDERSHOOT_TOL`` below zero (a step too coarse for the
    dynamics), is flagged inconclusive rather than trusted.
    """
    tail = traj.outflow[traj.tail_slice()]
    return _transfer_estimate(float(tail.min()), float(tail.max()), traj.inflow, alpha, tol,
                              traj.max_undershoot)


def _transfer_estimate(tail_min: float, tail_max: float, inflow: float, alpha: float,
                       tol: float | None = None, undershoot: float = 0.0) -> TransferEstimate:
    """``alpha_transfer_estimate``'s verdict from the tail window's outflow
    extremes and the run's worst clamp alone."""
    variation = tail_max - tail_min
    return TransferEstimate(
        transferring=bool(tail_min >= _transfer_threshold(alpha, inflow, tol)),
        tail_min=tail_min,
        tail_variation=variation,
        inconclusive=(inflow > 0 and variation > 0.05 * inflow) or undershoot > UNDERSHOOT_TOL,
        max_undershoot=undershoot,
    )


@dataclass
class LimitFlow:
    """Asymptotic flow, per link, with saturation flags.

    Saturation is a per-node event: a node whose input reaches its total
    outgoing capacity pins every one of its outgoing links at capacity.
    """

    flows: dict
    saturated: dict
    node_inflows: dict


@dataclass(frozen=True, eq=False)
class LimitFlows:
    """Limit flows at P points, from one ``network_limit_flows`` cascade.

    ``flows`` and ``saturated`` have shape (P, m), their columns in
    ``link_ids`` order (the topology's); ``node_inflows`` has shape (P, n).
    ``errors[p]`` is None, or the ``LocalSolverError`` of the first node in
    ``topological_order`` whose split did not converge at point p; that
    point's flows are NaN on the out-links of every node it was not solved
    at or did not converge at.
    """

    link_ids: tuple
    flows: np.ndarray
    saturated: np.ndarray
    node_inflows: np.ndarray
    errors: tuple


# Input fractions of the homotopy a stalled Newton solve falls back on.
_HOMOTOPY = (0.0625, 0.125, 0.25, 0.5, 0.75, 0.875, 0.9375, 1.0)
# A local solve converges once its residual (max norm) is within LOCAL_TOL;
# each Newton run (the first try, then every homotopy stage) stops after
# LOCAL_MAX_ITER steps.
LOCAL_TOL = 1e-10
LOCAL_MAX_ITER = 200
# ``convergence_check`` passes when terminal flows agree to within this.
CONVERGENCE_TOL = 1e-3


def local_limit_flow(network: FlowNetwork, policy: LogitPolicy, v: int, inflows):
    """Stationary splits of P constant inputs over node v's outgoing links.

    ``inflows`` holds the P inputs, all solved together.  Returns
    ``(flows, saturated, errors)``: flows of shape (P, k), flags of shape
    (P,) and, per input, None or the ``LocalSolverError`` of an input whose
    split did not converge (its flow row is NaN).

    At or above the node's total outgoing capacity every link saturates at
    its own capacity.  Below it, the zero of ``H(rho) = inflow * G(rho) -
    mu(rho)`` is found by a damped Newton iteration (projected onto
    nonnegative densities): H's Jacobian is strictly diagonally dominant
    with negative diagonal, hence invertible everywhere, which is also why
    plain damped Picard iteration is not used -- near saturation the flat
    flow function makes the Picard map expansive even though Newton stays
    well conditioned.  If Newton stalls, or meets a Jacobian that is
    singular in floating point (as policies that are not locally
    responsive can produce), a homotopy walks the input up from smaller
    values, warm-starting each stage; if that fails too,
    ``LocalSolverError`` carries the best residual.

    The node solves on the ``_LogitRows`` that the cascade builds for it
    (``_group_rows``, one row per input at factor 1.0), so a node's result
    here is bit-for-bit the one ``network_limit_flows`` gets at the same
    inflow.  Every input takes its own Newton and line-search steps, so its
    result is bit-for-bit the one it gets alone.
    """
    k = len(policy.outgoing_links(v))  # the destination has no split to solve
    lams = np.asarray(inflows, dtype=float).reshape(-1)
    return _local_solve(_group_rows(network, policy, [v], [lams.size], np.ones((lams.size, k))),
                        lams)


@np.errstate(over="ignore", invalid="ignore")
def _local_solve(rows, lams):
    """``local_limit_flow`` on R stacked rows, row r with input ``lams[r]``.

    ``rows`` are the rows' maps (``_LogitRows``), capacities included, so
    rows of several nodes with the same out-degree solve in one call; each
    row's result is bit-for-bit the one it gets alone.  A split that does
    not converge can leave the finite range on the way; its NaN row and
    ``LocalSolverError`` report it, not a numpy warning; so does a NaN residual.
    """
    if not (lams >= 0).all():  # NaN included
        raise ValueError("inflow must be nonnegative")
    saturated = lams >= rows.f_max.sum(axis=-1)
    flows = np.where(saturated[:, None], rows.f_max, 0.0)
    errors = [None] * lams.size
    inner = np.flatnonzero((lams != 0) & ~saturated)
    if inner.size:
        k = flows.shape[1]
        rows = rows.take(inner)
        rho, res = _newton(rows, lams[inner], np.zeros((inner.size, k)))
        stalled = np.flatnonzero(~(res <= LOCAL_TOL))  # NaN included
        if stalled.size:
            rows_s = rows.take(stalled)
            rho_s = np.zeros((stalled.size, k))
            for frac in _HOMOTOPY:
                rho_s, res_s = _newton(rows_s, frac * lams[inner[stalled]], rho_s)
            rho[stalled], res[stalled] = rho_s, res_s
        flows[inner] = rows.mu(rho)
        for i in np.flatnonzero(~(res <= LOCAL_TOL)):
            flows[inner[i]] = np.nan
            errors[inner[i]] = LocalSolverError(
                f"stationary split did not converge (best residual {res[i]:.3e})", float(res[i])
            )
    return flows, saturated, errors


class _LogitRows:
    """``_newton``'s maps on stacked density rows (R, k) of logit nodes.

    ``params`` holds per row (``_group_rows``) its links' ``f_max``,
    ``-rate``, ``-f_max``, ``rate * f_max`` and logit weights, then its
    node's ``-eta`` and ``eta``, shape (R, 5k + 2).  ``mu`` and ``slope``
    give the links' flows and their slopes, ``route`` the splits and
    ``jac(rho, g)`` their Jacobians on the splits ``g = route(rho)``, [r,
    j, e] = dG_j/drho_e; ``f_max`` is the links' capacities.  The maps take
    the IEEE operations of ``ExponentialFlow.__call__``,
    ``ExponentialFlow.derivative`` and ``LogitPolicy.route``/``jacobian``
    row by row, so every row's result is bit-for-bit its node's.  One-link
    rows skip routing: their split is exactly 1.0 at any finite density
    and its derivative ±0.  The logit Jacobian is symmetric (IEEE products
    commute), so it is already in standard orientation.  ``take`` gives the
    maps of some rows.
    """

    def __init__(self, params):
        self.params = params
        self.k = k = (params.shape[1] - 2) // 5
        self.f_max, self.neg_rate, self.neg_f_max, self.scale, self.a = (
            params[:, :k], params[:, k:2 * k], params[:, 2 * k:3 * k], params[:, 3 * k:4 * k],
            params[:, 4 * k:5 * k])
        self.neg_eta, self.eta = params[:, -2:-1], params[:, -1:, None]

    def take(self, idx):
        return _LogitRows(self.params[idx])

    def mu(self, rho):
        return _exponential_flows(self.neg_rate, self.neg_f_max, rho)

    def slope(self, rho):
        return _exponential_slopes(self.neg_rate, self.scale, rho)

    def route(self, rho):
        if self.k == 1:
            return np.ones_like(rho)
        return _logit_split(self.neg_eta, self.a, rho)

    def jac(self, rho, g):
        if self.k == 1:
            return np.zeros((len(rho), 1, 1))
        return _logit_jacobian(g, self.eta, self.neg_eta)


def _newton(rows, lam, rho):
    """Damped Newton on ``H(rho) = lam * G(rho) - mu(rho)`` for P inputs at once.

    ``lam`` has shape (P,), the start ``rho`` (P, k), and ``rows`` maps
    densities of that shape to the links' flows, their slopes (the
    diagonal of ``mu``'s Jacobian), the splits and their Jacobians
    (``_LogitRows``).  Each member stops once its residual (max norm) is
    within ``LOCAL_TOL`` and stalls out when its Jacobian is singular or
    its backtracking step falls below 1e-8; the others step on.  Returns
    the final densities and residuals.
    """
    n, k = rho.shape
    lam = lam[:, None]
    g = rows.route(rho)
    r = lam * g - rows.mu(rho)
    res = np.abs(r).max(axis=-1)
    live = np.flatnonzero(~(res <= LOCAL_TOL))
    for _ in range(LOCAL_MAX_ITER):
        if not live.size:
            break
        whole = live.size == n  # every member live: no gathers or scatters
        if whole:
            x, g_x, lam_x, r_x, res_x, rows_x = rho, g, lam, r, res, rows
        else:
            x, g_x, lam_x, r_x, res_x = rho[live], g[live], lam[live], r[live], res[live]
            rows_x = rows.take(live)
        # standard Jacobian of H: rows = components, columns = densities
        jac = np.multiply(lam_x[:, :, None], rows_x.jac(x, g_x), order="C")
        jac.reshape(-1, k * k)[:, ::k + 1] -= rows_x.slope(x)  # the diagonal
        step, singular = _solve(jac, -r_x)
        # backtracking: every member still trying at a halving shares its step size
        trial = None if singular is None else np.flatnonzero(~singular)
        t = 1.0
        while True:
            if trial is None:
                cand = np.maximum(x + t * step, 0.0)
                lam_t, res_t, rows_t = lam_x, res_x, rows_x
            else:
                cand = np.maximum(x[trial] + t * step[trial], 0.0)
                lam_t, res_t, rows_t = lam_x[trial], res_x[trial], rows_x.take(trial)
            g_cand = rows_t.route(cand)
            r_cand = lam_t * g_cand - rows_t.mu(cand)
            res_cand = np.abs(r_cand).max(axis=-1)
            better = res_cand < res_t
            if trial is None and better.all():  # every member takes its full step
                if whole:
                    rho, g, r, res = cand, g_cand, r_cand, res_cand
                else:
                    rho[live], g[live], r[live], res[live] = cand, g_cand, r_cand, res_cand
                break
            if trial is None:
                trial = np.arange(live.size)
            dest = live[trial[better]]
            rho[dest], g[dest] = cand[better], g_cand[better]
            r[dest], res[dest] = r_cand[better], res_cand[better]
            trial = trial[~better]
            t *= 0.5
            if not trial.size:
                break
            if t < 1e-8:
                if singular is None:
                    singular = np.zeros(live.size, dtype=bool)
                singular[trial] = True  # stalled
                break
        if singular is not None:
            live = live[~singular]
        live = live[~(res[live] <= LOCAL_TOL)]
    return rho, res


def _solve(jac: np.ndarray, b: np.ndarray):
    """Newton steps ``jac^-1 b`` for stacked (P, k, k) systems.

    Returns the steps and None or, when some matrix is singular in floating
    point, a mask of those members: a singular step is a stall like any
    other, so that member gets no step while the others solve on.
    """
    try:
        return np.linalg.solve(jac, b[..., None])[..., 0], None
    except np.linalg.LinAlgError:
        step = np.zeros_like(b)
        singular = np.zeros(len(b), dtype=bool)
        for i in range(len(b)):
            try:
                step[i] = np.linalg.solve(jac[i], b[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return step, singular


def _exponential_params(flow_fns):
    """Float64 rows ``f_max`` and ``-rate`` of k links, as one (2, k) array."""
    return np.array([[ff.f_max for ff in flow_fns], [-ff.rate for ff in flow_fns]], dtype=float)


def _exponential_flows(neg_rate, neg_f_max, rho):
    """Exponential link flows ``(-f_max) * expm1((-rate) * rho)``, filling one array in place."""
    out = np.multiply(neg_rate, rho)
    np.expm1(out, out=out)
    out *= neg_f_max
    return out


def _exponential_slopes(neg_rate, scale, rho):
    """Exponential link slopes ``(rate * f_max) * exp((-rate) * rho)``, ``exp`` from libm.

    The IEEE operations, in order, of ``ExponentialFlow.derivative``, so
    every slope is bit-for-bit that call's; ``np.exp`` is not used, its
    SIMD kernels differ from libm in the last bit on some inputs.
    """
    arg = neg_rate * rho
    out = np.fromiter(map(math.exp, arg.ravel().tolist()), float, arg.size)
    out = out.reshape(arg.shape)
    out *= scale
    return out


def network_limit_flow(network: FlowNetwork, policy: LogitPolicy, inflow: float) -> LimitFlow:
    """Cascade the local stationary splits through the acyclic node order.

    The one-point case of ``network_limit_flows``, its row 0 as dicts keyed
    by link id and by node; a node whose split does not converge raises
    its ``LocalSolverError``.
    """
    limits = network_limit_flows(network, policy, [inflow])
    (error,) = limits.errors
    if error is not None:
        raise error
    return LimitFlow(flows=dict(zip(limits.link_ids, limits.flows[0].tolist())),
                     saturated=dict(zip(limits.link_ids, limits.saturated[0].tolist())),
                     node_inflows=dict(enumerate(limits.node_inflows[0].tolist())))


class _CascadePlan:
    """The layout of ``network_limit_flows`` that depends on the topology alone.

    Links are columns in ``topology.link_ids`` order: ``out_cols[v]`` are
    node v's out-links' columns, and ``in_cols[v]`` its in-links' columns
    in cascade order (by the tail's position in ``topological_order``,
    then by id).  ``pos[v]`` is v's position in ``topological_order``.
    ``levels`` holds per level, the nodes whose longest path from the
    origin has that many links, a pair ``(nodes, groups)``: the level's
    nodes and its nodes with outgoing links grouped by out-degree, each in
    ``topological_order``.
    """

    def __init__(self, topo: NetworkTopology):
        order = topological_order(topo)
        self.pos = [0] * topo.num_nodes
        level = [0] * topo.num_nodes
        for i, v in enumerate(order):
            self.pos[v] = i
            for lid in topo.outgoing[v]:
                head = topo.link(lid).head
                level[head] = max(level[head], level[v] + 1)
        col = {lid: i for i, lid in enumerate(topo.link_ids)}
        self.out_cols = {v: [col[lid] for lid in out] for v, out in topo.outgoing.items() if out}
        self.in_cols = [[col[lid] for lid in sorted(
            topo.incoming[v], key=lambda lid: (self.pos[topo.link(lid).tail], lid))]
            for v in range(topo.num_nodes)]
        self.levels = []
        for depth in range(max(level) + 1):
            nodes = [v for v in order if level[v] == depth]
            groups = {}  # out-degree -> nodes
            for v in nodes:
                if topo.outgoing[v]:
                    groups.setdefault(len(topo.outgoing[v]), []).append(v)
            self.levels.append((nodes, list(groups.values())))


def _group_rows(network: FlowNetwork, policy: LogitPolicy, group, counts, eps) -> _LogitRows:
    """The ``_LogitRows`` of a group's solved inputs: ``counts[i]`` rows of node
    ``group[i]``, in group order, row r's capacities scaled by ``eps[r]`` (R, k).

    The nodes share one out-degree k.  A row holds the exponential
    parameters of the functions ``scale_perturbation`` makes (capacities
    ``eps * f_max``, their negations, the rates and ``rate * (eps * f_max)``)
    and its node's logit weights and ``eta``; a factor of 1.0 leaves its bits.
    """
    nodes = []
    for v in group:
        out = network.topology.outgoing[v]
        nodes.append(np.concatenate((
            _exponential_params([network.flow_functions[lid] for lid in out]).ravel(),
            [policy.weights[lid] for lid in out], [-policy.eta[v], policy.eta[v]])))
    k = eps.shape[1]
    node = np.repeat(np.array(nodes), counts, axis=0)
    f_max, neg_rate = node[:, :k], node[:, k:2 * k]
    f_max *= eps
    return _LogitRows(np.concatenate((f_max, neg_rate, np.negative(f_max),
                                      np.negative(neg_rate) * f_max, node[:, 2 * k:]), axis=1))


def network_limit_flows(network: FlowNetwork, policy: LogitPolicy, inflows,
                        scalings=None) -> LimitFlows:
    """Limit flows at P network inflows from one cascade through the node levels.

    Returns a ``LimitFlows``: row p of its arrays is the limit flow at
    ``inflows[p]``, its columns in link-id order, and ``errors[p]`` is
    None or the ``LocalSolverError`` of the first node in
    ``topological_order`` whose split did not converge at that point.  The
    point is still solved at every node before that one, on any level, and
    at no node of a level above once its failure is known.

    ``scalings``, when given, is a (P, m) array of capacity factors in
    (0, 1], its columns in link-id order as those of ``flows``, and point p
    is solved on ``network`` with each link's capacity scaled by its
    factor: row p is bit-for-bit ``network_limit_flow(network.perturbed(
    PerturbationSpec(network, dict(zip(topology.link_ids, scalings[p])))),
    policy, inflows[p])``.  A wrong shape or a factor outside (0, 1], NaN
    included, raises ``ValueError`` before any node is solved; the scaled
    functions are not certified.  Without ``scalings`` every factor is 1.0, which
    leaves a capacity's bits unchanged: the network's own limit flows.

    A node's level is the length of its longest path from the origin, so a
    level's inflows are known once the levels below it are solved.  Per
    level, the nodes are solved by one Newton run per out-degree k, on
    their (node, point) rows stacked into (rows, k) densities, each row
    with its own node's parameters and its own point's capacities, built
    once (``_group_rows``).  A node's inflow is summed over its
    in-links in cascade order (by the tail's position in
    ``topological_order``, then by id), as a node-by-node cascade in
    ``topological_order`` sums it.  So every row is bit-for-bit what the
    point gets alone from the node-by-node cascade.  The layout that
    depends only on the topology (``_CascadePlan``) is built once per call,
    for all P points.
    """
    topo = network.topology
    plan = _CascadePlan(topo)
    lam0 = np.asarray(inflows, dtype=float).reshape(-1)
    n_points = lam0.size
    eps = _scalings(scalings, (n_points, len(topo.link_ids)))
    node_in = np.zeros((n_points, topo.num_nodes))
    node_in[:, topo.origin] = lam0
    flows = np.full(eps.shape, np.nan)
    flags = np.zeros(eps.shape, dtype=bool)
    errors = [None] * n_points
    failed_at = np.full(n_points, topo.num_nodes)  # position of each point's first failure
    every = np.arange(n_points)
    for nodes, groups in plan.levels:
        for v in nodes:
            for j in plan.in_cols[v]:
                node_in[:, v] += flows[:, j]
        for group in groups:
            points = [every[failed_at > plan.pos[v]] for v in group]
            counts = [p.size for p in points]
            if not sum(counts):
                continue
            cells = [np.ix_(p, plan.out_cols[v]) for v, p in zip(group, points)]
            rows = _group_rows(network, policy, group, counts,  # a row per point
                               np.concatenate([eps[c] for c in cells]))
            f, sat, errs = _local_solve(rows, np.concatenate(
                [node_in[p, v] for v, p in zip(group, points)]))
            lo = 0
            for v, p, count, cell in zip(group, points, counts, cells):
                flows[cell] = f[lo:lo + count]
                flags[cell] = sat[lo:lo + count, None]
                for i, err in enumerate(errs[lo:lo + count]):
                    if err is not None and plan.pos[v] < failed_at[p[i]]:
                        failed_at[p[i]] = plan.pos[v]
                        errors[p[i]] = err
                lo += count
    return LimitFlows(link_ids=topo.link_ids, flows=flows, saturated=flags,
                      node_inflows=node_in, errors=tuple(errors))


@dataclass
class ConvergenceReport:
    terminal_flows: np.ndarray
    limit_reference: np.ndarray
    max_pairwise_gap: float
    max_reference_gap: float
    passed: bool


def convergence_check(network: FlowNetwork, policy: LogitPolicy, inflow: float,
                      n_initial: int = 10, config: SimulationConfig | None = None,
                      seed: int = 0) -> ConvergenceReport:
    """Simulate from random initial conditions and compare terminal flows.

    The check passes when every pair of terminal flows, and each terminal
    flow against ``network_limit_flow``, agree within ``CONVERGENCE_TOL``.
    Initial densities are drawn log-uniformly over [1e-3, 1e2] times each
    link's median density, covering near-empty through heavily congested
    starts.  Saturated links are compared at their capacity value.  The
    starts run as one ensemble that records only each start's last state.
    """
    if n_initial < 2:
        raise ValueError("need at least two initial conditions to compare")
    topo = network.topology
    config = SimulationConfig(inflow=inflow) if config is None else replace(config, inflow=inflow)
    rng = np.random.default_rng(seed)
    medians = np.array([network.flow_functions[lid].median_density() for lid in topo.link_ids])
    reference = network_limit_flows(network, policy, [inflow])
    if reference.errors[0] is not None:
        raise reference.errors[0]
    ref_vec = reference.flows[0]
    rho0s = [medians * 10.0 ** rng.uniform(-3, 2, size=len(medians)) for _ in range(n_initial)]
    compiled, dt, _, blocks = _ensemble_blocks(network, policy, config, rho0s, records="last")
    terminals = np.array([limit_flow_estimate(traj, network)[0] for traj in
                          _member_trajectories(compiled, next(blocks), config.inflow, dt)])
    pairwise = 0.0
    for i in range(n_initial):
        for j in range(i + 1, n_initial):
            pairwise = max(pairwise, float(np.abs(terminals[i] - terminals[j]).max()))
    ref_gap = float(np.abs(terminals - ref_vec).max())
    return ConvergenceReport(
        terminal_flows=terminals,
        limit_reference=ref_vec,
        max_pairwise_gap=pairwise,
        max_reference_gap=ref_gap,
        passed=pairwise <= CONVERGENCE_TOL and ref_gap <= CONVERGENCE_TOL,
    )


def limit_flow_estimate(traj: Trajectory, network: FlowNetwork):
    """Terminal flows with saturated links reported at capacity.

    Returns ``(estimate, saturated_flags)``: a link is flagged once its
    terminal flow reaches ``SAT_THRESHOLD`` of its capacity.  This flow-level
    reading is the package's one notion of saturation on a trajectory.
    """
    est = traj.terminal_flow().copy()
    flags = {}
    for i, lid in enumerate(traj.link_ids):
        fmax = network.flow_functions[lid].f_max
        sat = traj.flows[-1, i] >= SAT_THRESHOLD * fmax
        flags[lid] = bool(sat)
        if sat:
            est[i] = fmax
    return est, flags
