"""Per-layer kernel timings: microseconds per RK4 step, per limit flow and per sweep.

Not collected by pytest.  Prints one JSON object with the minimum over
``--repeats`` runs of

- one RK4 step of an ensemble integrated through ``dynamics._ensemble_blocks``
  (only the last state kept), at B = 1 (``random8``), 6 (``diamond5``) and
  58 (``random8``) members, each member's links scaled by its own factors;
- one ``network_limit_flow`` call at the scenario inflow (P = 1) on
  ``diamond5`` and ``random8``;
- one 41-point ``network_limit_flows`` sweep from 0 to twice the min-cut
  capacity on the benchmark's seeded 20-node DAG ``generate_dag(0)``, the
  level cascade's case.

Run from the repository root::

    PYTHONPATH=src python tests/kernel_timing.py
    PYTHONPATH=src python tests/kernel_timing.py --steps 20 --calls 2 --repeats 1  # smoke
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from flownet import (PerturbationSpec, SimulationConfig, load_scenario, min_cut_capacity,
                     network_limit_flow, network_limit_flows)
from flownet import dynamics
from flownet.scenario import parse_scenario

from cli_digests import SWEEP_POINTS, _generate_dag

DATA = Path(__file__).parent / "data"
RK4_CASES = (("random8", 1), ("diamond5", 6), ("random8", 58))
LIMIT_FLOW_CASES = ("diamond5", "random8")
SWEEP_SEED = 0


def members(network, size, seed=1):
    """``size`` copies of ``network``, each link scaled by a factor in [0.4, 1)."""
    rng = np.random.default_rng(seed)
    ids = network.topology.link_ids
    return [network.perturbed(PerturbationSpec.scaling(
        network, {lid: float(rng.uniform(0.4, 1.0)) for lid in ids})) for _ in range(size)]


def rk4_us_per_step(name, size, steps, repeats):
    sc = load_scenario(DATA / f"{name}.json")
    nets = members(sc.network, size)
    dt = dynamics.default_dt(sc.network)
    config = SimulationConfig(inflow=sc.inflow, dt=dt, horizon=steps * dt)
    n_steps = dynamics._step_count(config.horizon, dt)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        *_, blocks = dynamics._ensemble_blocks(nets, sc.policy, config, None, "last")
        for _ in blocks:
            pass
        best = min(best, time.perf_counter() - start)
    return best / n_steps * 1e6


def limit_flow_us(name, calls, repeats):
    sc = load_scenario(DATA / f"{name}.json")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            network_limit_flow(sc.network, sc.policy, sc.inflow)
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e6


def limit_flow_sweep_us(seed, calls, repeats):
    sc = parse_scenario(_generate_dag()(seed))
    cap, _ = min_cut_capacity(sc.topology, sc.network.capacities())
    lams = np.linspace(0.0, 2.0 * cap, SWEEP_POINTS)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            network_limit_flows(sc.network, sc.policy, lams)
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=2000, help="RK4 steps per run")
    parser.add_argument("--calls", type=int, default=200,
                        help="limit-flow calls (and sweeps) per run")
    parser.add_argument("--repeats", type=int, default=7, help="runs per case; the minimum counts")
    args = parser.parse_args(argv)
    result = {
        "rk4_us_per_step": {f"{name}_B{size}": round(rk4_us_per_step(name, size, args.steps,
                                                                     args.repeats), 2)
                            for name, size in RK4_CASES},
        "limit_flow_us": {name: round(limit_flow_us(name, args.calls, args.repeats), 2)
                          for name in LIMIT_FLOW_CASES},
        "limit_flow_sweep_us": {f"dag20_seed{SWEEP_SEED}": round(
            limit_flow_sweep_us(SWEEP_SEED, args.calls, args.repeats), 2)},
        "settings": {"steps": args.steps, "calls": args.calls, "repeats": args.repeats},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
