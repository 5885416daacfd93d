"""Per-layer kernel timings: microseconds per compiled RK4 step, per limit flow, per sweep and per bisection.

Not collected by pytest.  Prints one JSON object with the minimum over
``--repeats`` runs of

- one right-hand-side evaluation of the compiled C kernel (``_rk4.c``),
  ``dynamics._Compiled.rhs``, one ctypes call each, at B = 1 (``random8``)
  and 6 (``diamond5``) members, the members of the RK4 rows;
- one RK4 step of the compiled C kernel, an ensemble integrated through
  ``dynamics._ensemble_blocks`` (only the last state kept, so the steps
  run in one kernel call), at B = 1 (``random8``), 6 (``diamond5``) and
  58 (``random8``) members, each member's links scaled by its own row of
  capacity factors;
- one ``network_limit_flow`` call at the scenario inflow (P = 1) on
  ``diamond5`` and ``random8``;
- one 41-point ``network_limit_flows`` sweep from 0 to twice the min-cut
  capacity on the benchmark's seeded 20-node DAG ``generate_dag(0)``, the
  level cascade's case;
- one in-process ``limitflow --sweep 0:2C:N`` command, ``cli.main``, on
  the same DAG for N = 41 and 401 (C its min-cut capacity): the cascade
  plus the CSV rows written from its arrays;
- one alpha's (0.05) oracle bracket, ``resilience._oracle_bisections``, on
  ``diamond5`` and ``random8`` at the scenario inflow: the attack
  evaluation layer of ``resilience``, every verdict of its cut-scaling
  bisection judged on the limit-flow oracle.

Run from the repository root::

    PYTHONPATH=src python tests/kernel_timing.py
    PYTHONPATH=src python tests/kernel_timing.py --steps 20 --calls 2 --repeats 1  # smoke
"""

import argparse
import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from flownet import (SimulationConfig, load_scenario, min_cut_capacity, network_limit_flow,
                     network_limit_flows)
from flownet import cli, dynamics, resilience
from flownet.scenario import parse_scenario

from cli_digests import SWEEP_POINTS, _generate_dag

DATA = Path(__file__).parent / "data"
RHS_CASES = (("random8", 1), ("diamond5", 6))
RK4_CASES = (("random8", 1), ("diamond5", 6), ("random8", 58))
LIMIT_FLOW_CASES = ("diamond5", "random8")
BISECTION_CASES = ("diamond5", "random8")
BISECTION_ALPHA = 0.05
SWEEP_SEED = 0
SWEEP_CLI_POINTS = (SWEEP_POINTS, 401)


def members(network, size, seed=1):
    """(size, m) capacity factors in [0.4, 1), a row per member, columns in link-id order."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.4, 1.0, size=(size, len(network.topology.link_ids)))


def rhs_us(name, size, calls, repeats):
    sc = load_scenario(DATA / f"{name}.json")
    compiled = dynamics._Compiled(sc.network, sc.policy, sc.inflow, members(sc.network, size))
    rho = np.random.default_rng(2).uniform(0.0, 2.0, size * len(compiled.links))
    rhs = compiled.rhs
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            rhs(0.0, rho)
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e6


def rk4_us_per_step(name, size, steps, repeats):
    sc = load_scenario(DATA / f"{name}.json")
    scalings = members(sc.network, size)
    dt = dynamics.default_dt(sc.network)
    config = SimulationConfig(inflow=sc.inflow, dt=dt, horizon=steps * dt)
    n_steps = dynamics._step_count(config.horizon, dt)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        *_, blocks = dynamics._ensemble_blocks(sc.network, sc.policy, config, None, scalings,
                                               "last")
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


def sweep_cli_us(seed, points, calls, repeats):
    doc = _generate_dag()(seed)
    sc = parse_scenario(doc)
    cap, _ = min_cut_capacity(sc.topology, sc.network.capacities())
    best = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"dag20-seed{seed}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["limitflow", str(path), "--sweep", f"0:{2.0 * cap!r}:{points}"]
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"flownet {' '.join(argv)} failed")
            best = min(best, time.perf_counter() - start)
    return best / calls * 1e6


def bisection_us(name, calls, repeats):
    sc = load_scenario(DATA / f"{name}.json")
    capacity, cut = min_cut_capacity(sc.topology, sc.network.capacities())
    cut_links = sorted(cut.cut_links)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            resilience._oracle_bisections(sc.network, sc.policy, sc.inflow, (BISECTION_ALPHA,),
                                          capacity, cut_links)
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=2000, help="RK4 steps per run")
    parser.add_argument("--calls", type=int, default=200,
                        help="right-hand-side evaluations, limit-flow calls, sweeps, sweep "
                             "commands and bisections per run")
    parser.add_argument("--repeats", type=int, default=7, help="runs per case; the minimum counts")
    args = parser.parse_args(argv)
    result = {
        "rhs_us": {f"{name}_B{size}": round(rhs_us(name, size, args.calls, args.repeats), 2)
                   for name, size in RHS_CASES},
        "rk4_us_per_step": {f"{name}_B{size}": round(rk4_us_per_step(name, size, args.steps,
                                                                     args.repeats), 2)
                            for name, size in RK4_CASES},
        "limit_flow_us": {name: round(limit_flow_us(name, args.calls, args.repeats), 2)
                          for name in LIMIT_FLOW_CASES},
        "limit_flow_sweep_us": {f"dag20_seed{SWEEP_SEED}": round(
            limit_flow_sweep_us(SWEEP_SEED, args.calls, args.repeats), 2)},
        "sweep_cli_us": {f"dag20_seed{SWEEP_SEED}_N{points}": round(
            sweep_cli_us(SWEEP_SEED, points, args.calls, args.repeats), 2)
            for points in SWEEP_CLI_POINTS},
        "bisection_us": {name: round(bisection_us(name, args.calls, args.repeats), 2)
                         for name in BISECTION_CASES},
        "settings": {"steps": args.steps, "calls": args.calls, "repeats": args.repeats},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
