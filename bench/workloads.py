"""The benchmark's workloads: seeded inputs, one job each, and output checks.

Every job goes through the public CLI entry point ``flownet.cli.main(argv)``
in process, one command at a time and with ``--jobs 1`` where the command
takes it.  A workload's ``job`` returns the CLI's exit code, the bytes it produced
(for the byte-identical rerun check), its units of work and whatever the
checks read; ``check`` returns ``(name, passed)`` pairs.  ``rate_name``
names the units-per-second figure and ``reported`` the workload's own
figures, each with its unit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from pathlib import Path
from time import perf_counter

from flownet import cli
from flownet.dynamics import default_dt, network_limit_flow
from flownet.scenario import load_scenario

# Largest |simulated limit estimate - network_limit_flow| accepted on simulate.
ORACLE_GAP_TOL = 1e-4
# Relative slack for comparing capacities and conserved flows.
REL_TOL = 1e-9


def call(argv):
    """Run ``flownet <argv>`` in process; returns (exit code, stdout, stderr).

    ``sys.argv`` is set as the ``flownet`` console script would set it,
    because manifests record the command line.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["flownet", *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.argv = saved
    return rc, out.getvalue(), err.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class SimulateRandom8:
    """One long trajectory on the 16-link ``random8`` network.

    The seed draws the initial densities (each link's median density times
    10^U(-1, 0)); the horizon is shortened from the scenario default of 200
    to 40 so that one job lasts about a second and a half instead of nine,
    while every run still converges to the limit flow (largest gap 3e-6 over
    28 seeds, against the 1e-4 tolerance).
    """

    name = "simulate-random8"
    rate_name = "steps_per_s"
    reported = {"oracle_gap": "flow"}
    horizon = 40

    def __init__(self, root: Path, workdir: Path, seed: int):
        doc = json.loads((root / "tests" / "data" / "random8.json").read_text(encoding="utf-8"))
        rng = random.Random(seed)
        doc["simulation"] = {"initial_density": {
            lid: math.log(2.0) / body["a"] * 10.0 ** rng.uniform(-1.0, 0.0)
            for lid, body in sorted(doc["flow_functions"].items(), key=lambda kv: int(kv[0]))
        }}
        self.scenario = workdir / "random8_seeded.json"
        self.scenario.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        self.prefix = workdir / "sim"
        scenario = load_scenario(self.scenario)
        self.reference = network_limit_flow(scenario.network, scenario.policy, scenario.inflow)
        self.inputs = {self.scenario.name: sha256(self.scenario.read_bytes())}

    def job(self):
        rc, out, err = call(["simulate", str(self.scenario), "--horizon", str(self.horizon),
                             "--out", str(self.prefix)])
        files = [Path(f"{self.prefix}{ext}") for ext in (".csv", ".summary.json", ".manifest.json")]
        blobs = [f.read_bytes() if f.exists() else b"" for f in files]
        steps = max(blobs[0].count(b"\n") - 2, 0)  # header row and the t=0 row
        return {"rc": rc, "stderr": err, "output": [out.encode(), *blobs],
                "units": steps, "summary": blobs[1]}

    def check(self, res):
        summary = json.loads(res["summary"]) if res["summary"] else {}
        estimate = summary.get("limit_flow_estimate", {})
        gap = max((abs(estimate[str(lid)] - f) for lid, f in self.reference.flows.items()
                   if str(lid) in estimate), default=math.inf)
        if len(estimate) != len(self.reference.flows):
            gap = math.inf
        res["oracle_gap"] = gap
        return [("summary converged", summary.get("converged") is True),
                (f"oracle_gap <= {ORACLE_GAP_TOL}", gap <= ORACLE_GAP_TOL),
                ("trajectory has rows", res["units"] > 0)]


class ResilienceDiamond5:
    """Weak-resilience bracket on the 6-link ``diamond5`` network.

    One alpha (0.05: eight bisection verdicts) and four random samples make
    twelve verdicts a job; the horizon is cut from 200 to 10 so that a job
    takes about a second and a half.  The seed is the sampler's ``--seed``.
    """

    name = "resilience-diamond5"
    rate_name = "verdicts_per_s"
    reported = {"bracket_width": "ratio"}
    horizon = 10

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.scenario = root / "tests" / "data" / "diamond5.json"
        self.seed = seed % 2**32  # the sampler takes nonnegative seeds only
        self.prefix = workdir / "report.json"
        network = load_scenario(self.scenario).network
        # the integrator's step count: the step is shrunk to land on the horizon
        self.steps_per_verdict = max(1, math.ceil(self.horizon / default_dt(network) - 1e-12))
        self.inputs = {self.scenario.name: sha256(self.scenario.read_bytes())}

    def job(self):
        rc, out, err = call(["resilience", str(self.scenario), "--alphas", "0.05",
                             "--samples", "4", "--horizon", str(self.horizon), "--jobs", "1",
                             "--seed", str(self.seed), "--out", str(self.prefix)])
        manifest = Path(f"{self.prefix}.manifest.json")
        blobs = [p.read_bytes() if p.exists() else b"" for p in (self.prefix, manifest)]
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            report = {}
        verdicts = (sum(p["evaluations"] for p in report.get("alpha_sweep", []))
                    + len(report.get("samples", [])))
        return {"rc": rc, "stderr": err, "output": [out.encode(), *blobs],
                "units": verdicts, "steps": verdicts * self.steps_per_verdict,
                "report": report}

    def check(self, res):
        rep = res["report"]
        c = rep.get("min_cut", math.nan)
        lo, hi = rep.get("bracket", (math.nan, math.nan))
        sweep, samples = rep.get("alpha_sweep", []), rep.get("samples", [])
        res["bracket_width"] = (hi - lo) / c if c > 0 else math.nan
        return [("bracket ordered", lo <= hi),
                ("defeating deltas <= C",
                 bool(sweep) and all(p["defeating_delta"] <= c * (1 + REL_TOL) for p in sweep)),
                ("samples preserved", bool(samples) and all(s["preserved"] for s in samples))]


def generate_dag(seed: int, nodes: int = 20, links: int = 44) -> dict:
    """A seeded scenario on an acyclic graph with exactly ``nodes`` nodes.

    Node v in 1..nodes-2 gets one link from a lower and one to a higher
    node, so node 0 is the only origin, the last node the only destination,
    and every node reaches it; the remaining links join random ordered
    pairs.  Exponential flow functions and logit policies with random
    parameters.
    """
    rng = random.Random(seed)
    pairs = []
    for v in range(1, nodes - 1):
        pairs.append((rng.randrange(0, v), v))
        pairs.append((v, rng.randrange(v + 1, nodes)))
    while len(pairs) < links:
        u, v = sorted(rng.sample(range(nodes), 2))
        pairs.append((u, v))
    doc = {
        "name": f"dag{nodes}-seed{seed}",
        "nodes": nodes,
        "links": [{"id": i, "tail": u, "head": v} for i, (u, v) in enumerate(pairs)],
        "flow_functions": {str(i): {"family": "exp", "a": round(rng.uniform(0.5, 2.0), 6),
                                    "f_max": round(rng.uniform(0.5, 2.0), 6)}
                           for i in range(len(pairs))},
        "policies": {},
        "inflow": 1.0,
        "seed": seed,
    }
    for v in range(nodes - 1):
        out = [i for i, (u, _) in enumerate(pairs) if u == v]
        doc["policies"][str(v)] = {"eta": round(rng.uniform(0.5, 2.0), 6),
                                   "weights": {str(i): round(rng.uniform(0.5, 3.0), 6) for i in out}}
    return doc


class OracleDag20:
    """Min cut by enumeration, then the limit-flow cascade swept to 2C.

    The generated graph has 20 nodes, the largest size at which
    ``min_cut_capacity`` still enumerates all 2^18 cuts.  The sweep runs 41
    inflows from 0 to twice the min-cut capacity read from the ``mincut``
    output, crossing from free flow into saturation; no simulation runs.
    """

    name = "oracle-dag20"
    rate_name = "solves_per_s"
    reported = {"mincut_s": "s"}
    points = 41

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.doc = generate_dag(seed)
        self.scenario = workdir / "dag20.json"
        self.scenario.write_text(json.dumps(self.doc, indent=2) + "\n", encoding="utf-8")
        self.inputs = {self.scenario.name: sha256(self.scenario.read_bytes())}
        rc, out, _ = call(["validate", str(self.scenario)])
        self.valid = rc == 0 and json.loads(out).get("ok") is True

    def job(self):
        t0 = perf_counter()
        rc_cut, out_cut, err_cut = call(["mincut", str(self.scenario)])
        t1 = perf_counter()
        try:
            mincut = json.loads(out_cut)
            stop = 2.0 * mincut["capacity"]
        except (json.JSONDecodeError, KeyError, TypeError):
            mincut, stop = {}, 1.0
        rc_sweep, out_sweep, err_sweep = call(["limitflow", str(self.scenario), "--sweep",
                                               f"0:{stop!r}:{self.points}", "--jobs", "1"])
        t2 = perf_counter()
        return {"rc": max(rc_cut, rc_sweep, key=abs), "stderr": err_cut + err_sweep,
                "output": [out_cut.encode(), out_sweep.encode()],
                "units": self.points, "unit_s": t2 - t1, "mincut_s": t1 - t0,
                "mincut": mincut, "sweep": out_sweep}

    def check(self, res):
        caps = {int(k): v["f_max"] for k, v in self.doc["flow_functions"].items()}
        links = {r["id"]: (r["tail"], r["head"]) for r in self.doc["links"]}
        cut = res["mincut"].get("cut", {})
        side = set(cut.get("origin_side", []))
        crossing = sorted(i for i, (u, v) in links.items() if u in side and v not in side)
        capacity = res["mincut"].get("capacity", math.nan)
        return [("generated scenario validates", self.valid),
                ("cut links cross the origin side", crossing == cut.get("links")),
                ("min-cut capacity = summed cut capacity",
                 _close(capacity, math.fsum(caps[i] for i in crossing))),
                ("min-cut capacity = max flow", _close(capacity, res["mincut"].get("max_flow", math.nan))),
                ("sweep rows ok and conserving", self._sweep_ok(res["sweep"], caps, links))]

    def _sweep_ok(self, text, caps, links):
        lines = text.splitlines()
        if len(lines) != self.points + 1:
            return False
        header = lines[0].split(",")
        ids = [int(col[2:]) for col in header if col.startswith("f_")]
        nodes = self.doc["nodes"]
        for line in lines[1:]:
            row = line.split(",")
            if row[-1] != "ok":
                return False
            lam0 = float(row[0])
            flow = {i: float(x) for i, x in zip(ids, row[1:1 + len(ids)])}
            sat = {i: x == "1" for i, x in zip(ids, row[1 + len(ids):1 + 2 * len(ids)])}
            for v in range(nodes - 1):
                out = [i for i, (u, _) in links.items() if u == v]
                inflow = lam0 if v == 0 else math.fsum(flow[i] for i, (_, h) in links.items() if h == v)
                outflow = math.fsum(flow[i] for i in out)
                if any(sat[i] for i in out):
                    # a saturated node pins every outgoing link at capacity
                    ok = (all(sat[i] for i in out)
                          and _close(outflow, math.fsum(caps[i] for i in out))
                          and inflow >= outflow * (1 - REL_TOL))
                else:
                    ok = _close(inflow, outflow)
                if not ok:
                    return False
        return True


WORKLOADS = {w.name: w for w in (SimulateRandom8, ResilienceDiamond5, OracleDag20)}
