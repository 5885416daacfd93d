"""flownet benchmark: end-to-end CLI jobs, with an optional traced run.

Run from the repository root:

    python3 bench/run.py --workload simulate-random8 --seed 1 --seconds 15 --trace 0

``--trace 0`` times jobs for ``--seconds`` and reports the end-to-end
metrics; ``--trace 1`` times untraced jobs, then traced jobs for as long
again, and reports the per-layer metrics plus the tracing overhead.
Every job's outputs are checked; a failed job or check makes the run exit 1.
Human-readable lines come first; the last line of stdout is one JSON
object.  Results, run metadata and (traced) spans are written under
``.bench_out/`` in the repository root.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
SETUP_CODE = ("import sys, time\n"
              "t0 = time.perf_counter()\n"
              "import flownet\n"
              "flownet.load_scenario(sys.argv[1])\n"
              "print(repr(time.perf_counter() - t0))\n")


class SpeedSampler:
    """Samples the host's speed while a job runs.

    On shared hosts the CPU's throughput drifts with other tenants' load,
    by up to 1.5x within seconds on a 2-core VM, which swamps the effect of
    most code changes on wall time.  An interval timer interrupts the job
    every ``INTERVAL`` seconds to time a fixed kernel that touches no
    flownet code: a Python loop over small-array numpy operations, the shape
    of flownet's own hot paths, whose slowdown tracked the jobs' better than
    pure-Python loops did.  A job's time in reference units is its wall
    time, less the time spent in the kernel, times the mean sampled speed
    (kernels per second).  That cancels most of the drift, while a slower
    program still reads proportionally slower.
    """

    INTERVAL = 0.05

    def __init__(self):
        self._a = np.linspace(0.5, 2.0, 16)
        self._x0 = np.linspace(0.0, 1.0, 16)
        self.samples = []
        self.spent = 0.0

    def _kernel(self):
        x = self._x0
        for _ in range(200):
            x = 0.5 * x + 0.1 * np.exp(-self._a * x)
        return x

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter()
        self._kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, wall_s):
        """(net seconds, reference units) of a job that took ``wall_s``."""
        net = wall_s - self.spent
        if not self.samples:  # shorter than one interval: sample once now
            self._tick()
        return net, net * statistics.fmean(1.0 / d for d in self.samples)


def _import_flownet():
    """Import the package from this checkout's ``src``, never an installed copy."""
    if not (SRC / "flownet" / "__init__.py").is_file():
        sys.exit(f"error: no flownet sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import flownet

    if Path(flownet.__file__).resolve().parent != (SRC / "flownet").resolve():
        sys.exit(f"error: imported flownet from {flownet.__file__}, not from {SRC}")
    return flownet


def setup_seconds(scenario: Path) -> list:
    """``import flownet`` plus ``load_scenario``, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(scenario)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def metadata(flownet, workload, seed) -> dict:
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "flownet").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "inputs_sha256": workload.inputs,
        "git_sha": sha,
        "src_sha256": src_digest.hexdigest(),
        "flownet": flownet.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
    }


class Runner:
    """Runs one workload's jobs, times them and checks every output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first_output = None
        self.results = []  # one per job that returned, checked
        self.started = 0
        self.sampler = SpeedSampler()

    def _tally(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def run_job(self, tracer=None):
        self.started += 1
        if tracer is not None:
            tracer.job = self.started
        gc.collect()
        try:
            with self.sampler:
                t0 = perf_counter()
                res = self.workload.job()
                wall = perf_counter() - t0
        except Exception:  # a crashed job is a failed job; keep measuring the rest
            traceback.print_exc(file=sys.stderr)
            self._tally("job raised", False)
            return
        res["job_s"], res["job_ref"] = self.sampler.normalise(wall)
        if res["rc"] != 0 and res["stderr"]:
            sys.stderr.write(res["stderr"])
        self._tally("exit 0", res["rc"] == 0)
        for name, ok in self.workload.check(res):
            self._tally(name, ok)
        if self.first_output is None:
            self.first_output = res["output"]
        else:
            self._tally("rerun byte-identical", res["output"] == self.first_output)
        res["bytes_written"] = sum(len(blob) for blob in res.pop("output"))
        res["job_id"] = self.started
        self.results.append(res)

    def run_for(self, seconds, tracer=None):
        """Start jobs until ``seconds`` have passed (at least one job).

        Returns the jobs that completed.  With a tracer, each job's spans
        carry the job's ``job_id``.
        """
        start = len(self.results)
        t0 = perf_counter()
        while True:
            self.run_job(tracer)
            if perf_counter() - t0 >= seconds:
                return self.results[start:]


def end_to_end(workload, jobs, setup_times, runner) -> dict:
    """Every end-to-end figure of the run, as name -> (value, unit)."""
    median = statistics.median
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "job_s": (median([r["job_s"] for r in jobs]), "s"),
        "job_ref": (median([r["job_ref"] for r in jobs]), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (runner.failed / runner.attempted, "ratio"),
        workload.rate_name: (median([r["units"] / r.get("unit_s", r["job_s"]) for r in jobs]),
                             "1/s"),
    }
    if "steps" in jobs[0]:
        metrics["steps_per_s"] = (median([r["steps"] / r["job_s"] for r in jobs]), "1/s")
    for name, unit in workload.reported.items():
        values = [r[name] for r in jobs]
        # deterministic figures report their worst case, timings their median
        metrics[name] = (median(values) if unit == "s" else max(values), unit)
    return metrics


def traced_run(flownet, runner, seconds, untraced, outdir) -> dict:
    """Per-layer metrics from traced jobs, plus the tracing overhead."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install(flownet)
    try:
        traced = runner.run_for(seconds, tracer)
    finally:
        tracer.job = None
        tracer.restore()
    tracer.write_spans(outdir / "spans.csv")
    if not traced:
        return {}
    metrics = tracing.layer_metrics(tracer.per_job([r["job_id"] for r in traced]))
    median = statistics.median
    metrics["cli.bytes_written"] = (median([r["bytes_written"] for r in traced]), "bytes")
    # the difference of drift-corrected job times, in seconds at the untraced speed
    base_ref = median([r["job_ref"] for r in untraced])
    seconds_per_ref = median([r["job_s"] for r in untraced]) / base_ref
    metrics["trace.overhead_s"] = (
        (median([r["job_ref"] for r in traced]) - base_ref) * seconds_per_ref, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    flownet = _import_flownet()
    from workloads import WORKLOADS, call

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    outdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = outdir / "jobs"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, workdir, args.seed)
        runner = Runner(workload)
        setup_times = setup_seconds(workload.scenario)

        # warm-up: every command once on a small network, untimed and unchecked
        diamond = str(ROOT / "tests" / "data" / "diamond5.json")
        for warm in (["simulate", diamond, "--horizon", "1", "--out", str(workdir / "warm")],
                     ["resilience", diamond, "--alphas", "0.5", "--samples", "1",
                      "--horizon", "1", "--jobs", "1"],
                     ["mincut", diamond], ["limitflow", diamond, "--sweep", "0:2:3"]):
            call(warm)

        untraced = runner.run_for(args.seconds)
        metrics = {}
        if untraced and args.trace:
            metrics = traced_run(flownet, runner, args.seconds, untraced, outdir)
        elif untraced:
            metrics = end_to_end(workload, untraced, setup_times, runner)
        record = {
            "meta": metadata(flownet, workload, args.seed),
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failures": sorted(set(runner.failures)),
            "setup_s_runs": setup_times,
            "job_s_runs": [r["job_s"] for r in runner.results],
            "job_ref_runs": [r["job_ref"] for r in runner.results],
            "traced_jobs": len(runner.results) - len(untraced) if args.trace else 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        (outdir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  jobs {len(untraced)}"
          + (f" (+{record['traced_jobs']} traced)" if args.trace else ""))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<28} {value:>16.6g} {unit}")
    print(f"  checks attempted {runner.attempted}, failed {runner.failed}"
          + (f": {', '.join(record['failures'])}" if runner.failed else ""))
    print(f"  results in {outdir.relative_to(ROOT)}")
    missing = [name for name in names if name not in metrics]
    if missing:
        print(f"error: no result, metrics missing: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: record["metrics"][k] for k in names}}))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
