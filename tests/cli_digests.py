"""Digests of ``mincut`` and ``limitflow`` CLI output on every ``tests/data``
scenario and on ten seeded 20-node DAGs from the benchmark's ``generate_dag``.

``tests/data/digests/cli_sha256.json`` holds them as recorded with the serial
one-point-at-a-time limit-flow cascade; ``test_limitflow_batch`` checks the
current code against it.  ``tests/data/digests/cli_long_sweep_sha256.json``
holds the ``LONG_SWEEPS``, sweeps longer than one ``cli._SWEEP_CHUNK``
chunk, as recorded when each row was built from its point's ``LimitFlow``.
Regenerate only for an intended output change::

    PYTHONPATH=src python tests/cli_digests.py > tests/data/digests/cli_sha256.json
    PYTHONPATH=src python tests/cli_digests.py long > tests/data/digests/cli_long_sweep_sha256.json
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from flownet import cli

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "digests" / "cli_sha256.json"
LONG_DIGESTS = DATA / "digests" / "cli_long_sweep_sha256.json"
DAG_SEEDS = range(10)
SWEEP_POINTS = 41
# scenario -> the --sweep of a run longer than one 1 024-point chunk; "C" is
# the scenario's min-cut capacity.  anti_cooperative's failed rows lie on
# both sides of the chunk boundary.
LONG_SWEEPS = {
    "diamond5.json": "0:3.2:2500",
    "anti_cooperative.json": "0:1.55:1100",
    "dag20-seed0.json": "0:2C:1025",
}


def _generate_dag():
    """The benchmark's seeded DAG recipe, ``bench/workloads.generate_dag``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate_dag


def scenario_paths(workdir: Path) -> dict:
    """Every ``tests/data`` scenario plus the seeded DAGs, written under ``workdir``."""
    paths = {p.name: p for p in sorted(DATA.glob("*.json"))}
    generate_dag = _generate_dag()
    for seed in DAG_SEEDS:
        path = workdir / f"dag20-seed{seed}.json"
        path.write_text(json.dumps(generate_dag(seed), indent=2) + "\n", encoding="utf-8")
        paths[path.name] = path
    return paths


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return f"{rc}\n{out.getvalue()}{err.getvalue()}"


def _digest(run: str) -> str:
    return hashlib.sha256(run.encode()).hexdigest()


def _capacity(mincut_run: str):
    """The min-cut capacity in a ``mincut`` run's output; None when it failed."""
    try:
        return json.loads(mincut_run.split("\n", 1)[1])["capacity"]
    except (json.JSONDecodeError, KeyError):
        return None


def cli_digests(path: Path) -> dict:
    """SHA-256 of exit code, stdout and stderr of ``mincut``, ``limitflow`` and
    ``limitflow --sweep 0:2C:41`` (C from ``mincut``; 2 when it fails)."""
    runs = {"mincut": _run(["mincut", str(path)])}
    capacity = _capacity(runs["mincut"])
    stop = 2.0 if capacity is None else 2.0 * capacity
    runs["limitflow"] = _run(["limitflow", str(path)])
    runs["sweep"] = _run(["limitflow", str(path), "--sweep", f"0:{stop!r}:{SWEEP_POINTS}"])
    return {k: _digest(v) for k, v in runs.items()}


def long_sweep_argv(paths: dict) -> dict:
    """Each ``LONG_SWEEPS`` scenario's ``limitflow --sweep`` arguments, "C" resolved."""
    argv = {}
    for name, sweep in LONG_SWEEPS.items():
        start, stop, num = sweep.split(":")
        if stop.endswith("C"):
            capacity = _capacity(_run(["mincut", str(paths[name])]))
            stop = repr(float(stop[:-1]) * capacity)
        argv[name] = ["limitflow", str(paths[name]), "--sweep", f"{start}:{stop}:{num}"]
    return argv


def long_sweep_digests(paths: dict) -> dict:
    """SHA-256 of exit code, stdout and stderr of each ``LONG_SWEEPS`` run."""
    return {name: _digest(_run(argv)) for name, argv in long_sweep_argv(paths).items()}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = scenario_paths(Path(tmp))
        if sys.argv[1:] == ["long"]:
            doc = long_sweep_digests(paths)
        else:
            doc = {name: cli_digests(path) for name, path in paths.items()}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
