"""Digests of ``mincut`` and ``limitflow`` CLI output on every ``tests/data``
scenario and on ten seeded 20-node DAGs from the benchmark's ``generate_dag``.

``tests/data/digests/cli_sha256.json`` holds them as recorded with the serial
one-point-at-a-time limit-flow cascade; ``test_limitflow_batch`` checks the
current code against it.  Regenerate only for an intended output change::

    PYTHONPATH=src python tests/cli_digests.py > tests/data/digests/cli_sha256.json
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
DAG_SEEDS = range(10)
SWEEP_POINTS = 41


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


def cli_digests(path: Path) -> dict:
    """SHA-256 of exit code, stdout and stderr of ``mincut``, ``limitflow`` and
    ``limitflow --sweep 0:2C:41`` (C from ``mincut``; 2 when it fails)."""
    runs = {"mincut": _run(["mincut", str(path)])}
    try:
        stop = 2.0 * json.loads(runs["mincut"].split("\n", 1)[1])["capacity"]
    except (json.JSONDecodeError, KeyError):
        stop = 2.0
    runs["limitflow"] = _run(["limitflow", str(path)])
    runs["sweep"] = _run(["limitflow", str(path), "--sweep", f"0:{stop!r}:{SWEEP_POINTS}"])
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in runs.items()}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: cli_digests(path) for name, path in scenario_paths(Path(tmp)).items()}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
