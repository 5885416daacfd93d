"""Digests of ``mincut`` and ``limitflow`` CLI output on every ``tests/data``
scenario and on ten seeded 20-node DAGs.

``tests/data/digests/cli_sha256.json`` holds them as recorded with the serial
one-point-at-a-time limit-flow cascade; ``test_limitflow_batch`` checks the
current code against it.  Regenerate only for an intended output change::

    PYTHONPATH=src python tests/cli_digests.py > tests/data/digests/cli_sha256.json
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from flownet import cli

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "digests" / "cli_sha256.json"
DAG_SEEDS = range(10)
SWEEP_POINTS = 41


def dag_document(seed: int, nodes: int = 20, links: int = 44) -> dict:
    """A seeded scenario on a 20-node DAG, the recipe of the benchmark's ``generate_dag``.

    Node v in 1..nodes-2 gets one link from a lower and one to a higher
    node; the rest join random ordered pairs.  Exponential flow functions
    and logit policies with random parameters.
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


def scenario_paths(workdir: Path) -> dict:
    """Every ``tests/data`` scenario plus the seeded DAGs, written under ``workdir``."""
    paths = {p.name: p for p in sorted(DATA.glob("*.json"))}
    for seed in DAG_SEEDS:
        path = workdir / f"dag20-seed{seed}.json"
        path.write_text(json.dumps(dag_document(seed), indent=2) + "\n", encoding="utf-8")
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
