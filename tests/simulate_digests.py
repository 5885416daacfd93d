"""Digests of ``simulate`` output: the trajectory CSV and the summary JSON.

``tests/data/digests/simulate_sha256.json`` holds them as recorded when the
CSV was still built as one string; ``test_scenario_cli`` checks the current
code against it.  The runs are every ``tests/data`` scenario that validates
at ``--horizon 7.3 --dt 0.011``, ``random8`` at those settings with a
``record_stride`` of 3 (which does not divide its 664 steps, so the final
step is kept off the stride grid), and the ``example3_cutattack`` attack run
at its document horizon.

``tests/data/digests/simulate_dag_sha256.json`` holds the same digests for
seeded 20-node DAGs built as ``tests/cli_digests.py`` builds them (44 links,
nodes with up to 8 in-links, wider node inflow sums than any ``tests/data``
scenario), at the same short settings: three from zero densities, one from
seeded random densities, and one cut attack.  Regenerate only for an
intended output change::

    PYTHONPATH=src python tests/simulate_digests.py > tests/data/digests/simulate_sha256.json
    PYTHONPATH=src python tests/simulate_digests.py dag > tests/data/digests/simulate_dag_sha256.json
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from cli_digests import _generate_dag
from flownet import cli, load_scenario, validate_scenario
from flownet.scenario import ScenarioError

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "digests" / "simulate_sha256.json"
DAG_DIGESTS = DATA / "digests" / "simulate_dag_sha256.json"
# the largest in-degree of these seeds' DAGs is 7, 8, 8 and 7
DAG_SEEDS = (2, 6, 8, 9)
SHORT = ["--horizon", "7.3", "--dt", "0.011"]


def _validates(path: Path) -> bool:
    try:
        return validate_scenario(load_scenario(path))["ok"]
    except ScenarioError:
        return False


def simulate_runs(workdir: Path) -> dict:
    """Run name -> (scenario path, extra ``simulate`` arguments)."""
    runs = {f"{p.name} short": (p, SHORT) for p in sorted(DATA.glob("*.json")) if _validates(p)}
    doc = json.loads((DATA / "random8.json").read_text(encoding="utf-8"))
    doc["simulation"] = {"record_stride": 3}
    strided = workdir / "random8_stride3.json"
    strided.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    runs["random8.json short stride3"] = (strided, SHORT)
    runs["example3_cutattack.json attack"] = (DATA / "example3_cutattack.json", [])
    return runs


def dag_runs(workdir: Path) -> dict:
    """Run name -> (scenario path, extra ``simulate`` arguments) on the seeded DAGs."""
    generate_dag = _generate_dag()
    docs = {f"dag20-seed{seed}": generate_dag(seed) for seed in DAG_SEEDS}
    seeded, rng = docs[f"dag20-seed{DAG_SEEDS[-1]}"], random.Random(DAG_SEEDS[-1])
    seeded["simulation"] = {"initial_density": {str(link["id"]): round(rng.uniform(0.0, 3.0), 6)
                                                for link in seeded["links"]}}
    attack = generate_dag(DAG_SEEDS[1])
    attack["perturbation"] = {"cut_attack": {"alpha": 0.25}}
    docs[f"dag20-seed{DAG_SEEDS[1]}-cutattack"] = attack
    runs = {}
    for name, doc in docs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        runs[f"{name} short"] = (path, SHORT)
    return runs


def simulate_digests(path: Path, extra, workdir: Path) -> dict:
    """SHA-256 of the CSV and summary ``simulate`` writes; raises unless it exits 0."""
    prefix = workdir / "run"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["simulate", str(path), *extra, "--out", str(prefix)])
    if rc != 0:
        raise RuntimeError(f"simulate {path.name} exited {rc}: {err.getvalue()}")
    return {ext: hashlib.sha256(Path(f"{prefix}.{ext}").read_bytes()).hexdigest()
            for ext in ("csv", "summary.json")}


if __name__ == "__main__":
    import tempfile

    runs = dag_runs if sys.argv[1:] == ["dag"] else simulate_runs
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        doc = {name: simulate_digests(path, extra, work)
               for name, (path, extra) in runs(work).items()}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
