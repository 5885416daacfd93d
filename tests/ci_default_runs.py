"""Run one default-settings CLI command and check its recorded digests and peak RSS.

Usage::

    PYTHONPATH=src python tests/ci_default_runs.py <name>

``<name>`` is a row of ``RUNS``: the command runs once in a child process
with ``-W error::RuntimeWarning``, so a numpy warning fails the run, its
outputs are hashed with SHA-256, and the script exits nonzero unless
every digest matches and the child's peak RSS stays at or below the row's
bound.  A run with an ``--out`` prefix must also leave
``<prefix>.manifest.json`` naming the child's own arguments and the
SHA-256 of its scenario file.  One line reports the digests, the
manifest's verdict, the peak RSS and the wall time; a digest mismatch adds
a line naming this host's class and the class the digests were recorded on
(``host_class.py``).  The runs take seconds each, so pytest does not collect
this file.
"""

import hashlib
import json
import pathlib
import resource
import subprocess
import sys
import tempfile
import time

from host_class import mismatch

# name -> (CLI arguments, the outputs' SHA-256 digests, peak RSS bound in MB).
# An output is stdout ("stdout") or the file at the ``--out`` prefix plus a
# suffix ("csv", "summary.json"); "{out}" in the arguments is that prefix.
RUNS = {
    "diamond5-resilience": (
        ["resilience", "tests/data/diamond5.json"],
        {"stdout": "e628f33f720913111aea9c5dff41ef6f69aa733724a0744651e10a08ef3eabb3"},
        80),
    "random8-resilience": (
        ["resilience", "tests/data/random8.json"],
        {"stdout": "898d665670965c4b4beabe91248e9dcccc467b3fdb11715c510a4245700edf24"},
        140),
    "random8-simulate": (
        ["simulate", "tests/data/random8.json", "--out", "{out}"],
        {"csv": "2dcf760e8268ce5044989c7ff591dd4b7d88bfd0729f69f14a643235b8dfabbc",
         "summary.json": "a44870ede2df937c86385fabde4ce69b71a6ec9204cfbba9f36ec159b9e64053"},
        90),
    # an attack run at the document's horizon of 250; digests and peak RSS (35.7 MB)
    # recorded when the run still integrated a perturbed copy of the network
    "example3_cutattack-simulate": (
        ["simulate", "tests/data/example3_cutattack.json", "--out", "{out}"],
        {"csv": "0544357b569bbf708e7e11e4a364348c744f3f2f87c7f670f37cc134a90822ed",
         "summary.json": "50edf6c5fb18b412d9855aae5ef563fb95ad0a84f4d75d3f0fa4b001a38bcab4"},
        60),
    # 20 001 points in 20 cascades of cli._SWEEP_CHUNK points; digest and peak
    # RSS (45.6 MB, 7.3 MB of it the returned text) recorded when each row was
    # built from its point's LimitFlow
    "random8-sweep": (
        ["limitflow", "tests/data/random8.json", "--sweep", "0:1.2:20001"],
        {"stdout": "78eddbce991f5803b5bfd9578875df38b0d341c58a59822a212614baffef2c0b"},
        60),
}


def run(name: str) -> bool:
    """Run ``RUNS[name]``, print its report line, and say whether it passed."""
    args, want, bound_mb = RUNS[name]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        prefix = pathlib.Path(tmp) / name.split("-")[0]
        argv = [a.format(out=prefix) for a in args]
        stdout = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                                 "-m", "flownet.cli"] + argv,
                                stdout=subprocess.PIPE, check=True).stdout
        got = {out: hashlib.sha256(stdout if out == "stdout"
                                   else pathlib.Path(f"{prefix}.{out}").read_bytes()).hexdigest()
               for out in want}
        manifest_ok = "{out}" not in args or _manifest_ok(prefix, argv)
    wall_s = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    digests = ", ".join(("" if out == "stdout" else f"{out.split('.')[0]} ") + f"sha256 {digest}"
                        for out, digest in got.items())
    manifest = "" if "{out}" not in args else f", manifest {'ok' if manifest_ok else 'MISMATCH'}"
    print(f"{digests}{manifest}, peak RSS {peak_mb:.1f} MB, wall {wall_s:.1f} s")
    if got != want:
        print(mismatch(f"{name} output"))
    return got == want and manifest_ok and peak_mb <= bound_mb


def _manifest_ok(prefix: pathlib.Path, argv) -> bool:
    """Whether ``<prefix>.manifest.json`` records ``argv``, the arguments the
    child got, and the SHA-256 of the scenario file ``argv[1]``."""
    manifest = json.loads(pathlib.Path(f"{prefix}.manifest.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(pathlib.Path(argv[1]).read_bytes()).hexdigest()
    return manifest["command"] == argv and manifest["scenario_sha256"] == digest


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in RUNS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(RUNS)}}}")
    sys.exit(not run(sys.argv[1]))
