"""Command-line surface: validate, simulate, mincut, resilience, limitflow.

Every command is a pure function of (scenario file, flags, seed): rerunning
with the same inputs produces byte-identical outputs.  Relative output
paths resolve against $FLOWNET_OUTDIR when it is set.

Each ``cmd_*`` returns its exit code, its stdout text and its output files
as ``{path: text}``; ``main`` writes the files in order, then stdout, so a
run whose outputs cannot be written prints nothing there.  ``simulate``'s
CSV is the one file a command writes itself, streamed as it integrates.
A manifest records the arguments ``main`` parsed and the SHA-256 of the
scenario bytes the run read.

Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    SimulationConfig,
    LocalSolverError,
    SimulationError,
    _ensemble_blocks,
    _member_trajectories,
    _transfer_estimate,
    limit_flow_estimate,
    network_limit_flows,
)
from .resilience import _attack_setup, estimate_weak_resilience
from .scenario import Scenario, ScenarioError, load_scenario, validate_scenario
from .topology import min_cut_capacity

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _resolve_out(path: str) -> Path:
    base = os.environ.get("FLOWNET_OUTDIR")
    p = Path(path)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _nonnegative_int(text: str) -> int:
    """``--seed`` and ``--samples``: a nonnegative integer, rejected by the parser otherwise."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _output_path(text: str) -> str:
    """``--out`` and ``--report``: a path, refused by the parser when empty."""
    if not text:
        raise argparse.ArgumentTypeError("expected a nonempty path")
    return text


def _float_list(text: str) -> tuple:
    """``--alphas``: comma-separated numbers, rejected by the parser unless each one parses.

    Their values are judged later, with the rest of the run's arguments.
    """
    try:
        return tuple(float(a) for a in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _manifest(prefix: Path, argv, scenario: Scenario, seed, outputs) -> dict:
    """The run's manifest, ``<prefix>.manifest.json``, as one more output file.

    It records ``argv`` as ``main`` parsed it and the digest of the scenario
    bytes the run was parsed from, not of the file as it is afterwards.
    """
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": argv,
        "scenario_sha256": scenario.sha256,
        "seed": seed,
        "tool_version": __version__,
        "outputs": [str(o) for o in outputs],
    }
    return {prefix.parent / (prefix.name + ".manifest.json"): _dump_json(manifest)}


def _build_config(scenario: Scenario, args) -> SimulationConfig:
    """The scenario's settings with the ``--horizon``/``--dt`` overrides given."""
    overrides = {"horizon": args.horizon, "dt": args.dt}
    return replace(scenario.config, **{k: v for k, v in overrides.items() if v is not None})


# Run by path, so the encoder process imports neither flownet nor numpy.
_CSV_ENCODER = Path(__file__).with_name("_csv_encoder.py")


@contextlib.contextmanager
def _csv_encoder(path: Path, columns):
    """Write a CSV file from a child process while the caller computes its rows.

    Yields ``send``, which hands the encoder one C-contiguous float64 block
    of rows, ``len(columns)`` values each.  The encoder formats the text
    beside the caller and writes ``<path>.tmp``, which is renamed to
    ``path`` once the body has returned and the encoder has exited 0.  On
    any failure, the body's own or the encoder's, the encoder is killed and
    reaped and the temporary file deleted: nothing is written, and an
    earlier file at ``path`` stays as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    encoder = subprocess.Popen(
        [sys.executable, "-I", "-S", str(_CSV_ENCODER), str(tmp), str(len(columns))],
        stdin=subprocess.PIPE, stderr=subprocess.PIPE)

    def send(block) -> None:
        data = memoryview(block).cast("B")
        encoder.stdin.write(len(data).to_bytes(8, "little"))
        encoder.stdin.write(data)
        encoder.stdin.flush()

    try:
        try:
            send((",".join(columns) + "\n").encode("utf-8"))
            yield send
            encoder.stdin.close()
        except BrokenPipeError:  # the encoder stopped reading; its exit says why
            raise _encoder_error(encoder) from None
        if encoder.wait() != 0:
            raise _encoder_error(encoder)
        os.replace(tmp, path)
    except BaseException:
        encoder.kill()
        encoder.wait()
        with contextlib.suppress(OSError):  # unsent bytes to a killed reader
            encoder.stdin.close()
        tmp.unlink(missing_ok=True)
        raise
    finally:
        encoder.stderr.close()


def _encoder_error(encoder) -> RuntimeError:
    """The failure of an encoder that exited early or not 0: its exit status
    and the last line it wrote to stderr."""
    status = encoder.wait()
    lines = encoder.stderr.read().decode("utf-8", "replace").strip().splitlines()
    return RuntimeError(f"the CSV encoder exited with status {status}"
                        + (f": {lines[-1]}" if lines else ""))


def cmd_validate(args, argv):
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        report = {"ok": False, "scenario": str(args.scenario),
                  "findings": [{"component": "document", "message": str(exc)}]}
        return EXIT_VALIDATION, _dump_json(report), {}
    report = validate_scenario(scenario)
    text = _dump_json(report)
    return (EXIT_OK if report["ok"] else EXIT_VALIDATION, text,
            {_resolve_out(args.report): text} if args.report else {})


def cmd_simulate(args, argv):
    scenario = load_scenario(args.scenario)
    config = _build_config(scenario, args)
    spec = scenario.perturbation_spec()
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "inflow": scenario.inflow,
    }
    network, rho0, scalings = scenario.network, scenario.initial_density, None
    if spec is not None:
        # attack run: the spec's scalings row from the unperturbed limit flow's
        # densities; the summary reads the perturbed network's capacities
        config, rho0 = _attack_setup(scenario.network, scenario.policy, scenario.inflow, config)
        network, scalings = scenario.network.perturbed(spec), spec.scalings[None]
        summary["attack"] = {
            "alpha": scenario.attack_alpha,
            "magnitude": spec.magnitude,
            # a scaling keeps every median density, so none is stretched
            "stretching": 1.0,
        }

    # checked here, integrated block by block as the encoder takes the rows
    compiled, dt, tail_start, blocks = _ensemble_blocks(scenario.network, scenario.policy, config,
                                                        [rho0], scalings, "stream")
    out = _resolve_out(args.out)
    csv_path = out.parent / (out.name + ".csv")
    topo = scenario.topology
    columns = (["t"] + [f"rho_{lid}" for lid in topo.link_ids]
               + [f"f_{lid}" for lid in topo.link_ids]
               + [f"lambda_{v}" for v in range(topo.num_nodes)])
    with _csv_encoder(csv_path, columns) as send:
        lo, hi, seen = np.inf, -np.inf, 0  # the verdict window's outflow extremes so far
        for records in blocks:
            (block,) = _member_trajectories(compiled, records, config.inflow, dt)
            send(np.column_stack((block.times, block.rho, block.flows, block.node_inflows)))
            tail = block.outflow[max(tail_start - seen, 0):]  # empty before the window
            lo, hi = tail.min(initial=lo), tail.max(initial=hi)
            seen += len(block.times)
        # the last block holds the run's terminal flows, settings and undershoot
        est, flags = limit_flow_estimate(block, network)
        transfer = _transfer_estimate(float(lo), float(hi), block.inflow,
                                      scenario.attack_alpha or 0.0, undershoot=block.max_undershoot)
        summary.update({
            "dt": block.dt,
            "horizon": float(block.times[-1]),
            "terminal_flow": {str(lid): float(block.flows[-1, i])
                              for i, lid in enumerate(block.link_ids)},
            "limit_flow_estimate": {str(lid): float(est[i])
                                    for i, lid in enumerate(block.link_ids)},
            "tail_min_outflow": transfer.tail_min,
            "tail_variation": transfer.tail_variation,
            "converged": not transfer.inconclusive,
            "saturated_links": [lid for lid in block.link_ids if flags[lid]],
            "max_undershoot": block.max_undershoot,
        })
        if scenario.attack_alpha is not None:
            summary["attack"]["defeated"] = not transfer.transferring

    summary_path = out.parent / (out.name + ".summary.json")
    files = {summary_path: _dump_json(summary),
             **_manifest(out, argv, scenario, scenario.seed, [csv_path, summary_path])}
    return EXIT_OK, _dump_json({"outputs": [str(p) for p in (csv_path, *files)]}), files


def cmd_mincut(args, argv):
    scenario = load_scenario(args.scenario)
    caps = scenario.network.capacities()
    # the cut comes certified against the max-flow value of the same run
    capacity, cut = min_cut_capacity(scenario.topology, caps)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.name,
        "capacity": capacity,
        "max_flow": cut.flow_value,
        "cut": {"origin_side": sorted(cut.origin_side), "links": sorted(cut.cut_links)},
    }
    text = _dump_json(doc)
    return EXIT_OK, text, {_resolve_out(args.out): text} if args.out else {}


def cmd_resilience(args, argv):
    scenario = load_scenario(args.scenario)
    config = _build_config(scenario, args)
    seed = args.seed if args.seed is not None else scenario.seed
    given = {"alphas": args.alphas, "n_samples": args.samples}  # else the library's defaults
    report = estimate_weak_resilience(
        scenario.network, scenario.policy, scenario.inflow, config=config, seed=seed,
        **{k: v for k, v in given.items() if v is not None})
    doc = {"schema_version": SCHEMA_VERSION, "scenario": scenario.name}
    doc.update(report.to_dict())
    text = _dump_json(doc)
    if not args.out:
        return EXIT_OK, text, {}
    out = _resolve_out(args.out)
    return EXIT_OK, text, {out: text, **_manifest(out, argv, scenario, seed, [out])}


# Sweep points solved per cascade by ``limitflow``.
_SWEEP_CHUNK = 1024


def cmd_limitflow(args, argv):
    scenario = load_scenario(args.scenario)
    if args.sweep:
        try:
            start, stop, num = args.sweep.split(":")
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite: refused below
                lams = np.linspace(float(start), float(stop), int(num))
        except ValueError as exc:
            raise ScenarioError(f"--sweep expects start:stop:num, got {args.sweep!r}") from exc
        if not np.isfinite(lams).all():
            raise ScenarioError(f"--sweep grid must be finite, got {args.sweep!r}")
        if (lams < 0).any():
            raise ScenarioError(f"--sweep grid must be nonnegative, got point "
                                f"{float(lams[lams < 0][0])!r} in {args.sweep!r}")
    else:
        lams = np.array([scenario.inflow])

    lids = scenario.topology.link_ids
    cols = ["lambda0"] + [f"f_{lid}" for lid in lids] + [f"sat_{lid}" for lid in lids] + ["status"]
    width = 2 * len(lids) + 3  # an ok row's tail ",s_1,...,s_L,ok" of 0/1 flags
    failed = "," * (2 * len(lids) + 1) + "solver failed: residual "  # after a failed row's inflow
    # one text block per chunk of points, written from the cascade's arrays
    # and dropped once formatted; each point is bit for bit its own cascade
    blocks = [",".join(cols) + "\n"]
    for lo in range(0, len(lams), _SWEEP_CHUNK):
        chunk = lams[lo:lo + _SWEEP_CHUNK]
        limits = network_limit_flows(scenario.network, scenario.policy, chunk)
        values = np.column_stack((chunk, limits.flows)).tolist()
        tails = np.full((len(chunk), width), ord(","), dtype=np.uint8)
        tails[:, 1:-2:2] = limits.saturated + ord("0")
        tails[:, -2:] = (ord("o"), ord("k"))
        tails = tails.tobytes().decode("ascii")
        blocks.append("".join([
            f"{point[0]!r}{failed}{err.residual:.3e}\n" if err is not None
            else ",".join(map(repr, point)) + tails[p * width:(p + 1) * width] + "\n"
            for p, (point, err) in enumerate(zip(values, limits.errors))]))
    if not args.out:
        return EXIT_OK, blocks, {}
    out = _resolve_out(args.out)
    return (EXIT_OK, _dump_json({"outputs": [str(out)]}),
            {out: blocks, **_manifest(out, argv, scenario, scenario.seed, [out])})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flownet",
        description="Dynamical flow networks: simulation, min-cut, and resilience analysis",
    )
    parser.add_argument("--version", action="version", version=f"flownet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario document end to end")
    p.add_argument("scenario")
    p.add_argument("--report", type=_output_path, help="also write the JSON report here")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("simulate", help="integrate the dynamics, write CSV + summary")
    p.add_argument("scenario")
    p.add_argument("--horizon", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--out", type=_output_path, required=True,
                   help="output prefix (.csv / .summary.json)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("mincut", help="min-cut capacity and witness cut")
    p.add_argument("scenario")
    p.add_argument("--out", type=_output_path)
    p.set_defaults(fn=cmd_mincut)

    p = sub.add_parser("resilience", help="bracket the weak resilience against min-cut")
    p.add_argument("scenario")
    p.add_argument("--alphas", type=_float_list)
    p.add_argument("--samples", type=_nonnegative_int)
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.add_argument("--horizon", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: verdicts run as in-process ensembles")
    p.add_argument("--out", type=_output_path)
    p.set_defaults(fn=cmd_resilience)

    p = sub.add_parser("limitflow", help="asymptotic flows, optionally swept over inflow")
    p.add_argument("scenario")
    p.add_argument("--sweep", help="inflow grid as start:stop:num")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: the sweep runs as one batched cascade")
    p.add_argument("--out", type=_output_path)
    p.set_defaults(fn=cmd_limitflow)
    return parser


# main's parser, built once per process: parsing leaves it as it was
_parser = functools.cache(build_parser)


def _write(stream, text) -> None:
    """Write a returned text: one string, or ``limitflow``'s list of per-chunk blocks."""
    stream.writelines([text] if isinstance(text, str) else text)


def main(argv=None) -> int:
    """Run one command: write the files it returns in order, then its stdout."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(argv)
    try:
        code, stdout, files = args.fn(args, argv)
        for path, text in files.items():
            with path.open("w", encoding="utf-8") as fh:
                _write(fh, text)
        _write(sys.stdout, stdout)
        return code
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SimulationError, LocalSolverError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:  # an output path that cannot be written (inputs are ScenarioErrors)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # e.g. a --sweep grid larger than memory
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
