"""Span tracing of flownet's modules, installed from outside the package.

``Tracer.install`` replaces each module's public functions (and the
methods that carry per-call work: ``LogitPolicy.route``/``jacobian`` and
``PerturbationSpec.__init__``) with wrappers that record one span per call:
``(name, start, end, parent index, job id)``.  Copies bound elsewhere by
``from .x import y`` (in ``resilience``, ``cli``, ``scenario``, ``dynamics``
and the package namespace) are rebound too, so every call path is seen.
Spans stay in memory until ``write_spans``; ``restore`` puts the original
functions back.
"""

from __future__ import annotations

import functools
import inspect
import statistics
from time import perf_counter

MODULES = ("scenario", "topology", "flows", "routing", "dynamics", "resilience", "cli")

# Per-call work counted at the same boundary as the span: name -> result -> counts.
RESULT_COUNTS = {
    "dynamics.simulate": lambda traj: {
        "rk4_steps": round((traj.times[-1] - traj.times[0]) / traj.dt),
        "states_recorded": len(traj.times),
    },
    "resilience.evaluate_attack": lambda outcome: {"inconclusive": int(outcome.inconclusive)},
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job id)
        self.counts = {}  # (job id, key) -> int
        self.job = None
        self._current = -1
        self._restore = []

    def _wrap(self, name, fn):
        spans = self.spans
        on_result = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = self._current
            self._current = idx
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._current = parent
                spans[idx] = (name, t0, t1, parent, self.job)
            if on_result is not None:
                for key, n in on_result(result).items():
                    k = (self.job, key)
                    self.counts[k] = self.counts.get(k, 0) + n
            return result

        return traced

    def install(self, package):
        """Wrap every public function of the package's modules in place."""
        modules = {m: getattr(package, m) for m in MODULES}
        wrapped = {}  # original function -> wrapper
        for mname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{mname}.{attr}", obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for cls, attr, name in (
            (package.routing.LogitPolicy, "route", "routing.LogitPolicy.route"),
            (package.routing.LogitPolicy, "jacobian", "routing.LogitPolicy.jacobian"),
            (package.flows.PerturbationSpec, "__init__", "flows.PerturbationSpec"),
        ):
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, t0, t1, parent, job in self.spans:
                fh.write(f"{name},{t0!r},{t1!r},{parent},{'' if job is None else job}\n")

    def per_job(self, jobs):
        """Aggregate the spans of each job id in ``jobs``.

        Returns one dict per job with ``durations[name]`` (one inclusive
        duration per call), ``self_s[module]`` (span time not covered by
        child spans) and the result counts.
        """
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {j: {"durations": {}, "self_s": {m: 0.0 for m in MODULES}, "counts": {}}
               for j in jobs}
        for i, (name, t0, t1, parent, job) in enumerate(self.spans):
            agg = out.get(job)
            if agg is None:
                continue
            dur = t1 - t0
            agg["durations"].setdefault(name, []).append(dur)
            agg["self_s"][name.split(".", 1)[0]] += dur - child_time[i]
        for (job, key), n in self.counts.items():
            if job in out:
                out[job]["counts"][key] = n
        return [out[j] for j in jobs]


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(per_job):
    """The per-layer metrics, each a per-job figure over the traced jobs.

    Counts are per job (identical across jobs of one run); times are the
    median over jobs of each job's total, except the ``_p50`` figures,
    which are medians over single calls.  A layer the workload never calls
    reads 0.
    """
    def calls(*names):
        return statistics.fmean(sum(len(j["durations"].get(n, ())) for n in names)
                                for j in per_job)

    def total(*names):
        return _median([sum(sum(j["durations"].get(n, ())) for n in names) for j in per_job])

    def count(key):
        return statistics.fmean(j["counts"].get(key, 0) for j in per_job)

    def p50(name):
        return _median([d for j in per_job for d in j["durations"].get(name, [])])

    steps = count("rk4_steps")
    verdicts = calls("resilience.evaluate_attack")
    inconclusive = count("inconclusive")
    sim_s = total("dynamics.simulate")
    metrics = {
        "scenario.load_s": (p50("scenario.load_scenario"), "s"),
        "topology.min_cut_calls": (calls("topology.min_cut_capacity"), "count"),
        "topology.min_cut_s": (total("topology.min_cut_capacity"), "s"),
        "topology.order_calls": (calls("topology.topological_order"), "count"),
        "flows.perturbation_specs": (calls("flows.PerturbationSpec"), "count"),
        "flows.perturbation_s": (total("flows.PerturbationSpec"), "s"),
        "routing.property_check_s": (total("routing.check_property_a", "routing.check_property_b"), "s"),
        "routing.route_calls": (calls("routing.LogitPolicy.route"), "count"),
        "routing.jacobian_calls": (calls("routing.LogitPolicy.jacobian"), "count"),
        "dynamics.simulate_calls": (calls("dynamics.simulate"), "count"),
        "dynamics.simulate_s": (sim_s, "s"),
        "dynamics.rk4_steps": (steps, "count"),
        "dynamics.step_us": (1e6 * sim_s / steps if steps else 0.0, "us"),
        "dynamics.states_recorded": (count("states_recorded"), "count"),
        "dynamics.limit_flow_calls": (calls("dynamics.network_limit_flow"), "count"),
        "dynamics.limit_flow_s": (total("dynamics.network_limit_flow"), "s"),
        "dynamics.local_solve_calls": (calls("dynamics.local_limit_flow"), "count"),
        "dynamics.local_solve_s_p50": (p50("dynamics.local_limit_flow"), "s"),
        "resilience.verdicts": (verdicts, "count"),
        "resilience.verdict_s_p50": (p50("resilience.evaluate_attack"), "s"),
        "resilience.inconclusive": (inconclusive, "count"),
        "resilience.conclusive_frac": ((verdicts - inconclusive) / verdicts if verdicts else 0.0,
                                       "ratio"),
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = (_median([j["self_s"][module] for j in per_job]), "s")
    return metrics
