"""The repo's benchmark: one workload per run, end-to-end metrics by
default, per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --workload paper-sizing --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout; it imports the program
from ``src/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import gc
import os
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-sizing", "noc-throughput", "sim-tails", "serve-mix")
#: Server set-ups in a serve-mix run (each starts a child process).
SETUP_REPEATS = 3
#: The tail percentile of each workload: the highest of p90/p95/p99
#: that leaves at least 10 samples beyond it in the workload's slowest
#: 45 s runs on the reference machine.  Fixed, so that every run reports
#: the same percentile.
TAIL_PCT = {"paper-sizing": 95, "noc-throughput": 95, "sim-tails": 95, "serve-mix": 99}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """Latencies, counts, and wall and CPU time of one timed phase.

    Throughput and CPU per op are totals over the phase's rounds, not
    medians over rounds.  A shared 2-vCPU host was seen to alternate
    between two speeds, 1.65x apart, in phases of seconds to minutes; a
    median over rounds jumps from one speed to the other as the share
    of fast rounds crosses one half, where a total moves in proportion
    to it."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.cpu = 0.0

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def add_round(self, wall: float, cpu: float) -> None:
        self.wall += wall
        self.cpu += cpu

    def ops_per_s(self) -> float:
        return self.completed / self.wall

    def cpu_ms_per_op(self) -> float:
        return self.cpu * 1e3 / self.completed


def end_to_end(workload: str, phase: Phase, setups: list[float],
               peak_rss_mb: float) -> dict:
    lat = phase.latencies
    pct = TAIL_PCT[workload]
    tail = percentile(lat, pct)
    beyond = sum(1 for x in lat if x > tail)
    print(f"latency_tail_ms is p{pct} of {len(lat)} samples ({beyond} beyond it)")
    if beyond < 10:
        print("warning: fewer than 10 samples beyond the tail percentile")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "cpu_ms_per_op": (phase.cpu_ms_per_op(), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


PER_LAYER_UNITS = {
    "gen.build_ms": "ms", "analysis.context_ms": "ms", "analysis.hit_ratio": "ratio",
    "core.lower_ms": "ms", "graphs.mcm_ms": "ms", "graphs.mcm_calls": "count",
    "core.cycles_ms": "ms", "core.cycles_enumerated": "count", "core.slack_ms": "ms",
    "solvers.td_compile_ms": "ms", "solvers.heuristic_ms": "ms",
    "solvers.exact_ms": "ms", "solvers.nodes_explored": "count",
    "solvers.queue_tokens": "tokens",
    "sim.compile_ms": "ms", "sim.step_ms": "ms", "sim.node_clocks_per_s": "1/s",
    "schedule.derive_ms": "ms", "stochastic.sample_ms": "ms", "stochastic.mc_ms": "ms",
    "stochastic.tails_ms": "ms", "engine.op_ms": "ms", "engine.overhead_ms": "ms",
    "engine.memo_hit_ratio": "ratio", "server.rtt_ms": "ms", "server.front_ms": "ms",
    "server.parse_ms": "ms", "server.queued_ms": "ms", "server.service_ms": "ms",
    "server.coalesced_ratio": "ratio", "server.cache_served_ratio": "ratio",
    "trace.overhead_pct": "%",
}

#: Span layer -> per-op metric (milliseconds of self time per op).
LAYER_MS = {
    "analysis.context": "analysis.context_ms", "core.lower": "core.lower_ms",
    "graphs.mcm": "graphs.mcm_ms", "core.cycles": "core.cycles_ms",
    "core.slack": "core.slack_ms", "solvers.td_compile": "solvers.td_compile_ms",
    "solvers.heuristic": "solvers.heuristic_ms", "solvers.exact": "solvers.exact_ms",
    "sim.compile": "sim.compile_ms", "sim.step": "sim.step_ms",
    "schedule.derive": "schedule.derive_ms", "stochastic.sample": "stochastic.sample_ms",
    "stochastic.mc": "stochastic.mc_ms", "stochastic.tails": "stochastic.tails_ms",
    "engine.op": "engine.op_ms", "engine.run": "engine.overhead_ms",
    "server.parse": "server.parse_ms",
}


def layer_metrics(busy: dict, counts: dict, ops: int) -> dict:
    """Per-op self times and counts from span totals."""
    out = {metric: busy.get(layer, 0.0) * 1e3 / ops for layer, metric in LAYER_MS.items()}
    out["graphs.mcm_calls"] = counts.get("graphs.mcm", 0) / ops
    out["core.cycles_enumerated"] = counts.get("core.cycles", 0) / ops
    out["solvers.nodes_explored"] = (
        counts.get("solvers.heuristic", 0) + counts.get("solvers.exact", 0)) / ops
    step = busy.get("sim.step", 0.0)
    out["sim.node_clocks_per_s"] = counts.get("sim.step", 0) / step if step else 0.0
    return out


def hit_ratio(counters: dict) -> float:
    hits = sum(v for k, v in counters.items() if k.endswith(".hit"))
    total = hits + sum(v for k, v in counters.items() if k.endswith(".miss"))
    return hits / total if total else 0.0


def run_in_process(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from repro.analysis import context as context_mod

    from perfbench import trace, workloads

    cls = workloads.IN_PROCESS[name]
    setups: list[float] = []

    def set_up():
        gc.collect()
        t0 = time.perf_counter()
        work = cls(seed)
        work.build()
        for i, op in enumerate(work.warm_ops()):
            work.execute(op, f"w{len(setups)}.{i}")
        setups.append(time.perf_counter() - t0)
        return work

    # The first set-up pays the lazy imports; one more runs after every
    # round (outside the timed rounds), so the reported median samples
    # the machine over the whole run, not one moment of it.
    work = set_up()

    recorder = trace.Recorder() if traced else None
    phases = {False: Phase(), True: Phase()}  # keyed by "traced"
    context_delta: dict = {}
    results = []
    errors: list[str] = []
    k = 0
    # A traced run needs at least one untraced and one traced round.
    while k < 1 + traced or sum(p.wall for p in phases.values()) < seconds:
        on = traced and k % 2 == 1
        phase = phases[on]
        uninstall = trace.install(recorder) if on else None
        before = context_mod.global_stats().snapshot()
        t_round, c_round = time.perf_counter(), cpu_seconds()
        for j, op in enumerate(work.ops):
            tag = f"{k}.{j}"
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                result = work.execute(op, tag)
            except Exception as exc:  # every failure is counted and judged
                phase.failed += 1
                if not (op.meta.get("expect_failure")
                        and isinstance(exc, work.expected_failure)):
                    errors.append(f"{op.kind} failed: {type(exc).__name__}: {exc}")
                continue
            phase.latencies.append(time.perf_counter() - t0)
            results.append((k, j, tag, result))
        phase.add_round(time.perf_counter() - t_round, cpu_seconds() - c_round)
        if on:
            uninstall()
            for key, value in context_mod.global_stats().delta(before).items():
                context_delta[key] = context_delta.get(key, 0) + value
        k += 1
        set_up()

    tokens = 0
    first = {}
    for k, j, tag, result in results:
        op = work.ops[j]
        text = workloads.canon(result, tag, op.ignore)
        if j not in first or op.per_round:
            errs, chosen = work.check(op, result, tag)
            errors += [f"{op.kind}: {e}" for e in errs]
            if j not in first:
                tokens += chosen
            first[j] = text
        elif text != first[j]:
            errors.append(f"{op.kind}: round {k} differs from its first result")

    untraced = phases[False]
    out = {"attempted": untraced.attempted + phases[True].attempted,
           "failed": untraced.failed + phases[True].failed, "errors": errors}
    if not traced:
        out["metrics"] = end_to_end(name, untraced, setups, own_peak_rss_mb())
        return out

    busy, counts = trace.self_times(recorder.spans())
    recorder.clear()
    uninstall = trace.install(recorder)
    cls(seed).build()
    uninstall()
    gen_busy, _ = trace.self_times(recorder.spans())
    on = phases[True]
    metrics = layer_metrics(busy, counts, on.completed)
    metrics["gen.build_ms"] = gen_busy.get("gen.build", 0.0) * 1e3
    metrics["analysis.hit_ratio"] = hit_ratio(context_delta)
    metrics["solvers.queue_tokens"] = tokens
    for key in ("engine.memo_hit_ratio", "server.rtt_ms", "server.front_ms",
                "server.queued_ms", "server.service_ms", "server.coalesced_ratio",
                "server.cache_served_ratio"):
        metrics[key] = 0.0
    metrics["trace.overhead_pct"] = overhead_pct(untraced, on)
    out["metrics"] = {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()}
    return out


def overhead_pct(untraced: Phase, traced: Phase) -> float:
    """Extra wall time per completed op with tracing on, in percent."""
    plain = untraced.wall / untraced.completed
    return (traced.wall / traced.completed / plain - 1.0) * 100.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # One CPU for the whole run, server child included (it inherits the
    # mask).  On a shared 2-vCPU host, letting the load generator and the
    # server migrate between CPUs raised the run-to-run spread of
    # serve-mix median latency from 0.23 to 0.40 (five seeds each).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Imports are not part of any metric (set-up starts after them).
    import repro.engine.ops  # noqa: F401

    if args.workload == "serve-mix":
        from perfbench import serve

        out = serve.run(ROOT, args.seed, args.seconds, bool(args.trace))
    else:
        out = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in out["errors"][:20]:
        print(f"CHECK FAILED: {error}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    print(json.dumps({"correct": not out["errors"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if not out["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
