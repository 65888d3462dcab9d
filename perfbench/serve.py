"""The ``serve-mix`` workload: closed-loop JSON-RPC to a ``repro
serve`` child process.

Two keep-alive connections, driven by one asyncio loop in this process,
send the same list of named-system requests in the same order each
round (``measure``, ``simulate``, ``tail``; they coalesce in flight or
are served from the engine cache), followed by requests on inline
systems that no other request carries (``analyze``, ``size_queues``;
cache misses that fill the cache).  A round ends when both connections
are done with it.

Any failed, shed or retried request fails the run: this workload has
no expected failures.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import oracles, run as bench, workloads
from perfbench.workloads import check_simulate, check_tail, frac, tagged

CONNECTIONS = 2
SIM = {"clocks": 300, "warmup": 60}
TAIL = {"clocks": 300, "trials": 60}
#: Named systems and their requests; the seed picks options.
MEASURED = ["fig15", "cofdm", "mesh:8x8", "torus:6x6", "mesh:16x16"]
SIMULATED = ["fig15", "mesh:4x4"]
TAILED = ["fig15", "cofdm"]


class Server:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, root: Path, spans: Path | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        serve = ["serve", "--host", "127.0.0.1", "--port", "0"]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(root / "perfbench" / "serve_traced.py"),
                   str(spans), *serve]
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("the server child did not start")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Mix:
    """The requests of one run: ``named`` is a list of ``(method,
    params)`` sent on every connection; ``unique[conn]`` a list of
    ``(method, doc, options)`` whose systems get a fresh tag each round."""

    def __init__(self, named: list, unique: list, named_docs: dict) -> None:
        self.named = named
        self.unique = unique
        self.named_docs = named_docs

    @classmethod
    def from_seed(cls, seed: int) -> "Mix":
        from repro.server.protocol import resolve_named_system

        rng = random.Random(seed)
        docs = {name: json.loads(resolve_named_system(name))
                for name in sorted({*MEASURED, *SIMULATED, *TAILED})}
        named = [("measure", {"system": s, "options": {"backend": "schedule"}})
                 for s in MEASURED]
        for s in SIMULATED:
            n = len(docs[s]["channels"])
            ladder = [{}] + [{str(c): k for c in rng.sample(range(n), n // 2)}
                             for k in (1, 2)]
            named.append(("simulate", {"system": s, "options": dict(SIM, assignments=ladder)}))
        for s in TAILED:
            spec = {"kind": "bernoulli", "scope": "global",
                    "rate": rng.choice([0.05, 0.1, 0.15]), "seed": rng.randrange(1 << 30)}
            named.append(("tail", {"system": s, "options": dict(TAIL, specs=[spec])}))
        rng.shuffle(named)
        # Per connection, ``analyze`` and exact ``size_queues`` on Fig. 15
        # chains of comparable cost, each in its own seeded order.
        unique = []
        for method in ("exact", "heuristic")[:CONNECTIONS]:
            unique.append([
                ("analyze", workloads.permute(workloads.fig15_chain(6), rng)[0],
                 {"method": method}),
                ("size_queues", workloads.permute(workloads.fig15_chain(10), rng)[0],
                 {"method": "exact"}),
            ])
        return cls(named, unique, docs)

    @classmethod
    def warm_up(cls) -> "Mix":
        """One request of each method on small systems."""
        fig15 = workloads.fig15_doc()
        spec = {"kind": "bernoulli", "scope": "global", "rate": 0.1}
        named = [
            ("measure", {"system": "fig1", "options": {"backend": "schedule"}}),
            ("simulate", {"system": "fig1", "options": dict(SIM, assignments=[{}])}),
            ("tail", {"system": "fig1", "options": dict(TAIL, specs=[spec])}),
        ]
        return cls(named, [[("analyze", fig15, {}),
                            ("size_queues", fig15, {"method": "exact"})]], {})

    def requests(self, k: int, conn: int) -> list[tuple]:
        """``(key, method, params, tag)`` of connection ``conn`` in round
        ``k``; equal keys are identical requests."""
        out = [(f"named.{i}", m, p, None) for i, (m, p) in enumerate(self.named)]
        for i, (method, doc, options) in enumerate(self.unique[conn]):
            tag = f"{k}.{conn}.{i}"
            out.append((f"unique.{conn}.{i}", method,
                        {"lis": tagged(doc, tag), "options": options}, tag))
        return out


class Record:
    """What one phase of requests produced."""

    def __init__(self) -> None:
        self.phase = bench.Phase()
        self.meta: list[dict] = []
        self.values: dict[str, tuple] = {}  # key -> (canonical text, value, tag)
        self.errors: list[str] = []
        self.stats: dict = {}


async def _send_round(client, mix: Mix, conn: int, k: int, record: Record) -> None:
    for key, method, params, tag in mix.requests(k, conn):
        record.phase.attempted += 1
        t0 = time.perf_counter()
        try:
            result = await client.call(method, params)
        except Exception as exc:  # every failure fails the run
            record.phase.failed += 1
            record.errors.append(f"{method} failed: {type(exc).__name__}: {exc}")
            continue
        rtt = time.perf_counter() - t0
        record.phase.latencies.append(rtt)
        record.meta.append(dict(result["meta"], rtt_ms=rtt * 1e3))
        value = result["value"]
        text = workloads.canon(value, tag or "")
        first = record.values.setdefault(key, (text, value, tag))
        if first[0] != text:
            record.errors.append(f"{method} {key}: identical requests differ")


async def _rounds(port: int, mix: Mix, seconds: float, record: Record,
                  first_round: int = 0, cpu=bench.cpu_seconds) -> int:
    """Whole rounds on one keep-alive connection per client until
    ``seconds`` have passed; returns the next round number.  ``cpu``
    reads the CPU seconds of every process of the workload."""
    from repro.server import ServerClient

    clients = [ServerClient("127.0.0.1", port) for _ in range(len(mix.unique))]
    try:
        for client in clients:
            await client.connect()
        start = time.perf_counter()
        k = first_round
        while k == first_round or time.perf_counter() - start < seconds:
            t_round, c_round = time.perf_counter(), cpu()
            await asyncio.gather(*(_send_round(c, mix, i, k, record)
                                   for i, c in enumerate(clients)))
            record.phase.add_round(time.perf_counter() - t_round, cpu() - c_round)
            k += 1
    finally:
        for client in clients:
            if client.retries_used:
                record.errors.append(f"{client.retries_used} requests were retried")
            await client.aclose()
    return k


async def _get(port: int, path: str) -> dict:
    from repro.server import ServerClient

    async with ServerClient("127.0.0.1", port) as client:
        if path == "/healthz":
            return {"ok": await client.healthz()}
        return await client.stats()


def _phase(server: Server, mix: Mix, seconds: float, record: Record, first_round: int) -> int:
    def cpu() -> float:
        return bench.cpu_seconds() + server.cpu_seconds()

    k = asyncio.run(_rounds(server.port, mix, seconds, record, first_round, cpu))
    stats = asyncio.run(_get(server.port, "/stats"))
    if stats["requests"]["shed"]:
        record.errors.append(f"{stats['requests']['shed']} requests were shed")
    record.stats = stats
    return k


def _start(root: Path, spans: Path | None = None) -> Server:
    """A server child, healthy and warmed up."""
    server = Server(root, spans)
    record = Record()
    try:
        if not asyncio.run(_get(server.port, "/healthz"))["ok"]:
            raise RuntimeError("the server child is not healthy")
        asyncio.run(_rounds(server.port, Mix.warm_up(), 0.0, record))
        if record.errors:
            raise RuntimeError(f"warm-up failed: {record.errors[0]}")
    except BaseException:
        server.stop()
        raise
    return server


def check(mix: Mix, record: Record) -> tuple[list[str], int]:
    """Oracle checks of every distinct request's first value."""
    errors, tokens = [], 0
    for key, (_text, value, tag) in sorted(record.values.items()):
        if key.startswith("named."):
            method, params = mix.named[int(key.split(".")[1])]
            doc = mix.named_docs[params["system"]]
            options = params["options"]
            if method == "measure":
                errs = workloads.check_measure(doc, value)
            elif method == "simulate":
                ladder = [{int(c): x for c, x in a.items()} for a in options["assignments"]]
                errs = check_simulate(doc, value, ladder, options["clocks"],
                                      options["warmup"], "")
            else:
                errs = check_tail(doc, value, options["specs"][0], options["clocks"],
                                  options["trials"], {})
        else:
            _, conn, i = key.split(".")
            method, doc, options = mix.unique[int(conn)][int(i)]
            errs, chosen = _check_unique(method, doc, value, options)
            tokens += chosen
        errors += [f"{key}: {e}" for e in errs]
    return errors, tokens


def _check_unique(method: str, doc: dict, value: dict,
                  options: dict) -> tuple[list[str], int]:
    from types import SimpleNamespace

    if method == "size_queues":
        return workloads.check_size(doc, SimpleNamespace(**value), options["method"])
    ideal, actual = oracles.ideal_mst(doc), oracles.mst(doc)
    errs = []
    if (frac(value["ideal"]), frac(value["practical"])) != (ideal, actual):
        errs.append(f"analyze {value['ideal']}/{value['practical']} != {ideal}/{actual}")
    if value["fix"] is None:
        return errs + ([] if actual == ideal else ["no fix for a degraded system"]), 0
    fix_errs, chosen = workloads.check_size(doc, SimpleNamespace(**value["fix"]),
                                            options.get("method", "heuristic"))
    return errs + fix_errs, chosen


def run(root: Path, seed: int, seconds: float, traced: bool) -> dict:
    from perfbench import trace

    setups, servers = [], []
    try:
        for _ in range(bench.SETUP_REPEATS):
            t0 = time.perf_counter()
            mix = Mix.from_seed(seed)
            servers.append(_start(root))
            setups.append(time.perf_counter() - t0)
            if len(servers) > 1:
                servers.pop(0).stop()
        server = servers[0]
        plain = Record()
        k = _phase(server, mix, seconds / 2 if traced else seconds, plain, 0)
        peak = max(bench.own_peak_rss_mb(), server.peak_rss_mb())
        server.stop()
        servers.clear()
        errors, tokens = check(mix, plain)
        errors = plain.errors + errors
        out = {"attempted": plain.phase.attempted, "failed": plain.phase.failed}
        if not traced:
            out["metrics"] = bench.end_to_end("serve-mix", plain.phase, setups, peak)
            out["errors"] = errors
            return out

        runs = root / "perfbench" / ".runs"
        runs.mkdir(exist_ok=True)
        spans_path = runs / f"spans-{os.getpid()}.json"
        server = _start(root, spans_path)
        servers.append(server)
        traced_rec = Record()
        t_start = time.perf_counter()
        _phase(server, mix, seconds / 2, traced_rec, k)
        memo = traced_rec.stats["cache"]
        server.stop()
        servers.clear()
        with open(spans_path) as fh:
            dumped = json.load(fh)
        spans_path.unlink()
    finally:
        for s in servers:
            s.stop()

    errors += traced_rec.errors + check(mix, traced_rec)[0]
    out["attempted"] += traced_rec.phase.attempted
    out["failed"] += traced_rec.phase.failed
    out["errors"] = errors
    busy, counts = trace.self_times(dumped["spans"], since=t_start)
    ops = traced_rec.phase.completed
    metrics = bench.layer_metrics(busy, counts, ops)
    metrics["gen.build_ms"] = busy.get("gen.build", 0.0) * 1e3 / ops
    metrics["analysis.hit_ratio"] = bench.hit_ratio(dumped["context"])
    metrics["solvers.queue_tokens"] = tokens
    hits, misses = memo["engine_hits"], memo["engine_misses"]
    metrics["engine.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    meta = traced_rec.meta
    mean = statistics.fmean
    metrics["server.rtt_ms"] = mean(m["rtt_ms"] for m in meta)
    metrics["server.queued_ms"] = mean(m["queued_ms"] for m in meta)
    metrics["server.service_ms"] = mean(m["service_ms"] for m in meta)
    metrics["server.front_ms"] = mean(m["rtt_ms"] - m["queued_ms"] - m["service_ms"]
                                      for m in meta)
    metrics["server.coalesced_ratio"] = mean(1.0 if m["coalesced"] else 0.0 for m in meta)
    metrics["server.cache_served_ratio"] = mean(1.0 if m["cache_served"] else 0.0
                                                for m in meta)
    metrics["trace.overhead_pct"] = bench.overhead_pct(plain.phase, traced_rec.phase)
    out["metrics"] = {k: (v, bench.PER_LAYER_UNITS[k]) for k, v in metrics.items()}
    return out
