"""The benchmark's workloads: inputs made from a seed, the operations
of one round, and the checks each result must pass.

A run repeats *rounds*: the same operations on the same systems, in
the same order.  Every operation of every round gets content no other
operation has -- its shell names carry a tag ``<round>.<op>~`` -- so
the program's fingerprint-keyed caches never answer for it, and a
result compares with its round-0 twin once the tag is stripped.  The
round-0 results are checked against :mod:`perfbench.oracles`.

The seed permutes the order of shells and channels of every system
(channel ids change with it), the order of the operations in a round,
and draws the stall processes and request options.  The systems
themselves are fixed: the cost of an operation, and the tokens a
sizing chooses, then depend on the seed only through those orders.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from perfbench import oracles

#: Table V placements (channel pairs of the reconstructed COFDM SoC)
#: whose two relay stations degrade the MST at q = 1, and four that
#: do not; taken in the order ``pairs[(97 * i) % 435]``.
COFDM_DEGRADED = [(0, 1), (3, 17), (7, 20), (1, 23), (9, 29), (15, 27), (0, 4), (3, 20)]
COFDM_INTACT = [(12, 22), (19, 28), (5, 18), (12, 25)]

#: Table IV rows (v, s, c) with fixed generator seeds; rs = 10 relay
#: stations, all between SCCs.
TABLE4 = [(50, 10, 2, 3000), (50, 10, 2, 3001), (100, 10, 1, 3000),
          (100, 10, 1, 3001), (100, 20, 1, 3000), (100, 20, 1, 3001)]

#: Chains of k Fig. 15 copies; each copy needs exactly 2 tokens.
FIG15_CHAINS = [2, 4, 6, 8]

#: Shell-name separator of the per-operation tag.
SEP = "~"

#: The cycle cap under which the ILP optimum is computed.
ILP_CAP = 20000


@dataclass
class Op:
    """One operation of a round.  ``options`` may be a function of the
    tag, for options that name shells."""

    kind: str
    op: str
    doc: dict
    options: object = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    #: Result keys that may differ between rounds (see ``canon``).
    ignore: tuple = ()
    #: The result depends on shell names, so every round is checked
    #: against the oracle instead of against round 0.
    per_round: bool = False

    def opts(self, tag: str) -> dict:
        return self.options(tag) if callable(self.options) else self.options


def tagged(doc: dict, tag: str) -> str:
    """The document as JSON text with every shell name prefixed."""
    pre = tag + SEP
    return json.dumps({
        "default_queue": doc.get("default_queue", 1),
        "shells": {pre + k: v for k, v in doc["shells"].items()},
        "channels": [dict(c, src=pre + c["src"], dst=pre + c["dst"])
                     for c in doc["channels"]],
    })


def permute(doc: dict, rng: random.Random) -> tuple[dict, list[int]]:
    """Shuffle shell and channel order; ``ids[old] = new`` channel id."""
    shells = list(doc["shells"].items())
    rng.shuffle(shells)
    order = list(range(len(doc["channels"])))
    rng.shuffle(order)
    ids = [0] * len(order)
    for new, old in enumerate(order):
        ids[old] = new
    return {
        "default_queue": doc.get("default_queue", 1),
        "shells": dict(shells),
        "channels": [dict(doc["channels"][old]) for old in order],
    }, ids


def canon(value, tag: str, ignore=()) -> str:
    """Round-independent text of a result: timings and the ``ignore``
    keys dropped, Fractions exact, the tag stripped from shell names."""
    plain = _plain(value)
    if isinstance(plain, dict):
        plain = {k: v for k, v in plain.items() if k not in ignore}
    return json.dumps(plain, sort_keys=True).replace(tag + SEP, "")


_TIMING_KEYS = {"elapsed", "enumeration_elapsed", "cpu_ms", "heuristic_ms",
                "exact_ms", "deadline_overshoot"}


def _plain(value):
    import dataclasses

    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()
                if str(k) not in _TIMING_KEYS}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(_plain(v)) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _plain({f.name: getattr(value, f.name)
                       for f in dataclasses.fields(value)})
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "value") and type(value).__module__.startswith("repro"):
        return value.value  # enums
    return value


def frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(str(value))


def lis_doc(lis) -> dict:
    from repro.core.serialize import lis_to_json

    return json.loads(lis_to_json(lis))


def fig15_doc() -> dict:
    from repro.gen import examples

    return lis_doc(examples.fig15_lis())


def fig15_chain(k: int) -> dict:
    """k copies of Fig. 15, copy j's D feeding copy j+1's A."""
    from repro.gen import examples

    base = lis_doc(examples.fig15_lis())
    shells, channels = {}, []
    for j in range(k):
        shells.update({f"{s}{j}": v for s, v in base["shells"].items()})
        channels += [dict(c, src=f"{c['src']}{j}", dst=f"{c['dst']}{j}")
                     for c in base["channels"]]
        if j:
            channels.append({"src": f"D{j - 1}", "dst": f"A{j}"})
    return {"default_queue": 1, "shells": shells, "channels": channels}


# ----------------------------------------------------------------------
# Checks, one per engine op (results in the engine's own types)
# ----------------------------------------------------------------------


def check_size(doc, sol, method: str) -> tuple[list[str], int]:
    errors = []
    ideal = oracles.ideal_mst(doc)
    if frac(sol.target) != ideal:
        errors.append(f"target {sol.target} != oracle ideal {ideal}")
    extra = {int(c): int(x) for c, x in sol.extra_tokens.items()}
    if sum(extra.values()) != sol.cost:
        errors.append("cost is not the sum of the extra tokens")
    reached = oracles.mst(doc, extra=extra)
    if reached < ideal:
        errors.append(f"sized system reaches {reached} < {ideal}")
    best = oracles.ilp_optimum(doc, ideal, ILP_CAP)
    if best is not None and (sol.cost < best or (method == "exact" and sol.cost != best)):
        errors.append(f"{method} cost {sol.cost} vs ILP optimum {best}")
    return errors, int(sol.cost)


def check_placement(doc, res, channels) -> tuple[list[str], int]:
    placed = oracles.add_relays(doc, channels)
    ideal, actual = oracles.ideal_mst(placed), oracles.mst(placed)
    errors = []
    if (frac(res.ideal), frac(res.actual)) != (ideal, actual):
        errors.append(f"placement MSTs {res.ideal}/{res.actual} != oracle {ideal}/{actual}")
    tokens = 0
    if actual < ideal:
        best = oracles.ilp_optimum(placed, ideal, ILP_CAP)
        for variant in ("orig", "simplified"):
            heur = res.heuristic_tokens.get(variant)
            opt = res.optimal_tokens.get(variant)
            if heur is None or opt is None or opt > heur:
                errors.append(f"{variant}: exact {opt} vs heuristic {heur}")
                continue
            if best is not None and opt != best:
                errors.append(f"{variant}: exact {opt} != ILP optimum {best}")
            tokens += heur + opt
    elif res.heuristic_tokens or res.optimal_tokens:
        errors.append("an intact placement was sized")
    return errors, tokens


def check_table4(doc, res) -> tuple[list[str], int]:
    errors = []
    if res["edges"] != len(doc["channels"]):
        errors.append("edge count differs")
    heur, exact = res["heuristic_cost"], res["exact_cost"]
    if exact is None or exact > heur:
        errors.append(f"exact {exact} vs heuristic {heur}")
    best = oracles.ilp_optimum(doc, Fraction(1), ILP_CAP)
    if best is not None and exact != best:
        errors.append(f"exact {exact} != ILP optimum {best}")
    return errors, int(heur) + int(exact or 0)


def check_sweep(doc, res, queues) -> list[str]:
    want = {"inf": oracles.ideal_mst(doc)}
    for q in queues:
        want[str(q)] = oracles.mst(oracles.uniform_queues(doc, q))
    got = {k: frac(v) for k, v in res.items()}
    return [] if got == want else [f"sweep {got} != oracle {want}"]


def check_measure(doc, res) -> list[str]:
    want = oracles.mst(doc)
    got = frac(res["throughput"])
    return [] if got == want else [f"measured {got} != oracle MST {want}"]


def check_analyze(doc, report) -> list[str]:
    ideal, actual = oracles.ideal_mst(doc), oracles.mst(doc)
    if (frac(report.ideal), frac(report.practical)) != (ideal, actual):
        return [f"analyze {report.ideal}/{report.practical} != oracle {ideal}/{actual}"]
    return []


def check_simulate(doc, res, assignments, clocks, warmup, tag) -> list[str]:
    errors = []
    for extra, entry in zip(assignments, res):
        game = oracles.token_game(doc, warmup + clocks, extra)
        for shell, rate in entry["throughput"].items():
            name = str(shell).replace(tag + SEP, "")
            series = game[name]
            want = Fraction(int(series[warmup + clocks] - series[warmup]), clocks)
            if frac(rate) != want:
                errors.append(f"{name}: simulated {rate} != token game {want}")
                break
    return errors


def check_tail(doc, res, spec, clocks, trials, extra) -> list[str]:
    mean = float(res["throughput"]["mean"])
    rate = oracles.mst(doc, extra=extra)
    if spec["scope"] == "global":
        lo, hi = oracles.bernoulli_band(rate, spec["rate"], clocks, trials)
        if not lo <= mean <= hi:
            return [f"mean throughput {mean:.4f} outside [{lo:.4f}, {hi:.4f}]"]
        return []
    if not 0 < mean <= float(rate) + 2.0 / clocks:
        return [f"mean throughput {mean:.4f} above MST {rate}"]
    return []


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


class InProcess:
    """Base of the workloads that call engine ops in this process."""

    name = ""
    #: Exception types an op marked ``expect_failure`` may raise.
    expected_failure: tuple = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list[Op] = []

    def build(self) -> None:
        raise NotImplementedError

    def warm_ops(self) -> list[Op]:
        """Small operations of each kind, run during set-up so lazy
        imports and first-call costs are paid before timing."""
        raise NotImplementedError

    def execute(self, op: Op, tag: str):
        from repro.engine import ops as engine_ops

        result, _meta = engine_ops.run_op(op.op, tagged(op.doc, tag), op.opts(tag))
        return result

    def check(self, op: Op, result, tag: str) -> tuple[list[str], int]:
        """Oracle check of a round-0 result; returns (errors, extra
        queue slots the op chose)."""
        raise NotImplementedError


class PaperSizing(InProcess):
    """Table V placements, Table IV trials and Fig. 15 chains."""

    name = "paper-sizing"

    def build(self) -> None:
        from repro.gen import generator
        from repro.soc import cofdm

        rng = random.Random(self.seed)
        cof, ids = permute(lis_doc(cofdm.cofdm_transmitter()), rng)
        ops = []
        for pair in COFDM_DEGRADED + COFDM_INTACT:
            chans = sorted(ids[c] for c in pair)
            ops.append(Op("placement", "exhaustive_placement", cof,
                          {"channels": chans, "exact_timeout": 60}))
        for v, s, c, gseed in TABLE4:
            cfg = generator.GeneratorConfig(v=v, s=s, c=c, rs=10, rp=True,
                                            policy="scc", seed=gseed)
            doc, _ = permute(lis_doc(generator.generate_lis(cfg)), rng)
            ops.append(Op("table4", "table4_trial", doc, {"exact_timeout": 60}))
        for k in FIG15_CHAINS:
            doc, _ = permute(fig15_chain(k), rng)
            for method in ("heuristic", "exact"):
                ops.append(Op(f"size-{method}", "size_queues", doc,
                              {"method": method}))
        rng.shuffle(ops)
        self.ops = ops

    def warm_ops(self) -> list[Op]:
        from repro.gen import generator

        fig15 = fig15_doc()
        small = lis_doc(generator.generate_lis(generator.GeneratorConfig(
            v=12, s=3, c=1, rs=2, rp=True, policy="scc", seed=1)))
        return [
            Op("placement", "exhaustive_placement", fig15, {"channels": [1, 2]}),
            Op("table4", "table4_trial", small, {}),
            Op("size", "size_queues", fig15, {"method": "heuristic"}),
            Op("size", "size_queues", fig15, {"method": "exact"}),
        ]

    def check(self, op, result, tag):
        if op.op == "exhaustive_placement":
            return check_placement(op.doc, result, op.options["channels"])
        if op.op == "table4_trial":
            return check_table4(op.doc, result)
        return check_size(op.doc, result, op.options["method"])


class NocThroughput(InProcess):
    """MST sweeps and schedule-backend measurements of meshes and tori,
    plus ``analyze`` under a cycle budget on two small NoCs."""

    name = "noc-throughput"
    #: Sweeps run to 12x12, measurements to 16x16, so that a round of
    #: ops of comparable cost fits many times into one run.
    SWEEP_SIZES = [(8, False), (8, True), (10, False), (10, True), (12, False), (12, True)]
    MEASURE_SIZES = [(8, False), (8, True), (12, False), (12, True), (16, False), (16, True)]
    QUEUES = [1, 2]
    #: ``analyze`` inputs: fixed (not drawn from the seed), relay-free,
    #: so their actual MST equals the ideal and no sizing is needed.
    ANALYZE = [(6, False), (4, True)]
    MAX_CYCLES = 2000

    def build(self) -> None:
        from repro.gen import generator

        rng = random.Random(self.seed)
        ops = []
        for sizes, kind, op, options in (
            (self.SWEEP_SIZES, "sweep", "mst_sweep", {"queues": self.QUEUES}),
            (self.MEASURE_SIZES, "measure", "measure", {"backend": "schedule"}),
        ):
            for n, torus in sizes:
                # Relay positions are fixed per size: where relays sit sets
                # the ideal MST and the schedule's period, hence the cost.
                lis = generator.mesh_lis(n, n, torus=torus, relays=n // 2, seed=n)
                doc, _ = permute(lis_doc(lis), rng)
                # The probe shell is any of the limiting SCC's, picked in
                # set order, so it is not compared between rounds.
                ops.append(Op(kind, op, doc, options, ignore=("shell",)))
        for n, torus in self.ANALYZE:
            doc = lis_doc(generator.mesh_lis(n, n, torus=torus))
            ops.append(Op("analyze", "analyze", doc,
                          {"max_cycles": self.MAX_CYCLES},
                          {"expect_failure": True}))
        rng.shuffle(ops)
        self.ops = ops

    def warm_ops(self) -> list[Op]:
        fig15 = fig15_doc()
        return [Op("sweep", "mst_sweep", fig15, {"queues": self.QUEUES}),
                Op("measure", "measure", fig15, {"backend": "schedule"})]

    @property
    def expected_failure(self):
        from repro.core.cycles import CycleExplosionError

        return CycleExplosionError

    def check(self, op, result, tag):
        if op.op == "mst_sweep":
            return check_sweep(op.doc, result, self.QUEUES), 0
        if op.op == "measure":
            return check_measure(op.doc, result), 0
        return check_analyze(op.doc, result), 0


class SimTails(InProcess):
    """Monte-Carlo tail points and sizing-ladder batch simulation."""

    name = "sim-tails"
    CLOCKS, TRIALS = 400, 120
    SIM_CLOCKS, SIM_WARMUP = 400, 100

    def build(self) -> None:
        from repro.gen import examples, generator
        from repro.soc import cofdm

        rng = random.Random(self.seed)
        systems = [lis_doc(examples.fig15_lis()), lis_doc(cofdm.cofdm_transmitter()),
                   lis_doc(generator.mesh_lis(4, 4, relays=2, seed=4)),
                   lis_doc(generator.mesh_lis(4, 4, torus=True, relays=2, seed=4))]
        ops = []
        for base in systems:
            shell = next(iter(base["shells"]))  # the stalled node of tail-node
            doc, _ = permute(base, rng)
            n = len(doc["channels"])
            ladder = [{}] + [{str(c): k for c in range(n)} for k in (1, 2, 3)]
            ops.append(Op("simulate", "simulate_batch", doc,
                          {"assignments": ladder, "clocks": self.SIM_CLOCKS,
                           "warmup": self.SIM_WARMUP}))
            for p in (0.05, 0.1):
                spec = {"kind": "bernoulli", "scope": "global", "rate": p,
                        "seed": rng.randrange(1 << 30)}
                ops.append(Op("tail-global", "tail_point", doc,
                              {"specs": [spec], "clocks": self.CLOCKS,
                               "trials": self.TRIALS}, {"spec": spec}))
            spec = {"kind": "bernoulli", "scope": "nodes", "rate": 0.2,
                    "seed": rng.randrange(1 << 30)}
            # Per-node stall streams are drawn per node name.
            ops.append(Op("tail-node", "tail_point", doc,
                          _node_spec_options(spec, shell, self.CLOCKS, self.TRIALS),
                          {"spec": spec}, per_round=True))
        rng.shuffle(ops)
        self.ops = ops

    def warm_ops(self) -> list[Op]:
        fig15 = fig15_doc()
        spec = {"kind": "bernoulli", "scope": "global", "rate": 0.1, "seed": 1}
        return [
            Op("simulate", "simulate_batch", fig15,
               {"assignments": [{}, {"5": 1}], "clocks": 50, "warmup": 10}),
            Op("tail-global", "tail_point", fig15,
               {"specs": [spec], "clocks": 50, "trials": 8}),
            Op("tail-node", "tail_point", fig15, _node_spec_options(
                dict(spec, scope="nodes"), "A", 50, 8)),
        ]

    def check(self, op, result, tag):
        if op.op == "simulate_batch":
            ladder = [{int(c): x for c, x in a.items()} for a in op.options["assignments"]]
            return check_simulate(op.doc, result, ladder, self.SIM_CLOCKS,
                                  self.SIM_WARMUP, tag), 0
        return check_tail(op.doc, result, op.meta["spec"], self.CLOCKS,
                          self.TRIALS, {}), 0


def _node_spec_options(spec: dict, shell: str, clocks: int, trials: int):
    def options(tag: str) -> dict:
        return {"specs": [dict(spec, nodes=[tag + SEP + shell])],
                "clocks": clocks, "trials": trials}

    return options


IN_PROCESS = {w.name: w for w in (PaperSizing, NocThroughput, SimTails)}
