"""Reference computations made apart from the program under test.

Every check the benchmark makes rests on these functions, and none of
them imports ``repro``: they read the LIS JSON document format
(``{"default_queue", "shells", "channels"}``) directly and re-derive
the paper's model from its text.

* :func:`lower` -- the Section III lowering of a LIS to a unit-delay
  marked graph (forward places; with ``doubled=True`` also the
  backpressure backedges of Fig. 3), as flat NumPy arrays;
* :func:`mst` -- maximal sustainable throughput, ``min(1, minimum cycle
  mean)`` over the strongly connected components, by Karp's algorithm
  on dense arrays with the result recovered as an exact ``Fraction``;
* :func:`ilp_optimum` -- the queue-sizing optimum as an integer program
  over the deficient elementary cycles (``networkx.simple_cycles``),
  solved by ``scipy.optimize.milp``; ``None`` above a cycle cap;
* :func:`token_game` -- as-soon-as-possible firing of the doubled
  marked graph (every enabled transition fires each clock), giving the
  zero-stall firing counts a cycle-accurate simulator must reproduce;
* :func:`bernoulli_band` -- the band in which the Monte-Carlo mean
  throughput under global Bernoulli(p) stalls must fall around
  ``(1 - p) * MST``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Slots of a relay station (and of an internal pipeline stage).
RELAY_SLOTS = 2


@dataclass(frozen=True)
class Lowered:
    """A marked graph as arrays: place ``i`` runs ``src[i] -> dst[i]``
    holding ``tokens[i]`` tokens; ``sizable[i]`` is the channel id of a
    shell-side backedge (where queue slots can be added), else -1."""

    names: list
    src: np.ndarray
    dst: np.ndarray
    tokens: np.ndarray
    sizable: np.ndarray

    @property
    def n(self) -> int:
        return len(self.names)


def load(doc) -> dict:
    """A LIS document as a dict (accepts the JSON text too)."""
    return json.loads(doc) if isinstance(doc, str) else doc


def lower(doc, doubled: bool = True, extra: dict | None = None) -> Lowered:
    """Lower a LIS document to its ideal (``doubled=False``) or doubled
    marked graph, with ``extra[cid]`` queue slots added on channel
    ``cid``'s shell-side backedge."""
    doc = load(doc)
    extra = {int(c): int(x) for c, x in (extra or {}).items()}
    default_q = int(doc.get("default_queue", 1))
    shells = dict(doc.get("shells", {}))
    for ch in doc["channels"]:
        shells.setdefault(ch["src"], {})
        shells.setdefault(ch["dst"], {})
    names: list = []
    index: dict = {}

    def node(key) -> int:
        if key not in index:
            index[key] = len(names)
            names.append(key)
        return index[key]

    src, dst, tok, siz = [], [], [], []

    def place(a: int, b: int, tokens: int, sizable: int = -1) -> None:
        src.append(a)
        dst.append(b)
        tok.append(tokens)
        siz.append(sizable)

    tail = {}
    for name, attrs in shells.items():
        stages = [node(("shell", name))]
        for i in range(int(attrs.get("latency", 1)) - 1):
            stages.append(node(("stage", name, i)))
        for a, b in zip(stages, stages[1:]):
            place(a, b, 0)  # a stage starts empty
            if doubled:
                place(b, a, RELAY_SLOTS)
        tail[name] = stages[-1]
    for cid, ch in enumerate(doc["channels"]):
        relays = int(ch.get("relays", 0))
        chain = [tail[ch["src"]]]
        chain += [node(("relay", cid, i)) for i in range(relays)]
        chain.append(index[("shell", ch["dst"])])
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            into_shell = i == relays
            place(a, b, 1 if into_shell else 0)
            if doubled:
                if into_shell:
                    q = int(ch.get("queue", default_q)) + extra.get(cid, 0)
                    place(b, a, q, cid)
                else:
                    place(b, a, RELAY_SLOTS)
    return Lowered(
        names,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(tok, dtype=np.int64),
        np.asarray(siz, dtype=np.int64),
    )


def _components(g: Lowered) -> np.ndarray:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    adj = coo_matrix(
        (np.ones(len(g.src)), (g.src, g.dst)), shape=(g.n, g.n)
    ).tocsr()
    _, labels = connected_components(adj, directed=True, connection="strong")
    return labels


def _karp(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> Fraction:
    """Exact minimum cycle mean of a strongly connected graph on nodes
    ``0..n-1`` (Karp 1978): ``min_v max_k (D_n(v) - D_k(v)) / (n - k)``
    where ``D_k(v)`` is the least weight of a ``k``-edge walk from
    node 0.  Weights are integers, so each candidate is a ratio of
    integers; floats only pick the winner, which is returned exact."""
    inf = np.inf
    d = np.full((n + 1, n), inf)
    d[0, 0] = 0.0
    wf = w.astype(float)
    for k in range(1, n + 1):
        row = np.full(n, inf)
        np.minimum.at(row, dst, d[k - 1, src] + wf)
        d[k] = row
    finite_n = np.isfinite(d[n])
    ks = np.arange(n)[:, None]
    with np.errstate(invalid="ignore"):
        ratios = (d[n][None, :] - d[:n]) / (n - ks)
    ratios[~np.isfinite(d[:n])] = -inf
    best_k = np.argmax(ratios, axis=0)
    worst = ratios[best_k, np.arange(n)]
    worst[~finite_n] = inf
    v = int(np.argmin(worst))
    k = int(best_k[v])
    return Fraction(int(d[n, v] - d[k, v]), n - k)


def min_cycle_mean(g: Lowered) -> Fraction | None:
    """Exact minimum over cycles of ``tokens / places``; None if the
    graph is acyclic."""
    labels = _components(g)
    best: Fraction | None = None
    for comp in np.unique(labels):
        members = np.flatnonzero(labels == comp)
        inside = (labels[g.src] == comp) & (labels[g.dst] == comp)
        if not inside.any():
            continue  # a single transition with no self-loop
        local = np.full(g.n, -1, dtype=np.int64)
        local[members] = np.arange(len(members))
        mean = _karp(
            len(members),
            local[g.src[inside]],
            local[g.dst[inside]],
            g.tokens[inside],
        )
        if best is None or mean < best:
            best = mean
    return best


def mst(doc, doubled: bool = True, extra: dict | None = None) -> Fraction:
    """Maximal sustainable throughput: ``min(1, minimum cycle mean)``."""
    mean = min_cycle_mean(lower(doc, doubled, extra))
    return Fraction(1) if mean is None or mean > 1 else mean


def ideal_mst(doc) -> Fraction:
    return mst(doc, doubled=False)


def uniform_queues(doc, q: int) -> dict:
    """The document with every channel's queue set to ``q``."""
    doc = dict(load(doc))
    doc["channels"] = [{**ch, "queue": int(q)} for ch in doc["channels"]]
    return doc


def add_relays(doc, channel_ids) -> dict:
    """The document with one more relay station on each listed channel."""
    doc = dict(load(doc))
    channels = [dict(ch) for ch in doc["channels"]]
    for cid in channel_ids:
        channels[cid]["relays"] = int(channels[cid].get("relays", 0)) + 1
    doc["channels"] = channels
    return doc


def deficient_cycles(doc, target: Fraction, cap: int):
    """Elementary cycles of the doubled graph whose mean is below
    ``target``, as ``(deficit, sizable channel ids)`` pairs; None when
    the graph has more than ``cap`` elementary cycles."""
    import networkx as nx

    g = lower(doc, doubled=True)
    # Places become nodes of their own, so parallel places stay
    # distinct cycles: transition i -> place node n+p -> transition j.
    dg = nx.DiGraph()
    for p in range(len(g.src)):
        dg.add_edge(int(g.src[p]), g.n + p)
        dg.add_edge(g.n + p, int(g.dst[p]))
    out = []
    for count, cycle in enumerate(nx.simple_cycles(dg), start=1):
        if count > cap:
            return None
        places = [v - g.n for v in cycle if v >= g.n]
        tokens = int(g.tokens[places].sum())
        if Fraction(tokens, len(places)) >= target:
            continue
        deficit = math.ceil(target * len(places) - tokens)
        channels = sorted({int(g.sizable[p]) for p in places if g.sizable[p] >= 0})
        out.append((deficit, channels))
    return out


def ilp_optimum(doc, target: Fraction | None = None, cap: int = 20000):
    """Least total extra queue slots that lift the doubled graph's MST
    to ``target`` (default: the ideal MST), or None when the graph has
    more than ``cap`` elementary cycles.  Raises ``ValueError`` if a
    deficient cycle has no sizable backedge (the target is out of
    reach by queue sizing)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    goal = ideal_mst(doc) if target is None else Fraction(target)
    cycles = deficient_cycles(doc, goal, cap)
    if cycles is None:
        return None
    if not cycles:
        return 0
    columns = sorted({c for _, chans in cycles for c in chans})
    col = {c: i for i, c in enumerate(columns)}
    a = np.zeros((len(cycles), len(columns)))
    lb = np.zeros(len(cycles))
    for r, (deficit, chans) in enumerate(cycles):
        if not chans:
            raise ValueError("a deficient cycle has no sizable backedge")
        for c in chans:
            a[r, col[c]] = 1.0
        lb[r] = deficit
    res = milp(
        c=np.ones(len(columns)),
        constraints=LinearConstraint(a, lb, np.inf),
        integrality=np.ones(len(columns)),
        bounds=Bounds(0, np.inf),
    )
    if not res.success:
        raise ValueError(f"MILP failed: {res.message}")
    return int(round(res.fun))


def token_game(doc, clocks: int, extra: dict | None = None) -> dict:
    """ASAP firing of the doubled marked graph for ``clocks`` clocks:
    in each clock every transition whose input places all hold a token
    fires, consuming one token from each input and producing one on
    each output.  Returns ``{shell name: list of cumulative firing
    counts after each clock}`` as one array per shell (index ``t`` =
    firings in clocks ``0..t-1``; length ``clocks + 1``)."""
    g = lower(doc, doubled=True, extra=extra)
    tokens = g.tokens.copy()
    history = np.zeros((clocks + 1, g.n), dtype=np.int64)
    for t in range(clocks):
        empty = np.bincount(g.dst[tokens == 0], minlength=g.n)
        fire = empty == 0
        tokens = tokens - fire[g.dst] + fire[g.src]
        history[t + 1] = history[t] + fire
    return {
        key[1]: history[:, i]
        for i, key in enumerate(g.names)
        if key[0] == "shell"
    }


def bernoulli_band(
    rate: Fraction, p: float, clocks: int, trials: int, z: float = 4.0
) -> tuple[float, float]:
    """Band for the Monte-Carlo mean throughput under global
    Bernoulli(``p``) stalls.  Stalls of the whole system dilate time,
    so a node fires ``rate`` per *active* clock and the mean rate is
    ``(1 - p) * rate``; per trial the active-clock count is
    Binomial(``clocks``, ``1 - p``), so the trial mean has standard
    deviation ``rate * sqrt(p (1 - p) / clocks / trials)``.  The band
    is ``z`` of those plus two firings of start-up transient."""
    centre = (1.0 - p) * float(rate)
    sigma = float(rate) * math.sqrt(p * (1.0 - p) / clocks / trials)
    slack = z * sigma + 2.0 / clocks
    return centre - slack, centre + slack
