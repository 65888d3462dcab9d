"""The benchmark's reference computations against the paper's
hand-worked values.  Run with ``python3 -m pytest perfbench/tests``."""

from fractions import Fraction

import pytest

from perfbench import oracles

# Fig. 15: ring A -> E (one relay) -> D -> C -> B -> A, chords A -> C,
# C -> E; channel ids 0..6 in this order.
FIG15 = {
    "default_queue": 1,
    "shells": {s: {} for s in "ABCDE"},
    "channels": [
        {"src": "A", "dst": "E", "relays": 1},
        {"src": "E", "dst": "D"},
        {"src": "D", "dst": "C"},
        {"src": "C", "dst": "B"},
        {"src": "B", "dst": "A"},
        {"src": "A", "dst": "C"},
        {"src": "C", "dst": "E"},
    ],
}

# Fig. 1: A feeds B twice; the upper channel carries one relay station.
FIG1 = {
    "default_queue": 1,
    "shells": {"A": {}, "B": {}},
    "channels": [{"src": "A", "dst": "B", "relays": 1}, {"src": "A", "dst": "B"}],
}


def limiter_with_vc_edge() -> dict:
    """The Section V construction for one Vertex-Cover edge (u, v):
    vertex channels u_a -> u_b, v_a -> v_b, relayed edge channels
    u_a -> v_b and v_a -> u_b, and the Fig. 10 limiter ring (five
    shells, one relay station)."""
    channels = [
        {"src": "u_a", "dst": "u_b"},
        {"src": "v_a", "dst": "v_b"},
        {"src": "u_a", "dst": "v_b", "relays": 1},
        {"src": "v_a", "dst": "u_b", "relays": 1},
    ]
    for i in range(5):
        channels.append(
            {"src": f"lim{i}", "dst": f"lim{(i + 1) % 5}", **({"relays": 1} if i == 0 else {})}
        )
    return {"default_queue": 1, "shells": {}, "channels": channels}


def test_fig15_ideal_and_doubled():
    assert oracles.ideal_mst(FIG15) == Fraction(5, 6)
    assert oracles.mst(FIG15) == Fraction(3, 4)


def test_fig15_two_tokens_recover_the_ideal():
    assert oracles.ilp_optimum(FIG15) == 2
    assert oracles.mst(FIG15, extra={5: 1, 6: 1}) == Fraction(5, 6)
    assert oracles.mst(FIG15, extra={5: 1}) < Fraction(5, 6)


def test_fig10_limiter_and_vc_edge_cycle():
    doc = limiter_with_vc_edge()
    assert oracles.ideal_mst(doc) == Fraction(5, 6)
    assert oracles.mst(doc) == Fraction(4, 6)
    # Covering the VC edge: one token on either vertex channel.
    assert oracles.ilp_optimum(doc) == 1
    assert oracles.mst(doc, extra={0: 1}) == Fraction(5, 6)


def test_fig1_and_its_repair():
    assert oracles.ideal_mst(FIG1) == 1
    assert oracles.mst(FIG1) == Fraction(2, 3)
    assert oracles.ilp_optimum(FIG1) == 1
    assert oracles.mst(FIG1, extra={1: 1}) == 1


def test_shell_latency_adds_places():
    ring = {
        "default_queue": 1,
        "shells": {"A": {"latency": 3}, "B": {}},
        "channels": [{"src": "A", "dst": "B"}, {"src": "B", "dst": "A"}],
    }
    # Forward cycle: A, A#1, A#2, B -> 2 tokens over 4 places.
    assert oracles.ideal_mst(ring) == Fraction(2, 4)


def test_acyclic_system_runs_at_full_rate():
    chain = {"shells": {}, "channels": [{"src": "A", "dst": "B", "relays": 3}]}
    assert oracles.ideal_mst(chain) == 1
    assert oracles.mst(chain) == 1


def test_cycle_cap_disables_the_ilp():
    assert oracles.ilp_optimum(FIG15, cap=2) is None


def test_token_game_rate_matches_mst():
    clocks = 600
    for doc, extra in ((FIG15, None), (FIG15, {5: 1, 6: 1}), (FIG1, None)):
        counts = oracles.token_game(doc, clocks, extra)
        rate = oracles.mst(doc, extra=extra)
        for series in counts.values():
            window = series[clocks] - series[100]
            assert abs(Fraction(int(window), clocks - 100) - rate) <= Fraction(2, clocks - 100)


def test_token_game_first_clocks_of_fig1():
    # Every shell starts with its input places full, so both fire at
    # clock 0; B then waits for the relayed datum.
    counts = oracles.token_game(FIG1, 3)
    assert list(counts["A"]) == [0, 1, 2, 2]
    assert list(counts["B"]) == [0, 1, 1, 2]


def test_bernoulli_band_contains_its_centre():
    lo, hi = oracles.bernoulli_band(Fraction(5, 6), 0.1, clocks=600, trials=200)
    assert lo < 0.9 * 5 / 6 < hi
    assert hi - lo < 0.02


@pytest.mark.parametrize("text", [True, False])
def test_documents_load_from_text_or_dict(text):
    import json

    doc = json.dumps(FIG15) if text else FIG15
    assert oracles.mst(doc) == Fraction(3, 4)
