"""Steadiness check: two sets of runs of the same code, compared with
the bounds in ``BENCHMARK.json``.

    python3 perfbench/steady.py --seeds 10 --sets 2
    python3 perfbench/steady.py --workloads noc-throughput --seeds 5 --sets 1

Each set runs every chosen workload once per seed (set ``i`` runs
seeds ``1 + 1000 * i`` onwards).  For each workload and end-to-end
metric it prints the median and quartiles of every set and the spread
``(q3 - q1) / median`` (``statistics.quantiles(values, n=4)``).  A
metric passes when every set's spread is within its bound and no later
set's median differs from the first set's, either way, by more than
the bound.  ``setup_s`` is judged by its medians only; its spread,
which follows the host's speed more than any other metric's, is
printed but not judged.  A workload passes when every set has the same
share of failed operations.  Exits 1 if anything does not pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)

    runs: dict = {}
    for s in range(args.sets):
        for w in args.workloads:
            for i in range(args.seeds):
                seed = 1 + 1000 * s + i
                result = run_once(w, seed, spec["run_seconds"])
                runs.setdefault(w, [[] for _ in range(args.sets)])[s].append(result)
                print(f"set {s} {w} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr)
    ok = True
    print(f"{'workload':<15} {'metric':<16} {'set':>3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6} verdict")
    for w in args.workloads:
        sets = runs[w]
        shares = {Fraction(r["failed"], r["attempted"]) for st in sets for r in st}
        if len(shares) != 1 or not all(r["correct"] for st in sets for r in st):
            ok = False
            print(f"{w}: failed shares {sorted(map(str, shares))} or an incorrect run")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, st in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in st]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                good = name == "setup_s" or spread <= bound
                if s:
                    good = good and abs(med - medians[0]) <= bound * medians[0]
                ok = ok and good
                print(f"{w:<15} {name:<16} {s:>3} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} "
                      f"{spread:>7.3f} {bound:>6.2f} {'ok' if good else 'NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
