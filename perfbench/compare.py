"""Compare mode: a parent and a change checkout, run as alternating pairs.

For each workload, pair i runs seed ``--seed + i`` on both checkouts, the
parent first on even pairs and the change first on odd ones, each in its own
process. Both sides run the parent's harness, reference outputs and bounds
(``perfbench/`` and BENCHMARK.json of the parent); only the ``src/`` that is
imported differs. Then a few traced pairs give the per-layer deltas.
Verdicts:

- improved: the change wins at least 9 of 10 pairs (ties count for neither),
  the medians differ by more than the parent's interquartile distance, and
  no more requests failed than on the parent;
- worse: the change's median is worse than the parent's by more than the bound;
- unresolved: the parent's own spread (IQR / median) exceeds the bound, and
  not every change run beats every parent run;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

PAIRS = 10
TRACED_PAIRS = 3


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failed_parent: int = 0, failed_change: int = 0) -> tuple[str, float, float]:
    """(verdict, share of pairs the change won, signed change of the median)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    won = wins / len(parent)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    worse_by = -sign * (med_c - med_p) / med_p
    beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
    if won >= 0.9 and sign * (med_c - med_p) > (q3 - q1) and failed_change <= failed_parent:
        return "improved", won, (med_c - med_p) / med_p
    if worse_by > bound:
        return "worse", won, (med_c - med_p) / med_p
    if (q3 - q1) / med_p > bound and not beats_all:
        return "unresolved", won, (med_c - med_p) / med_p
    return "unchanged", won, (med_c - med_p) / med_p


def _check_checkout(root: Path) -> None:
    for rel in ("perfbench/run.py", "src/visionflow/__init__.py", "BENCHMARK.json"):
        if not (root / rel).is_file():
            raise SystemExit(f"{root} is not a benchmark checkout: {rel} is missing")


def benchmark_files(root: Path) -> dict[str, bytes]:
    """BENCHMARK.json and every file under perfbench/, by relative path."""
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            files[path.relative_to(root).as_posix()] = path.read_bytes()
    return files


def main(args, run_child) -> int:
    parent, change = Path(args.compare[0]).resolve(), Path(args.compare[1]).resolve()
    for root in (parent, change):
        _check_checkout(root)
    spec = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ours, theirs = benchmark_files(parent), benchmark_files(change)
    edited = sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))
    if edited:
        print("WARNING: the change edits the benchmark, so it cannot claim a gain with it. Both sides run "
              "the parent's harness, reference outputs and bounds; the change's edits are not used: "
              + ", ".join(edited))
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    seconds = args.seconds
    sides = {"parent": parent, "change": change}
    runs: list[dict] = []
    out_dir = Path(__file__).resolve().parent.parent / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"

    def run(side: str, name: str, seed: int, trace: int, pair: int) -> None:
        result, text = run_child(parent, name, seed, seconds, trace, sides[side])
        if result is None:
            print(f"{side} {name} seed {seed} trace {trace}: run failed\n{text}")
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        rec = {"side": side, "workload": name, "seed": seed, "trace": trace, "pair": pair, "result": result}
        runs.append(rec)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")

    for name in names:
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run(side, name, args.seed + i, 0, i)
        for i in range(TRACED_PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run(side, name, args.seed + i, 1, i)
    print(f"runs saved to {log}")
    report(runs, spec, names)
    return 0


def report(runs: list[dict], spec: dict, names: list[str]) -> None:
    def values(side, name, trace, metric):
        return [r["result"]["metrics"][metric]["value"] for r in runs
                if r["side"] == side and r["workload"] == name and r["trace"] == trace
                and metric in r["result"]["metrics"]]

    def failed(side, name):
        return sum(r["result"]["failed"] for r in runs if r["side"] == side and r["workload"] == name)

    print(f"{'workload':16} {'metric':16} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'won':>5} {'delta':>8}  verdict")
    for name in names:
        for m in spec["end_to_end"]:
            p, c = values("parent", name, 0, m["name"]), values("change", name, 0, m["name"])
            if len(p) != PAIRS or len(c) != PAIRS:
                print(f"{name:16} {m['name']:16} incomplete: {len(p)} parent and {len(c)} change runs")
                continue
            v, won, delta = verdict(p, c, m["better"], m["bound"], failed("parent", name), failed("change", name))
            qp, qc = quartiles(p), quartiles(c)
            print(f"{name:16} {m['name']:16} {'/'.join(f'{x:.4g}' for x in qp):>30} "
                  f"{'/'.join(f'{x:.4g}' for x in qc):>30} {won:5.0%} {delta:+8.1%}  {v}")
        print(f"{name:16} failed requests: parent {failed('parent', name)}, change {failed('change', name)}")
    print("\nper-layer time deltas (medians of traced runs, ms per item)")
    for name in names:
        for m in spec["per_layer"]:
            if m["unit"] != "ms":
                continue
            p, c = values("parent", name, 1, m["name"]), values("change", name, 1, m["name"])
            if not p or not c:
                continue
            mp, mc = statistics.median(p), statistics.median(c)
            if mp == 0.0 and mc == 0.0:
                continue
            print(f"{name:16} {m['name']:42} {mp:10.3f} -> {mc:10.3f}  ({mc - mp:+.3f})")
