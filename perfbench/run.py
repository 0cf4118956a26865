"""Benchmark entry point: one workload per process, or all four in turn.

    python3 perfbench/run.py --workload image --seed 0 --trace 0
    python3 perfbench/run.py --seed 0                       # all four, untraced and traced
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR  # alternating pairs

Run it from anywhere inside a checkout; it imports ``visionflow`` from the
checkout's ``src/`` and writes only under ``.bench_work/`` and
``.bench_results/`` there. A run lasts ``run_seconds`` of BENCHMARK.json
unless ``--seconds`` says otherwise. A run closes the loop with one client: each
request starts when the previous one returned. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer ones traced).
"""

import os

# Pinned before numpy is first imported, here and in every child process:
# unpinned OpenBLAS swung one scoring pass between 6 and 48 ms.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 170
WORKLOAD_NAMES = ("image", "crowded_decode", "video8", "train_small")


def _import_program(program: Path):
    """Import ``visionflow`` from the ``src/`` of checkout ``program``."""
    src = program / "src"
    sys.path.insert(0, str(src))
    import visionflow

    if Path(visionflow.__file__).resolve().parent != (src / "visionflow").resolve():
        raise SystemExit(f"imported visionflow from {visionflow.__file__}, not from {src}")


# -- set-up time ----------------------------------------------------------------


def probe_setup(name: str, seed: int, program: Path) -> int:
    """Child process: import, set up, say "ready" and exit."""
    _import_program(program)
    import workloads

    wl = workloads.WORKLOADS[name](seed, WORKDIR / f"{name}-{seed}")
    wl.setup()
    print("ready", flush=True)
    return 0


def probe_once(name: str, seed: int, program: Path) -> float:
    """Seconds from the start of a fresh process to ready to serve."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", name, "--seed", str(seed),
           "--program", str(program)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {name} failed with exit code {code}")
    return elapsed


def write_reference() -> int:
    """Store every pool entry's output at the default seed as the reference."""
    _import_program(ROOT)
    import workloads

    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, WORKDIR / f"{name}-{workloads.DEFAULT_SEED}")
        wl.make_inputs()
        wl.setup()
        records = []
        for i in range(wl.pool_size):
            result = wl.request(i)
            problems = wl.check(i, result)
            if problems:
                raise SystemExit(f"{name}[{i}] fails its own checks: {problems}")
            records.append(wl.record(result))
        out["workloads"][name] = records
        print(f"{name}: {len(records)} reference outputs", flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


# -- environment ----------------------------------------------------------------


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS how many threads it will use."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(program: Path) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = None
    if (program / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=program, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


# -- one workload -----------------------------------------------------------------


def tail_latency(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_workload(name: str, seed: int, seconds: float, trace: bool, program: Path) -> tuple[dict, list[str]]:
    """Measure one workload in this process; (result, human-readable lines)."""
    _import_program(program)
    import hostspeed
    import spans
    import workloads

    wl = workloads.WORKLOADS[name](seed, WORKDIR / f"{name}-{seed}")
    wl.make_inputs()
    lines: list[str] = []
    metrics: dict[str, dict] = {}
    probes: list[float] = []
    scaled_probes: list[float] = []
    tracer = spans.Tracer()
    if trace:
        spans.install(tracer)
    reference = workloads.load_reference(name) if seed == workloads.DEFAULT_SEED else None
    runner = workloads.Runner(wl, tracer, reference)
    # every interval timed below is scaled by the kernel passes timed right
    # before and right after it (hostspeed.py)
    with hostspeed.Calibration() as calibration:

        def probe() -> None:
            before = calibration.sample()
            probes.append(probe_once(name, seed, program))
            scaled_probes.append(probes[-1] * (before + calibration.sample()) / 2)

        try:
            wl.setup(on_sample=(lambda: tracer.item("setup")) if trace else None)
            runner.serve(0)  # warm-up, checked, untimed; the window's first request repeats it
            plain: list[float] = []
            scaled: list[float] = []
            traced: list[float] = []
            served = 0
            timed = 0.0  # window seconds, set-up probes and kernel passes left out
            timed_scaled = 0.0
            # stop before a round that would end past the window, so a run lasts
            # about --seconds even when one request takes seconds
            while served == 0 or timed * (served + 1) / served <= seconds:
                if not trace:
                    # set-up probes spread evenly over the window, so they see the
                    # same host speed as the requests they are reported with
                    while len(probes) < min(SETUP_PROBES, SETUP_PROBES * timed / seconds):
                        probe()
                before = calibration.sample()
                mark = time.perf_counter()
                index = served % wl.pool_size
                dt = runner.serve(index)
                if trace:
                    # the same input traced right after, for the hash and overhead pairing
                    dt_traced = runner.serve(index, traced=True)
                    if dt_traced is not None:
                        traced.append(dt_traced)
                round_s = time.perf_counter() - mark
                speed = (before + calibration.sample()) / 2
                if dt is not None:
                    plain.append(dt)
                    scaled.append(dt * speed)
                served += 1
                timed += round_s
                timed_scaled += round_s * speed
            while not trace and len(probes) < SETUP_PROBES:
                probe()
        finally:
            tracer.restore()

    steps = wl.steps_per_request
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(scaled_probes), "unit": "s"}
    if trace:
        layer, missing = spans.layer_metrics(tracer.items, wl.expected)
        for m in layer.values():
            if m["unit"] == "ms":  # spans are not paired with passes: the run's median factor
                m["value"] *= calibration.factor
        metrics.update(layer)
        if plain and traced:
            metrics["trace.overhead_share"] = {
                "value": statistics.median(traced) / statistics.median(plain) - 1.0, "unit": "ratio"}
        for m in missing:
            lines.append(f"MISSING span or counter: {m} (expected on {name}, not recorded)")
        for t in tracer.missing_targets:
            lines.append(f"MISSING wrap target: {t}")
        lines += [f"TRACE child time exceeds parent: {v}" for v in tracer.violations[:5]]
    elif plain:
        per_item = [dt / steps for dt in scaled]
        metrics["latency_ms_p50"] = {"value": statistics.median(per_item) * 1e3, "unit": "ms"}
        metrics["items_per_s"] = {"value": len(plain) * steps / timed_scaled, "unit": "1/s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "unit": "MB"}
        tail = tail_latency(per_item)
        if tail is None:
            lines.append(f"latency_ms_tail: not reported, {len(per_item)} samples (needs 11)")
        else:
            lines.append(f"latency_ms_tail = {tail[1] * 1e3:.3f} ms (p{tail[0]:.1f} of {len(per_item)} samples)")
        lines.append(f"unscaled: latency_ms_p50 = {statistics.median(plain) / steps * 1e3:.6g} ms, "
                     f"items_per_s = {len(plain) * steps / timed:.6g} 1/s, setup_s = {statistics.median(probes):.6g} s")
        lines.append(f"setup_s probes (unscaled): {', '.join(f'{p:.4f}' for p in probes)}")
    lines.append(f"host speed factor = {calibration.factor:.4f} (median kernel pass "
                 f"{statistics.median(calibration.passes) * 1e3:.3f} ms over {len(calibration.passes)}, "
                 f"reference {hostspeed.REFERENCE_S * 1e3:g} ms)")
    lines.append(f"failed_share = {runner.failed / runner.attempted:.4f} ({runner.failed} of {runner.attempted})")
    lines += [f"FAILED {p}" for p in runner.problems]
    lines += [f"note: {n}" for n in sorted(runner.notes)]
    if reference is None:
        lines.append(f"reference outputs: not compared (stored for seed {workloads.DEFAULT_SEED} only)")
    result = {"correct": runner.failed == 0 and not tracer.violations, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, lines


def pin_to_one_cpu() -> None:
    """Pin this process, and the set-up probes it starts, to the last usable CPU.

    Every workload is single-threaded. On a 2-vCPU host a busy loop ran ~10%
    slower on CPU 0 than on CPU 1, so leaving the choice to the scheduler
    widened the spread between runs.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args) -> int:
    pin_to_one_cpu()
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.program)
    env = environment(args.program)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace, "time": time.time(), "env": env, "result": result,
                             "lines": lines}) + "\n")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for line in lines:
        print(f"{args.workload}: {line}")
    for key, m in result["metrics"].items():
        print(f"{args.workload}: {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


# -- all workloads ------------------------------------------------------------------


def run_child(root: Path, workload: str, seed: int, seconds: float, trace: int,
              program: Path | None = None) -> tuple[dict | None, str]:
    """Run one workload in its own process with the harness of checkout ``root``.

    ``program`` is the checkout whose ``src/`` is measured, ``root`` by default.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--program", str(program or root)]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S}s"
    out = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not out:
        return None, proc.stderr[-2000:]
    return json.loads(out[-1]), "\n".join(out[:-1])


def claims(results: dict) -> list[str]:
    """The traced figures that show each workload stresses what it claims."""
    def m(workload, key, trace=1):
        return results.get((workload, trace), {}).get("metrics", {}).get(key, {}).get("value")

    lines = []
    frozen = [m("image", k) for k in ("encoders.LowResEncoder.encode.self_ms", "encoders.HighResEncoder.encode.self_ms",
                                      "encoders.resize_image.ms", "roi.build_pyramid.self_ms",
                                      "sampling.resize.under_pyramid.ms")]
    root = m("image", "pipeline.run_image.ms")
    if None not in frozen and root:
        share = sum(frozen) / root
        lines.append(f"image: encoders + resize + pyramid = {share:.1%} of run_image (claim >= 75%): "
                     f"{'ok' if share >= 0.75 else 'NOT MET'}")
    for w, op, bound in (("image", "<=", 0.1), ("crowded_decode", ">=", 0.5)):
        v = m(w, "roi.cells_read_ratio")
        if v is not None:
            ok = v <= bound if op == "<=" else v >= bound
            lines.append(f"{w}: roi.cells_read_ratio = {v:.3f} (claim {op} {bound}): {'ok' if ok else 'NOT MET'}")
    calls = m("crowded_decode", "assembly.causal_hidden.calls")
    if calls is not None:
        lines.append(f"crowded_decode: causal_hidden calls per request = {calls:g} (claim 16): "
                     f"{'ok' if calls == 16 else 'NOT MET'}")
    rss_v, rss_i = m("video8", "peak_rss_mb", 0), m("image", "peak_rss_mb", 0)
    if rss_v and rss_i:
        lines.append(f"video8 peak_rss_mb = {rss_v / rss_i:.1f}x image (claim > 4x): "
                     f"{'ok' if rss_v > 4 * rss_i else 'NOT MET'}")
    return lines


def run_all(args) -> int:
    """Every workload in its own process, one at a time, untraced then traced."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    for name in names:
        for trace in traces:
            result, text = run_child(ROOT, name, args.seed, args.seconds, trace, args.program)
            print(text, flush=True)
            if result is None:
                print(f"{name} trace={trace}: run failed", flush=True)
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            results[(name, trace)] = result
    for line in claims(results):
        print(line)
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for (n, t), r in results.items() if t == 0 for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    if not SPEC_PATH.is_file():
        print(f"error: {SPEC_PATH.name} is missing; the benchmark runs inside a checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics; 1: per-layer metrics (default: 0 for one workload, both for all)")
    ap.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="run both checkouts as alternating pairs and print verdicts")
    ap.add_argument("--program", type=Path, default=ROOT,
                    help="checkout whose src/ is measured (default: the one holding this harness)")
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate reference.json; only for a change meant to alter outputs, saying why")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    args.program = args.program.resolve()
    src = args.program / "src" / "visionflow"
    if not (src / "__init__.py").is_file():
        print(f"error: no visionflow sources at {src}; the benchmark runs inside a checkout", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args.probe_setup, args.seed, args.program)
    if args.write_reference:
        return write_reference()
    if args.compare:
        import compare

        return compare.main(args, run_child)
    if args.workload == "all" or args.trace is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
