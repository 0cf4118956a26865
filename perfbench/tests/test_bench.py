"""The benchmark's own tests: run them with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [n for n, _, _ in spans.LAYER_METRICS] + ["trace.overhead_share"]
    assert [m["name"] for m in SPEC["per_layer"]] == names
    assert {m["name"] for m in SPEC["end_to_end"]} == {"latency_ms_p50", "items_per_s", "peak_rss_mb", "setup_s"}


def test_smoke_untraced_image_at_minimal_length():
    result = _last_json(_run("--workload", "image", "--seed", "0", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_training_at_minimal_length():
    result = _last_json(_run("--workload", "train_small", "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["training.Adam.step.ms"]["value"] > 0
    assert result["metrics"]["pipeline.run_image.ms"]["value"] == 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "image", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def crowded(tmp_path_factory):
    wl = workloads.CrowdedDecodeWorkload(workloads.DEFAULT_SEED, tmp_path_factory.mktemp("crowded"))
    wl.make_inputs()
    wl.setup()
    return wl, wl.request(0)


def _serve(wl, out: dict) -> workloads.Runner:
    runner = workloads.Runner(wl, spans.Tracer(), workloads.load_reference(wl.name))
    wl_request = wl.request
    wl.request = lambda index: out
    try:
        runner.serve(0)
    finally:
        wl.request = wl_request
    return runner


def test_reference_output_passes(crowded):
    wl, out = crowded
    runner = _serve(wl, out)
    assert (runner.attempted, runner.failed) == (1, 0), runner.problems


@pytest.mark.parametrize("new_id", [7, 64])
def test_perturbed_decoded_id_counts_as_failed(crowded, new_id):
    wl, out = crowded
    ids = list(out["decoded_ids"])
    ids[3] = new_id if ids[3] != new_id else new_id + 1
    runner = _serve(wl, dict(out, decoded_ids=ids))
    assert (runner.attempted, runner.failed) == (1, 1)


def test_perturbed_nll_counts_as_failed(tmp_path):
    wl = workloads.ImageWorkload(workloads.DEFAULT_SEED, tmp_path)
    wl.make_inputs()
    wl.setup()
    out = wl.request(0)
    assert _serve(wl, out).failed == 0
    assert _serve(wl, dict(out, nll=out["nll"] * (1 + 1e-7))).failed == 1
    assert _serve(wl, dict(out, nll=float("nan"))).failed == 1
    # a roundoff-sized change stays within the stated tolerance
    assert _serve(wl, dict(out, nll=out["nll"] * (1 + 1e-13))).failed == 0


def test_expected_span_missing_is_named_not_zero():
    item = spans.Item("request")
    item.spans.append(("pipeline.run_image", None, 0.2, 0.1))
    metrics, missing = spans.layer_metrics([item], {"pipeline.run_image.ms", "roi.build_pyramid.self_ms"})
    assert missing == ["roi.build_pyramid.self_ms"]
    assert "roi.build_pyramid.self_ms" not in metrics
    assert metrics["pipeline.run_image.ms"]["value"] == pytest.approx(200.0)
    assert metrics["assembly.greedy_decode.ms"]["value"] == 0.0


def test_host_speed_helper_scales_by_each_pass_and_stops():
    with hostspeed.Calibration() as cal:
        speed = cal.sample()
        assert speed == pytest.approx(hostspeed.REFERENCE_S / cal.passes[-1])
        cal.passes = [0.004, 0.020, 0.008]
        assert cal.factor == pytest.approx(hostspeed.REFERENCE_S / 0.008)
    assert cal._proc.returncode == 0


def test_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.15)[0] == "improved"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "lower", 0.15)[0] == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.15)[0] == "unchanged"
    noisy = [60.0, 140.0] * 5
    assert compare.verdict(noisy, [100.0] * 10, "lower", 0.15)[0] == "unresolved"


def _fake_checkout(root: Path, reference: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "src" / "visionflow").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "perfbench" / "reference.json").write_text(reference)
    (root / "src" / "visionflow" / "__init__.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return root


def test_compare_runs_both_sides_with_the_parents_harness(tmp_path, capsys):
    parent = _fake_checkout(tmp_path / "parent", "{}")
    change = _fake_checkout(tmp_path / "change", '{"edited": true}')
    calls = []

    def fake_run_child(root, workload, seed, seconds, trace, program):
        calls.append((root, program, seed, trace))
        value = 1.0 + 0.01 * seed + (0.5 if program == change else 0.0)
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {} if trace else {m["name"]: {"value": value, "unit": m["unit"]}
                                             for m in SPEC["end_to_end"]}}, ""

    args = type("Args", (), {"compare": [str(parent), str(change)], "workload": "image",
                             "seconds": 1.0, "seed": 0})()
    assert compare.main(args, fake_run_child) == 0
    out = capsys.readouterr().out
    assert all(root == parent for root, _, _, _ in calls)
    untraced = [c for c in calls if c[3] == 0]
    assert len(untraced) == 2 * compare.PAIRS
    assert [p for _, p, _, _ in untraced[:4]] == [parent, change, change, parent]
    assert "WARNING: the change edits the benchmark" in out and "perfbench/reference.json" in out
    assert "latency_ms_p50" in out and "worse" in out
