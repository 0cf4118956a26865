"""Outputs do not depend on the BLAS thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli(threads: int, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run([sys.executable, "-m", "visionflow.cli", *args], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout)


def test_train_and_infer_are_equal_on_one_and_two_blas_threads(tmp_path):
    data = str(tmp_path / "train.json")
    cli(1, "gen-data", "--out", data, "--samples", "8", "--small-config", "--seed", "0")
    params = []
    for threads in (1, 2):
        out = tmp_path / f"ck{threads}"
        cli(threads, "train", "--small-config", "--seed", "0", "--dataset", data, "--out-dir", str(out),
            "--set", 'train={"stage1_steps": 2, "stage2_steps": 2, "batch_size": 8}')
        params.append((out / "params.bin").read_bytes())
    assert params[0] == params[1]
    infer = ["infer", "--scene-seed", "0", "--text-ids", "1,2,3", "--answer-ids", "4,5"]
    assert cli(1, *infer)["result_hash"] == cli(2, *infer)["result_hash"]
