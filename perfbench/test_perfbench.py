"""Self-tests of the benchmark harness (smoke-sized, a few seconds each).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(capsys, *args):
    assert bench.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), detail


def _vqsct_functions():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if module is not None and (name == "vqsct" or name.startswith("vqsct."))
            for attr, value in vars(module).items() if callable(value)}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_end_to_end_metric(capsys, workload):
    result, detail = _bench(capsys, "--workload", workload, "--seed", "3",
                            "--seconds", "5", "--trace", "0", "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert detail["detail"]["error_rate"]["value"] == 0.0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_reports_per_layer_and_restores(capsys, workload):
    bench.load_program()
    import harness

    for name in harness.VQSCT_MODULES:
        __import__(f"vqsct.{name}")
    before = _vqsct_functions()
    result, detail = _bench(capsys, "--workload", workload, "--seed", "3",
                            "--seconds", "5", "--trace", "1", "--smoke")
    assert _vqsct_functions() == before
    assert result["correct"], detail["failures"]
    assert detail["missing"] == []
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "infer":
        assert metrics["autograd.conv_bwd_calls"] == 0
        assert metrics["pipeline.translate_slices_ms"] > 0
    else:
        assert metrics["autograd.conv_bwd_calls"] > 0
        assert metrics["training.steps"] > 0


def test_injected_failure_raises_error_rate(capsys, monkeypatch):
    bench.load_program()
    import harness

    timed = harness.TIMED["infer"]

    def timed_then_fail(session, inputs, out, sizes):
        extra = timed(session, inputs, out, sizes)
        session.run("translate", ["translate", "--ckpt", os.path.join(out, "absent.vqck"),
                                  "--pet", os.path.join(out, "absent.mvol"),
                                  "--out", os.path.join(out, "absent_sct.mvol")])
        return extra

    monkeypatch.setitem(harness.TIMED, "infer", timed_then_fail)
    result, detail = _bench(capsys, "--workload", "infer", "--seed", "3",
                            "--seconds", "5", "--trace", "0", "--smoke")
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["detail"]["error_rate"]["value"] > 0


def test_rebinding_covers_imported_copies():
    bench.load_program()
    import spans
    import vqsct.model
    import vqsct.pipeline
    import vqsct.training

    original = vqsct.model.forward
    patch = spans.Patch()

    def stand_in(*args, **kwargs):
        return original(*args, **kwargs)

    assert patch.replace(original, stand_in) >= 3
    assert vqsct.pipeline.forward is stand_in and vqsct.training.forward is stand_in
    patch.restore()
    assert vqsct.model.forward is original and vqsct.pipeline.forward is original


def test_missing_function_is_a_missing_metric_not_a_crash(capsys, monkeypatch):
    import spans

    monkeypatch.setattr(spans, "TRACED", spans.TRACED + [("model", "renamed_away")])
    result, detail = _bench(capsys, "--workload", "volumetric", "--seed", "3",
                            "--seconds", "5", "--trace", "1", "--smoke")
    assert result["correct"]
    assert "model.renamed_away" in detail["missing"]
    metrics = spans.layer_metrics([], [], 1.0, {}, ["evaluation.ssim"])
    assert "evaluation.ssim_ms" not in metrics and "evaluation.dsc_ms" in metrics


def test_layer_names_merge_shared_shapes():
    import numpy as np
    import spans

    params = {"vq0.in.w": np.zeros((16, 16, 1, 1)), "vq0.out.w": np.zeros((16, 16, 1, 1)),
              "vq0.in.b": np.zeros(16), "dec.final.w": np.zeros((1, 8, 3, 3))}
    assert spans.layer_names(params) == {(16, 16, 1, 1): "vq0.io",
                                         (1, 8, 3, 3): "dec.final"}


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
