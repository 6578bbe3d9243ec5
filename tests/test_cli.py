"""Command-line interface: exit codes, config merging, emitted artifacts."""

import contextlib
import io
import json
import os
import re
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import evaluate_case_whole_volume
from vqsct import cli
from vqsct.cli import build_parser, main
from vqsct.errors import FormatError
from vqsct.evaluation import (BONE_THRESHOLD_HU, read_report_csv,
                              write_report_csv)
from vqsct.model import (ModelConfig, build_model, load_checkpoint,
                         save_checkpoint)
from vqsct.phantom import generate_texture_volume
from vqsct.volume import SLAB, Volume, read_volume, write_volume

from test_pipeline import _no_child_left, forks  # noqa: F401


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared artifact tree built once: phantom cases, checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    phantom_dir = root / "cases"
    assert main(["phantom", "--out", str(phantom_dir), "--cases", "2",
                 "--dims", "32,32,32", "--seed", "3"]) == 0

    textures = []
    for i in range(2):
        path = root / f"texture_{i}.mvol"
        write_volume(generate_texture_volume((16, 16, 16), seed=40 + i), path)
        textures.append(str(path))

    pre = root / "pre.vqck"
    assert main(["pretrain", "--volumes", *textures, "--out", str(pre),
                 "--rank", "2", "--depth", "2", "--base-channels", "4",
                 "--codebook-size", "8", "--codebook-dim", "6",
                 "--steps", "2", "--batch-size", "4",
                 "--learning-rate", "1e-3"]) == 0

    fin = root / "fin.vqck"
    assert main(["finetune", "--base", str(pre), "--mode", "no-frozen",
                 "--pet", str(phantom_dir / "case_000_pet.mvol"),
                 "--ct", str(phantom_dir / "case_000_ct.mvol"),
                 "--steps", "2", "--batch-size", "4", "--out", str(fin)]) == 0

    pre3d = root / "pre3d.vqck"
    assert main(["pretrain", "--volumes", textures[0], "--out", str(pre3d),
                 "--rank", "3", "--depth", "2", "--base-channels", "4",
                 "--codebook-size", "8", "--codebook-dim", "6", "--cube-edge", "8",
                 "--steps", "1", "--batch-size", "2", "--learning-rate", "1e-3"]) == 0
    return {"root": root, "phantom": phantom_dir, "textures": textures,
            "pre": str(pre), "fin": str(fin), "pre3d": str(pre3d)}


# ---------------------------------------------------------------------------
# phantom
# ---------------------------------------------------------------------------

def test_phantom_outputs(work):
    d = work["phantom"]
    for i in range(2):
        ct = read_volume(d / f"case_{i:03d}_ct.mvol")
        pet = read_volume(d / f"case_{i:03d}_pet.mvol")
        assert ct.intensity_space == "HU" and pet.intensity_space == "activity"
        assert ct.dims == (32, 32, 32) and pet.dims == (32, 32, 32)
        truth = json.loads((d / f"case_{i:03d}_truth.json").read_text())
        assert truth["case"] == i and truth["seed"] == [3, i]
        assert sum(truth["label_counts"].values()) == 32 ** 3
    config = json.loads((d / "phantom.config.json").read_text())
    assert config["command"] == "phantom"
    assert config["cases"] == 2 and config["seed"] == 3


def test_phantom_rerun_is_byte_identical(work, tmp_path):
    again = tmp_path / "again"
    assert main(["phantom", "--out", str(again), "--cases", "2",
                 "--dims", "32,32,32", "--seed", "3"]) == 0
    for name in ("case_000_ct.mvol", "case_000_pet.mvol",
                 "case_001_ct.mvol", "case_001_pet.mvol"):
        assert (again / name).read_bytes() == \
            (work["phantom"] / name).read_bytes()


def test_phantom_rejects_bad_values(tmp_path):
    out = str(tmp_path / "p")
    assert main(["phantom", "--out", out, "--dims", "8,8,8"]) == 1
    assert main(["phantom", "--out", out, "--cases", "0"]) == 1
    assert main(["phantom", "--out", out, "--dims", "32,32"]) == 1
    assert main(["phantom", "--out", out, "--dims", "a,b,c"]) == 1


@pytest.mark.parametrize("spacing", ["0,1,1", "1,nan,1", "1,1,1e400"])
def test_bad_phantom_spacing_exits_1_before_any_case(tmp_path, capsys, forks, spacing):
    out = tmp_path / "ph"
    assert main(["phantom", "--out", str(out), "--cases", "2", "--dims", "32,32,32",
                 "--spacing", spacing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error: spacing must be 3 finite positive values")
    assert err.count("\n") == 1 and forks == [] and os.listdir(tmp_path) == []


_CPUS = len(os.sched_getaffinity(0))
_THREAD_FLAGS = {"threads-1": ["--threads", "1"], "threads-2": ["--threads", "2"],
                 "default": []}


@pytest.fixture
def thread_env(monkeypatch):
    """Restore the thread variables that ``--threads`` sets."""
    for var in cli._THREAD_ENV_VARS:
        monkeypatch.setenv(var, "1")


def _phantom(out, *flags, cases=3):
    return main([*flags, "phantom", "--out", str(out), "--cases", str(cases),
                 "--dims", "32,32,32", "--seed", "5"])


@pytest.mark.skipif(_CPUS < 2, reason="--threads 2 needs two usable CPUs")
def test_phantom_files_are_the_same_at_any_thread_count(tmp_path, thread_env):
    trees = {}
    for name, flags in _THREAD_FLAGS.items():
        assert _phantom(tmp_path / name, *flags) == 0
        trees[name] = {f: (tmp_path / name / f).read_bytes()
                       for f in sorted(os.listdir(tmp_path / name))}
        config = json.loads(trees[name].pop("phantom.config.json"))
        assert config.pop("out") == str(tmp_path / name)
        trees[name]["config"] = config
    assert len(trees["default"]) == 3 * 3 + 1
    assert trees["threads-1"] == trees["threads-2"] == trees["default"]


def _mark_cases(monkeypatch, marks, seconds):
    """Patch ``generate_phantom_pair``, which the forked workers inherit, so
    that case ``i`` sleeps ``seconds(i)`` first and leaves ``marks/<i>``
    holding its process id and its start and end on the monotonic clock,
    which every process shares."""
    from vqsct import phantom

    marks.mkdir()
    real = phantom.generate_phantom_pair

    def marking(dims, seed, **kwargs):
        path, start = marks / str(seed[1]), time.monotonic()
        path.write_text(f"{os.getpid()} {start} inf")
        time.sleep(seconds(seed[1]))
        try:
            return real(dims, seed, **kwargs)
        finally:
            path.write_text(f"{os.getpid()} {start} {time.monotonic()}")

    monkeypatch.setattr(phantom, "generate_phantom_pair", marking)


def _marks(marks):
    """{case: (pid, start, end)} of every case that started."""
    runs = {}
    for path in marks.iterdir():
        pid, start, end = path.read_text().split()
        runs[int(path.name)] = int(pid), float(start), float(end)
    return runs


@pytest.mark.parametrize("cases,flags", [(3, ["--threads", "1"]), (3, ["--threads", "2"]),
                                         (1, ["--threads", "2"]), (3, [])],
                         ids=["3-cases-1-thread", "3-cases-2-threads", "1-case-2-threads",
                              "3-cases-default"])
def test_phantom_runs_at_most_one_case_per_worker(tmp_path, monkeypatch, thread_env, forks,
                                                  cases, flags):
    if flags and int(flags[1]) > _CPUS:
        pytest.skip("more threads than usable CPUs")
    # long enough for every worker to start a case
    _mark_cases(monkeypatch, tmp_path / "marks", lambda case: 0.1)
    assert _phantom(tmp_path / "p", *flags, cases=cases) == 0
    workers = min(cases, int(flags[1]) if flags else _CPUS)
    # one worker forks nothing: the cases run in order in this process
    assert len(forks) == workers - 1 and _no_child_left()
    runs = _marks(tmp_path / "marks")
    assert sorted(runs) == list(range(cases))
    pids = {pid for pid, _, _ in runs.values()}
    assert pids <= {os.getpid(), *forks}
    assert (pids == {os.getpid()}) == (workers == 1)
    for pid in pids:  # one case at a time in each process
        spans = sorted((start, end) for p, start, end in runs.values() if p == pid)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
    peak = max(sum(start <= t < end for _, start, end in runs.values())
               for _, t, _ in runs.values())
    assert peak == workers
    assert len(os.listdir(tmp_path / "p")) == 3 * cases + 1


def _blocked_run(out, flags, monkeypatch, blocked=(1,)):
    """Run phantom into ``out`` with a directory where each blocked case's CT goes."""
    from vqsct import phantom

    out.mkdir()
    for i in blocked:
        (out / f"case_{i:03d}_ct.mvol").mkdir()
    real = phantom.generate_phantom_pair

    def first_blocked_case_is_slowest(dims, seed, **kwargs):
        if seed[1] == blocked[0]:  # so a later case fails first wherever cases overlap
            time.sleep(0.3)
        return real(dims, seed, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(phantom, "generate_phantom_pair", first_blocked_case_is_slowest)
        return _phantom(out, *flags)


@pytest.mark.parametrize("blocked", [(1,), (1, 2)], ids=["case-1", "cases-1-and-2"])
def test_blocked_case_path_exits_2_as_the_serial_loop_does(tmp_path, capsys, monkeypatch,
                                                         thread_env, blocked):
    errors = {}
    for name, flags in _THREAD_FLAGS.items():
        if flags and int(flags[1]) > _CPUS:
            continue
        out = tmp_path / name
        assert _blocked_run(out, flags, monkeypatch, blocked) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        errors[name] = err.replace(str(out), "OUT")
        left = os.listdir(out)
        assert not [f for f in left if f.startswith(".")], left  # no temporary file
        assert "phantom.config.json" not in left
        assert {"case_000_ct.mvol", "case_000_pet.mvol", "case_000_truth.json"} <= set(left)
        assert os.listdir(out / "case_001_ct.mvol") == []
    assert errors["threads-1"] == (
        "vqsct: i/o error: [Errno 21] Is a directory: 'OUT/case_001_ct.mvol'\n")
    assert len(set(errors.values())) == 1, errors


@pytest.mark.skipif(_CPUS < 2, reason="--threads 2 needs two usable CPUs")
def test_no_case_starts_once_a_case_has_failed(tmp_path, capsys, monkeypatch, thread_env,
                                               forks):
    # case 0 runs long in one process while case 1 fails in the other; that
    # process then takes cases 2 and 3, which must not start
    out = tmp_path / "p"
    out.mkdir()
    (out / "case_001_ct.mvol").mkdir()
    _mark_cases(monkeypatch, tmp_path / "marks", lambda case: 0.3 if case == 0 else 0.0)
    assert _phantom(out, "--threads", "2", cases=4) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert len(forks) == 1 and _no_child_left()
    assert sorted(_marks(tmp_path / "marks")) == [0, 1]
    assert sorted(os.listdir(out)) == ["case_000_ct.mvol", "case_000_pet.mvol",
                                       "case_000_truth.json", "case_001_ct.mvol"]


def test_phantom_pool_holds_no_more_cases_than_free_memory(tmp_path, monkeypatch, thread_env,
                                                           forks):
    from vqsct import workers

    monkeypatch.setattr(workers, "_free_bytes", lambda: cli._CASE_BYTES_PER_VOXEL * 32 ** 3)
    _mark_cases(monkeypatch, tmp_path / "marks", lambda case: 0.0)
    assert _phantom(tmp_path / "p", *(["--threads", "2"] if _CPUS > 1 else [])) == 0
    # room for one case: no fork, one case at a time in this process
    assert forks == [] and _no_child_left()
    assert {pid for pid, _, _ in _marks(tmp_path / "marks").values()} == {os.getpid()}
    assert len(os.listdir(tmp_path / "p")) == 3 * 3 + 1


# ---------------------------------------------------------------------------
# inference worker processes
# ---------------------------------------------------------------------------

def _inference_runs(work, out):
    ct = str(work["phantom"] / "case_000_ct.mvol")
    pet = str(work["phantom"] / "case_001_pet.mvol")
    return [["translate", "--ckpt", work["fin"], "--pet", pet, "--out", str(out / "sct.mvol"),
             "--dump-planes"],
            ["reconstruct", "--ckpt", work["pre3d"], "--ct", ct, "--edge", "8",
             "--out", str(out / "recon.mvol")],
            ["select", "--candidates", work["pre"], work["pre3d"], work["fin"],
             "--volumes", ct, "--cube-edge", "8", "--out", str(out / "best.vqck")]]


def test_inference_files_are_the_same_at_any_thread_count(work, tmp_path, thread_env, forks):
    trees = {}
    for name, flags in _THREAD_FLAGS.items():
        if flags and int(flags[1]) > _CPUS:
            continue
        out = tmp_path / name
        out.mkdir()
        del forks[:]
        for argv in _inference_runs(work, out):
            assert main([*flags, *argv]) == 0
        assert _no_child_left()
        if name == "threads-1" or _CPUS == 1:
            assert forks == []
        else:  # translate, reconstruct, select's three candidates: one child each
            assert len(forks) == 5
        trees[name] = {f: (out / f).read_bytes().replace(str(out).encode(), b"OUT")
                       for f in sorted(os.listdir(out))}
    assert len(trees["default"]) == 5 + 2 + 3
    assert all(tree == trees["default"] for tree in trees.values())


@pytest.mark.parametrize("argv", [
    ["translate", "--ckpt", "pre3d", "--pet", "ct"],
    ["reconstruct", "--ckpt", "pre", "--ct", "ct", "--edge", "8"],
    ["finetune", "--base", "pre3d", "--mode", "no-frozen", "--pet", "pet", "--ct", "ct",
     "--steps", "1"]],
    ids=["translate", "reconstruct", "finetune"])
def test_checkpoint_of_the_other_rank_exits_1_with_one_line(work, tmp_path, capsys,
                                                            monkeypatch, argv):
    # the rank is checked right after the checkpoint loads: before any volume
    # is read, or a pool sized or forked, for either rank
    from vqsct import volume

    reads = []
    monkeypatch.setattr(volume, "read_volume", lambda path: reads.append(path))
    case = {"ct": str(work["phantom"] / "case_000_ct.mvol"),
            "pet": str(work["phantom"] / "case_000_pet.mvol")}
    argv = [work.get(a, case.get(a, a)) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "never.mvol")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "needs a" in err and "got rank" in err, err
    assert reads == []
    assert os.listdir(tmp_path) == []


def test_select_checks_a_3d_candidate_cube_edge_before_any_candidate_runs(
        work, tmp_path, capsys, monkeypatch):
    # the 2D candidate comes first; the 3D one's depth 2 does not divide 10
    from vqsct import pipeline, volume

    calls = []
    monkeypatch.setattr(volume, "read_volume", lambda path: calls.append("read"))
    monkeypatch.setattr(pipeline, "translate_volume", lambda *a, **k: calls.append("2d"))
    monkeypatch.setattr(pipeline, "reconstruct_cubes", lambda *a, **k: calls.append("3d"))
    ct = [str(work["phantom"] / f"case_00{i}_ct.mvol") for i in range(2)]
    assert main(["select", "--candidates", work["pre"], work["pre3d"], "--volumes", *ct,
                 "--cube-edge", "10", "--out", str(tmp_path / "best.vqck")]) == 1
    assert capsys.readouterr().err == "vqsct: error: cube edge 10 must be divisible by 2^2\n"
    assert calls == []
    assert os.listdir(tmp_path) == []


def _forbid_reads(monkeypatch):
    """Make every read of a volume, checkpoint or report fail the test."""
    from vqsct import evaluation, model, volume

    def forbidden(path, *args, **kwargs):
        raise AssertionError(f"{path} was read")

    for module, name in ((volume, "read_volume"), (model, "load_checkpoint"),
                         (evaluation, "read_report_csv")):
        monkeypatch.setattr(module, name, forbidden)


_WRITERS = {  # every command whose --out is a file, with inputs a run would read
    "pretrain": ["pretrain", "--volumes", "textures", "--steps", "200"],
    "finetune": ["finetune", "--base", "pre", "--mode", "no-frozen", "--pet", "pet",
                 "--ct", "ct"],
    "translate": ["translate", "--ckpt", "fin", "--pet", "pet"],
    "reconstruct": ["reconstruct", "--ckpt", "pre3d", "--ct", "ct", "--edge", "8"],
    "evaluate": ["evaluate", "--pred", "ct", "--gt", "ct"],
    "stats": ["stats", "--report-a", "report", "--report-b", "report", "--metric", "mae",
              "--region", "whole"],
    "select": ["select", "--candidates", "pre", "--volumes", "ct"],
}


def _writer_argv(work, tmp_path, command) -> list:
    report = tmp_path / "inputs" / "report.csv"
    report.parent.mkdir(exist_ok=True)
    report.write_text("case_id\n")
    inputs = {"pre": work["pre"], "fin": work["fin"], "pre3d": work["pre3d"],
              "textures": work["textures"][0], "report": str(report),
              "pet": str(work["phantom"] / "case_000_pet.mvol"),
              "ct": str(work["phantom"] / "case_000_ct.mvol")}
    return [inputs.get(a, a) for a in _WRITERS[command]]


@pytest.mark.parametrize("command", list(_WRITERS))
def test_an_out_in_a_missing_directory_exits_2_before_any_read(work, tmp_path, capsys,
                                                               monkeypatch, command):
    _forbid_reads(monkeypatch)
    out = str(tmp_path / "missing" / "dir" / "out")
    assert main([*_writer_argv(work, tmp_path, command), "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"vqsct: i/o error: [Errno 2] --out's directory does not exist: {out!r}\n")
    assert sorted(os.listdir(tmp_path)) == ["inputs"]


def test_an_out_that_is_a_directory_exits_2_before_any_read(work, tmp_path, capsys,
                                                          monkeypatch):
    _forbid_reads(monkeypatch)
    out = tmp_path / "sct.mvol"
    out.mkdir()
    assert main([*_writer_argv(work, tmp_path, "translate"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"vqsct: i/o error: [Errno 21] --out is a directory: {str(out)!r}\n")
    assert os.listdir(out) == []
    assert sorted(os.listdir(tmp_path)) == ["inputs", "sct.mvol"]


@pytest.mark.parametrize("command,flags,side", [
    ("evaluate", [], "out.dat.config.json"), ("stats", [], "out.dat.config.json"),
    ("pretrain", [], "out.dat.history.csv"), ("finetune", [], "out.dat.history.csv"),
    ("select", [], "out.dat.selection.json"), ("translate", ["--dump-planes"], "out.coronal.dat")])
def test_a_file_beside_out_that_is_a_directory_exits_2_before_any_read(
        work, tmp_path, capsys, monkeypatch, command, flags, side):
    _forbid_reads(monkeypatch)
    (tmp_path / side).mkdir()
    argv = [*_writer_argv(work, tmp_path, command), *flags, "--out", str(tmp_path / "out.dat")]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("vqsct: i/o error: [Errno 21] a file written beside "
                                       f"--out is a directory: {str(tmp_path / side)!r}\n")
    assert os.listdir(tmp_path / side) == []
    assert sorted(os.listdir(tmp_path)) == sorted(["inputs", side])


@pytest.mark.parametrize("command", list(_WRITERS))
def test_every_file_written_beside_out_is_one_the_out_rule_checked(
        work, tmp_path, monkeypatch, command):
    # so that a new side file cannot skip the rule: it would be written here unchecked
    checked, rule = [], cli._check_out

    def recording(args):
        rule(args)
        checked.extend(os.path.basename(path) for path in cli._beside_out(args).values())

    required, other = _replay_case(command, work, tmp_path)  # translate dumps its planes
    (tmp_path / "run").mkdir()
    monkeypatch.setattr(cli, "_check_out", recording)
    assert main(["--threads", "1", command, *required, *other,
                 "--out", str(tmp_path / "run" / "out.dat")]) == 0
    assert "out.dat.config.json" in checked
    assert sorted(os.listdir(tmp_path / "run")) == sorted(["out.dat", *checked])


@pytest.mark.parametrize("under", [".", "sub", "sub/maps"], ids=["file", "under", "deeper"])
def test_a_diff_dir_that_cannot_be_a_directory_exits_2_before_the_report(
        work, tmp_path, capsys, monkeypatch, under):
    _forbid_reads(monkeypatch)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    diff = os.path.normpath(afile / under)
    assert main([*_writer_argv(work, tmp_path, "evaluate"), "--out", str(tmp_path / "rep.csv"),
                 "--diff-dir", diff]) == 2
    assert capsys.readouterr().err == ("vqsct: i/o error: [Errno 20] --diff-dir is not a "
                                       f"directory and cannot become one: {diff!r}\n")
    assert afile.read_text() == "kept"
    assert sorted(os.listdir(tmp_path)) == ["afile", "inputs"]


def test_a_diff_dir_under_a_missing_directory_is_made(work, tmp_path):
    diff = tmp_path / "maps" / "case0"
    assert main(["--threads", "1", *_writer_argv(work, tmp_path, "evaluate"),
                 "--out", str(tmp_path / "rep.csv"), "--diff-dir", str(diff)]) == 0
    assert os.listdir(diff)


def _sagittal_strides(work):
    """The strides of a sagittal slice of the PET that the failing-worker tests translate."""
    return read_volume(work["phantom"] / "case_001_pet.mvol").voxels.strides[1:]


@pytest.mark.parametrize("kind", ["domain", "memory", "kill"])
def test_failing_worker_exits_1_with_the_serial_line(work, tmp_path, capsys, monkeypatch,
                                                     thread_env, kind):
    # the sagittal slices (the last plane's, in a child of the pool) fail
    # wherever they run and print the serial path's line; a kill happens
    # only in a child
    from vqsct import pipeline
    from vqsct.errors import DomainError

    parent = os.getpid()
    real = pipeline.graph_input
    sagittal = _sagittal_strides(work)

    def failing(config, values, space):
        if values.strides == sagittal and (kind != "kill" or os.getpid() != parent):
            if kind == "domain":
                raise DomainError(f"sagittal slice of shape {values.shape}")
            if kind == "memory":
                np.empty(1 << 50)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(config, values, space)

    monkeypatch.setattr(pipeline, "graph_input", failing)
    lines = set()
    for name, flags in _THREAD_FLAGS.items():
        if flags and int(flags[1]) > _CPUS:
            continue
        out = tmp_path / f"{name}.mvol"
        survives = kind == "kill" and (name == "threads-1" or _CPUS == 1)
        assert main([*flags, "translate", "--ckpt", work["fin"], "--out", str(out),
                     "--pet", str(work["phantom"] / "case_001_pet.mvol")]) == (0 if survives else 1)
        assert _no_child_left()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if not survives:
            assert err.count("\n") == 1 and not out.exists()
            lines.add(err)
    want = {"domain": r"vqsct: error: sagittal slice of shape \(32, 32\)\n",
            "memory": r"vqsct: error: out of memory \(Unable to allocate .*\)\n",
            "kill": r"vqsct: error: a worker process was killed by SIGKILL\n"}[kind]
    assert len(lines) == (1 if _CPUS > 1 or kind != "kill" else 0)
    assert all(re.fullmatch(want, line) for line in lines), lines


# ---------------------------------------------------------------------------
# argument and config handling
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(tmp_path):
    assert main([]) == 1  # missing subcommand
    assert main(["phantom"]) == 1  # missing required --out
    assert main(["phantom", "--out", str(tmp_path / "x"), "--nope"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["--threads", "0", "phantom", "--out", str(tmp_path / "y")]) == 1
    # only the commands that draw random numbers take a seed
    assert main(["reconstruct", "--ckpt", "a.vqck", "--ct", "b.mvol",
                 "--out", str(tmp_path / "z"), "--seed", "1"]) == 1


@pytest.mark.parametrize("argv", [
    ["pretrain", "--volumes", "a.mvol", "--seed", "-1"],
    ["phantom", "--seed", "-5"],
    ["finetune", "--base", "b.vqck", "--mode", "scratch", "--pet", "p.mvol", "--ct", "c.mvol",
     "--seed", "-1"]], ids=["pretrain", "phantom", "finetune"])
def test_negative_seed_exits_1_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "never"
    assert main([*argv, "--out", str(out)]) == 1
    seed = argv[argv.index("--seed") + 1]
    assert capsys.readouterr().err == f"vqsct: error: --seed must be >= 0, got {seed}\n"
    assert os.listdir(tmp_path) == []


def test_negative_seed_from_a_config_exits_1(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": -3}))
    assert main(["phantom", "--out", str(tmp_path / "never"), "--config", str(config)]) == 1
    assert capsys.readouterr().err == "vqsct: error: --seed must be >= 0, got -3\n"


@pytest.mark.parametrize("extra", [1, 10 ** 9])
def test_threads_above_the_usable_cpus_exit_1_before_any_run(tmp_path, capsys, monkeypatch,
                                                            extra):
    # only the argument check runs: no handler, and the environment holds one BLAS
    # thread, set before any rule imports numpy, not the rejected count
    def never(args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli._HANDLERS, "stats", never)
    for var in cli._THREAD_ENV_VARS:
        monkeypatch.setenv(var, "unchanged")
    cpus = len(os.sched_getaffinity(0))
    threads = str(cpus + extra)
    assert main(["--threads", threads, "stats", "--report-a", "a.csv", "--report-b", "b.csv",
                 "--metric", "mae", "--region", "whole", "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == (f"vqsct: error: --threads must be in [1, {cpus}] "
                                       f"(the usable CPUs), got {threads}\n")
    assert all(os.environ[var] == "1" for var in cli._THREAD_ENV_VARS)
    assert os.listdir(tmp_path) == []


def test_threads_up_to_the_usable_cpus_are_accepted(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setitem(cli._HANDLERS, "stats", ran.append)
    for var in cli._THREAD_ENV_VARS:
        monkeypatch.setenv(var, "unchanged")
    cpus = len(os.sched_getaffinity(0))
    assert main(["--threads", str(cpus), "stats", "--report-a", "a.csv", "--report-b", "b.csv",
                 "--metric", "mae", "--region", "whole", "--out", str(tmp_path / "s")]) == 0
    assert len(ran) == 1
    # --threads sizes the worker pools; each worker runs one BLAS/OpenMP thread
    assert all(os.environ[var] == "1" for var in cli._THREAD_ENV_VARS)


def test_config_file_merge_and_flag_precedence(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"cases": 1, "dims": "32,32,32",
                                       "seed": 9}))
    out = tmp_path / "merged"
    assert main(["phantom", "--out", str(out), "--config", str(config_path),
                 "--cases", "2"]) == 0
    assert (out / "case_001_ct.mvol").exists()  # flag count won
    resolved = json.loads((out / "phantom.config.json").read_text())
    assert resolved["cases"] == 2  # explicit flag beats file
    assert resolved["dims"] == "32,32,32" and resolved["seed"] == 9


def test_config_file_validation(work, tmp_path, capsys):
    out = str(tmp_path / "x")
    capsys.readouterr()
    assert main(["phantom", "--out", out, "--config",
                 str(work["root"] / "pre.vqck.config.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error:") and err.count("\n") == 1
    assert '"pretrain"' in err and not os.path.exists(out)
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"volume_count": 3}))
    assert main(["phantom", "--out", out, "--config", str(bad_key)]) == 1
    not_dict = tmp_path / "list.json"
    not_dict.write_text("[1,2]")
    assert main(["phantom", "--out", out, "--config", str(not_dict)]) == 1
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{nope")
    assert main(["phantom", "--out", out, "--config", str(invalid)]) == 1
    invalid.write_bytes(b'{"seed": "\xff"}')
    assert main(["phantom", "--out", out, "--config", str(invalid)]) == 1
    invalid.write_text("[" * 100000 + "]" * 100000)
    assert main(["phantom", "--out", out, "--config", str(invalid)]) == 1


@pytest.mark.parametrize("values", [
    {"steps": "ten"}, {"batch_size": 2.5}, {"steps": True},
    {"learning_rate": "x"}, {"augment": 1}, {"rank": "3"}])
def test_config_value_types_are_checked(work, tmp_path, capsys, values):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(values))
    out = tmp_path / "never.vqck"
    capsys.readouterr()
    assert main(["pretrain", "--volumes", *work["textures"], "--out", str(out),
                 "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error:") and "Traceback" not in err
    assert err.count("\n") == 1 and repr(next(iter(values))) in err
    assert not out.exists()


def test_config_values_of_the_right_type_are_accepted(tmp_path):
    config_path = tmp_path / "ok.json"
    config_path.write_text(json.dumps({"cases": 1, "dims": "32,32,32", "seed": 2}))
    assert main(["phantom", "--out", str(tmp_path / "p"),
                 "--config", str(config_path)]) == 0
    config_path.write_text(json.dumps({"learning_rate": 1, "augment": True,
                                       "planes": "axial", "steps": 0}))
    assert main(["finetune", "--base", "missing.vqck", "--mode", "scratch",
                 "--pet", "a.mvol", "--ct", "b.mvol", "--out", str(tmp_path / "f"),
                 "--config", str(config_path)]) == 2  # types pass; the file is missing


def _write_reports(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(report_rows([50.0, 60.0, 55.0, 70.0, 65.0, 58.0]), a)
    write_report_csv(report_rows([55.0, 66.0, 60.0, 77.0, 71.0, 64.0]), b)
    return str(a), str(b)


def _replay_case(command, work, tmp_path):
    """(required flags, other flags) of a run of ``command`` off the defaults."""
    d = work["phantom"]
    train = ["--steps", "2", "--batch-size", "4", "--learning-rate", "1e-3",
             "--beta", "0", "--augment", "--seed", "4"]
    if command == "phantom":
        return [], ["--cases", "1", "--dims", "32,32,40", "--spacing", "2,1.5,1.5",
                    "--seed", "5"]
    if command == "pretrain":
        return (["--volumes", *work["textures"]],
                ["--depth", "2", "--base-channels", "4", "--codebook-size", "8",
                 "--codebook-dim", "6", "--pyramid-levels", "2", *train])
    if command == "finetune":
        return (["--base", work["pre"], "--mode", "enc-frozen",
                 "--pet", str(d / "case_000_pet.mvol"), "--ct", str(d / "case_000_ct.mvol")],
                ["--planes", "axial,sagittal", "--train-codebook", *train])
    if command == "translate":
        return ["--ckpt", work["fin"], "--pet", str(d / "case_001_pet.mvol")], ["--dump-planes"]
    if command == "reconstruct":
        return ["--ckpt", work["pre3d"], "--ct", work["textures"][1]], ["--edge", "8"]
    if command == "evaluate":
        return (["--pred", str(d / "case_001_ct.mvol"), "--gt", str(d / "case_000_ct.mvol")],
                ["--case-id", "c7", "--bone-hu", "250", "--diff-cap", "100",
                 "--diff-dir", str(tmp_path / "maps")])
    if command == "stats":
        a, b = _write_reports(tmp_path)
        return (["--report-a", a, "--report-b", b, "--metric", "mae", "--region", "whole"],
                ["--label-a", "left", "--label-b", "right", "--alpha", "0.1"])
    return (["--candidates", work["pre"], work["pre3d"], "--volumes", *work["textures"]],
            ["--cube-edge", "8"])


@pytest.mark.parametrize("command", ["phantom", "pretrain", "finetune", "translate",
                                     "reconstruct", "evaluate", "stats", "select"])
def test_written_record_replays_the_run(work, tmp_path, command):
    required, options = _replay_case(command, work, tmp_path)
    first, again = tmp_path / "first", tmp_path / "again"

    def record(out):
        return out / "phantom.config.json" if command == "phantom" else \
            tmp_path / f"{out.name}.config.json"

    def primary(out):
        return out / "case_000_ct.mvol" if command == "phantom" else out

    assert main([command, *required, "--out", str(first), *options]) == 0
    # the record alone brings back every option but the required ones
    assert main([command, *required, "--out", str(again),
                 "--config", str(record(first))]) == 0
    assert primary(again).read_bytes() == primary(first).read_bytes()
    assert json.loads(record(again).read_text()) == \
        {**json.loads(record(first).read_text()), "out": str(again)}
    if command == "translate":  # a config that sets dump_planes is honoured
        for plane in ("axial", "coronal", "sagittal"):
            assert (tmp_path / f"again.{plane}").read_bytes() == \
                (tmp_path / f"first.{plane}").read_bytes()


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                         max_size=3)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["stats", "mae", "whole", "bone"]),
    _json_containers, max_leaves=6)
# every command's keys, so most are unknown to stats; and keys no command has
_CONFIG_KEYS = st.sampled_from(sorted(
    {a.dest for p in build_parser().commands.values() for a in p._actions}
    | {"command", "threads"})) | st.text(max_size=6)


@given(st.dictionaries(_CONFIG_KEYS, _JSON_VALUES, max_size=5))
@settings(max_examples=60, deadline=None)
def test_any_config_object_exits_cleanly(tmp_path_factory, values):
    d = tmp_path_factory.mktemp("fuzz")
    a, b = _write_reports(d)
    config_path = d / "config.json"
    config_path.write_text(json.dumps(values))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["stats", "--report-a", a, "--report-b", b, "--metric", "mae",
                     "--region", "whole", "--out", str(d / "s.json"),
                     "--config", str(config_path)])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("vqsct: error:")
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("flag", [
    "--batch-size=0", "--batch-size=-3", "--learning-rate=nan",
    "--learning-rate=-1e-3", "--weight-decay=-0.01",
    "--learning-rate -1e-3", "--weight-decay -1e-2",
    "--beta=-0.25", "--beta=nan", "--beta -1e-3", "--decay=7", "--decay=0",
    "--decay=nan", "--expire-age=0", "--expire-age -4"])
def test_out_of_range_training_values_exit_1(work, tmp_path, flag):
    # in a subprocess with a timeout, so a batch size that makes the batch
    # stream loop forever fails the test instead of hanging the suite; with
    # zero steps, so a value must be rejected before any training work
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = tmp_path / "never.vqck"
    proc = subprocess.run([sys.executable, "-m", "vqsct.cli", "pretrain",
                           "--volumes", work["textures"][0], "--out", str(out),
                           "--depth", "2", "--steps", "0", *flag.split(" ")],
                          capture_output=True, env=env, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("vqsct: error:") and proc.stderr.count("\n") == 1
    assert re.split("[= ]", flag[2:])[0].replace("-", " ") in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
@pytest.mark.parametrize("flag", [
    "--steps=-1", "--batch-size=0", "--learning-rate=-1", "--weight-decay=-1",
    "--beta=-1", "--decay=2", "--expire-age=0"])
def test_training_values_are_checked_before_any_read(tmp_path, capsys, command, flag):
    # every input path is missing: a value checked after a read would exit 2
    missing = str(tmp_path / "missing.mvol")
    inputs = {"pretrain": ["--volumes", missing],
              "finetune": ["--base", str(tmp_path / "missing.vqck"), "--mode", "no-frozen",
                           "--pet", missing, "--ct", missing]}[command]
    assert main([command, *inputs, "--out", str(tmp_path / "never.vqck"), flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error:") and err.count("\n") == 1
    assert flag[2:].split("=")[0].replace("-", " ") + " must" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flag", ["--decay=7", "--expire-age=0"])
def test_enc_frozen_finetune_rejects_unused_codebook_values(work, tmp_path, capsys, flag):
    # enc-frozen freezes the codebook, so no EMA or expiry would ever see them
    d = work["phantom"]
    out = tmp_path / "never.vqck"
    assert main(["finetune", "--base", work["pre"], "--mode", "enc-frozen",
                 "--pet", str(d / "case_000_pet.mvol"), "--ct", str(d / "case_000_ct.mvol"),
                 "--steps", "1", "--batch-size", "2", "--out", str(out), flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error:") and err.count("\n") == 1
    assert flag[2:].split("=")[0].replace("-", " ") in err
    assert not out.exists() and not (tmp_path / "never.vqck.config.json").exists()


@pytest.mark.parametrize("value", [2 ** 40, 10 ** 20])
@pytest.mark.parametrize("flag", ["--base-channels", "--codebook-size", "--codebook-dim"])
def test_architecture_above_the_block_limit_exits_1_with_one_line(work, tmp_path, capsys,
                                                                  flag, value):
    out = tmp_path / "never.vqck"
    assert main(["pretrain", "--volumes", work["textures"][0], "--out", str(out),
                 "--depth", "2", "--steps", "1", flag, str(value)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"vqsct: error: a (conv weight|1x1 projection|codebook) of this "
                        r"architecture holds up to \d+ values, above the limit of "
                        r"134217728 \(512\^3\)\n", err), err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command,flags,line", [  # overflows in float64 or float32
    ("pretrain", "--learning-rate=1e39 --steps 1", "checkpoint block"),
    ("pretrain", "--learning-rate=1e300 --steps 1", "checkpoint block"),
    ("finetune", "--weight-decay=1e300 --steps 1", "checkpoint block"),
    ("pretrain", "--beta=1e300 --steps 3", "training diverged: loss inf"),
    ("pretrain", "--learning-rate=1e300 --steps 3", "non-finite values at graph boundary")])
def test_overflowing_training_exits_1_with_one_line_and_no_file(work, tmp_path, command, flags,
                                                                line, threads):
    # in a fresh interpreter, so that numpy's warnings reach stderr as they
    # would from the command line, also those of a forked worker
    if int(threads) > _CPUS:
        pytest.skip("--threads 2 needs two usable CPUs")
    d = work["phantom"]
    inputs = (["--volumes", str(d / "case_000_ct.mvol"), "--depth", "2"]
              if command == "pretrain" else
              ["--base", work["pre"], "--mode", "no-frozen", "--pet",
               str(d / "case_000_pet.mvol"), "--ct", str(d / "case_000_ct.mvol")])
    out = tmp_path / "x.vqck"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "vqsct.cli", "--threads", threads, command,
                           *inputs, "--out", str(out), "--batch-size", "4", *flags.split()],
                          capture_output=True, env=env, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"vqsct: error: {line}"), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert os.listdir(tmp_path) == []


def test_handlers_run_with_numpy_overflow_warnings_off(tmp_path, monkeypatch):
    # every value they could reach is checked, so a failure prints its one line only
    seen = []
    monkeypatch.setitem(cli._HANDLERS, "stats", lambda args: seen.append(np.geterr()))
    assert main(["stats", "--report-a", "a.csv", "--report-b", "b.csv", "--metric", "mae",
                 "--region", "whole", "--out", str(tmp_path / "s")]) == 0
    assert seen == [{"divide": "ignore", "over": "ignore", "under": np.geterr()["under"],
                     "invalid": "ignore"}]


# ---------------------------------------------------------------------------
# pretrain / finetune
# ---------------------------------------------------------------------------

def test_pretrain_artifacts(work):
    ckpt = load_checkpoint(work["pre"])
    assert ckpt.provenance == "pretrained"
    assert ckpt.config.spatial_rank == 2 and ckpt.config.depth == 2
    history = (work["root"] / "pre.vqck.history.csv").read_text().splitlines()
    assert history[0] == "step,l1,total"
    assert len(history) == 3  # header + 2 steps
    config = json.loads((work["root"] / "pre.vqck.config.json").read_text())
    assert config["command"] == "pretrain"
    assert config["steps"] == 2 and config["codebook_size"] == 8


def test_finetune_artifacts(work):
    ckpt = load_checkpoint(work["fin"])
    assert ckpt.provenance == "finetuned"
    config = json.loads((work["root"] / "fin.vqck.config.json").read_text())
    assert config["command"] == "finetune" and config["mode"] == "no-frozen"


def test_finetune_rejects_unpaired_or_bad_planes(work, tmp_path):
    d = work["phantom"]
    out = str(tmp_path / "f.vqck")
    assert main(["finetune", "--base", work["pre"], "--mode", "scratch",
                 "--pet", str(d / "case_000_pet.mvol"),
                 "--ct", str(d / "case_000_ct.mvol"),
                 str(d / "case_001_ct.mvol"),
                 "--steps", "1", "--out", out]) == 1
    assert main(["finetune", "--base", work["pre"], "--mode", "scratch",
                 "--pet", str(d / "case_000_pet.mvol"),
                 "--ct", str(d / "case_000_ct.mvol"),
                 "--planes", "axial,oblique",
                 "--steps", "1", "--out", out]) == 1
    assert main(["finetune", "--base", work["pre"], "--mode", "sideways",
                 "--pet", str(d / "case_000_pet.mvol"),
                 "--ct", str(d / "case_000_ct.mvol"),
                 "--steps", "1", "--out", out]) == 1


@pytest.mark.parametrize("planes", [",,", "axial,axial", "coronal, sagittal,coronal"])
def test_empty_or_repeated_planes_exit_1_before_anything_is_read(tmp_path, capsys, planes):
    # none of the files exists: reading any of them would exit 2
    missing = [str(tmp_path / name) for name in ("base.vqck", "pet.mvol", "ct.mvol")]
    out = tmp_path / "never.vqck"
    assert main(["finetune", "--base", missing[0], "--mode", "no-frozen", "--pet", missing[1],
                 "--ct", missing[2], "--planes", planes, "--steps", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"vqsct: error: --planes must name one plane or more, "
                                       f"each once, got {planes!r}\n")
    assert os.listdir(tmp_path) == []


def _training_runs(work, out):
    d = work["phantom"]
    small = ["--depth", "2", "--base-channels", "4", "--codebook-size", "8",
             "--codebook-dim", "6"]
    train = ["--steps", "3", "--batch-size", "4", "--learning-rate", "1e-3", "--augment"]
    return [["pretrain", "--volumes", *work["textures"], "--out", str(out / "pre2.vqck"),
             *small, *train],
            ["pretrain", "--volumes", *work["textures"], "--out", str(out / "pre3.vqck"),
             "--rank", "3", "--cube-edge", "8", *small, *train],
            ["finetune", "--base", work["pre"], "--mode", "no-frozen",
             "--pet", str(d / "case_000_pet.mvol"), "--ct", str(d / "case_000_ct.mvol"),
             "--out", str(out / "fin.vqck"), "--train-codebook", *train]]


def test_training_files_are_the_same_at_any_thread_count(work, tmp_path, thread_env, forks):
    # each command forks its pool once: one child per worker beyond the first,
    # at most one per batch item
    trees = {}
    for name, flags in _THREAD_FLAGS.items():
        if flags and int(flags[1]) > _CPUS:
            continue
        out = tmp_path / name
        out.mkdir()
        del forks[:]
        for argv in _training_runs(work, out):
            assert main([*flags, *argv]) == 0
        assert _no_child_left()
        assert len(forks) == 3 * (min(int(flags[1]) if flags else _CPUS, 4) - 1)
        trees[name] = {f: (out / f).read_bytes().replace(str(out).encode(), b"OUT")
                       for f in sorted(os.listdir(out))}
    assert len(trees["default"]) == 3 * 3  # .vqck, .history.csv, .config.json
    assert all(tree == trees["default"] for tree in trees.values())


@pytest.mark.parametrize("rank,shape,beta", [(2, (96, 96), 0.0), (2, (96, 96), 0.25),
                                             (2, (70, 50), 0.25), (3, (32, 32, 32), 0.25)])
def test_training_item_peak_is_within_its_byte_rule(rank, shape, beta):
    # one batch item of criterion 09's model on a worker, its leaves built
    # first: forward, loss and backward into its slots, traced
    from vqsct import training

    config = ModelConfig(spatial_rank=rank, depth=2, base_channels=8, pyramid_levels=2,
                         codebook_size=32, codebook_dim=16)
    ckpt = build_model(config)
    items = [np.random.default_rng(31).uniform(0, 1, shape).astype(np.float32)]
    step = training._Step(ckpt, (items,), sorted(ckpt.params), 1, beta=beta, augment=False,
                          codebook_trainable=True)
    step.publish([0], None)
    step.run(0, 1)  # the conv plans are cached once per process
    step.publish([0], None)
    tracemalloc.start()
    try:
        step.run(0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    limit = np.prod(shape) * config.base_channels * training._TRAIN_BYTES_PER_VOXEL_CHANNEL
    assert 0.5 * limit < peak <= limit, peak / limit


@pytest.mark.parametrize("shape", [(96, 96), (70, 50), (32, 32, 32)])
def test_forward_peak_is_within_its_byte_rule(shape):
    # one slice's or cube's forward of criterion 09's model, as translate and
    # reconstruct run it: graph input, forward over leaves built first, HU
    # output stored in place, traced
    from vqsct import pipeline
    from vqsct.model import (GRAPH_DTYPE, forward, graph_input, param_tensors, value_space,
                             with_sub_pixel_kernels)
    from vqsct.volume import normalized_to_hu

    config = ModelConfig(spatial_rank=len(shape), depth=2, base_channels=8, pyramid_levels=2,
                         codebook_size=32, codebook_dim=16)
    ckpt = build_model(config)
    space = value_space(ckpt)
    params = with_sub_pixel_kernels(ckpt, param_tensors(ckpt, GRAPH_DTYPE))
    item = np.random.default_rng(32).uniform(-1, 1, shape).astype(np.float32)
    out = np.empty(shape, np.float32)

    def run():
        pred = forward(ckpt, graph_input(config, item, space), params).output.data[0]
        crop = pred[tuple(slice(n) for n in shape)]
        out[...] = normalized_to_hu(crop.astype(np.float64), space)

    run()  # the conv plans are cached once per process
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    limit = np.prod(shape) * config.base_channels * pipeline._FORWARD_BYTES_PER_VOXEL_CHANNEL
    assert 0.5 * limit < peak <= limit, peak / limit


# ---------------------------------------------------------------------------
# translate / reconstruct
# ---------------------------------------------------------------------------

def test_translate_outputs_hu_volume(work, tmp_path):
    out = tmp_path / "sct.mvol"
    assert main(["translate", "--ckpt", work["fin"],
                 "--pet", str(work["phantom"] / "case_001_pet.mvol"),
                 "--out", str(out), "--dump-planes"]) == 0
    fused = read_volume(out)
    assert fused.intensity_space == "HU" and fused.dims == (32, 32, 32)
    for plane in ("axial", "coronal", "sagittal"):
        extra = read_volume(tmp_path / f"sct.{plane}.mvol")
        assert extra.dims == (32, 32, 32)
    assert (tmp_path / "sct.mvol.config.json").exists()


def test_reconstruct_3d_cube_path(work, tmp_path):
    out = tmp_path / "recon.mvol"
    assert main(["reconstruct", "--ckpt", work["pre3d"],
                 "--ct", work["textures"][1], "--out", str(out),
                 "--edge", "8"]) == 0
    recon = read_volume(out)
    assert recon.intensity_space == "HU" and recon.dims == (16, 16, 16)


# ---------------------------------------------------------------------------
# input intensity spaces
# ---------------------------------------------------------------------------

def _wrong_space_case(work, case):
    """One command given a volume in the wrong intensity space.

    Returns its argv, the flag and path of the wrong volume, that volume's
    space and the space the flag needs.
    """
    pet = str(work["phantom"] / "case_000_pet.mvol")
    ct = str(work["phantom"] / "case_000_ct.mvol")
    train = ["--steps", "0", "--batch-size", "2"]
    small = ["--depth", "2", "--base-channels", "4", "--codebook-size", "8",
             "--codebook-dim", "6"]
    finetune = ["finetune", "--base", work["pre"], "--mode", "no-frozen", *train]
    return {
        "finetune-pet-is-ct": ([*finetune, "--pet", ct, "--ct", ct],
                               "--pet", ct, "HU", "activity"),
        "finetune-ct-is-pet": ([*finetune, "--pet", pet, "--ct", pet],
                               "--ct", pet, "activity", "HU"),
        "pretrain-volume-is-pet": (["pretrain", "--volumes", ct, pet, *small, *train],
                                   "--volumes", pet, "activity", "HU"),
        "reconstruct-ct-is-pet": (["reconstruct", "--ckpt", work["pre3d"], "--ct", pet,
                                   "--edge", "8"], "--ct", pet, "activity", "HU"),
        "translate-finetuned-given-ct": (["translate", "--ckpt", work["fin"], "--pet", ct],
                                         "--pet", ct, "HU", "activity"),
        "translate-pretrained-given-pet": (["translate", "--ckpt", work["pre"], "--pet", pet],
                                           "--pet", pet, "activity", "HU"),
        "evaluate-pred-is-pet": (["evaluate", "--pred", pet, "--gt", ct],
                                 "--pred", pet, "activity", "HU"),
        "evaluate-gt-is-pet": (["evaluate", "--pred", ct, "--gt", pet],
                               "--gt", pet, "activity", "HU"),
        "select-volume-is-pet": (["select", "--candidates", work["pre"], "--volumes", ct, pet],
                                 "--volumes", pet, "activity", "HU"),
    }[case]


@pytest.mark.parametrize("case", [
    "finetune-pet-is-ct", "finetune-ct-is-pet", "pretrain-volume-is-pet",
    "reconstruct-ct-is-pet", "translate-finetuned-given-ct", "translate-pretrained-given-pet",
    "evaluate-pred-is-pet", "evaluate-gt-is-pet", "select-volume-is-pet"])
def test_volume_in_the_wrong_intensity_space_exits_1(work, tmp_path, capsys, case):
    argv, flag, path, space, expected = _wrong_space_case(work, case)
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "never")]) == 1
    assert capsys.readouterr().err == (
        f"vqsct: error: {flag} {path} holds {space} voxels, expected {expected}\n")
    assert os.listdir(tmp_path) == []


def test_translate_with_a_pretrained_checkpoint_reconstructs_a_ct(work, tmp_path):
    # CT->CT through the tri-planar path, as demos/demo_pretrain_reconstruct.py runs it
    out = tmp_path / "recon.mvol"
    assert main(["translate", "--ckpt", work["pre"],
                 "--pet", str(work["phantom"] / "case_000_ct.mvol"), "--out", str(out)]) == 0
    assert read_volume(out).intensity_space == "HU"


# ---------------------------------------------------------------------------
# evaluate / stats / select
# ---------------------------------------------------------------------------

def test_evaluate_perfect_prediction(work, tmp_path):
    ct = str(work["phantom"] / "case_000_ct.mvol")
    out = tmp_path / "report.csv"
    diff_dir = tmp_path / "maps"
    assert main(["evaluate", "--pred", ct, "--gt", ct, "--out", str(out),
                 "--case-id", "c0", "--diff-dir", str(diff_dir)]) == 0
    rows = read_report_csv(out)
    assert len(rows) == 12
    for row in rows:
        assert row["case_id"] == "c0"
        if row["metric"] == "mae":
            assert row["value"] == 0.0
        if row["metric"] == "psnr":
            assert row["value"] == float("inf")
    assert sorted(os.listdir(diff_dir))[0] == "slice_000.ppm"
    assert len(os.listdir(diff_dir)) == 32


@pytest.mark.parametrize("cap", ["0", "-5", "nan", "inf"])
def test_evaluate_rejects_bad_diff_cap_before_writing(work, tmp_path, capsys, cap):
    ct = str(work["phantom"] / "case_000_ct.mvol")
    assert main(["evaluate", "--pred", ct, "--gt", ct, "--out", str(tmp_path / "r.csv"),
                 "--diff-dir", str(tmp_path / "maps"), f"--diff-cap={cap}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error:") and err.count("\n") == 1
    assert "--diff-cap" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("bone", ["nan", "inf", "-inf"])
def test_evaluate_rejects_non_finite_bone_hu_before_reading(tmp_path, capsys, bone):
    # the volumes do not exist: reading them would exit 2
    missing = str(tmp_path / "missing.mvol")
    assert main(["evaluate", "--pred", missing, "--gt", missing,
                 "--out", str(tmp_path / "r.csv"), f"--bone-hu={bone}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error:") and err.count("\n") == 1
    assert "--bone-hu" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError(
    "Unable to allocate 7.28 PiB for an array with shape (100000, 100000, 100000) "
    "and data type float64")])
def test_out_of_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch, exc):
    # a handler that runs out of memory, never a real allocation
    def exhausted(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "phantom", exhausted)
    assert main(["phantom", "--out", str(tmp_path / "cases")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error: out of memory") and err.count("\n") == 1
    assert str(exc) in err


def test_oversized_depth_exits_1_before_any_slice_is_padded(work, tmp_path, capsys,
                                                           monkeypatch):
    # 2^depth above the smallest in-plane extent, from the --depth flag or a
    # checkpoint header: one line and exit 1, and no slice is ever padded
    from vqsct import model, volume

    def no_padding(*args, **kwargs):
        raise AssertionError("a slice was padded")

    for module in (volume, model):  # model.graph_input pads every slice
        monkeypatch.setattr(module, "pad_to_multiple", no_padding)
    deep = tmp_path / "deep.vqck"  # 2^6 = 64 > the 32^3 phantom cases
    save_checkpoint(build_model(ModelConfig(depth=6, base_channels=1, codebook_size=2,
                                            codebook_dim=1)), deep)
    pet = str(work["phantom"] / "case_000_pet.mvol")
    ct = str(work["phantom"] / "case_000_ct.mvol")
    out = tmp_path / "out"
    commands = [
        ["pretrain", "--volumes", *work["textures"], "--out", str(out), "--rank", "2",
         "--depth", "12", "--pyramid-levels", "1"],
        ["finetune", "--base", str(deep), "--mode", "no-frozen", "--pet", pet, "--ct", ct,
         "--out", str(out)],
        ["translate", "--ckpt", str(deep), "--pet", pet, "--out", str(out)],
        ["select", "--candidates", str(deep), "--volumes", ct, "--out", str(out)],
    ]
    for argv in commands:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("vqsct: error: depth ") and err.count("\n") == 1, err
        assert "smallest in-plane extent" in err
    assert sorted(os.listdir(tmp_path)) == ["deep.vqck"]


@pytest.mark.parametrize("depth,line", [
    (13, "cube edge 32 must be divisible by 2^13"),
    (100000, "depth must be <= 13, got 100000: 2^depth is above 11585")], ids=["13", "100000"])
def test_oversized_3d_depth_exits_1_with_one_line(work, tmp_path, capsys, depth, line):
    # 2^100000 is never formed: the model flags' rule bounds depth by the
    # voxel limit, and the cube edge's trailing zero bits reject 2^13
    out = tmp_path / "out"
    assert main(["pretrain", "--volumes", *work["textures"], "--out", str(out),
                 "--rank", "3", "--depth", str(depth), "--cube-edge", "32"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"vqsct: error: {line}") and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def volumes_64(tmp_path_factory):
    """Two 64^3 phantom pairs and two 64^3 textures, written once."""
    from vqsct.phantom import generate_phantom_pair

    root = tmp_path_factory.mktemp("v64")
    paths = {"pet": [], "ct": [], "texture": []}
    for i in range(2):
        ct, pet, _ = generate_phantom_pair((64, 64, 64), [21, i])
        for kind, vol in (("pet", pet), ("ct", ct),
                          ("texture", generate_texture_volume((64, 64, 64), seed=80 + i))):
            paths[kind].append(str(root / f"{kind}_{i}.mvol"))
            write_volume(vol, paths[kind][-1])
    base = root / "base.vqck"
    save_checkpoint(build_model(ModelConfig(depth=2, base_channels=4, codebook_size=8,
                                            codebook_dim=6)), base)
    paths["base"] = str(base)
    return paths


@pytest.mark.parametrize("command", ["finetune", "pretrain-2d", "pretrain-3d"])
def test_training_set_is_held_in_float32(volumes_64, tmp_path, monkeypatch, command):
    # what is alive when the loop starts: the float32 items and little else;
    # one 64^3 float64 volume kept beside them would break the bound
    from vqsct import training

    model = ["--depth", "2", "--base-channels", "4", "--codebook-size", "8",
             "--codebook-dim", "6"]
    out = ["--out", str(tmp_path / "out.vqck"), "--steps", "0"]
    if command == "finetune":
        argv = ["finetune", "--base", volumes_64["base"], "--mode", "no-frozen",
                "--pet", *volumes_64["pet"], "--ct", *volumes_64["ct"], *out]
        n_volumes = 4
    else:
        argv = ["pretrain", "--volumes", *volumes_64["texture"], "--rank", command[-2],
                "--cube-edge", "32", *model, *out]
        n_volumes = 2
    assert main(argv) == 0  # untraced: whatever the command imports is loaded now
    held = []
    real = training._train_loop

    def recording(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "_train_loop", recording)
    tracemalloc.start()
    try:
        assert main(argv) == 0
    finally:
        tracemalloc.stop()
    float32_bytes = n_volumes * 64 ** 3 * 4
    assert held[0] <= 1.1 * float32_bytes, held[0] / float32_bytes


def test_oversized_phantom_exits_1_before_any_array(tmp_path, capsys, monkeypatch):
    # the voxel count is checked in plain integers: any numpy call fails the test
    from vqsct import phantom

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} was called")

    monkeypatch.setattr(phantom, "np", NoNumpy())
    out = tmp_path / "never"
    assert main(["phantom", "--out", str(out), "--dims", "100000,100000,100000"]) == 1
    err = capsys.readouterr().err
    assert err == ("vqsct: error: phantom dims (100000, 100000, 100000) hold "
                   "1000000000000000 voxels, above the limit of 134217728 (512^3)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "reconstruct", "select-2d", "select-3d"])
def test_huge_cube_edge_exits_1_before_any_array(work, tmp_path, capsys, monkeypatch,
                                                 command):
    # 2^40 passes the depth rule; its cube's voxel count is checked in plain
    # integers before a checkpoint or volume is read: any numpy call fails
    from vqsct import autograd, codebook, evaluation, model, phantom, pipeline, training, volume

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} was called")

    for module in (autograd, codebook, evaluation, model, phantom, pipeline, training, volume):
        monkeypatch.setattr(module, "np", NoNumpy())
    out = tmp_path / "never"
    edge = 2 ** 40
    argv = {"pretrain": ["pretrain", "--volumes", *work["textures"], "--rank", "3",
                         "--cube-edge", str(edge)],
            "reconstruct": ["reconstruct", "--ckpt", work["pre3d"], "--edge", str(edge),
                            "--ct", str(work["phantom"] / "case_000_ct.mvol")],
            "select-2d": ["select", "--candidates", work["pre"], work["fin"],
                          "--volumes", str(work["phantom"] / "case_000_ct.mvol"),
                          "--cube-edge", str(edge)],
            "select-3d": ["select", "--candidates", work["pre3d"],
                          "--volumes", str(work["phantom"] / "case_000_ct.mvol"),
                          "--cube-edge", str(edge)]}[command]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"vqsct: error: cubes of edge {edge} hold {edge ** 3} voxels, "
        f"above the limit of 134217728 (512^3)\n")
    assert os.listdir(tmp_path) == []


def test_evaluate_diff_dir_builds_the_truth_contour_once(work, tmp_path, monkeypatch):
    from vqsct import evaluation

    ct = str(work["phantom"] / "case_000_ct.mvol")
    other = str(work["phantom"] / "case_001_ct.mvol")
    gt, pred = read_volume(ct), read_volume(other)
    want_rows = evaluation.evaluate_case(pred, gt, case_id="c1", bone_threshold_hu=250.0)
    evaluation.save_difference_maps(pred, gt, evaluation.body_contour(gt),
                                    tmp_path / "want", cap=100.0)
    write_report_csv(want_rows, tmp_path / "want.csv")

    calls = []
    real = evaluation.body_contour

    def counting(ct_volume):
        calls.append(ct_volume)
        return real(ct_volume)

    monkeypatch.setattr(evaluation, "body_contour", counting)
    assert main(["--threads", "1", "evaluate", "--pred", other, "--gt", ct,
                 "--out", str(tmp_path / "r.csv"), "--case-id", "c1", "--bone-hu", "250",
                 "--diff-dir", str(tmp_path / "maps"), "--diff-cap", "100"]) == 0
    # per z-slab, the ground truth's contour (shared with the maps), then the prediction's
    slabs = [slice(z, z + SLAB) for z in range(0, gt.dims[2], SLAB)]
    assert len(calls) == 2 * len(slabs) == 8
    for k, zs in enumerate(slabs):
        assert np.array_equal(calls[2 * k], gt.voxels[:, :, zs])
        assert np.array_equal(calls[2 * k + 1], pred.voxels[:, :, zs])
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    names = sorted(os.listdir(tmp_path / "want"))
    assert sorted(os.listdir(tmp_path / "maps")) == names and len(names) == 32
    for name in names:
        assert (tmp_path / "maps" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()


@pytest.mark.skipif(_CPUS < 2, reason="--threads 2 needs two usable CPUs")
def test_evaluate_report_and_maps_are_the_same_at_any_thread_count(work, tmp_path, thread_env,
                                                                   forks):
    ct = str(work["phantom"] / "case_000_ct.mvol")
    other = str(work["phantom"] / "case_001_ct.mvol")
    gt, pred = read_volume(ct), read_volume(other)
    write_report_csv(evaluate_case_whole_volume(pred, gt, "c1", 250.0), tmp_path / "want.csv")
    trees = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        assert main(["--threads", threads, "evaluate", "--pred", other, "--gt", ct,
                     "--out", str(out / "r.csv"), "--case-id", "c1", "--bone-hu", "250",
                     "--diff-dir", str(out / "maps"), "--diff-cap", "100"]) == 0
        trees[threads] = [(out / "r.csv").read_bytes()] + [
            (out / "maps" / name).read_bytes() for name in sorted(os.listdir(out / "maps"))]
    assert len(forks) == 1 and _no_child_left()  # --threads 2 on the 4 slabs of 32
    assert trees["1"] == trees["2"] and len(trees["1"]) == 1 + 32
    assert trees["1"][0] == (tmp_path / "want.csv").read_bytes()


def test_evaluate_default_case_id(work, tmp_path):
    ct = str(work["phantom"] / "case_000_ct.mvol")
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--pred", ct, "--gt", ct, "--out", str(out)]) == 0
    rows = read_report_csv(out)
    assert rows[0]["case_id"] == "case_000_ct"
    record = json.loads((tmp_path / "r.csv.config.json").read_text())
    assert record["case_id"] == "case_000_ct"
    assert record["bone_hu"] == BONE_THRESHOLD_HU


def report_rows(values, region="whole", metric="mae"):
    return [{"case_id": f"c{i}", "region": region, "metric": metric,
             "value": v} for i, v in enumerate(values)]


def test_stats_compares_reports(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_report_csv(report_rows([50.0, 60.0, 55.0, 70.0, 65.0, 58.0]), a)
    write_report_csv(report_rows([55.0, 66.0, 60.0, 77.0, 71.0, 64.0]), b)
    out = tmp_path / "stats.json"
    assert main(["stats", "--report-a", str(a), "--report-b", str(b),
                 "--metric", "mae", "--region", "whole", "--out", str(out),
                 "--label-a", "left", "--label-b", "right"]) == 0
    result = json.loads(out.read_text())
    assert result["comparison"] == "left vs right"
    assert result["n"] == 6 and result["W"] == 0.0
    assert 0.0 < result["p_two_sided"] < 1.0


@pytest.mark.parametrize("alpha", ["0", "1", "1.5", "nan"])
def test_stats_rejects_alpha_outside_unit_interval(tmp_path, capsys, alpha):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_report_csv(report_rows([50.0, 60.0, 55.0, 70.0, 65.0, 58.0]), a)
    write_report_csv(report_rows([55.0, 66.0, 60.0, 77.0, 71.0, 64.0]), b)
    out = tmp_path / "stats.json"
    assert main(["stats", "--report-a", str(a), "--report-b", str(b),
                 "--metric", "mae", "--region", "whole", "--out", str(out),
                 f"--alpha={alpha}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error:") and err.count("\n") == 1 and "alpha" in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["0", "1", "nan"])
def test_stats_rejects_alpha_before_reading_a_report(tmp_path, capsys, alpha):
    # neither report exists: reading one would exit 2
    missing = str(tmp_path / "missing.csv")
    assert main(["stats", "--report-a", missing, "--report-b", missing, "--metric", "mae",
                 "--region", "whole", "--out", str(tmp_path / "s.json"),
                 f"--alpha={alpha}"]) == 1
    assert capsys.readouterr().err == \
        f"vqsct: error: alpha must be in (0, 1), got {float(alpha)}\n"
    assert os.listdir(tmp_path) == []


def test_stats_identical_reports_exit_1(tmp_path):
    rows = report_rows([50.0, 60.0, 55.0, 70.0, 65.0])
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_report_csv(rows, a)
    write_report_csv(rows, b)
    out = tmp_path / "stats.json"
    assert main(["stats", "--report-a", str(a), "--report-b", str(b),
                 "--metric", "mae", "--region", "whole",
                 "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "case_id,region,metric,value\nc0,whole,mae,abc\n",
    "case_id,region,metric,value\nc0,whole,mae\n",
    "case_id,region,metric,value\nc0,whole,mae,1.0,2.0\n",
    "case_id,region,metric,value\nc0,lung,mae,1.0\n",
    "case_id,region,metric,value\nc0,whole,rmse,1.0\n",
    "case_id,region,metric,value\nc0,whole,mae,nan\n",
    "case_id,region,metric,value\nc0,whole,psnr,-inf\n",
    "case_id,region,metric,value\nc0,whole,psnr,1e999\n",
    "case_id,region,metric,value\nc0,whole,mae, 1_0 \n",
    "case,region,metric,value\nc0,whole,mae,1.0\n",
    "",
    pytest.param(b"case_id,region,metric,value\nc\xff,whole,mae,1.0\n", id="not-utf8"),
    pytest.param("case_id,region,metric,value\n" + "c" * 131073 + ",whole,mae,1.0\n",
                 id="long-field")])
def test_malformed_report_is_rejected(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    good = tmp_path / "good.csv"
    write_report_csv(report_rows([50.0, 60.0, 55.0]), good)
    with pytest.raises(FormatError):
        read_report_csv(bad)
    capsys.readouterr()
    assert main(["stats", "--report-a", str(bad), "--report-b", str(good),
                 "--metric", "mae", "--region", "whole",
                 "--out", str(tmp_path / "stats.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error:") and "Traceback" not in err
    assert err.count("\n") == 1


def test_duplicate_report_row_is_rejected(tmp_path, capsys):
    dup = tmp_path / "dup.csv"
    dup.write_text("case_id,region,metric,value\n"
                   "c0,whole,mae,1.0\nc0,whole,psnr,30.0\nc0,whole,mae,5.0\n")
    with pytest.raises(FormatError, match=r"dup\.csv:4: duplicate row .*line 2"):
        read_report_csv(dup)
    good = tmp_path / "good.csv"
    write_report_csv(report_rows([50.0, 60.0, 55.0]), good)
    capsys.readouterr()
    assert main(["stats", "--report-a", str(good), "--report-b", str(dup),
                 "--metric", "mae", "--region", "whole",
                 "--out", str(tmp_path / "stats.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error:") and err.count("\n") == 1
    assert not (tmp_path / "stats.json").exists()


def test_select_copies_lowest_mse_candidate(work, tmp_path):
    trained = tmp_path / "trained.vqck"
    assert main(["pretrain", "--volumes", *work["textures"],
                 "--out", str(trained), "--rank", "2", "--depth", "2",
                 "--base-channels", "4", "--codebook-size", "8",
                 "--codebook-dim", "6", "--steps", "120", "--batch-size", "8",
                 "--learning-rate", "2e-3"]) == 0
    untrained = tmp_path / "untrained.vqck"
    assert main(["pretrain", "--volumes", *work["textures"],
                 "--out", str(untrained), "--rank", "2", "--depth", "2",
                 "--base-channels", "4", "--codebook-size", "8",
                 "--codebook-dim", "6", "--steps", "0", "--batch-size", "8",
                 "--learning-rate", "2e-3"]) == 0
    out = tmp_path / "best.vqck"
    assert main(["select", "--candidates", str(untrained), str(trained),
                 "--volumes", *work["textures"], "--out", str(out)]) == 0
    selection = json.loads((tmp_path / "best.vqck.selection.json").read_text())
    assert selection["selected_index"] == 1
    assert selection["selected_path"] == str(trained)
    assert out.read_bytes() == trained.read_bytes()


# ---------------------------------------------------------------------------
# exit codes for I/O failures and subprocess wiring
# ---------------------------------------------------------------------------

def test_missing_files_exit_2(work, tmp_path):
    assert main(["translate", "--ckpt", str(tmp_path / "nope.vqck"),
                 "--pet", str(work["phantom"] / "case_000_pet.mvol"),
                 "--out", str(tmp_path / "o.mvol")]) == 2
    ct = str(work["phantom"] / "case_000_ct.mvol")
    assert main(["evaluate", "--pred", str(tmp_path / "missing.mvol"),
                 "--gt", ct, "--out", str(tmp_path / "r.csv")]) == 2


def test_corrupt_checkpoint_exits_1(work, tmp_path):
    bogus = tmp_path / "bogus.vqck"
    bogus.write_bytes(b"NOTAVQCK" + b"\x00" * 64)
    assert main(["translate", "--ckpt", str(bogus),
                 "--pet", str(work["phantom"] / "case_000_pet.mvol"),
                 "--out", str(tmp_path / "o.mvol")]) == 1


def _drop_param(ckpt):
    del ckpt.params["enc.0.w"]


def _drop_codebook(ckpt):
    ckpt.codebooks.pop()


def _long_usage_age(ckpt):
    cb = ckpt.codebooks[0]
    cb.usage_age = np.zeros(cb.n_codes + 1, dtype=np.int64)


def _wrong_block_shape(ckpt):
    ckpt.params["dec.final.b"] = np.zeros(2)


def _non_finite(ckpt):
    ckpt.params["dec.final.b"][0] = np.inf


def _keep(ckpt):
    pass


def _text_step(ckpt):
    ckpt.step = "7"


def _fractional_step(ckpt):
    ckpt.step = 7.9


def _negative_step(ckpt):
    ckpt.step = -3


def _fractional_usage_age(ckpt):
    ckpt.codebooks[0].usage_age = ckpt.codebooks[0].usage_age + 1.7


def _text_seed(ckpt):
    ckpt.config = replace(ckpt.config, seed="x")


def _float_codebook_size(ckpt):
    ckpt.config = replace(ckpt.config, codebook_size=8.0)


@pytest.mark.parametrize("mutate,junk", [
    (_drop_param, b""), (_drop_codebook, b""), (_long_usage_age, b""),
    (_wrong_block_shape, b""), (_non_finite, b""), (_keep, b"\x00" * 8),
    (_text_step, b""), (_fractional_step, b""), (_negative_step, b""),
    (_fractional_usage_age, b""), (_text_seed, b""), (_float_codebook_size, b"")])
def test_malformed_checkpoint_is_rejected(work, tmp_path, capsys, monkeypatch, mutate, junk):
    from vqsct import model

    ckpt = build_model(ModelConfig(depth=2, base_channels=4, codebook_size=8,
                                   codebook_dim=6, pyramid_levels=2))
    ckpt.provenance = "finetuned"
    mutate(ckpt)
    path = tmp_path / "bad.vqck"
    with monkeypatch.context() as patch:  # the writer refuses a non-finite block: skip that check
        patch.setattr(model, "_float32_bytes",
                      lambda name, block: block.astype("<f4").ravel().tobytes())
        save_checkpoint(ckpt, path)
    path.write_bytes(path.read_bytes() + junk)
    with pytest.raises(FormatError):
        load_checkpoint(path)
    capsys.readouterr()
    assert main(["translate", "--ckpt", str(path),
                 "--pet", str(work["phantom"] / "case_000_pet.mvol"),
                 "--out", str(tmp_path / "o.mvol")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error:") and "Traceback" not in err
    assert err.count("\n") == 1


def test_huge_checkpoint_depth_exits_1_before_any_layer_spec(work, tmp_path, capsys,
                                                             monkeypatch):
    from vqsct import model

    def no_specs(config):
        raise AssertionError("a layer spec was built")

    ckpt = build_model(ModelConfig(depth=2, base_channels=4, codebook_size=8,
                                   codebook_dim=6))
    ckpt.config = replace(ckpt.config, depth=10 ** 9)
    path = tmp_path / "deep.vqck"
    save_checkpoint(ckpt, path)
    monkeypatch.setattr(model, "_layer_specs", no_specs)
    capsys.readouterr()
    assert main(["translate", "--ckpt", str(path),
                 "--pet", str(work["phantom"] / "case_000_pet.mvol"),
                 "--out", str(tmp_path / "o.mvol")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error:") and err.count("\n") == 1
    assert "malformed checkpoint header (depth must be <= 13, got 1000000000" in err


@pytest.mark.parametrize("changes", [
    {"meta": [1, 2]}, {"meta": "xy"},
    {"spacing_mm": ["nan", 1, 1]}, {"spacing_mm": [float("nan"), 1, 1]},
    {"spacing_mm": [1, float("inf"), 1]}, {"spacing_mm": "111"},
    {"dims": [8.7, 8, 8]}, {"dims": [True, 8, 64]}, {"spacing_mm": [10**400, 1, 1]}])
def test_malformed_volume_header_is_rejected(work, tmp_path, capsys, changes):
    # an 8x8x8 payload, so each dims mutation still matches its byte count
    path = tmp_path / "bad.mvol"
    write_volume(Volume(np.ones((8, 8, 8)), (1.0, 1.0, 1.0), "activity", {}), path)
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + n])
    header.update(changes)
    text = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + n:])
    with pytest.raises(FormatError):
        read_volume(path)
    capsys.readouterr()
    assert main(["translate", "--ckpt", work["fin"], "--pet", str(path),
                 "--out", str(tmp_path / "o.mvol")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vqsct: error:") and "Traceback" not in err
    assert err.count("\n") == 1


def test_threads_flag_sets_environment(tmp_path):
    saved = {var: os.environ.get(var)
             for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    try:
        assert main(["--threads", "1", "phantom", "--out",
                     str(tmp_path / "t"), "--cases", "1",
                     "--dims", "32,32,32"]) == 0
        for var in saved:
            assert os.environ[var] == "1"
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def test_subprocess_exit_codes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    ok = subprocess.run([sys.executable, "-m", "vqsct.cli", "--help"],
                        capture_output=True, env=env)
    assert ok.returncode == 0
    assert b"phantom" in ok.stdout and b"finetune" in ok.stdout
    bad = subprocess.run([sys.executable, "-m", "vqsct.cli", "phantom",
                          "--out", str(tmp_path / "p"), "--dims", "8,8,8"],
                         capture_output=True, env=env)
    assert bad.returncode == 1
    assert b"error" in bad.stderr


_IMPORT_EVERYTHING_AND_RUN = """
import importlib, json, os, pkgutil, sys
import vqsct
from vqsct.cli import main
from vqsct.evaluation import write_report_csv

for info in pkgutil.iter_modules(vqsct.__path__):
    importlib.import_module("vqsct." + info.name)
work = sys.argv[1]
cases = os.path.join(work, "cases")
assert main(["phantom", "--out", cases, "--cases", "2", "--dims", "32,32,32",
             "--seed", "5"]) == 0
assert main(["evaluate", "--pred", os.path.join(cases, "case_001_ct.mvol"),
             "--gt", os.path.join(cases, "case_000_ct.mvol"),
             "--out", os.path.join(work, "report.csv"),
             "--diff-dir", os.path.join(work, "maps")]) == 0
for name, shift in (("a", 0.0), ("b", 1.5)):
    write_report_csv([{"case_id": f"c{i}", "region": "whole", "metric": "mae",
                       "value": 10.0 + i * i + shift * (i % 3)} for i in range(9)],
                     os.path.join(work, name + ".csv"))
assert main(["stats", "--report-a", os.path.join(work, "a.csv"),
             "--report-b", os.path.join(work, "b.csv"), "--metric", "mae",
             "--region", "whole", "--out", os.path.join(work, "stats.json")]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy"
                        or m.split(".")[:2] == ["concurrent", "futures"])))
"""


def test_no_command_imports_scipy(tmp_path):
    # every module, and phantom, evaluate and stats end to end, in a fresh
    # interpreter: the runtime needs numpy alone, and runs its pools on forked
    # processes, not on concurrent.futures threads
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_EVERYTHING_AND_RUN,
                           str(tmp_path)],
                          capture_output=True, env=env, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert (tmp_path / "maps" / "slice_000.ppm").exists()
    assert json.loads((tmp_path / "stats.json").read_text())["n"] == 6


_RUN_AND_LIST_MODULES = """
import json, sys
from vqsct.cli import main
print(main(sys.argv[1:]), json.dumps(sorted(m for m in sys.modules
                                            if m.split(".")[0] in ("vqsct", "scipy"))))
"""


@pytest.mark.parametrize("argv", [
    ["stats", "--report-a", "a.csv", "--report-b", "b.csv", "--metric", "mae",
     "--region", "whole", "--out", "s.json", "--alpha=0"],
    ["evaluate", "--pred", "p.mvol", "--gt", "g.mvol", "--out", "r.csv", "--diff-cap=0"],
    ["evaluate", "--pred", "p.mvol", "--gt", "g.mvol", "--out", "r.csv", "--bone-hu=nan"]],
    ids=["stats-alpha", "evaluate-diff-cap", "evaluate-bone-hu"])
def test_a_rejected_stats_or_evaluate_value_loads_no_further_module(tmp_path, argv):
    # a rule imports the library module whose check it calls; the handlers of
    # stats and evaluate load these modules (evaluation loads workers for its
    # pool), and a rule loads none beyond them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_MODULES, *argv],
                          capture_output=True, cwd=tmp_path, env=env, text=True, timeout=120)
    code, modules = proc.stdout.split(" ", 1)
    assert code == "1" and proc.stderr.count("\n") == 1, proc.stderr
    assert set(json.loads(modules)) <= {"vqsct", "vqsct.atomic", "vqsct.cli", "vqsct.errors",
                                        "vqsct.evaluation", "vqsct.volume", "vqsct.workers"}
