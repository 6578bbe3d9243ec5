"""Workloads, output checks and metrics of the vqsct benchmark.

Every workload is a closed loop of one client: it calls
``vqsct.cli.main([...])`` in-process with the acceptance flags and issues
the next command only after the previous one returned. Inputs are phantom
cohorts generated from the workload seed during set-up; the timed commands
see only the generated ``.mvol`` files and the checkpoints they produce.

Each workload has a set-up (phantoms, input files, set-up checkpoints and
one warm-up command), run ``SETUP_REPEATS`` times, each in a fresh
interpreter, for the median ``setup_s``; then the warm-up command once
more, untimed, in the benchmark process, and the timed pass. Every command
and every output check is one operation; a failed one counts towards
``failed``.

Run as a script, this file does one set-up (see ``setup_in_child``).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import spans

WORKLOADS = ("train", "infer", "volumetric")
SETUP_REPEATS = 3

# Criterion 09's model and training flags.
MODEL_FLAGS = ["--depth", "2", "--base-channels", "8", "--pyramid-levels", "2",
               "--codebook-size", "32", "--codebook-dim", "16"]
TRAIN_FLAGS = ["--batch-size", "16", "--learning-rate", "0.002", "--beta", "0.0",
               "--augment"]
BATCH = 16
VOLUMETRIC_FLAGS = ["--rank", "3", "--depth", "2", "--base-channels", "8",
                    "--pyramid-levels", "2", "--learning-rate", "0.002",
                    "--beta", "0.0", "--augment"]
VOLUMETRIC_BATCH = 4
FINETUNE_MODES = ("scratch", "no-frozen", "enc-frozen")

# Typical costs on a 2-core 2 GHz Xeon VM with one BLAS thread; they turn
# --seconds into a fixed amount of work, so a run of a given seed always
# does the same work and its artifacts can be compared byte for byte.
TRAIN_STEP_S = 0.42
TRAIN_COMMAND_S = 1.3
INFER_CASE_S = 3.4
VOLUMETRIC_STEP_S = 0.80
VOLUMETRIC_RECON_S = 1.9

HU_MIN = -1024.0
HU_MAX = 2976.0
REPORT_REGIONS = ("whole", "soft", "bone")
REPORT_METRICS = ("mae", "psnr", "ssim", "dsc")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
VQSCT_MODULES = ("autograd", "codebook", "model", "volume", "phantom",
                 "training", "pipeline", "evaluation", "cli")


@dataclass(frozen=True)
class Sizes:
    """How much work one run does, fixed by --seconds and --smoke."""

    cube_dims: tuple
    pool_dims: tuple          # held-out inference cases, cycled
    train_cases: int
    train_steps: int          # per training command
    infer_cases: int
    cube_edge: int
    volumetric_steps: int
    reconstructs: int

    @classmethod
    def for_run(cls, seconds: int, smoke: bool) -> "Sizes":
        if smoke:
            return cls((32, 32, 32), ((32, 32, 32), (34, 33, 35), (33, 35, 34)),
                       train_cases=2, train_steps=3, infer_cases=3, cube_edge=16,
                       volumetric_steps=3, reconstructs=2)
        quarter = seconds / 4.0
        return cls((96, 96, 96), ((96, 96, 96), (110, 90, 74), (102, 86, 94)),
                   train_cases=4,
                   train_steps=max(2, int((quarter - TRAIN_COMMAND_S) / TRAIN_STEP_S)),
                   infer_cases=max(3, round(seconds / INFER_CASE_S)),
                   cube_edge=32,
                   volumetric_steps=max(2, int(0.5 * seconds / VOLUMETRIC_STEP_S)),
                   reconstructs=max(2, round(0.5 * seconds / VOLUMETRIC_RECON_S)))


def dims_arg(dims) -> str:
    return ",".join(str(d) for d in dims)


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def code_digest(root) -> str:
    """SHA-256 over the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    for top in ("src/vqsct", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    digest.update(sha256(path).encode())
    return digest.hexdigest()


def percentile(values, q) -> float:
    """Linear-interpolated percentile; 0.0 for no samples (a failed check says why)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Operations ledger and the command runner
# ---------------------------------------------------------------------------

@dataclass
class Command:
    kind: str
    argv: list
    wall: float
    stamps: list


@dataclass
class Session:
    """One pass of commands: the ledger, the instruments, the records."""

    tracer: spans.Tracer | None = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    commands: list = field(default_factory=list)
    command_spans: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def run(self, kind: str, argv) -> Command:
        """Run one CLI command in-process; its exit status is one operation."""
        from vqsct import cli

        argv = [str(a) for a in argv]
        clock = spans.StepClock()
        patch = spans.Patch()
        clock.install(patch)
        span = None
        if self.tracer is not None:
            self.tracer.frozen_ids.clear()
            self.tracer.install(patch)
            span = self.tracer.open("cli", {"kind": kind})
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead run
            rc = -1
            self.failures.append(traceback.format_exc(limit=3))
        finally:
            wall = time.perf_counter() - start
            if span is not None:
                self.tracer.close(span)
                self.tracer.spans[span].info["stamps"] = list(clock.stamps)
                self.command_spans.append(span)
            patch.restore()
        self.check(rc == 0, f"{kind}: exit status {rc}")
        cmd = Command(kind, argv, wall, list(clock.stamps))
        self.commands.append(cmd)
        return cmd

    def record(self, name: str, path) -> None:
        """Hash an artifact for the determinism checks."""
        if os.path.exists(path):
            self.artifacts[name] = sha256(path)


# ---------------------------------------------------------------------------
# Output checks (each is one operation)
# ---------------------------------------------------------------------------

def check_history(session: Session, path, steps: int) -> list:
    """History CSV: header plus one finite row per step; returns l1 values."""
    l1 = []
    ok = False
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        l1 = [float(r[1]) for r in rows]
        ok = (lines[0] == "step,l1,total" and len(rows) == steps
              and all(int(r[0]) == i for i, r in enumerate(rows, 1))
              and all(math.isfinite(float(v)) for r in rows for v in r[1:]))
    except (OSError, ValueError, IndexError):
        ok = False
    session.check(ok, f"history {os.path.basename(str(path))}")
    return l1


def check_steps(session: Session, cmd: Command, steps: int) -> None:
    """The step clock saw one optimizer step per requested step."""
    session.check(len(cmd.stamps) == steps,
                  f"{cmd.argv[0]}: {len(cmd.stamps)} optimizer steps seen, {steps} asked")


def check_checkpoint(session: Session, path) -> None:
    from vqsct.errors import VqsctError
    from vqsct.model import load_checkpoint

    try:
        ckpt = load_checkpoint(path)
        ok = bool(ckpt.params) and all(np.all(np.isfinite(a)) for a in ckpt.params.values())
    except (OSError, VqsctError):
        ok = False
    session.check(ok, f"checkpoint reload {os.path.basename(str(path))}")


def check_volume(session: Session, path, like) -> None:
    """Output volume has the input's dims and spacing, finite HU in range."""
    from vqsct.errors import VqsctError
    from vqsct.volume import read_volume

    try:
        vol = read_volume(path)
        ref = read_volume(like)
        vox = vol.voxels
        ok = (vol.dims == ref.dims and vol.spacing_mm == ref.spacing_mm
              and vol.intensity_space == "HU" and bool(np.all(np.isfinite(vox)))
              and float(vox.min()) >= HU_MIN and float(vox.max()) <= HU_MAX)
    except (OSError, VqsctError):
        ok = False
    session.check(ok, f"volume {os.path.basename(str(path))}")


def check_report(session: Session, path) -> None:
    """Report CSV: 3 regions x 4 metrics, every value finite."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        cells = {(r[1], r[2]) for r in rows}
        ok = (lines[0] == "case_id,region,metric,value" and len(rows) == 12
              and cells == {(g, m) for g in REPORT_REGIONS for m in REPORT_METRICS}
              and all(math.isfinite(float(r[3])) for r in rows))
    except (OSError, ValueError, IndexError):
        ok = False
    session.check(ok, f"report {os.path.basename(str(path))}")


def check_same(session: Session, hashes_a: dict, hashes_b: dict, what: str) -> None:
    """Artifacts present in both records must be byte-identical."""
    shared = sorted(set(hashes_a) & set(hashes_b))
    differ = [k for k in shared if hashes_a[k] != hashes_b[k]]
    session.check(not differ, f"determinism ({what}): {differ}")


# ---------------------------------------------------------------------------
# Workloads: set-up, warm-up, timed pass and repeat
# ---------------------------------------------------------------------------

def _cases(directory, n):
    ct = [os.path.join(directory, f"case_{i:03d}_ct.mvol") for i in range(n)]
    pet = [os.path.join(directory, f"case_{i:03d}_pet.mvol") for i in range(n)]
    return ct, pet


def setup_train(session, d, seed, sizes):
    session.run("phantom", ["phantom", "--out", d, "--cases", sizes.train_cases,
                            "--dims", dims_arg(sizes.cube_dims), "--seed", seed])
    ct, pet = _cases(d, sizes.train_cases)
    return {"ct": ct, "pet": pet}


def warmup_train(session, inputs, d):
    session.run("warmup", ["pretrain", "--volumes", *inputs["ct"],
                           "--out", os.path.join(d, "warmup.vqck"),
                           *MODEL_FLAGS, *TRAIN_FLAGS, "--steps", 1, "--batch-size", 2])


def timed_train(session, inputs, out, sizes):
    steps = sizes.train_steps
    pre = os.path.join(out, "pre.vqck")
    cmd = session.run("train", ["pretrain", "--volumes", *inputs["ct"], "--out", pre,
                                *MODEL_FLAGS, *TRAIN_FLAGS, "--steps", steps])
    check_steps(session, cmd, steps)
    produced = [pre]
    for mode in FINETUNE_MODES:
        path = os.path.join(out, f"ft_{mode}.vqck")
        cmd = session.run("train", ["finetune", "--base", pre, "--mode", mode,
                                    "--pet", *inputs["pet"], "--ct", *inputs["ct"],
                                    "--out", path, *TRAIN_FLAGS, "--train-codebook",
                                    "--steps", steps])
        check_steps(session, cmd, steps)
        produced.append(path)
    l1 = []
    for path in produced:
        l1 = check_history(session, f"{path}.history.csv", steps)
        check_checkpoint(session, path)
        session.record(os.path.basename(path), path)
        session.record(os.path.basename(path) + ".history.csv", f"{path}.history.csv")
    return {"train_l1_last": float(np.mean(l1[-10:])) if l1 else float("nan")}


def setup_infer(session, d, seed, sizes):
    """One training case for the checkpoint; one held-out case per timed case."""
    cohort = os.path.join(d, "cohort")
    session.run("phantom", ["phantom", "--out", cohort, "--cases", 1,
                            "--dims", dims_arg(sizes.cube_dims), "--seed", seed])
    (train_ct,), (train_pet,) = _cases(cohort, 1)
    shapes = sizes.pool_dims
    per_shape = []
    for k, dims in enumerate(shapes):
        sub = os.path.join(d, f"pool{k}")
        n = len(range(k, sizes.infer_cases, len(shapes)))
        session.run("phantom", ["phantom", "--out", sub, "--cases", n,
                                "--dims", dims_arg(dims), "--seed", seed + 1 + k])
        ct, pet = _cases(sub, n)
        per_shape.append([(p, c, dims) for p, c in zip(pet, ct)])
    cases = [per_shape[i % len(shapes)][i // len(shapes)]
             for i in range(sizes.infer_cases)]
    pre = os.path.join(d, "pre.vqck")
    fin = os.path.join(d, "fin.vqck")
    session.run("setup", ["pretrain", "--volumes", train_ct, "--out", pre,
                          *MODEL_FLAGS, *TRAIN_FLAGS, "--steps", 0])
    session.run("setup", ["finetune", "--base", pre, "--mode", "no-frozen",
                          "--pet", train_pet, "--ct", train_ct, "--out", fin,
                          *TRAIN_FLAGS, "--train-codebook", "--steps", 0])
    return {"ckpt": fin, "cases": cases}


def warmup_infer(session, inputs, d):
    _, ct, _ = inputs["cases"][0]
    session.run("warmup", ["evaluate", "--pred", ct, "--gt", ct,
                           "--out", os.path.join(d, "warmup.csv")])


def timed_infer(session, inputs, out, sizes):
    voxels = []
    for i, (pet, ct, dims) in enumerate(inputs["cases"]):
        sct = os.path.join(out, f"sct_{i:02d}.mvol")
        report = os.path.join(out, f"report_{i:02d}.csv")
        session.run("translate", ["translate", "--ckpt", inputs["ckpt"],
                                  "--pet", pet, "--out", sct])
        session.run("evaluate", ["evaluate", "--pred", sct, "--gt", ct,
                                 "--out", report, "--case-id", f"case{i:02d}"])
        check_volume(session, sct, pet)
        check_report(session, report)
        session.record(f"sct_{i:02d}", sct)
        session.record(f"report_{i:02d}", report)
        voxels.append(int(np.prod(dims)))
    return {"voxels": voxels}


def repeat_infer(session, inputs, out):
    pet, _, _ = inputs["cases"][0]
    path = os.path.join(out, "sct_repeat.mvol")
    session.run("repeat", ["translate", "--ckpt", inputs["ckpt"], "--pet", pet,
                           "--out", path])
    return "sct_00", path


def setup_volumetric(session, d, seed, sizes):
    """Training CTs plus one held-out CT per timed reconstruct."""
    n = sizes.train_cases + sizes.reconstructs
    session.run("phantom", ["phantom", "--out", d, "--cases", n,
                            "--dims", dims_arg(sizes.cube_dims), "--seed", seed])
    ct, _ = _cases(d, n)
    return {"ct": ct[:sizes.train_cases], "held_out": ct[sizes.train_cases:],
            "cube_edge": sizes.cube_edge}


def warmup_volumetric(session, inputs, d):
    session.run("warmup", ["pretrain", "--volumes", *inputs["ct"],
                           "--out", os.path.join(d, "warmup.vqck"),
                           *VOLUMETRIC_FLAGS, "--cube-edge", inputs["cube_edge"],
                           "--batch-size", 1, "--steps", 1])


def timed_volumetric(session, inputs, out, sizes):
    steps = sizes.volumetric_steps
    ckpt = os.path.join(out, "vol.vqck")
    cmd = session.run("train", ["pretrain", "--volumes", *inputs["ct"], "--out", ckpt,
                                *VOLUMETRIC_FLAGS, "--cube-edge", sizes.cube_edge,
                                "--batch-size", VOLUMETRIC_BATCH, "--steps", steps])
    check_steps(session, cmd, steps)
    l1 = check_history(session, f"{ckpt}.history.csv", steps)
    check_checkpoint(session, ckpt)
    session.record("vol.vqck", ckpt)
    session.record("vol.vqck.history.csv", f"{ckpt}.history.csv")
    voxels = []
    for r, ct in enumerate(inputs["held_out"]):
        rec = os.path.join(out, f"rec_{r:02d}.mvol")
        session.run("reconstruct", ["reconstruct", "--ckpt", ckpt, "--ct", ct,
                                    "--out", rec, "--edge", sizes.cube_edge])
        check_volume(session, rec, ct)
        session.record(f"rec_{r:02d}", rec)
        voxels.append(int(np.prod(sizes.cube_dims)))
    return {"train_l1_last": float(np.mean(l1[-10:])) if l1 else float("nan"),
            "voxels": voxels}


def repeat_volumetric(session, inputs, out):
    path = os.path.join(out, "rec_repeat.mvol")
    session.run("repeat", ["reconstruct", "--ckpt", os.path.join(out, "vol.vqck"),
                           "--ct", inputs["held_out"][0], "--out", path,
                           "--edge", inputs["cube_edge"]])
    return "rec_00", path


SETUP = {"train": setup_train, "infer": setup_infer, "volumetric": setup_volumetric}
WARMUP = {"train": warmup_train, "infer": warmup_infer, "volumetric": warmup_volumetric}
TIMED = {"train": timed_train, "infer": timed_infer, "volumetric": timed_volumetric}
# One untimed command that redoes the first timed case; its bytes must match.
REPEAT = {"infer": repeat_infer, "volumetric": repeat_volumetric}


def set_up(session, d, workload, seed, sizes):
    """Inputs, set-up checkpoints and the warm-up command; hashes every file made."""
    inputs = SETUP[workload](session, d, seed, sizes)
    WARMUP[workload](session, inputs, d)
    for dirpath, dirnames, filenames in os.walk(d):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".json"):
                path = os.path.join(dirpath, name)
                session.record("setup/" + os.path.relpath(path, d), path)
    return inputs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _intervals_ms(commands):
    """Optimizer step intervals of the training commands, in ms."""
    out = []
    for cmd in commands:
        if cmd.kind == "train":
            out.extend(1e3 * (b - a) for a, b in zip(cmd.stamps, cmd.stamps[1:]))
    return out


def _walls(commands, kind):
    return [c.wall for c in commands if c.kind == kind]


def end_to_end(workload, session, setup_walls, extra, sizes) -> tuple[dict, dict]:
    """(gated metrics common to every workload, workload-specific detail).

    The gated timings are totals over many seconds of work, not medians of
    single steps: on a shared host the speed flips between two states every
    few seconds, and a total averages the states where a median jumps.
    """
    cmds = session.commands
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    common = {"peak_rss_mb": peak_rss_mb, "wall_s": sum(c.wall for c in cmds)}
    if setup_walls:  # a traced run sets up once, in-process, and has no setup_s
        common["setup_s"] = statistics.median(setup_walls)
    detail = {}
    if workload == "train":
        ms = _intervals_ms(cmds)
        n_steps = sum(len(c.stamps) for c in cmds if c.kind == "train")
        slices_per_s = _ratio(n_steps * BATCH, sum(_walls(cmds, "train")))
        slice_vox = sizes.cube_dims[0] * sizes.cube_dims[1]
        # step throughput: slices through the optimizer loop per second of steps
        common["mvox_per_s"] = _ratio(len(ms) * BATCH * slice_vox, sum(ms) * 1e3)
        detail.update({
            "train_slices_per_s": (slices_per_s, "1/s"),
            "step_ms_p50": (percentile(ms, 50), "ms"),
            "step_ms_p90": (percentile(ms, 90), "ms"),
            "step_intervals": (len(ms), "count"),
            "train_l1_last": (extra["train_l1_last"], "l1")})
    elif workload == "infer":
        translate = _walls(cmds, "translate")
        evaluate = _walls(cmds, "evaluate")
        mvox_per_s = _ratio(sum(extra["voxels"]), sum(translate) * 1e6)
        common["mvox_per_s"] = mvox_per_s
        detail.update({
            "translate_s_p50": (percentile(translate, 50), "s"),
            "evaluate_s_p50": (percentile(evaluate, 50), "s"),
            "translate_mvox_per_s": (mvox_per_s, "Mvox/s"),
            "cases": (len(translate), "count")})
    else:
        ms = _intervals_ms(cmds)
        recon = _walls(cmds, "reconstruct")
        common["mvox_per_s"] = _ratio(sum(extra["voxels"]), sum(recon) * 1e6)
        detail.update({
            "step_ms_p50": (percentile(ms, 50), "ms"),
            "step_intervals": (len(ms), "count"),
            "train_l1_last": (extra["train_l1_last"], "l1"),
            "reconstruct_s_p50": (percentile(recon, 50), "s")})
    return common, detail


# ---------------------------------------------------------------------------
# Run context
# ---------------------------------------------------------------------------

def speed_probe_ms() -> float:
    """Fixed machine-speed probe: best of 3 of a small matmul-and-loop kernel."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = a
        for _ in range(40):
            acc = np.tanh(acc @ a * 0.01)
        total = 0
        for i in range(100_000):
            total += i & 7
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def _git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def run_context(root, workload, seed, seconds, trace) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity": affinity,
            "git_commit": _git_commit(root), "code_sha256": code_digest(root)}


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def _hash_store(root, key, artifacts, session) -> None:
    """Compare artifact hashes with earlier runs of the same code and inputs."""
    store_dir = os.path.join(root, ".perfbench_runs")
    os.makedirs(store_dir, exist_ok=True)
    path = os.path.join(store_dir, "hashes.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    if key in store:
        check_same(session, store[key], artifacts, "earlier run")
    else:
        store[key] = artifacts
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(store, fh, indent=0, sort_keys=True)
        os.replace(tmp, path)


def run(root, workload, seed, seconds, trace=False, smoke=False) -> dict:
    """Run one workload; returns the result record (metrics, detail, context)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; valid: {WORKLOADS}")
    for name in VQSCT_MODULES:
        importlib.import_module(f"vqsct.{name}")
    sizes = Sizes.for_run(seconds, smoke)
    context = run_context(root, workload, seed, seconds, trace)
    context["speed_probe_ms"] = [speed_probe_ms()]
    work = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = _run_in(work, root, workload, seed, seconds, smoke, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["speed_probe_ms"].append(speed_probe_ms())
    result["context"] = context
    return result


def setup_in_child(directory, workload, seed, seconds, smoke) -> tuple[float, Session, dict]:
    """One cold set-up in a fresh interpreter: start-up, program imports, set-up.

    Returns its wall time, a session holding its operations and artifact
    hashes, and the inputs it made.
    """
    argv = [sys.executable, os.path.abspath(__file__), directory, workload,
            str(seed), str(seconds), *(["--smoke"] if smoke else [])]
    session = Session()
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=150,
                              check=False)
        wall = time.perf_counter() - start
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = proc.returncode == 0
    except (subprocess.TimeoutExpired, ValueError, IndexError):
        wall = time.perf_counter() - start
        child = {}
        ok = False
    session.attempted = child.get("attempted", 0)
    session.failed = child.get("failed", 0)
    session.failures = child.get("failures", [])
    session.artifacts = child.get("artifacts", {})
    session.check(ok, f"set-up in a fresh process ({workload}, {directory})")
    return wall, session, child.get("inputs")


def _child_main(argv) -> int:
    """Entry of ``setup_in_child``: DIR WORKLOAD SEED SECONDS [--smoke]."""
    directory, workload, seed, seconds, *flags = argv
    from run import load_program

    if not load_program():
        return 2
    for name in VQSCT_MODULES:
        importlib.import_module(f"vqsct.{name}")
    session = Session()
    os.makedirs(directory)
    inputs = set_up(session, directory, workload, int(seed),
                    Sizes.for_run(int(seconds), "--smoke" in flags))
    print(json.dumps({"attempted": session.attempted, "failed": session.failed,
                      "failures": session.failures, "artifacts": session.artifacts,
                      "inputs": inputs}))
    return 0


def _run_in(work, root, workload, seed, seconds, smoke, trace) -> dict:
    sizes = Sizes.for_run(seconds, smoke)
    ledger = Session()
    setup_walls = []
    setup_tracer = None
    if trace:
        # One set-up in this process, traced for phantom.generate_ms.
        setup_tracer = spans.Tracer()
        first = Session(tracer=setup_tracer)
        directory = os.path.join(work, "setup")
        os.makedirs(directory)
        inputs = set_up(first, directory, workload, seed, sizes)
        _merge(ledger, first)
    else:
        # setup_s: the median of SETUP_REPEATS cold set-ups, each in a fresh
        # process, so program import and first-call costs count. The first
        # one's files feed the timed pass after a warm-up in this process.
        first = None
        for rep in range(SETUP_REPEATS):
            directory = os.path.join(work, f"setup{rep}")
            wall, child, child_inputs = setup_in_child(directory, workload, seed,
                                                       seconds, smoke)
            setup_walls.append(wall)
            _merge(ledger, child)
            if first is None:
                first, inputs = child, child_inputs
            else:
                check_same(ledger, first.artifacts, child.artifacts, "repeated set-up")
                shutil.rmtree(directory, ignore_errors=True)
        if inputs is None:
            raise RuntimeError(f"set-up failed: {first.failures[:3]}")
        warm = os.path.join(work, "warmup")
        os.makedirs(warm)
        WARMUP[workload](ledger, inputs, warm)

    passes = [False, True] if trace else [False]
    results = []
    for traced in passes:
        session = Session(tracer=spans.Tracer() if traced else None)
        out = os.path.join(work, "traced" if traced else "timed")
        os.makedirs(out)
        extra = TIMED[workload](session, inputs, out, sizes)
        results.append((session, extra, out))
    session, extra, out = results[0]
    _merge(ledger, session)
    if workload in REPEAT:
        name, path = REPEAT[workload](ledger, inputs, out)
        digest = sha256(path) if os.path.exists(path) else None
        ledger.check(digest == session.artifacts.get(name),
                     f"determinism (repeat of {name})")
    key = f"{code_digest(root)}:{workload}:{seed}:{sizes}"
    _hash_store(root, key, session.artifacts, ledger)

    common, detail = end_to_end(workload, session, setup_walls, extra, sizes)
    record = {"workload": workload, "e2e": common, "detail": detail,
              "setup_walls": setup_walls}
    if trace:
        traced_session, _, _ = results[1]
        _merge(ledger, traced_session)
        check_same(ledger, session.artifacts, traced_session.artifacts, "traced pass")
        record["layers"], record["missing"] = _per_layer(
            workload, traced_session, setup_tracer, session)
    record["detail"]["error_rate"] = (ledger.failed / max(ledger.attempted, 1), "1")
    record.update(attempted=ledger.attempted, failed=ledger.failed,
                  failures=ledger.failures[:20])
    return record


def _merge(ledger: Session, session: Session) -> None:
    ledger.attempted += session.attempted
    ledger.failed += session.failed
    ledger.failures.extend(session.failures)


def _per_layer(workload, traced, setup_tracer, untraced):
    from vqsct.model import load_checkpoint

    layers = {}
    ckpt_paths = [a for c in traced.commands for a in c.argv if a.endswith(".vqck")]
    for path in ckpt_paths:
        if os.path.exists(path):
            layers = spans.layer_names(load_checkpoint(path).params)
            break
    if workload == "infer":
        units = float(len(_walls(traced.commands, "translate")))
    else:
        units = float(sum(len(c.stamps) for c in traced.commands if c.kind == "train"))
    tracer = traced.tracer
    metrics = spans.layer_metrics(tracer.spans, traced.command_spans, units, layers,
                                  tracer.missing)
    setup_gen = [s for s in setup_tracer.spans if s.name == "generate_phantom_pair"]
    if "phantom.generate_ms" in metrics:
        metrics["phantom.generate_ms"] = 1e3 * sum(s.duration for s in setup_gen)
    traced_wall = sum(c.wall for c in traced.commands)
    metrics["trace.overhead_s"] = traced_wall - sum(c.wall for c in untraced.commands)
    return metrics, sorted(set(tracer.missing) | set(setup_tracer.missing))


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
