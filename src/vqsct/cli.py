"""The ``vqsct`` command line: reproducible experiments over the library.

Subcommands: phantom, pretrain, finetune, reconstruct, translate, evaluate,
stats, select. Exit codes: 0 success, 1 usage or domain errors or running
out of memory, 2 I/O failures.

``--config FILE`` takes a JSON object of option values keyed by destination
(``batch_size`` for ``--batch-size``). Each is checked against its flag and
becomes the command's parser default, so flags still win. Every run writes
``{"command": ..., **options}`` beside its primary output as
``*.config.json``; that record with ``--config`` and the same required flags
replays the run (a config's ``command``, if any, must be the one being run).
Only phantom, pretrain and finetune draw random numbers and take ``--seed``.

Heavy imports happen inside the command handlers so that the BLAS/OpenMP
pools can be pinned to one thread through environment variables before
numpy loads: a command's parallelism is its own pool of workers, and one
BLAS pool of all CPUs in each of them would oversubscribe the CPUs. The
pool's size is ``--threads`` (default: one worker per usable CPU), never
with more workers than tasks or than there is free memory for: the
threads on which ``phantom`` generates and writes its cases, one case per
worker at a time; the forked processes among which ``translate``,
``reconstruct`` and ``select`` share out their slices or cubes (see
``pipeline``); and those among which ``pretrain`` and ``finetune`` share
out each step's batch items, forked once per command of two or more steps
(see ``training``). Every file is the same at any thread count, and
``--threads 1`` runs everything in one thread of one process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import sys

from .atomic import atomic_open, is_json_int, is_json_number, write_json
from .errors import DomainError, UsageError, VqsctError

__all__ = ["entry", "main", "build_parser"]

_THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# The raw space a checkpoint's inputs are read in, by its value space: a
# fine-tuned (sym11) model translates PET activity, a pretrained (unit01)
# one reconstructs CT.
_SOURCE_SPACE = {"sym11": "activity", "unit01": "HU"}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours.

    An argument that starts with a minus sign and a digit, such as ``-1e-3``,
    is a negative number, not an option (the rule of CPython 3.13's argparse).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=0, help="master random seed")


def _add_model_flags(parser):
    parser.add_argument("--rank", type=int, default=2, choices=(2, 3),
                        help="spatial rank of the model")
    parser.add_argument("--depth", type=int, default=3, help="downsampling stages")
    parser.add_argument("--base-channels", type=int, default=8)
    parser.add_argument("--codebook-size", type=int, default=32)
    parser.add_argument("--codebook-dim", type=int, default=16)
    parser.add_argument("--pyramid-levels", type=int, default=1)


def _add_train_flags(parser):
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--learning-rate", type=float, default=1e-5)
    parser.add_argument("--beta", type=float, default=0.25,
                        help="commitment loss coefficient (0 drops the term)")
    parser.add_argument("--expire-age", type=int, default=2,
                        help="batches without use before a code is replaced")
    parser.add_argument("--decay", type=float, default=0.99, help="codebook EMA decay")
    parser.add_argument("--weight-decay", type=float, default=0.01)
    parser.add_argument("--augment", action="store_true",
                        help="apply seeded flip/transpose augmentation to samples")
    _add_seed(parser)


# What a --config value must be, by the argparse type of its flag.
_CONFIG_TYPES = {
    int: ("an integer", is_json_int),
    float: ("a number", is_json_number),
    None: ("a string", lambda v: isinstance(v, str)),
}


def _check_config_value(path, key, value, action) -> None:
    """Raise UsageError unless ``value`` is one the flag itself could give."""
    if action.nargs == 0:
        kind, ok = "true or false", isinstance(value, bool)
    elif action.nargs == "+":
        kind = "a list of strings"
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        kind, check = _CONFIG_TYPES[action.type]
        ok = check(value)
    if not ok:
        raise UsageError(f"{path}: config value {key!r} must be {kind}, "
                         f"got {json.dumps(value)}")
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"{path}: config value {key!r} must be one of "
                         f"{list(action.choices)}, got {json.dumps(value)}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vqsct",
                     description="Desk-scale PET-to-CT translation experiments.")
    parser.add_argument("--threads", type=int, default=None,
                        help="workers for this command: sizes phantom's case pool and "
                        "the worker processes of translate, reconstruct and select "
                        "and of pretrain's and finetune's batch items, which otherwise "
                        "have one worker per usable CPU "
                        "(fewer if free memory or the work is short); "
                        "each runs one BLAS/OpenMP thread")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate paired synthetic PET/CT cases")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--cases", type=int, default=5)
    p.add_argument("--dims", default="96,96,96", help="voxel grid, e.g. 96,96,96")
    p.add_argument("--spacing", default="1.5,1.5,1.5",
                   help="voxel spacing in mm, e.g. 1.5,1.5,1.5")
    _add_seed(p)

    p = sub.add_parser("pretrain", help="self-reconstruction pretraining on CT volumes")
    p.add_argument("--volumes", nargs="+", required=True, help="HU MVOL files")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--cube-edge", type=int, default=64,
                   help="tile edge for 3D models")
    _add_model_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("finetune", help="paired PET-to-CT fine-tuning")
    p.add_argument("--base", required=True, help="base checkpoint (architecture + weights)")
    p.add_argument("--mode", required=True, choices=("scratch", "no-frozen", "enc-frozen"))
    p.add_argument("--pet", nargs="+", required=True, help="PET MVOL files")
    p.add_argument("--ct", nargs="+", required=True, help="paired CT MVOL files")
    p.add_argument("--planes", default="axial,coronal,sagittal",
                   help="comma-joined training planes")
    p.add_argument("--train-codebook", action="store_true",
                   help="keep codebook EMA learning active in enc-frozen mode")
    p.add_argument("--out", required=True, help="output checkpoint path")
    _add_train_flags(p)

    p = sub.add_parser("translate", help="tri-planar PET-to-CT volume translation")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--pet", required=True, help="input PET MVOL")
    p.add_argument("--out", required=True, help="output synthetic-CT MVOL")
    p.add_argument("--dump-planes", action="store_true",
                   help="also write the per-plane volumes")

    p = sub.add_parser("reconstruct", help="3D cube-tiled CT self-reconstruction")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ct", required=True, help="input CT MVOL")
    p.add_argument("--out", required=True)
    p.add_argument("--edge", type=int, default=64, help="cube edge in voxels")

    p = sub.add_parser("evaluate", help="masked regional metrics for one case")
    p.add_argument("--pred", required=True, help="predicted CT MVOL")
    p.add_argument("--gt", required=True, help="ground-truth CT MVOL")
    p.add_argument("--out", required=True, help="output CSV report")
    p.add_argument("--case-id", default=None,
                   help="case label in the report (default: the --pred file stem)")
    # evaluation.BONE_THRESHOLD_HU, written out: importing it would load numpy
    # before --threads takes effect
    p.add_argument("--bone-hu", type=float, default=300.0,
                   help="soft/bone HU boundary")
    p.add_argument("--diff-dir", default=None,
                   help="directory for blue-white-red difference maps")
    p.add_argument("--diff-cap", type=float, default=200.0,
                   help="HU value mapped to full red/blue")

    p = sub.add_parser("stats", help="paired Wilcoxon test between two reports")
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--metric", required=True, choices=("mae", "psnr", "ssim", "dsc"))
    p.add_argument("--region", required=True, choices=("whole", "soft", "bone"))
    p.add_argument("--out", required=True, help="output JSON")
    p.add_argument("--label-a", default="A")
    p.add_argument("--label-b", default="B")
    p.add_argument("--alpha", type=float, default=0.05)

    p = sub.add_parser("select", help="pick the checkpoint with lowest recon MSE")
    p.add_argument("--candidates", nargs="+", required=True, help="checkpoint files")
    p.add_argument("--volumes", nargs="+", required=True, help="evaluation CT MVOLs")
    p.add_argument("--out", required=True, help="where to copy the winner")
    p.add_argument("--cube-edge", type=int, default=64)

    for command_parser in sub.choices.values():
        command_parser.add_argument("--config", help="JSON file of option values, e.g. "
                                    "a run's *.config.json (flags override)")
    parser.commands = sub.choices
    return parser


def _config_defaults(path, command, command_parser) -> dict:
    """The option values of a ``--config`` file, each checked against its flag."""
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or text, or nested too deep
        raise UsageError(f"{path}: invalid config JSON ({exc})") from None
    if not isinstance(values, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    recorded = values.pop("command", command)
    if recorded != command:
        raise UsageError(f"{path}: config is for command {json.dumps(recorded)}, "
                         f"not {command!r}")
    actions = {a.dest: a for a in command_parser._actions
               if a.dest not in ("help", "config")}
    unknown = set(values) - set(actions)
    if unknown:
        raise UsageError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, value in values.items():
        if not (value is None and actions[key].default is None):
            _check_config_value(path, key, value, actions[key])
    return values


def _write_record(args) -> None:
    """Write the command's own options beside its primary output, for ``--config``."""
    path = (os.path.join(args.out, "phantom.config.json") if args.command == "phantom"
            else f"{args.out}.config.json")
    options = {key: value for key, value in vars(args).items()
               if key not in ("threads", "command", "config")}
    write_json(path, {"command": args.command, **options})


def _parse_triple(text, kind, cast):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"{kind} must be three comma-separated values, got {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError:
        raise UsageError(f"{kind} must be numeric, got {text!r}") from None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# One phantom case's peak working set per voxel, rounded up: its traced peak
# is about 86 bytes per voxel at 64^3 and 96^3 (float64 grids, the labels and
# masks, the PET's blur and Poisson draw).
_CASE_BYTES_PER_VOXEL = 96

# One inference task's peak working set (one slice's or cube's forward-only
# graph) per input voxel and base channel, rounded up: with criterion 09's
# model its traced peak is 2.8 MB for a 96^2 slice, 1.2 MB for 70x50 and
# 7.2 MB for a 32^3 cube at base 8 (38, 42 and 27 bytes per voxel and
# channel), and fewer bytes per channel at base 16.
_FORWARD_BYTES_PER_VOXEL_CHANNEL = 48

# One training item's peak working set on a worker (the step's leaves, then
# the item's forward, loss and backward graph) per input voxel and base
# channel, rounded up: with criterion 09's model its traced peak is 3.3 / 3.7
# MB for a 96^2 slice without / with the commitment term, 1.6 MB for 70x50
# and 9.8 MB for a 32^3 cube with it, at base 8 (44 / 50, 57 and 37 bytes per
# voxel and channel).
_TRAIN_BYTES_PER_VOXEL_CHANNEL = 64


def _free_bytes() -> int | None:
    """Physical memory free now, where the OS reports it."""
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        return None


def _pool_workers(tasks: int, threads: int | None, task_bytes: int) -> int:
    """Workers for a pool of ``tasks`` independent tasks of ``task_bytes`` each:
    ``threads`` (default: one per usable CPU), but no more than ``tasks`` and
    no more tasks than fit in free memory at once; always at least one."""
    workers = min(tasks, threads or _usable_cpus())
    free = _free_bytes()
    if free is not None:
        workers = min(workers, max(1, free // task_bytes))
    return workers


def _case_workers(cases: int, threads: int | None, voxels: int) -> int:
    """Workers for phantom's pool of ``cases`` cases of ``voxels`` voxels."""
    return _pool_workers(cases, threads, voxels * _CASE_BYTES_PER_VOXEL)


def _inference_task(config, volume, cube_edge: int | None) -> tuple[int, int]:
    """(tasks, bytes per task) of one inference of ``volume`` with a model of
    ``config``: its cubes of ``cube_edge`` for a rank-3 model given one, else
    its slices."""
    if config.spatial_rank == 3 and cube_edge is not None:
        tasks, voxels = math.prod(-(-n // cube_edge) for n in volume.dims), cube_edge ** 3
    else:
        tasks, voxels = sum(volume.dims), volume.voxels.size // min(volume.dims)
    return tasks, voxels * config.base_channels * _FORWARD_BYTES_PER_VOXEL_CHANNEL


def _inference_workers(threads: int | None, configs, volumes,
                       cube_edge: int | None = None) -> int:
    """Workers for inferring each of ``volumes`` with models of each of
    ``configs``: sized by the most tasks and the largest task among them."""
    tasks, task_bytes = map(max, zip(*(_inference_task(c, v, cube_edge)
                                       for c in configs for v in volumes)))
    return _pool_workers(tasks, threads, task_bytes)


def _training_workers(threads: int | None, batch_size: int, base_channels: int,
                      voxels: int) -> int:
    """Workers for the batch items of a training step, whose largest item
    holds ``voxels`` voxels, with a model of ``base_channels``."""
    return _pool_workers(batch_size, threads,
                         max(1, voxels * base_channels * _TRAIN_BYTES_PER_VOXEL_CHANNEL))


def _read_space(path, flag: str, space: str):
    """The volume at ``path``, which ``flag`` needs in intensity ``space``."""
    from .volume import read_volume

    volume = read_volume(path)
    if volume.intensity_space != space:
        raise DomainError(f"{flag} {path} holds {volume.intensity_space} voxels, "
                          f"expected {space}")
    return volume


def _write_history(result, path) -> None:
    with atomic_open(path, "w") as fh:
        fh.write("step,l1,total\n")
        for i, (l1, total) in enumerate(zip(result.l1_history, result.loss_history), 1):
            fh.write(f"{i},{l1!r},{total!r}\n")


def _train_options(args) -> dict:
    """The keyword arguments both training entry points take from the train flags."""
    return {"learning_rate": args.learning_rate, "batch_size": args.batch_size,
            "beta": args.beta, "expire_age": args.expire_age, "decay": args.decay,
            "weight_decay": args.weight_decay, "augment": args.augment}


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_phantom(args) -> None:
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from .phantom import checked_dims, generate_phantom_pair
    from .volume import write_volume

    dims = checked_dims(_parse_triple(args.dims, "dims", int), 32, "phantom")
    spacing = _parse_triple(args.spacing, "spacing", float)
    if args.cases < 1:
        raise UsageError(f"--cases must be >= 1, got {args.cases}")
    os.makedirs(args.out, exist_ok=True)

    failed = threading.Event()

    def write_case(i):
        if failed.is_set():
            return
        try:
            ct, pet, truth = generate_phantom_pair(dims, [args.seed, i], spacing_mm=spacing)
            write_volume(ct, os.path.join(args.out, f"case_{i:03d}_ct.mvol"))
            write_volume(pet, os.path.join(args.out, f"case_{i:03d}_pet.mvol"))
            write_json(os.path.join(args.out, f"case_{i:03d}_truth.json"),
                       {"case": i, "seed": [args.seed, i],
                        "geometry": truth.geometry, "label_counts": truth.label_counts()})
        except BaseException:
            failed.set()
            raise

    # Each case has its own seed, so its bytes do not depend on the schedule.
    # One worker writes the cases in order in this thread. Otherwise cases
    # start in order, and none starts once a case has failed. Cases already
    # running then finish, so with several workers a case after the failing
    # one may still be written; the first failure in case order is raised.
    workers = _case_workers(args.cases, args.threads, math.prod(dims))
    if workers == 1:
        for i in range(args.cases):
            write_case(i)
        return
    pool = ThreadPoolExecutor(workers)
    try:
        for future in [pool.submit(write_case, i) for i in range(args.cases)]:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _cmd_pretrain(args) -> None:
    from .model import ModelConfig, save_checkpoint
    from .training import pretrain_recon
    from .volume import normalize

    config = ModelConfig(
        spatial_rank=args.rank, depth=args.depth, base_channels=args.base_channels,
        codebook_size=args.codebook_size, codebook_dim=args.codebook_dim,
        pyramid_levels=args.pyramid_levels, seed=args.seed).validate()
    # read and normalized one at a time: pretrain_recon keeps float32 items only
    volumes = (normalize(_read_space(p, "--volumes", "HU"), "unit01") for p in args.volumes)
    if args.rank == 3:  # the cubes are copies: each volume goes once they are cut
        voxels = args.cube_edge ** 3
    else:  # the axial slices are views, which keep every volume anyway
        volumes = list(volumes)
        voxels = max(v.dims[0] * v.dims[1] for v in volumes)
    result = pretrain_recon(
        config, volumes, args.steps, args.seed, cube_edge=args.cube_edge,
        workers=_training_workers(args.threads, args.batch_size, args.base_channels, voxels),
        **_train_options(args))
    save_checkpoint(result.checkpoint, args.out)
    _write_history(result, f"{args.out}.history.csv")


def _cmd_finetune(args) -> None:
    import numpy as np

    from .model import GRAPH_DTYPE, load_checkpoint, save_checkpoint
    from .pipeline import PLANE_AXIS, PLANES
    from .training import finetune_translate
    from .volume import normalize

    planes = [p.strip() for p in args.planes.split(",") if p.strip()]
    for plane in planes:
        if plane not in PLANES:
            raise UsageError(f"unknown plane {plane!r}; valid: {', '.join(PLANES)}")
    if len(args.pet) != len(args.ct):
        raise UsageError(f"--pet and --ct must pair up, got "
                         f"{len(args.pet)} vs {len(args.ct)}")

    base = load_checkpoint(args.base)
    pet_slices, ct_slices = [], []
    for pet_path, ct_path in zip(args.pet, args.ct):
        # a read volume normalizes to float32, GRAPH_DTYPE already: no copy
        pet = np.asarray(normalize(_read_space(pet_path, "--pet", "activity"), "sym11").voxels,
                         GRAPH_DTYPE)
        ct = np.asarray(normalize(_read_space(ct_path, "--ct", "HU"), "sym11").voxels,
                        GRAPH_DTYPE)
        if pet.shape != ct.shape:
            raise DomainError(f"paired volumes disagree on dims: "
                              f"{pet_path} {pet.shape} vs {ct_path} {ct.shape}")
        for plane in planes:  # views: the float32 pairs are all the data a run keeps
            pet_slices.extend(np.moveaxis(pet, PLANE_AXIS[plane], 0))
            ct_slices.extend(np.moveaxis(ct, PLANE_AXIS[plane], 0))

    voxels = max((sl.size for sl in pet_slices), default=0)
    result = finetune_translate(
        base, args.mode, pet_slices, ct_slices, args.steps, args.seed,
        freeze_codebook_with_encoder=not args.train_codebook,
        workers=_training_workers(args.threads, args.batch_size,
                                  base.config.base_channels, voxels),
        **_train_options(args))
    save_checkpoint(result.checkpoint, args.out)
    _write_history(result, f"{args.out}.history.csv")


def _cmd_translate(args) -> None:
    from .model import load_checkpoint, value_space
    from .pipeline import translate_volume
    from .volume import normalize, write_volume

    ckpt = load_checkpoint(args.ckpt)
    space = value_space(ckpt)
    volume = normalize(_read_space(args.pet, "--pet", _SOURCE_SPACE[space]), space)
    result = translate_volume(ckpt, volume,
                              _inference_workers(args.threads, [ckpt.config], [volume]))
    write_volume(result.fused, args.out)
    if args.dump_planes:
        stem, ext = os.path.splitext(args.out)
        write_volume(result.axial, f"{stem}.axial{ext}")
        write_volume(result.coronal, f"{stem}.coronal{ext}")
        write_volume(result.sagittal, f"{stem}.sagittal{ext}")


def _cmd_reconstruct(args) -> None:
    from .model import load_checkpoint, value_space
    from .pipeline import reconstruct_cubes
    from .volume import check_cube_size, normalize, write_volume

    check_cube_size(args.edge)  # in plain integers, before anything is read
    ckpt = load_checkpoint(args.ckpt)
    volume = normalize(_read_space(args.ct, "--ct", "HU"), value_space(ckpt))
    workers = _inference_workers(args.threads, [ckpt.config], [volume], args.edge)
    out = reconstruct_cubes(ckpt, volume, edge=args.edge, workers=workers)
    write_volume(out, args.out)


def _cmd_evaluate(args) -> None:
    from .evaluation import (evaluate_case, region_masks, save_difference_maps,
                             write_report_csv)
    from .volume import read_volume

    if not 0.0 < args.diff_cap < float("inf"):
        raise UsageError(f"--diff-cap must be finite and > 0, got {args.diff_cap}")
    if not abs(args.bone_hu) < float("inf"):
        raise UsageError(f"--bone-hu must be finite, got {args.bone_hu}")
    if args.case_id is None:
        args.case_id = os.path.splitext(os.path.basename(args.pred))[0]
    pred = read_volume(args.pred)
    gt = read_volume(args.gt)
    truth = region_masks(gt, args.bone_hu)
    rows = evaluate_case(pred, gt, case_id=args.case_id,
                         bone_threshold_hu=args.bone_hu, truth=truth)
    write_report_csv(rows, args.out)
    if args.diff_dir:
        save_difference_maps(pred, gt, truth["whole"], args.diff_dir, cap=args.diff_cap)


def _cmd_stats(args) -> None:
    from .evaluation import compare_reports, read_report_csv

    result = compare_reports(
        read_report_csv(args.report_a), read_report_csv(args.report_b),
        args.metric, args.region,
        label_a=args.label_a, label_b=args.label_b, alpha=args.alpha)
    print(write_json(args.out, result))


def _cmd_select(args) -> None:
    from .model import load_checkpoint
    from .training import select_checkpoint
    from .volume import check_cube_size, read_volume

    check_cube_size(args.cube_edge)  # in plain integers, before anything is read
    candidates = [load_checkpoint(p) for p in args.candidates]
    volumes = [read_volume(p) for p in args.volumes]
    workers = _inference_workers(args.threads, [c.config for c in candidates], volumes,
                                 args.cube_edge)
    best = select_checkpoint(candidates, volumes, cube_edge=args.cube_edge, workers=workers)
    index = next(i for i, c in enumerate(candidates) if c is best)
    with open(args.candidates[index], "rb") as src, atomic_open(args.out, "wb") as fh:
        shutil.copyfileobj(src, fh)
    print(write_json(f"{args.out}.selection.json",
                     {"selected_index": index, "selected_path": args.candidates[index]}))


_HANDLERS = {
    "phantom": _cmd_phantom,
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "translate": _cmd_translate,
    "reconstruct": _cmd_reconstruct,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
    "select": _cmd_select,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads is not None:
            cpus = _usable_cpus()
            if not 1 <= args.threads <= cpus:
                raise UsageError(f"--threads must be in [1, {cpus}] (the usable CPUs), "
                                 f"got {args.threads}")
        for var in _THREAD_ENV_VARS:  # the pools are the parallelism: one BLAS thread each
            os.environ[var] = "1"
        if args.config:
            command_parser = parser.commands[args.command]
            command_parser.set_defaults(
                **_config_defaults(args.config, args.command, command_parser))
            args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy's SeedSequence takes no negative seed
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        _HANDLERS[args.command](args)
        _write_record(args)
        return 0
    except VqsctError as exc:
        print(f"vqsct: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation that failed
        print(f"vqsct: error: out of memory{f' ({exc})' if str(exc) else ''}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"vqsct: i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
