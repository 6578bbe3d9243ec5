"""The ``vqsct`` command line: reproducible experiments over the library.

Subcommands: phantom, pretrain, finetune, reconstruct, translate, evaluate,
stats, select. Exit codes: 0 success, 1 usage or domain errors or running
out of memory, 2 I/O failures.

``--config FILE`` takes a JSON object of option values keyed by destination
(``batch_size`` for ``--batch-size``). Each must have its flag's JSON type and
becomes the command's parser default, so flags still win. A flag's range rule
is declared beside it (``add_argument(..., rule=...)``) and runs once, after
``--config`` and before the handler, on flags and config values alike; an
output flag's rule raises OSError (exit 2) if it cannot be written. Every
run writes ``{"command": ..., **options}`` beside its primary output as
``*.config.json``; that record with ``--config`` and the same required flags
replays the run (a config's ``command``, if any, must be the one being run).
Only phantom, pretrain and finetune draw random numbers and take ``--seed``.

Heavy imports happen inside the command handlers and rules so that the BLAS/OpenMP
pools can be pinned to one thread through environment variables before
numpy loads: a command's parallelism is its own pool of worker processes
(``workers.Pool``), and one BLAS pool of all CPUs in each of them would
oversubscribe the CPUs. :func:`main` resolves ``--threads`` (default: one
per usable CPU) once, and every command's pool sizes itself from it, its
tasks and free memory. numpy's overflow, invalid and divide warnings are
off: every value they could reach is checked.
``phantom`` shares out its cases, one case per process at a time;
``translate``, ``reconstruct`` and ``select`` their slices or cubes (see
``pipeline``); ``evaluate`` its axial slabs (see ``evaluation``); and
``pretrain`` and ``finetune`` each step's batch items,
forked once per command of two or more steps (see ``training``). Every
file is the same at any thread count, and ``--threads 1`` runs everything
in one thread of one process.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import shutil
import sys

import vqsct  # a rule's library module loads when the rule first names it

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

    def add_argument(self, *args, rule=None, **kwargs):
        """``rule(args)`` checks the flag's value once it is parsed, and rewrites nothing."""
        action = super().add_argument(*args, **kwargs)
        action.rule = rule
        return action


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _check_out(args) -> None:
    """``--out``'s rule but phantom's: OSError unless its directory exists and neither
    it nor a file the command writes beside it (:func:`_beside_out`) is a directory."""
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, "--out is a directory", args.out)
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(errno.ENOENT, "--out's directory does not exist", args.out)
    for path in _beside_out(args).values():
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, "a file written beside --out is a directory",
                                    path)


def _beside_out(args) -> dict:
    """The files a command but phantom writes beside its ``--out``, by what they
    hold; the rule checks them and the writers take their paths from here."""
    paths = {"config": f"{args.out}.config.json"}
    if args.command in ("pretrain", "finetune"):
        paths["history"] = f"{args.out}.history.csv"
    elif args.command == "select":
        paths["selection"] = f"{args.out}.selection.json"
    elif args.command == "translate" and args.dump_planes:  # <stem>.<plane><ext>
        stem, ext = os.path.splitext(args.out)
        paths.update({plane: f"{stem}.{plane}{ext}" for plane in vqsct.pipeline.PLANES})
    return paths


def _check_diff_dir(args) -> None:
    """``--diff-dir``'s rule: OSError unless it, or its nearest existing parent, is a directory."""
    path = args.diff_dir
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise NotADirectoryError(errno.ENOTDIR, "--diff-dir is not a directory and cannot "
                                 "become one", args.diff_dir)


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=0, help="master random seed",
                        # numpy's SeedSequence takes no negative seed
                        rule=lambda a: _require(a.seed >= 0, f"--seed must be >= 0, got {a.seed}"))


def _add_model_flags(parser):
    # --rank's rule is the group's: ModelConfig.validate checks the rank too
    parser.add_argument("--rank", type=int, default=2, help="spatial rank of the model: 2 or 3")
    parser.add_argument("--depth", type=int, default=3, help="downsampling stages")
    parser.add_argument("--base-channels", type=int, default=8)
    parser.add_argument("--codebook-size", type=int, default=32)
    parser.add_argument("--codebook-dim", type=int, default=16)
    parser.add_argument("--pyramid-levels", type=int, default=1,
                        rule=lambda a: _model_config(a).validate())  # the group's rule


def _add_train_flags(parser):
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--learning-rate", type=float, default=1e-5)
    parser.add_argument("--beta", type=float, default=0.25,
                        help="commitment loss coefficient (0 drops the term)")
    parser.add_argument("--expire-age", type=int, default=2,
                        help="batches without use before a code is replaced")
    parser.add_argument("--decay", type=float, default=0.99, help="codebook EMA decay")
    parser.add_argument("--weight-decay", type=float, default=0.01,
                        rule=lambda a: vqsct.training.check_train_options(  # the group's rule
                            a.steps, **_train_options(a)))
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vqsct",
                     description="Desk-scale PET-to-CT translation experiments.")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes for this command's pool, which shares "
                        "out phantom's cases, the slices or cubes of translate, "
                        "reconstruct and select, the axial slabs of evaluate, and the "
                        "batch items of pretrain and finetune; default one per usable "
                        "CPU (fewer if free memory or the work is short); each runs one "
                        "BLAS/OpenMP thread",
                        rule=lambda a: a.threads is None or _require(
                            1 <= a.threads <= _usable_cpus(), f"--threads must be in [1, "
                            f"{_usable_cpus()}] (the usable CPUs), got {a.threads}"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate paired synthetic PET/CT cases")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--cases", type=int, default=5,
                   rule=lambda a: _require(a.cases >= 1, f"--cases must be >= 1, got {a.cases}"))
    p.add_argument("--dims", default="96,96,96", help="voxel grid, e.g. 96,96,96",
                   rule=lambda a: vqsct.phantom.checked_dims(
                       _parse_triple(a.dims, "dims", int), 32, "phantom"))
    p.add_argument("--spacing", default="1.5,1.5,1.5",
                   help="voxel spacing in mm, e.g. 1.5,1.5,1.5", rule=lambda a: (
                       vqsct.volume.checked_spacing(_parse_triple(a.spacing, "spacing", float))))
    _add_seed(p)

    p = sub.add_parser("pretrain", help="self-reconstruction pretraining on CT volumes")
    p.add_argument("--volumes", nargs="+", required=True, help="HU MVOL files")
    p.add_argument("--out", required=True, help="output checkpoint path", rule=_check_out)
    p.add_argument("--cube-edge", type=int, default=64,
                   help="tile edge for 3D models")
    _add_model_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("finetune", help="paired PET-to-CT fine-tuning")
    p.add_argument("--base", required=True, help="base checkpoint (architecture + weights)")
    p.add_argument("--mode", required=True, help="scratch, no-frozen or enc-frozen",
                   rule=lambda a: vqsct.model.mask_for_mode(a.mode))
    p.add_argument("--pet", nargs="+", required=True, help="PET MVOL files")
    p.add_argument("--ct", nargs="+", required=True, help="paired CT MVOL files",
                   rule=lambda a: _require(len(a.pet) == len(a.ct), "--pet and --ct must "
                                           f"pair up, got {len(a.pet)} vs {len(a.ct)}"))
    p.add_argument("--planes", default="axial,coronal,sagittal",
                   help="comma-joined training planes", rule=_check_planes)
    p.add_argument("--train-codebook", action="store_true",
                   help="keep codebook EMA learning active in enc-frozen mode")
    p.add_argument("--out", required=True, help="output checkpoint path", rule=_check_out)
    _add_train_flags(p)

    p = sub.add_parser("translate", help="tri-planar PET-to-CT volume translation")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--pet", required=True, help="input PET MVOL")
    p.add_argument("--out", required=True, help="output synthetic-CT MVOL", rule=_check_out)
    p.add_argument("--dump-planes", action="store_true",
                   help="also write the per-plane volumes")

    p = sub.add_parser("reconstruct", help="3D cube-tiled CT self-reconstruction")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ct", required=True, help="input CT MVOL")
    p.add_argument("--out", required=True, rule=_check_out)
    p.add_argument("--edge", type=int, default=64, help="cube edge in voxels",
                   rule=lambda a: vqsct.volume.check_cube_size(a.edge))

    p = sub.add_parser("evaluate", help="masked regional metrics for one case")
    p.add_argument("--pred", required=True, help="predicted CT MVOL")
    p.add_argument("--gt", required=True, help="ground-truth CT MVOL")
    p.add_argument("--out", required=True, help="output CSV report", rule=_check_out)
    p.add_argument("--case-id", default=None,
                   help="case label in the report (default: the --pred file stem)")
    # evaluation.BONE_THRESHOLD_HU, written out: importing it would load numpy
    # before --threads takes effect
    p.add_argument("--bone-hu", type=float, default=300.0,
                   help="soft/bone HU boundary", rule=lambda a: _require(
                       abs(a.bone_hu) < math.inf, f"--bone-hu must be finite, got {a.bone_hu}"))
    p.add_argument("--diff-dir", default=None,
                   help="directory for blue-white-red difference maps", rule=_check_diff_dir)
    p.add_argument("--diff-cap", type=float, default=200.0,
                   help="HU value mapped to full red/blue", rule=lambda a: _require(
                       0.0 < a.diff_cap < math.inf,
                       f"--diff-cap must be finite and > 0, got {a.diff_cap}"))

    p = sub.add_parser("stats", help="paired Wilcoxon test between two reports")
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--metric", required=True, help="mae, psnr, ssim or dsc",
                   rule=lambda a: vqsct.evaluation.check_metric(a.metric))
    p.add_argument("--region", required=True, help="whole, soft or bone",
                   rule=lambda a: vqsct.evaluation.check_region(a.region))
    p.add_argument("--out", required=True, help="output JSON", rule=_check_out)
    p.add_argument("--label-a", default="A")
    p.add_argument("--label-b", default="B")
    p.add_argument("--alpha", type=float, default=0.05,
                   rule=lambda a: vqsct.evaluation.check_alpha(a.alpha))

    p = sub.add_parser("select", help="pick the checkpoint with lowest recon MSE")
    p.add_argument("--candidates", nargs="+", required=True, help="checkpoint files")
    p.add_argument("--volumes", nargs="+", required=True, help="evaluation CT MVOLs")
    p.add_argument("--out", required=True, help="where to copy the winner", rule=_check_out)
    p.add_argument("--cube-edge", type=int, default=64,
                   rule=lambda a: vqsct.volume.check_cube_size(a.cube_edge))

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
    _require(isinstance(values, dict), f"{path}: config must be a JSON object")
    recorded = values.pop("command", command)
    _require(recorded == command,
             f"{path}: config is for command {json.dumps(recorded)}, not {command!r}")
    actions = {a.dest: a for a in command_parser._actions
               if a.dest not in ("help", "config")}
    unknown = set(values) - set(actions)
    _require(not unknown, f"{path}: unknown config keys {sorted(unknown)}")
    for key, value in values.items():
        if not (value is None and actions[key].default is None):
            _check_config_value(path, key, value, actions[key])
    return values


def _write_record(args) -> None:
    """Write the command's own options beside its primary output, for ``--config``."""
    path = (os.path.join(args.out, "phantom.config.json") if args.command == "phantom"
            else _beside_out(args)["config"])
    options = {key: value for key, value in vars(args).items()
               if key not in ("threads", "command", "config")}
    write_json(path, {"command": args.command, **options})


def _parse_triple(text, kind, cast):
    parts = text.split(",")
    _require(len(parts) == 3, f"{kind} must be three comma-separated values, got {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError:
        raise UsageError(f"{kind} must be numeric, got {text!r}") from None


def _planes(args) -> list:
    return [p.strip() for p in args.planes.split(",") if p.strip()]


def _check_planes(args) -> None:
    planes, valid = _planes(args), vqsct.pipeline.PLANES
    for plane in planes:
        _require(plane in valid, f"unknown plane {plane!r}; valid: {', '.join(valid)}")
    _require(planes and len(set(planes)) == len(planes),
             f"--planes must name one plane or more, each once, got {args.planes!r}")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _model_config(args):
    """The architecture the model flags give."""
    return vqsct.model.ModelConfig(
        spatial_rank=args.rank, depth=args.depth, base_channels=args.base_channels,
        codebook_size=args.codebook_size, codebook_dim=args.codebook_dim,
        pyramid_levels=args.pyramid_levels, seed=args.seed)


def _read_space(path, flag: str, space: str):
    """The volume at ``path``, which ``flag`` needs in intensity ``space``."""
    from .volume import read_volume

    return read_volume(path).check_space(space, f"{flag} {path}")


def _write_history(result, path) -> None:
    with atomic_open(path, "w") as fh:
        fh.write("step,l1,total\n")
        for i, (l1, total) in enumerate(zip(result.l1_history, result.loss_history), 1):
            fh.write(f"{i},{l1!r},{total!r}\n")


def _train_options(args) -> dict:
    """The train flags but ``--steps`` that ``training.check_train_options`` checks."""
    return {"learning_rate": args.learning_rate, "batch_size": args.batch_size,
            "beta": args.beta, "expire_age": args.expire_age, "decay": args.decay,
            "weight_decay": args.weight_decay}


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

# One phantom case's peak working set per voxel, rounded up: its traced peak
# is about 86 bytes per voxel at 64^3 and 96^3 (float64 grids, the labels and
# masks, the PET's blur and Poisson draw).
_CASE_BYTES_PER_VOXEL = 96


def _cmd_phantom(args) -> None:
    from .phantom import generate_phantom_pair
    from .volume import write_volume
    from .workers import Pool

    dims = _parse_triple(args.dims, "dims", int)
    spacing = _parse_triple(args.spacing, "spacing", float)
    os.makedirs(args.out, exist_ok=True)

    def write_cases(lo, hi):
        for i in range(lo, hi):
            ct, pet, truth = generate_phantom_pair(dims, [args.seed, i], spacing_mm=spacing)
            write_volume(ct, os.path.join(args.out, f"case_{i:03d}_ct.mvol"))
            write_volume(pet, os.path.join(args.out, f"case_{i:03d}_pet.mvol"))
            write_json(os.path.join(args.out, f"case_{i:03d}_truth.json"),
                       {"case": i, "seed": [args.seed, i],
                        "geometry": truth.geometry, "label_counts": truth.label_counts()})
            del ct, pet, truth  # before the next case is generated

    # Each case has its own seed, so its bytes do not depend on the schedule.
    # No case starts once one has failed, but cases already running finish, so
    # with several workers a case after the failing one may still be written.
    with Pool(write_cases, args.threads, args.cases,
              math.prod(dims) * _CASE_BYTES_PER_VOXEL) as pool:
        pool.round()


def _cmd_pretrain(args) -> None:
    from .model import save_checkpoint
    from .training import pretrain_recon
    from .volume import normalize

    # read and normalized one at a time: pretrain_recon keeps float32 items only
    volumes = (normalize(_read_space(p, "--volumes", "HU"), "unit01") for p in args.volumes)
    result = pretrain_recon(
        _model_config(args), volumes, args.steps, args.seed, cube_edge=args.cube_edge,
        augment=args.augment, workers=args.threads, **_train_options(args))
    save_checkpoint(result.checkpoint, args.out)
    _write_history(result, _beside_out(args)["history"])


def _cmd_finetune(args) -> None:
    import numpy as np

    from .model import load_checkpoint, save_checkpoint
    from .pipeline import PLANE_AXIS
    from .training import finetune_translate
    from .volume import normalize

    planes = _planes(args)
    base = load_checkpoint(args.base)
    base.config.check_rank(2, "fine-tuning")  # before any volume is read
    pet_slices, ct_slices = [], []
    for pet_path, ct_path in zip(args.pet, args.ct):
        pet = normalize(_read_space(pet_path, "--pet", "activity"), "sym11").voxels
        ct = normalize(_read_space(ct_path, "--ct", "HU"), "sym11").voxels
        if pet.shape != ct.shape:
            raise DomainError(f"paired volumes disagree on dims: "
                              f"{pet_path} {pet.shape} vs {ct_path} {ct.shape}")
        for plane in planes:  # views: the float32 pairs are all the data a run keeps
            pet_slices.extend(np.moveaxis(pet, PLANE_AXIS[plane], 0))
            ct_slices.extend(np.moveaxis(ct, PLANE_AXIS[plane], 0))

    result = finetune_translate(
        base, args.mode, pet_slices, ct_slices, args.steps, args.seed,
        freeze_codebook_with_encoder=not args.train_codebook, augment=args.augment,
        workers=args.threads, **_train_options(args))
    save_checkpoint(result.checkpoint, args.out)
    _write_history(result, _beside_out(args)["history"])


def _cmd_translate(args) -> None:
    from .model import load_checkpoint, value_space
    from .pipeline import PLANES, translate_volume
    from .volume import normalize, write_volume

    ckpt = load_checkpoint(args.ckpt)
    ckpt.config.check_rank(2, "tri-planar translation")  # before the volume is read
    space = value_space(ckpt)
    volume = normalize(_read_space(args.pet, "--pet", _SOURCE_SPACE[space]), space)
    result = translate_volume(ckpt, volume, args.threads)
    write_volume(result.fused, args.out)
    if args.dump_planes:
        paths = _beside_out(args)
        for plane in PLANES:
            write_volume(getattr(result, plane), paths[plane])


def _cmd_reconstruct(args) -> None:
    from .model import load_checkpoint, value_space
    from .pipeline import reconstruct_cubes
    from .volume import normalize, write_volume

    ckpt = load_checkpoint(args.ckpt)
    ckpt.config.check_rank(3, "reconstruct_cubes")  # before the volume is read
    volume = normalize(_read_space(args.ct, "--ct", "HU"), value_space(ckpt))
    out = reconstruct_cubes(ckpt, volume, edge=args.edge, workers=args.threads)
    write_volume(out, args.out)


def _cmd_evaluate(args) -> None:
    from .evaluation import evaluate_case, save_difference_maps, write_report_csv

    if args.case_id is None:
        args.case_id = os.path.splitext(os.path.basename(args.pred))[0]
    pred = _read_space(args.pred, "--pred", "HU")
    gt = _read_space(args.gt, "--gt", "HU")
    truth = {}  # the truth's region masks, built once by evaluate_case
    rows = evaluate_case(pred, gt, case_id=args.case_id, bone_threshold_hu=args.bone_hu,
                         truth=truth, workers=args.threads)
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

    candidates = [load_checkpoint(p) for p in args.candidates]
    # read once every 3D candidate has checked the cube edge
    volumes = (_read_space(p, "--volumes", "HU") for p in args.volumes)
    best = select_checkpoint(candidates, volumes, cube_edge=args.cube_edge,
                             workers=args.threads)
    index = next(i for i, c in enumerate(candidates) if c is best)
    with open(args.candidates[index], "rb") as src, atomic_open(args.out, "wb") as fh:
        shutil.copyfileobj(src, fh)
    print(write_json(_beside_out(args)["selection"],
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
        for var in _THREAD_ENV_VARS:  # the pools are the parallelism: one BLAS thread each
            os.environ[var] = "1"
        import numpy as np
        command_parser = parser.commands[args.command]
        if args.config:
            command_parser.set_defaults(
                **_config_defaults(args.config, args.command, command_parser))
            args = parser.parse_args(argv)
        for action in parser._actions + command_parser._actions:  # each range rule, once
            if getattr(action, "rule", None):
                action.rule(args)
        args.threads = args.threads or _usable_cpus()  # the worker count every handler passes
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
