"""The ``vqsct`` command line: reproducible experiments over the library.

Subcommands: phantom, pretrain, finetune, reconstruct, translate, evaluate,
stats, select. Every run writes a fully-resolved configuration JSON next to
its primary output so it can be replayed exactly. Exit codes: 0 success,
1 usage or domain errors, 2 I/O failures.

Options may come from flags or from a JSON file via ``--config``; explicit
flags win over file values, which win over built-in defaults.

Heavy imports happen inside the command handlers so that ``--threads`` can
pin the BLAS/OpenMP pool sizes through environment variables before numpy
loads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from .errors import (DomainError, FormatError, ShapeError, TrainingError,
                     UsageError, VqsctError)

__all__ = ["entry", "main", "build_parser"]

_THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise UsageError(message)


def _add_common(parser):
    parser.add_argument("--config", help="JSON file of option values (flags override)")
    parser.add_argument("--seed", type=int, default=None, help="master random seed")


def _add_model_flags(parser):
    parser.add_argument("--rank", type=int, default=None, choices=(2, 3),
                        help="spatial rank of the model")
    parser.add_argument("--depth", type=int, default=None, help="downsampling stages")
    parser.add_argument("--base-channels", type=int, default=None)
    parser.add_argument("--codebook-size", type=int, default=None)
    parser.add_argument("--codebook-dim", type=int, default=None)
    parser.add_argument("--pyramid-levels", type=int, default=None)


def _add_train_flags(parser):
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--learning-rate", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None,
                        help="commitment loss coefficient")
    parser.add_argument("--expire-age", type=int, default=None,
                        help="batches without use before a code is replaced")
    parser.add_argument("--decay", type=float, default=None, help="codebook EMA decay")
    parser.add_argument("--weight-decay", type=float, default=None)
    parser.add_argument("--augment", action="store_true",
                        help="apply seeded flip/transpose augmentation to samples")


# What a --config value must be, by the argparse type of its flag. A JSON
# bool is never a number, although Python counts it as an int.
_CONFIG_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
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
                        help="pin BLAS/OpenMP thread-pool sizes (set before numpy loads)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate paired synthetic PET/CT cases")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--dims", default=None, help="voxel grid, e.g. 96,96,96")
    p.add_argument("--spacing", default=None, help="voxel spacing in mm, e.g. 1.5,1.5,1.5")
    _add_common(p)

    p = sub.add_parser("pretrain", help="self-reconstruction pretraining on CT volumes")
    p.add_argument("--volumes", nargs="+", required=True, help="HU MVOL files")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--cube-edge", type=int, default=None,
                   help="tile edge for 3D models")
    _add_model_flags(p)
    _add_train_flags(p)
    _add_common(p)

    p = sub.add_parser("finetune", help="paired PET-to-CT fine-tuning")
    p.add_argument("--base", required=True, help="base checkpoint (architecture + weights)")
    p.add_argument("--mode", required=True, choices=("scratch", "no-frozen", "enc-frozen"))
    p.add_argument("--pet", nargs="+", required=True, help="PET MVOL files")
    p.add_argument("--ct", nargs="+", required=True, help="paired CT MVOL files")
    p.add_argument("--planes", default=None,
                   help="comma-joined training planes (default axial,coronal,sagittal)")
    p.add_argument("--no-commitment", action="store_true",
                   help="drop the commitment term from the objective")
    p.add_argument("--train-codebook", action="store_true",
                   help="keep codebook EMA learning active in enc-frozen mode")
    p.add_argument("--out", required=True, help="output checkpoint path")
    _add_train_flags(p)
    _add_common(p)

    p = sub.add_parser("translate", help="tri-planar PET-to-CT volume translation")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--pet", required=True, help="input PET MVOL")
    p.add_argument("--out", required=True, help="output synthetic-CT MVOL")
    p.add_argument("--dump-planes", action="store_true",
                   help="also write the per-plane volumes")
    _add_common(p)

    p = sub.add_parser("reconstruct", help="3D cube-tiled CT self-reconstruction")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ct", required=True, help="input CT MVOL")
    p.add_argument("--out", required=True)
    p.add_argument("--edge", type=int, default=None, help="cube edge in voxels")
    _add_common(p)

    p = sub.add_parser("evaluate", help="masked regional metrics for one case")
    p.add_argument("--pred", required=True, help="predicted CT MVOL")
    p.add_argument("--gt", required=True, help="ground-truth CT MVOL")
    p.add_argument("--out", required=True, help="output CSV report")
    p.add_argument("--case-id", default=None)
    p.add_argument("--bone-hu", type=float, default=None,
                   help="soft/bone HU boundary")
    p.add_argument("--diff-dir", default=None,
                   help="directory for blue-white-red difference maps")
    p.add_argument("--diff-cap", type=float, default=None,
                   help="HU value mapped to full red/blue")
    _add_common(p)

    p = sub.add_parser("stats", help="paired Wilcoxon test between two reports")
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--metric", required=True, choices=("mae", "psnr", "ssim", "dsc"))
    p.add_argument("--region", required=True, choices=("whole", "soft", "bone"))
    p.add_argument("--out", required=True, help="output JSON")
    p.add_argument("--label-a", default=None)
    p.add_argument("--label-b", default=None)
    p.add_argument("--alpha", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("select", help="pick the checkpoint with lowest recon MSE")
    p.add_argument("--candidates", nargs="+", required=True, help="checkpoint files")
    p.add_argument("--volumes", nargs="+", required=True, help="evaluation CT MVOLs")
    p.add_argument("--out", required=True, help="where to copy the winner")
    p.add_argument("--cube-edge", type=int, default=None)
    _add_common(p)

    # each command's flags by destination, against which --config values are checked
    for command_parser in sub.choices.values():
        command_parser.set_defaults(
            flag_actions={a.dest: a for a in command_parser._actions})
    return parser


def _resolve(args, defaults: dict) -> dict:
    """Merge built-in defaults, --config file values, and explicit flags."""
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                file_values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{config_path}: invalid config JSON ({exc})") from None
        if not isinstance(file_values, dict):
            raise UsageError(f"{config_path}: config must be a JSON object")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise UsageError(f"{config_path}: unknown config keys {sorted(unknown)}")
        for key, value in file_values.items():
            if key in args.flag_actions and not (value is None and defaults[key] is None):
                _check_config_value(config_path, key, value, args.flag_actions[key])
        resolved.update(file_values)
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None and flag_value is not False:
            resolved[key] = flag_value
    return resolved


def _write_resolved(command: str, resolved: dict, path) -> None:
    record = {"command": command}
    record.update(resolved)
    with open(path, "w") as fh:
        json.dump(record, fh, separators=(",", ":"))
        fh.write("\n")


def _parse_triple(text, kind, cast):
    parts = str(text).split(",")
    if len(parts) != 3:
        raise UsageError(f"{kind} must be three comma-separated values, got {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError:
        raise UsageError(f"{kind} must be numeric, got {text!r}") from None


def _write_history(result, path) -> None:
    with open(path, "w") as fh:
        fh.write("step,l1,total\n")
        for i, (l1, total) in enumerate(zip(result.l1_history, result.loss_history), 1):
            fh.write(f"{i},{l1!r},{total!r}\n")


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_phantom(args) -> int:
    from .phantom import generate_phantom_pair
    from .volume import write_volume

    resolved = _resolve(args, {
        "out": None, "cases": 5, "dims": "96,96,96", "spacing": "1.5,1.5,1.5",
        "seed": 0,
    })
    resolved["out"] = args.out
    dims = _parse_triple(resolved["dims"], "dims", int)
    spacing = _parse_triple(resolved["spacing"], "spacing", float)
    if resolved["cases"] < 1:
        raise UsageError(f"--cases must be >= 1, got {resolved['cases']}")
    os.makedirs(args.out, exist_ok=True)
    for i in range(resolved["cases"]):
        ct, pet, truth = generate_phantom_pair(dims, [resolved["seed"], i],
                                               spacing_mm=spacing)
        write_volume(ct, os.path.join(args.out, f"case_{i:03d}_ct.mvol"))
        write_volume(pet, os.path.join(args.out, f"case_{i:03d}_pet.mvol"))
        record = {"case": i, "seed": [resolved["seed"], i],
                  "geometry": truth.geometry, "label_counts": truth.label_counts()}
        with open(os.path.join(args.out, f"case_{i:03d}_truth.json"), "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
            fh.write("\n")
    _write_resolved("phantom", resolved, os.path.join(args.out, "phantom.config.json"))
    return 0


_MODEL_DEFAULTS = {"rank": 2, "depth": 3, "base_channels": 8, "codebook_size": 32,
                   "codebook_dim": 16, "pyramid_levels": 1}
_TRAIN_DEFAULTS = {"steps": 300, "batch_size": 8, "learning_rate": 1e-5,
                   "beta": 0.25, "expire_age": 2, "decay": 0.99,
                   "weight_decay": 0.01, "augment": False, "seed": 0}


def _cmd_pretrain(args) -> int:
    from .model import ModelConfig
    from .training import pretrain_recon
    from .volume import normalize, read_volume

    resolved = _resolve(args, {**_MODEL_DEFAULTS, **_TRAIN_DEFAULTS,
                               "cube_edge": 64, "volumes": None, "out": None})
    resolved["volumes"] = list(args.volumes)
    resolved["out"] = args.out
    config = ModelConfig(
        spatial_rank=resolved["rank"], depth=resolved["depth"],
        base_channels=resolved["base_channels"],
        codebook_size=resolved["codebook_size"],
        codebook_dim=resolved["codebook_dim"],
        pyramid_levels=resolved["pyramid_levels"], seed=resolved["seed"])
    volumes = [normalize(read_volume(p), "unit01") for p in resolved["volumes"]]
    result = pretrain_recon(
        config, volumes, resolved["steps"], resolved["seed"],
        learning_rate=resolved["learning_rate"], batch_size=resolved["batch_size"],
        beta=resolved["beta"], expire_age=resolved["expire_age"],
        decay=resolved["decay"], weight_decay=resolved["weight_decay"],
        cube_edge=resolved["cube_edge"], augment=resolved["augment"])
    from .model import save_checkpoint
    save_checkpoint(result.checkpoint, args.out)
    _write_history(result, f"{args.out}.history.csv")
    _write_resolved("pretrain", resolved, f"{args.out}.config.json")
    return 0


def _cmd_finetune(args) -> int:
    from .model import load_checkpoint, save_checkpoint
    from .pipeline import PLANES, slice_volume
    from .training import finetune_translate
    from .volume import normalize, read_volume

    resolved = _resolve(args, {**_TRAIN_DEFAULTS, "base": None, "mode": None,
                               "pet": None, "ct": None,
                               "planes": "axial,coronal,sagittal",
                               "no_commitment": False, "train_codebook": False,
                               "out": None})
    resolved.update({"base": args.base, "mode": args.mode,
                     "pet": list(args.pet), "ct": list(args.ct), "out": args.out})
    planes = [p.strip() for p in str(resolved["planes"]).split(",") if p.strip()]
    for plane in planes:
        if plane not in PLANES:
            raise UsageError(f"unknown plane {plane!r}; valid: {', '.join(PLANES)}")
    if len(resolved["pet"]) != len(resolved["ct"]):
        raise UsageError(f"--pet and --ct must pair up, got "
                         f"{len(resolved['pet'])} vs {len(resolved['ct'])}")

    base = load_checkpoint(resolved["base"])
    pet_slices, ct_slices = [], []
    for pet_path, ct_path in zip(resolved["pet"], resolved["ct"]):
        pet = normalize(read_volume(pet_path), "sym11")
        ct = normalize(read_volume(ct_path), "sym11")
        if pet.dims != ct.dims:
            raise DomainError(f"paired volumes disagree on dims: "
                              f"{pet_path} {pet.dims} vs {ct_path} {ct.dims}")
        for plane in planes:
            pet_slices.extend(slice_volume(pet, plane))
            ct_slices.extend(slice_volume(ct, plane))

    result = finetune_translate(
        base, resolved["mode"], pet_slices, ct_slices,
        resolved["steps"], resolved["seed"],
        learning_rate=resolved["learning_rate"], batch_size=resolved["batch_size"],
        beta=0.0 if resolved["no_commitment"] else resolved["beta"],
        expire_age=resolved["expire_age"], decay=resolved["decay"],
        weight_decay=resolved["weight_decay"],
        freeze_codebook_with_encoder=not resolved["train_codebook"],
        augment=resolved["augment"])
    save_checkpoint(result.checkpoint, args.out)
    _write_history(result, f"{args.out}.history.csv")
    _write_resolved("finetune", resolved, f"{args.out}.config.json")
    return 0


def _cmd_translate(args) -> int:
    from .model import load_checkpoint, value_space
    from .pipeline import translate_volume
    from .volume import normalize, read_volume, write_volume

    resolved = _resolve(args, {"ckpt": None, "pet": None, "out": None,
                               "dump_planes": False, "seed": 0})
    resolved.update({"ckpt": args.ckpt, "pet": args.pet, "out": args.out,
                     "dump_planes": bool(args.dump_planes)})
    ckpt = load_checkpoint(resolved["ckpt"])
    volume = normalize(read_volume(resolved["pet"]), value_space(ckpt))
    result = translate_volume(ckpt, volume)
    write_volume(result.fused, args.out)
    if resolved["dump_planes"]:
        stem, ext = os.path.splitext(args.out)
        write_volume(result.axial, f"{stem}.axial{ext}")
        write_volume(result.coronal, f"{stem}.coronal{ext}")
        write_volume(result.sagittal, f"{stem}.sagittal{ext}")
    _write_resolved("translate", resolved, f"{args.out}.config.json")
    return 0


def _cmd_reconstruct(args) -> int:
    from .model import load_checkpoint, value_space
    from .pipeline import reconstruct_cubes
    from .volume import normalize, read_volume, write_volume

    resolved = _resolve(args, {"ckpt": None, "ct": None, "out": None,
                               "edge": 64, "seed": 0})
    resolved.update({"ckpt": args.ckpt, "ct": args.ct, "out": args.out})
    ckpt = load_checkpoint(resolved["ckpt"])
    volume = normalize(read_volume(resolved["ct"]), value_space(ckpt))
    out = reconstruct_cubes(ckpt, volume, edge=resolved["edge"])
    write_volume(out, args.out)
    _write_resolved("reconstruct", resolved, f"{args.out}.config.json")
    return 0


def _cmd_evaluate(args) -> int:
    from .evaluation import (BONE_THRESHOLD_HU, body_contour, evaluate_case,
                             save_difference_maps, write_report_csv)
    from .volume import read_volume

    resolved = _resolve(args, {"pred": None, "gt": None, "out": None,
                               "case_id": None, "bone_hu": BONE_THRESHOLD_HU,
                               "diff_dir": None, "diff_cap": 200.0, "seed": 0})
    resolved.update({"pred": args.pred, "gt": args.gt, "out": args.out})
    if resolved["case_id"] is None:
        resolved["case_id"] = os.path.splitext(os.path.basename(args.pred))[0]
    pred = read_volume(resolved["pred"])
    gt = read_volume(resolved["gt"])
    rows = evaluate_case(pred, gt, case_id=resolved["case_id"],
                         bone_threshold_hu=resolved["bone_hu"])
    write_report_csv(rows, args.out)
    if resolved["diff_dir"]:
        save_difference_maps(pred, gt, body_contour(gt),
                             resolved["diff_dir"], cap=resolved["diff_cap"])
    _write_resolved("evaluate", resolved, f"{args.out}.config.json")
    return 0


def _cmd_stats(args) -> int:
    from .evaluation import compare_reports, read_report_csv

    resolved = _resolve(args, {"report_a": None, "report_b": None, "metric": None,
                               "region": None, "out": None, "label_a": "A",
                               "label_b": "B", "alpha": 0.05, "seed": 0})
    resolved.update({"report_a": args.report_a, "report_b": args.report_b,
                     "metric": args.metric, "region": args.region, "out": args.out})
    result = compare_reports(
        read_report_csv(resolved["report_a"]), read_report_csv(resolved["report_b"]),
        resolved["metric"], resolved["region"],
        label_a=resolved["label_a"], label_b=resolved["label_b"],
        alpha=resolved["alpha"])
    with open(args.out, "w") as fh:
        json.dump(result, fh, separators=(",", ":"))
        fh.write("\n")
    _write_resolved("stats", resolved, f"{args.out}.config.json")
    print(json.dumps(result, separators=(",", ":")))
    return 0


def _cmd_select(args) -> int:
    from .model import load_checkpoint
    from .training import select_checkpoint
    from .volume import read_volume

    resolved = _resolve(args, {"candidates": None, "volumes": None, "out": None,
                               "cube_edge": 64, "seed": 0})
    resolved.update({"candidates": list(args.candidates),
                     "volumes": list(args.volumes), "out": args.out})
    candidates = [load_checkpoint(p) for p in resolved["candidates"]]
    volumes = [read_volume(p) for p in resolved["volumes"]]
    best = select_checkpoint(candidates, volumes, cube_edge=resolved["cube_edge"])
    index = next(i for i, c in enumerate(candidates) if c is best)
    shutil.copyfile(resolved["candidates"][index], args.out)
    record = {"selected_index": index,
              "selected_path": resolved["candidates"][index]}
    with open(f"{args.out}.selection.json", "w") as fh:
        json.dump(record, fh, separators=(",", ":"))
        fh.write("\n")
    _write_resolved("select", resolved, f"{args.out}.config.json")
    print(json.dumps(record, separators=(",", ":")))
    return 0


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
            if args.threads < 1:
                raise UsageError(f"--threads must be >= 1, got {args.threads}")
            for var in _THREAD_ENV_VARS:
                os.environ[var] = str(args.threads)
        return _HANDLERS[args.command](args)
    except (UsageError, DomainError, ShapeError, FormatError, TrainingError) as exc:
        print(f"vqsct: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"vqsct: i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
