"""The byte record: one fixed run of every vqsct command, and the sha256 of each file it writes.

A refactor must leave every artifact byte-identical, so the record is
committed (``tests/byte_record.sha256``) and a tier-1 test runs the sequence
at ``--threads`` 1 and 2 and compares both runs with it. A change that moves
bytes on purpose writes the record again and says so in CHANGES.md.

The sequence runs on smoke flags (depth 2, base 4, 8 codes of dimension 4,
4 steps of batch 4) in one directory, which is also the working directory,
so that every ``*.config.json`` holds relative paths:

- ``phantom`` of 3 cases at 40x36x32;
- rank-2 ``pretrain --pyramid-levels 2 --beta 0.25 --expire-age 1 --augment``
  on cases 0 and 1;
- ``finetune`` enc-frozen with ``--train-codebook --augment --expire-age 1``,
  no-frozen with ``--augment``, and scratch, on cases 0 and 1;
- ``translate`` of case 2 with ``--dump-planes`` (enc-frozen) and without
  (no-frozen);
- ``evaluate --diff-dir`` of the enc-frozen translation;
- rank-3 ``pretrain --augment --cube-edge 16``, and ``reconstruct --edge 16``;
- ``select`` over the rank-2 and rank-3 pretrains;
- ``stats`` of two five-case reports: the five translated volumes (the
  enc-frozen fusion and its three planes, the no-frozen fusion), each
  evaluated against case 2's CT and against case 0's.

The bytes depend on numpy's and the BLAS's float32 kernels, so the record
names the build it was taken on. Run as a script::

    PYTHONPATH=src python tests/byte_record.py [--threads N] [--write]

prints the record of one run, or with ``--write`` replaces the committed one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "byte_record.sha256")

_SMOKE = ["--depth", "2", "--base-channels", "4", "--codebook-size", "8",
          "--codebook-dim", "4"]
_TRAIN = ["--steps", "4", "--batch-size", "4", "--learning-rate", "1e-3"]
_PAIRS = ["--pet", "cases/case_000_pet.mvol", "cases/case_001_pet.mvol",
          "--ct", "cases/case_000_ct.mvol", "cases/case_001_ct.mvol"]
_HELD_OUT_CT = "cases/case_002_ct.mvol"
# the five translated volumes that stats pairs up, by case id
_PREDICTIONS = {"c0": "sct_enc.mvol", "c1": "sct_enc.axial.mvol",
                "c2": "sct_enc.coronal.mvol", "c3": "sct_enc.sagittal.mvol",
                "c4": "sct_nof.mvol"}

SEQUENCE = [
    ["phantom", "--out", "cases", "--cases", "3", "--dims", "40,36,32", "--seed", "7"],
    ["pretrain", "--volumes", "cases/case_000_ct.mvol", "cases/case_001_ct.mvol",
     "--out", "pre2.vqck", *_SMOKE, "--pyramid-levels", "2", *_TRAIN, "--beta", "0.25",
     "--expire-age", "1", "--augment", "--seed", "1"],
    ["finetune", "--base", "pre2.vqck", "--mode", "enc-frozen", *_PAIRS, "--out", "enc.vqck",
     *_TRAIN, "--train-codebook", "--augment", "--expire-age", "1", "--seed", "2"],
    ["finetune", "--base", "pre2.vqck", "--mode", "no-frozen", *_PAIRS, "--out", "nof.vqck",
     *_TRAIN, "--augment", "--seed", "3"],
    ["finetune", "--base", "pre2.vqck", "--mode", "scratch", *_PAIRS, "--out", "scr.vqck",
     *_TRAIN, "--seed", "4"],
    ["translate", "--ckpt", "enc.vqck", "--pet", "cases/case_002_pet.mvol",
     "--out", "sct_enc.mvol", "--dump-planes"],
    ["translate", "--ckpt", "nof.vqck", "--pet", "cases/case_002_pet.mvol",
     "--out", "sct_nof.mvol"],
    ["evaluate", "--pred", "sct_enc.mvol", "--gt", _HELD_OUT_CT, "--out", "eval.csv",
     "--diff-dir", "maps"],
    ["pretrain", "--volumes", "cases/case_000_ct.mvol", "cases/case_001_ct.mvol",
     "--out", "pre3.vqck", "--rank", "3", *_SMOKE, "--cube-edge", "16", *_TRAIN,
     "--augment", "--seed", "5"],
    ["reconstruct", "--ckpt", "pre3.vqck", "--ct", _HELD_OUT_CT, "--out", "recon.mvol",
     "--edge", "16"],
    ["select", "--candidates", "pre2.vqck", "pre3.vqck", "--volumes", _HELD_OUT_CT,
     "--out", "best.vqck", "--cube-edge", "16"],
    *(["evaluate", "--pred", pred, "--gt", gt, "--out", f"reports/{side}_{case}.csv",
       "--case-id", case]
      for side, gt in (("a", _HELD_OUT_CT), ("b", "cases/case_000_ct.mvol"))
      for case, pred in _PREDICTIONS.items()),
]


def build() -> str:
    """The numpy version and the BLAS it was built with."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        name = "unknown"
    return f"numpy {np.__version__}, BLAS {name}"


def _main_or_raise(argv) -> None:
    from vqsct.cli import main

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code:
        raise RuntimeError(f"vqsct {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def run_sequence(directory, threads: int) -> dict:
    """Run the sequence in ``directory``: ``{relative path: sha256}`` of each file it writes."""
    from vqsct.evaluation import read_report_csv, write_report_csv

    start = os.getcwd()
    os.chdir(directory)
    try:
        os.makedirs("reports")
        for argv in SEQUENCE:
            _main_or_raise(["--threads", str(threads), *argv])
        for side in "ab":
            rows = [row for case in _PREDICTIONS
                    for row in read_report_csv(f"reports/{side}_{case}.csv")]
            write_report_csv(rows, f"report_{side}.csv")
        _main_or_raise(["--threads", str(threads), "stats", "--report-a", "report_a.csv",
                        "--report-b", "report_b.csv", "--metric", "mae", "--region", "whole",
                        "--out", "stats.json"])
        hashes = {}
        for root, _, files in os.walk("."):
            for name in files:
                path = os.path.relpath(os.path.join(root, name))
                with open(path, "rb") as fh:
                    hashes[path] = hashlib.sha256(fh.read()).hexdigest()
    finally:
        os.chdir(start)
    return dict(sorted(hashes.items()))


def list_digest(hashes: dict) -> str:
    """One sha256 over the ``"<sha256>  <path>"`` lines of ``hashes``."""
    text = "".join(f"{digest}  {path}\n" for path, digest in hashes.items())
    return hashlib.sha256(text.encode()).hexdigest()


def format_record(hashes: dict, build_name: str) -> str:
    lines = [f"# build: {build_name}", f"# files: {len(hashes)}",
             f"# digest: {list_digest(hashes)}"]
    return "\n".join(lines + [f"{digest}  {path}" for path, digest in hashes.items()]) + "\n"


def read_record(path=RECORD) -> tuple[dict, str]:
    """``(hashes, build)`` of a record written by :func:`format_record`."""
    hashes, build_name = {}, None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# build: "):
                build_name = line[len("# build: "):]
            elif line and not line.startswith("#"):
                digest, name = line.split("  ", 1)
                hashes[name] = digest
    return hashes, build_name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--write", action="store_true",
                        help=f"replace {os.path.relpath(RECORD)} with this run's record")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        record = format_record(run_sequence(directory, args.threads), build())
    if args.write:
        with open(RECORD, "w") as fh:
            fh.write(record)
    sys.stdout.write(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
