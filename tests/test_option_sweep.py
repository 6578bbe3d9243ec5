"""Every numeric option of every command at the edge values: one line and exit 1, or in range.

Each case runs ``cli.main`` in-process with every input missing (``phantom
--out`` lies under a regular file), so an option in range gets no further
than the exit-2 i/o error, and one out of range must exit 1 with one line
before any volume is read or any pool starts. The same value from a
``--config`` file meets the same rule. A few cases per command also run as
a subprocess under an address-space limit and a timeout.
"""

import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from vqsct import cli, volume, workers

_BIG = str(2 ** 40)
_HUGE = str(10 ** 20)
EDGE_VALUES = ["0", "-1", "1e300", _BIG, _HUGE, "nan", "inf", "-inf", "1e-300", "x", ""]

_NON_NEGATIVE_INTS = {"0", _BIG, _HUGE}
_POSITIVE_INTS = {_BIG, _HUGE}
_POSITIVE_FINITE = {"1e300", _BIG, _HUGE, "1e-300"}
_NON_NEGATIVE_FINITE = _POSITIVE_FINITE | {"0"}
_TRAIN = {"--steps": _NON_NEGATIVE_INTS, "--batch-size": _POSITIVE_INTS,
          "--learning-rate": _POSITIVE_FINITE, "--beta": _NON_NEGATIVE_FINITE,
          "--expire-age": _POSITIVE_INTS, "--decay": {"1e-300"},
          "--weight-decay": _NON_NEGATIVE_FINITE, "--seed": _NON_NEGATIVE_INTS}

# The edge values each numeric option accepts, by command; "--threads" is
# the global flag, given before the command. None of the edge values is a
# usable thread count, every model option at 2^40 or above makes a block
# over the voxel limit, and a depth of 2^40 or above pads past every slice
# of a grid within it.
ACCEPTED = {
    "phantom": {"--cases": _POSITIVE_INTS, "--dims": set(), "--spacing": _POSITIVE_FINITE,
                "--seed": _NON_NEGATIVE_INTS},
    "pretrain": {"--cube-edge": {"0", "-1", _BIG, _HUGE},  # rank 2 cuts no cubes
                 "--rank": set(), "--depth": set(), "--base-channels": set(),
                 "--codebook-size": set(), "--codebook-dim": set(),
                 "--pyramid-levels": set(), **_TRAIN},
    "finetune": _TRAIN,
    "translate": {},
    "reconstruct": {"--edge": set()},
    "evaluate": {"--bone-hu": _NON_NEGATIVE_FINITE | {"-1"}, "--diff-cap": _POSITIVE_FINITE},
    "stats": {"--alpha": {"1e-300"}},
    "select": {"--cube-edge": set()},
}
CASES = [(command, flag, value)
         for command, options in ACCEPTED.items()
         for flag in ["--threads", *options]
         for value in EDGE_VALUES]


def required(command, work) -> list:
    """``command`` with its required flags, every input a missing file under ``work``."""
    missing = os.path.join(work, "missing")
    out = os.path.join(work, "out")
    return {
        "phantom": ["phantom", "--out", os.path.join(work, "file", "cases")],
        "pretrain": ["pretrain", "--volumes", missing, "--out", out],
        "finetune": ["finetune", "--base", missing, "--mode", "no-frozen", "--pet", missing,
                     "--ct", missing, "--out", out],
        "translate": ["translate", "--ckpt", missing, "--pet", missing, "--out", out],
        "reconstruct": ["reconstruct", "--ckpt", missing, "--ct", missing, "--out", out],
        "evaluate": ["evaluate", "--pred", missing, "--gt", missing, "--out", out],
        "stats": ["stats", "--report-a", missing, "--report-b", missing, "--metric", "mae",
                  "--region", "whole", "--out", out],
        "select": ["select", "--candidates", missing, "--volumes", missing, "--out", out],
    }[command]


def argv(command, flag, value, work) -> list:
    """The case's command line: ``--dims`` and ``--spacing`` take the value thrice."""
    if flag in ("--dims", "--spacing"):
        value = ",".join([value] * 3)
    option = [f"{flag}={value}"]
    if flag == "--threads":
        return [*option, *required(command, work)]
    return ["--threads=1", *required(command, work), *option]


def _work(tmp_path):
    (tmp_path / "file").write_text("a regular file, so phantom cannot make its --out\n")
    return str(tmp_path)


@pytest.fixture
def guarded(monkeypatch):
    """Volume reads, recorded; a worker pool fails the test; the thread variables restored."""
    reads = []
    read_volume = volume.read_volume

    def recorded(path, *args, **kwargs):
        reads.append(path)
        return read_volume(path, *args, **kwargs)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(volume, "read_volume", recorded)
    monkeypatch.setattr(workers, "Pool", no_pool)
    for var in cli._THREAD_ENV_VARS:
        monkeypatch.setenv(var, "1")
    return reads


def test_the_table_holds_every_numeric_option_of_every_command():
    parser = cli.build_parser()
    numeric = {name: {a.option_strings[0] for a in p._actions if a.type in (int, float)}
               for name, p in parser.commands.items()}
    numeric["phantom"] |= {"--dims", "--spacing"}  # numeric triples, parsed from text
    assert numeric == {command: set(options) for command, options in ACCEPTED.items()}


def _run(args) -> tuple:
    """``cli.main(args)``'s exit code and stderr lines."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = cli.main(args)
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("command,flag,value", CASES)
def test_each_value_exits_1_with_one_line_or_reaches_the_missing_input(
        tmp_path, guarded, command, flag, value):
    work = _work(tmp_path)
    code, lines = _run(argv(command, flag, value, work))
    if value in ACCEPTED[command].get(flag, ()):
        assert code == 2 and len(lines) == 1 and lines[0].startswith("vqsct: i/o error:"), lines
    else:
        assert code == 1 and len(lines) == 1 and lines[0].startswith("vqsct: error:"), lines
        assert guarded == []
    assert sorted(os.listdir(work)) == ["file"]


def _config_value(command, flag, value):
    """The case's value as a ``--config`` file holds it, or None where the flag's type fails."""
    action = next(a for a in cli.build_parser().commands[command]._actions
                  if flag in a.option_strings)
    if action.type is None:  # --dims and --spacing, checked as text
        return ",".join([value] * 3)
    try:
        return action.type(value)
    except ValueError:
        return None


_CONFIG_CASES = [(command, flag, value) for command, flag, value in CASES
                 if flag != "--threads" and value not in ACCEPTED[command][flag]
                 and _config_value(command, flag, value) is not None]


@pytest.mark.parametrize("command,flag,value", _CONFIG_CASES)
def test_a_config_value_out_of_range_meets_the_rule_of_its_flag(tmp_path, guarded, command,
                                                               flag, value):
    work = _work(tmp_path)
    config = tmp_path / "config.json"
    dest = flag[2:].replace("-", "_")
    config.write_text(json.dumps({dest: _config_value(command, flag, value)}))
    by_flag = _run(argv(command, flag, value, work))
    by_config = _run(["--threads=1", *required(command, work), "--config", str(config)])
    assert by_config == by_flag and by_flag[0] == 1, (by_flag, by_config)
    assert guarded == []


def _limit_address_space():
    limit = 3 * 1024 ** 3
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("command,flag,value", [
    ("phantom", "--cases", _BIG), ("pretrain", "--steps", _BIG),
    ("finetune", "--batch-size", _HUGE), ("translate", "--threads", "-1"),
    ("reconstruct", "--edge", _BIG), ("evaluate", "--bone-hu", "-inf"),
    ("stats", "--alpha", "nan"), ("select", "--cube-edge", _HUGE)])
def test_a_command_process_ends_with_one_line_and_no_traceback(tmp_path, command, flag,
                                                               value):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "vqsct.cli",
                           *argv(command, flag, value, _work(tmp_path))],
                          capture_output=True, env=env, text=True, timeout=20,
                          preexec_fn=_limit_address_space)
    assert proc.returncode in (0, 1, 2)
    assert proc.stderr.count("\n") <= 1 and "Traceback" not in proc.stderr, proc.stderr
    expected = 2 if value in ACCEPTED[command].get(flag, ()) else 1
    assert proc.returncode == expected, proc.stderr


@pytest.mark.parametrize("command,flag,value,line", [
    ("pretrain", "--rank", 4, "spatial_rank must be 2 or 3, got 4"),
    ("finetune", "--mode", "frozen",
     "mode must be one of ('scratch', 'no-frozen', 'enc-frozen'), got 'frozen'"),
    ("stats", "--metric", "rmse", "metric must be one of ('mae', 'psnr', 'ssim', 'dsc'), "
     "got 'rmse'"),
    ("stats", "--region", "lung", "region must be one of ('whole', 'soft', 'bone'), got 'lung'")])
def test_a_choice_out_of_its_set_exits_1_with_the_library_line(tmp_path, guarded, command,
                                                               flag, value, line):
    # the rule calls the library's check, which a --config value meets too;
    # the other three are required flags, so only --rank can come from a config
    work = _work(tmp_path)
    assert _run([*required(command, work), f"{flag}={value}"]) == (1, [f"vqsct: error: {line}"])
    if flag == "--rank":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rank": value}))
        assert _run([*required(command, work), "--config", str(config)]) == (
            1, [f"vqsct: error: {line}"])
    assert guarded == []
