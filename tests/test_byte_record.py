"""Every file of the byte record's sequence matches the committed record at any thread count."""

import os

import pytest

import byte_record
from vqsct import cli


@pytest.mark.parametrize("threads", [1, 2])
def test_the_sequence_writes_the_recorded_bytes(tmp_path, monkeypatch, threads):
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip("--threads 2 needs two usable CPUs")
    for var in cli._THREAD_ENV_VARS:  # main sets them; restore them after the test
        monkeypatch.setenv(var, "1")
    recorded, recorded_build = byte_record.read_record()
    hashes = byte_record.run_sequence(tmp_path, threads)
    differing = sorted(path for path in recorded.keys() | hashes.keys()
                       if recorded.get(path) != hashes.get(path))
    assert not differing, (
        f"at --threads {threads}, {len(differing)} of {len(recorded)} files differ from "
        f"{os.path.basename(byte_record.RECORD)} (recorded on {recorded_build}; this run on "
        f"{byte_record.build()}): {differing}")
