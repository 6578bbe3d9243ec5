"""Atomic writes: a writer that fails midway leaves the old file or none."""

import os

import numpy as np
import pytest

from vqsct import atomic
from vqsct.cli import _write_resolved
from vqsct.evaluation import write_ppm, write_report_csv
from vqsct.model import ModelConfig, build_model, save_checkpoint
from vqsct.volume import Volume, write_volume


class _DiskFull:
    """A file whose writes fail once ``budget`` bytes or characters are in."""

    def __init__(self, fh, budget):
        self._fh = fh
        self._budget = budget

    def write(self, data):
        if len(data) > self._budget:
            self._fh.write(data[:self._budget])
            self._fh.flush()
            raise OSError(28, "No space left on device")
        self._budget -= len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _checkpoint(path, variant):
    save_checkpoint(build_model(ModelConfig(spatial_rank=2, depth=2, base_channels=4,
                                            codebook_size=8, codebook_dim=6,
                                            pyramid_levels=1, seed=variant)), path)


# one writer per kind of artifact; variants 0 and 1 give different bytes
_WRITERS = {
    "volume": lambda path, v: write_volume(Volume(np.full((4, 3, 2), float(v))), path),
    "checkpoint": _checkpoint,
    "report": lambda path, v: write_report_csv(
        [{"case_id": "c0", "region": "whole", "metric": "mae", "value": float(v)}], path),
    "ppm": lambda path, v: write_ppm(np.full((5, 4, 3), v, dtype=np.uint8), path),
    "config": lambda path, v: _write_resolved("phantom", {"seed": v}, path),
}


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_failed_write_leaves_old_file_or_none(tmp_path, monkeypatch, kind):
    write = _WRITERS[kind]
    path = tmp_path / "artifact"

    def fail_midway(monkeypatch):
        monkeypatch.setattr(atomic, "open", lambda fd, *a, **k: _DiskFull(open(fd, *a, **k), 9),
                            raising=False)

    with monkeypatch.context() as m:
        fail_midway(m)
        with pytest.raises(OSError):
            write(path, 0)
    assert os.listdir(tmp_path) == []  # no file, and no temporary left behind

    write(path, 0)
    old = path.read_bytes()
    with monkeypatch.context() as m:
        fail_midway(m)
        with pytest.raises(OSError):
            write(path, 1)
    assert os.listdir(tmp_path) == ["artifact"]
    assert path.read_bytes() == old

    write(path, 1)
    assert os.listdir(tmp_path) == ["artifact"]
    assert path.read_bytes() != old


def test_atomic_open_keeps_the_permissions_open_gives(tmp_path):
    with open(tmp_path / "plain", "w") as fh:
        fh.write("x")
    with atomic.atomic_open(tmp_path / "atomic") as fh:
        fh.write("x")
    assert os.stat(tmp_path / "atomic").st_mode == os.stat(tmp_path / "plain").st_mode
