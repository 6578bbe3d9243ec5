"""The file layer: atomic writes, the framed container, JSON records."""

import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from vqsct import atomic
from vqsct.atomic import read_framed, write_framed, write_json
from vqsct.errors import FormatError
from vqsct.evaluation import write_ppm, write_report_csv
from vqsct.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from vqsct.volume import Volume, read_volume, write_volume


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
    "config": lambda path, v: write_json(path, {"command": "phantom", "seed": v}),
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


def test_no_vqsct_module_loads_hashlib():
    # in a fresh interpreter: the secrets module, for one, loads hashlib and
    # OpenSSL (about 3.6 MB of RSS in every command) for its token_hex
    code = ("import sys, vqsct\n"
            "for name in vqsct._SUBMODULES: getattr(vqsct, name)\n"
            "print(*sorted({'hashlib', '_hashlib', 'hmac', 'secrets'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_atomic_open_keeps_the_permissions_open_gives(tmp_path):
    with open(tmp_path / "plain", "w") as fh:
        fh.write("x")
    with atomic.atomic_open(tmp_path / "atomic") as fh:
        fh.write("x")
    assert os.stat(tmp_path / "atomic").st_mode == os.stat(tmp_path / "plain").st_mode


# ---------------------------------------------------------------------------
# The framed container shared by .mvol and .vqck
# ---------------------------------------------------------------------------

def _frame(magic, header_bytes, payload=b""):
    return magic + struct.pack("<I", len(header_bytes)) + header_bytes + payload


def _compact(value):
    return json.dumps(value, separators=(",", ":")).encode()


_READERS = {"volume": (read_volume, b"MVOL0001", "MVOL"),
            "checkpoint": (load_checkpoint, b"VQCK0001", "VQCK")}

# each case: valid file bytes and their magic -> bytes with one framing fault
_FRAMING_FAULTS = {
    "bad-magic": lambda blob, magic: b"XXXX0001" + blob[8:],
    "shorter-than-magic-and-length": lambda blob, magic: blob[:11],
    "header-length-past-end": lambda blob, magic: (
        magic + struct.pack("<I", len(blob)) + blob[12:]),
    "header-not-utf8": lambda blob, magic: _frame(magic, b'{"a":"\xff"}'),
    "invalid-json": lambda blob, magic: _frame(magic, b"{nope"),
    "nested-past-recursion-limit": lambda blob, magic: _frame(
        magic, b"[" * 100_000 + b"]" * 100_000),
    "header-not-an-object": lambda blob, magic: _frame(magic, b"[1,2]"),
}


def _valid_blob(kind, path):
    if kind == "volume":
        write_volume(Volume(np.ones((2, 3, 4))), path)
    else:
        _checkpoint(path, 0)
    return path.read_bytes()


@pytest.mark.parametrize("fault", sorted(_FRAMING_FAULTS))
@pytest.mark.parametrize("kind", sorted(_READERS))
def test_framing_fault_raises_one_format_error_naming_the_path(tmp_path, kind, fault):
    read, magic, name = _READERS[kind]
    bad = tmp_path / "bad"
    bad.write_bytes(_FRAMING_FAULTS[fault](_valid_blob(kind, tmp_path / "valid"), magic))
    with pytest.raises(FormatError) as info:
        read(bad)
    message = str(info.value)
    assert message.startswith(f"{bad}: ") and "\n" not in message
    if fault == "bad-magic":
        assert name in message


def test_volume_bytes_are_the_explicit_frame(tmp_path):
    vol = Volume(np.arange(60.0).reshape(3, 4, 5) - 20.0, (1.5, 2.0, 0.5), "HU", {"case": "a"})
    write_volume(vol, tmp_path / "v.mvol")
    header = {"dims": [3, 4, 5], "spacing_mm": [1.5, 2.0, 0.5],
              "intensity_space": "HU", "meta": {"case": "a"}}
    assert (tmp_path / "v.mvol").read_bytes() == _frame(
        b"MVOL0001", _compact(header), vol.voxels.astype("<f4").ravel(order="F").tobytes())


def test_checkpoint_bytes_are_the_explicit_frame(tmp_path):
    ckpt = build_model(ModelConfig(depth=2, base_channels=2, codebook_size=4,
                                   codebook_dim=3, pyramid_levels=2))
    ckpt.step, ckpt.provenance = 3, "finetuned"
    save_checkpoint(ckpt, tmp_path / "m.vqck")
    blocks = [(name, ckpt.params[name]) for name in sorted(ckpt.params)]
    for j, cb in enumerate(ckpt.codebooks):
        blocks += [(f"codebook{j}.codes", cb.codes),
                   (f"codebook{j}.ema_embed_sum", cb.ema_embed_sum),
                   (f"codebook{j}.ema_cluster_size", cb.ema_cluster_size)]
    offsets = np.cumsum([0] + [4 * a.size for _, a in blocks]).tolist()
    header = {"config": asdict(ckpt.config), "provenance": "finetuned", "step": 3,
              "codebooks": [{"initialized": cb.initialized, "usage_age": cb.usage_age.tolist()}
                            for cb in ckpt.codebooks],
              "manifest": [{"name": name, "shape": list(a.shape), "offset": offset}
                           for (name, a), offset in zip(blocks, offsets)]}
    payload = b"".join(a.astype("<f4").tobytes() for _, a in blocks)
    assert (tmp_path / "m.vqck").read_bytes() == _frame(b"VQCK0001", _compact(header), payload)


def test_read_framed_returns_a_view_of_the_payload(tmp_path):
    path = tmp_path / "f"
    write_framed(path, b"TEST0001", {"n": 2}, [b"ab", b"", b"cd"])
    assert path.read_bytes() == _frame(b"TEST0001", b'{"n":2}', b"abcd")
    header, payload = read_framed(path, b"TEST0001", "a test file")
    assert header == {"n": 2}
    assert isinstance(payload, memoryview) and payload.tobytes() == b"abcd"


def test_write_json_writes_and_returns_one_compact_line(tmp_path):
    value = {"b": [1, 2.5, None], "a": "x\u00e9", "t": True}
    text = write_json(tmp_path / "r.json", value)
    assert text == json.dumps(value, separators=(",", ":"))
    assert (tmp_path / "r.json").read_text() == text + "\n"


@pytest.mark.parametrize("kind", ["checkpoint", "volume", "json"])
def test_a_write_into_a_missing_directory_names_its_target(tmp_path, kind):
    target = str(tmp_path / "missing" / "out")
    write = {"checkpoint": lambda: save_checkpoint(build_model(ModelConfig(depth=1)), target),
             "volume": lambda: write_volume(Volume(np.zeros((2, 2, 2), np.float32)), target),
             "json": lambda: write_json(target, {})}[kind]
    with pytest.raises(FileNotFoundError) as caught:
        write()
    assert caught.value.filename == target
    assert str(caught.value) == f"[Errno 2] No such file or directory: {target!r}"


@pytest.mark.parametrize("kind", ["checkpoint", "volume", "json"])
def test_a_failed_replace_names_its_target_and_leaves_no_temporary_file(tmp_path, kind):
    target = tmp_path / "out"
    (target / "inside").mkdir(parents=True)  # os.replace cannot move a file over it
    write = {"checkpoint": lambda: save_checkpoint(build_model(ModelConfig(depth=1)), target),
             "volume": lambda: write_volume(Volume(np.zeros((2, 2, 2), np.float32)), target),
             "json": lambda: write_json(target, {})}[kind]
    with pytest.raises(IsADirectoryError) as caught:
        write()
    assert caught.value.filename == str(target) and caught.value.filename2 is None
    assert str(caught.value) == f"[Errno 21] Is a directory: {str(target)!r}"
    assert sorted(os.listdir(tmp_path)) == ["out"] and os.listdir(target) == ["inside"]
