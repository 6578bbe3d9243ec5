"""Mutated ``.vqck``, ``.mvol`` and report CSV files: load, or raise a VqsctError.

Each valid file is mutated once: a byte flip, a truncation, a report cell
set to other text, or one header field set to a value of a JSON type the
field does not take (or to arrays nested too deep to parse). A flipped
digit or a cut-off report row can spell another valid file, so those
mutations must load or raise a VqsctError. A header field of the wrong
type never can, so the file must load equal to the original (the reader
ignored nothing it should check) or raise a VqsctError. Any other
exception fails the test.
"""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vqsct.errors import VqsctError
from vqsct.evaluation import read_report_csv, write_report_csv
from vqsct.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from vqsct.volume import Volume, read_volume, write_volume

_CONFIG = ModelConfig(depth=1, base_channels=1, codebook_size=2, codebook_dim=1)

# header field -> the JSON types it takes ("number" is integer or float)
_FIELDS = {
    "vqck": {
        **{("config", name): "integer" for name in asdict(_CONFIG)},
        ("provenance",): "string",
        ("step",): "integer",
        ("codebooks",): "array",
        ("codebooks", 0): "object",
        ("codebooks", 0, "initialized"): "boolean",
        ("codebooks", 0, "usage_age"): "array",
        ("codebooks", 0, "usage_age", 0): "integer",
        ("manifest",): "array",
    },
    "mvol": {
        ("dims",): "array",
        ("dims", 0): "integer",
        ("spacing_mm",): "array",
        ("spacing_mm", 0): "number",
        ("intensity_space",): "string",
        ("meta",): "object",
    },
}

_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(),
    "float": st.floats(),
    "string": st.text(max_size=8),
    "array": st.lists(_SCALARS, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3),
}
_TAKES = {"number": ("integer", "float")}

_LOADERS = {"vqck": load_checkpoint, "mvol": read_volume, "csv": read_report_csv}
_NEST_LIMIT = 100_000


def _valid_files(root):
    ckpt = build_model(_CONFIG)
    ckpt.step = 5
    ckpt.provenance = "finetuned"
    ckpt.codebooks[0].usage_age = np.array([2, 0], dtype=np.int64)
    save_checkpoint(ckpt, root / "valid.vqck")
    rng = np.random.default_rng(0)
    write_volume(Volume(rng.uniform(-1000, 1000, (3, 2, 2)), (1.5, 1.5, 2.0), "HU",
                        {"note": "x"}), root / "valid.mvol")
    write_report_csv([{"case_id": f"c{i}", "region": region, "metric": metric,
                       "value": 10.0 * i + 0.25}
                      for i in range(2) for region in ("whole", "bone")
                      for metric in ("mae", "dsc")], root / "valid.csv")
    return {fmt: (root / f"valid.{fmt}").read_bytes() for fmt in _LOADERS}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    blobs = _valid_files(root)
    return root, blobs, {fmt: _LOADERS[fmt](root / f"valid.{fmt}") for fmt in _LOADERS}


def _load_or_none(fmt, root, blob):
    """The loaded file, or None when the reader raised a VqsctError."""
    path = root / f"mutated.{fmt}"
    path.write_bytes(blob)
    try:
        return _LOADERS[fmt](path)
    except VqsctError:
        return None


def _book(cb):
    return (cb.initialized, cb.usage_age.tolist(), cb.codes.tolist(),
            cb.ema_embed_sum.tolist(), cb.ema_cluster_size.tolist())


def _same(fmt, a, b) -> bool:
    if fmt == "csv":
        return a == b
    if fmt == "mvol":
        return ((a.spacing_mm, a.intensity_space, a.meta)
                == (b.spacing_mm, b.intensity_space, b.meta)
                and np.array_equal(a.voxels, b.voxels))
    return ((a.config, a.step, a.provenance) == (b.config, b.step, b.provenance)
            and [_book(cb) for cb in a.codebooks] == [_book(cb) for cb in b.codebooks]
            and a.params.keys() == b.params.keys()
            and all(np.array_equal(a.params[k], b.params[k]) for k in a.params))


def _with_field(blob, path, text) -> bytes:
    """A binary file whose JSON header has ``path`` set to raw JSON ``text``."""
    (n,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + n])
    node = header
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@FIELD@"
    raw = json.dumps(header, separators=(",", ":")).replace('"@FIELD@"', text).encode()
    return blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + n:]


@st.composite
def _field_mutations(draw):
    fmt = draw(st.sampled_from(sorted(_FIELDS)))
    path = draw(st.sampled_from(sorted(_FIELDS[fmt], key=repr)))
    if draw(st.booleans()):
        depth = draw(st.sampled_from([2, 500, 5000, _NEST_LIMIT]))
        return fmt, path, "[" * depth + "]" * depth
    takes = _TAKES.get(_FIELDS[fmt][path], (_FIELDS[fmt][path],))
    kind = draw(st.sampled_from([t for t in sorted(_VALUES) if t not in takes]))
    return fmt, path, json.dumps(draw(_VALUES[kind]))


@given(_field_mutations())
@example(("vqck", ("config", "codebook_size"), "8.0"))
@example(("vqck", ("config", "seed"), '"x"'))
@example(("vqck", ("step",), '"7"'))
@example(("vqck", ("step",), "7.9"))
@example(("vqck", ("step",), "-3"))
@example(("vqck", ("codebooks", 0, "usage_age", 0), "1.7"))
@example(("vqck", ("manifest",), "[" * _NEST_LIMIT + "]" * _NEST_LIMIT))
@example(("mvol", ("meta",), "[" * _NEST_LIMIT + "]" * _NEST_LIMIT))
@settings(max_examples=150, deadline=None)
def test_header_field_of_another_type_loads_equal_or_raises(files, mutation):
    root, blobs, valid = files
    fmt, path, text = mutation
    loaded = _load_or_none(fmt, root, _with_field(blobs[fmt], path, text))
    assert loaded is None or _same(fmt, loaded, valid[fmt])


@st.composite
def _byte_mutations(draw):
    fmt = draw(st.sampled_from(sorted(_LOADERS)))
    kind = draw(st.sampled_from(["flip", "truncate", "cell"] if fmt == "csv"
                                else ["flip", "truncate"]))
    if kind == "flip":
        return fmt, kind, draw(st.integers(0, 10**6)), draw(st.integers(1, 255))
    if kind == "truncate":
        return fmt, kind, draw(st.integers(0, 10**6)), None
    return fmt, kind, draw(st.integers(0, 8)), draw(st.integers(0, 3)), draw(st.text())


def _mutate_bytes(blob, mutation) -> bytes:
    kind = mutation[1]
    if kind == "flip":
        pos = mutation[2] % len(blob)
        return blob[:pos] + bytes([blob[pos] ^ mutation[3]]) + blob[pos + 1:]
    if kind == "truncate":
        return blob[:mutation[2] % len(blob)]
    _, _, row, col, text = mutation
    lines = blob.decode().split("\r\n")
    cells = lines[row].split(",")
    cells[col] = text
    lines[row] = ",".join(cells)
    return "\r\n".join(lines).encode()


@given(_byte_mutations())
@example(("csv", "flip", 40, 0x80))  # a byte that is not UTF-8
@example(("csv", "cell", 1, 0, "c" * 131_073))  # past the csv module's field limit
@example(("csv", "flip", 28, 0x0A))  # a NUL byte
@settings(max_examples=300, deadline=None)
def test_flipped_truncated_or_edited_file_loads_or_raises(files, mutation):
    root, blobs, _ = files
    _load_or_none(mutation[0], root, _mutate_bytes(blobs[mutation[0]], mutation))
