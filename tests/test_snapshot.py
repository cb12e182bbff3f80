"""The binary snapshot container: a bit-exact round trip, one rejected
file per way the container and its sidecar can disagree, and fuzzed
headers and sidecars that raise nothing but ValueError."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pnpf.grid import GridSpec
from pnpf.snapshot import SnapshotFormatError, read_checkpoint, read_snapshot, write_snapshot


@pytest.fixture
def written(tmp_path):
    grid = GridSpec(dim=2, n=8, length=2 * np.pi)
    gen = np.random.Generator(np.random.Philox(key=5))
    fields = {"a": gen.standard_normal(grid.shape), "b": gen.standard_normal(grid.shape)}
    path = tmp_path / "x.snap"
    write_snapshot(path, grid, fields)
    return grid, fields, path


def edit_sidecar(path, **changes):
    side = path.with_suffix(path.suffix + ".json")
    doc = json.loads(side.read_text())
    doc.update(changes)
    side.write_text(json.dumps(doc))


def test_round_trip_is_bit_exact(written):
    grid, fields, path = written
    got_grid, got = read_snapshot(path)
    assert got_grid == grid
    assert list(got) == list(fields)
    for name, vals in fields.items():
        assert got[name].tobytes() == vals.tobytes()


def test_checkpoint_without_the_primitive_fields_rejected(tmp_path):
    grid = GridSpec(dim=1, n=8, length=1.0)
    write_snapshot(tmp_path / "final.snap", grid, {"n": np.ones(grid.shape)})
    (tmp_path / "final.meta.json").write_text("{}")
    with pytest.raises(SnapshotFormatError, match=r"\['p', 'theta', 'phi'\]"):
        read_checkpoint(tmp_path / "final")


def test_rejected_write_leaves_the_previous_snapshot(tmp_path):
    # a field of the wrong shape is rejected before the file is opened: the
    # snapshot already on disk keeps its bytes and still reads back
    grid = GridSpec(dim=3, n=8, length=2 * np.pi)
    path = tmp_path / "x.snap"
    n = np.random.Generator(np.random.Philox(key=9)).standard_normal(grid.shape)
    write_snapshot(path, grid, {"n": n})
    side = path.with_suffix(".snap.json")
    before = path.read_bytes(), side.read_bytes()
    with pytest.raises(SnapshotFormatError, match="'p'"):
        write_snapshot(path, grid, {"n": np.ones(grid.shape), "p": np.ones((4, 4, 4))})
    assert (path.read_bytes(), side.read_bytes()) == before
    got_grid, got = read_snapshot(path)
    assert got_grid == grid and list(got) == ["n"]
    assert got["n"].tobytes() == n.tobytes()


def test_trailing_bytes_rejected(written):
    _, _, path = written
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(SnapshotFormatError, match="trailing bytes"):
        read_snapshot(path)


def test_truncated_field_rejected(written):
    _, _, path = written
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(SnapshotFormatError, match="truncated data"):
        read_snapshot(path)


@pytest.mark.parametrize("key, value", [
    ("format", "something-else"),
    ("version", 2),
    ("length", 1.0),
    ("n", 16),
    ("dim", 3),
])
def test_sidecar_disagreeing_with_header_rejected(written, key, value):
    _, _, path = written
    edit_sidecar(path, **{key: value})
    with pytest.raises(SnapshotFormatError, match=key):
        read_snapshot(path)


# -- fuzzing: a malformed file raises ValueError and nothing else ----------------

SIDECAR_KEYS = ["format", "version", "fields", "dim", "n", "length"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
header_edits = (
    st.tuples(st.just("byte"), st.integers(0, 63), st.integers(0, 255))
    # dim, n or length replaced by any double, non-finite ones included
    | st.tuples(st.just("slot"), st.integers(0, 2), st.floats())
)
sidecar_edits = (
    st.tuples(st.just("replace"), st.none(), json_values)
    | st.tuples(st.just("set"), st.sampled_from(SIDECAR_KEYS), json_values)
    | st.tuples(st.just("drop"), st.sampled_from(SIDECAR_KEYS), st.none())
    # the sidecar's raw text, JSON or not
    | st.tuples(st.just("text"), st.none(), st.text(alphabet='[]{}",:0a ', max_size=12))
)


def read_mutated(header_edit=None, sidecar_edit=None):
    """Write a valid snapshot, apply one edit, and read it back; only a
    ValueError may escape."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.snap"
        grid = GridSpec(dim=2, n=8, length=2 * np.pi)
        write_snapshot(path, grid, {"a": np.ones(grid.shape), "b": np.zeros(grid.shape)})
        if header_edit is not None:
            kind, where, value = header_edit
            data = bytearray(path.read_bytes())
            if kind == "byte":
                data[where] = value
            else:
                data[8 + 8 * where:16 + 8 * where] = struct.pack("<d", value)
            path.write_bytes(bytes(data))
        if sidecar_edit is not None:
            kind, key, value = sidecar_edit
            side = path.with_suffix(".snap.json")
            doc = json.loads(side.read_text())
            if kind == "replace":
                doc = value
            elif kind == "set":
                doc[key] = value
            elif kind == "drop":
                del doc[key]
            side.write_text(value if kind == "text" else json.dumps(doc))
        try:
            read_snapshot(path)
        except ValueError:
            pass


@given(edit=header_edits)
@example(edit=("slot", 0, float("inf")))
@example(edit=("slot", 1, float("nan")))
@settings(max_examples=80, deadline=None)
def test_fuzzed_header_raises_only_value_error(edit):
    read_mutated(header_edit=edit)


@given(edit=sidecar_edits)
@example(edit=("replace", None, []))
@example(edit=("drop", "fields", None))
@example(edit=("set", "fields", 3))
@example(edit=("set", "fields", [["a"]]))
# nested too deeply for the JSON decoder, which raises RecursionError
@example(edit=("text", None, "[" * 100_000))
@settings(max_examples=80, deadline=None)
def test_fuzzed_sidecar_raises_only_value_error(edit):
    read_mutated(sidecar_edit=edit)
