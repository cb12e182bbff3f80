"""The binary snapshot container: a bit-exact round trip, and one rejected
file per way the container and its sidecar can disagree."""

import json

import numpy as np
import pytest

from pnpf.grid import GridSpec
from pnpf.snapshot import SnapshotFormatError, read_snapshot, write_snapshot


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
