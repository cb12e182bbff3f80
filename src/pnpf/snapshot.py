"""
Field snapshot container and run checkpoints.

Binary layout (documented here, exactly):

    bytes 0..3    magic b"PNPF"
    bytes 4..7    format version, u32 little-endian (currently 1)
    bytes 8..15   dim, f64 little-endian
    bytes 16..23  points per axis N, f64 little-endian
    bytes 24..31  box length L, f64 little-endian
    bytes 32..63  reserved, zero-filled (header is 64 bytes total)
    then, per field, N^dim f64 little-endian values in row-major (C)
    order over the axes, in the order listed by the JSON sidecar.

The sidecar lives at <path>.json and names the fields:

    {"format": "pnpf-field-snapshot", "version": 1,
     "fields": [...], "dim": d, "n": N, "length": L}

A checkpoint is a snapshot of the primitive fields plus a metadata JSON
(time, step count, stepper config, physical parameters).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dynamics import StepperConfig
from .fields import PhysParams, State
from .grid import GridSpec, ScalarField

MAGIC = b"PNPF"
FORMAT = "pnpf-field-snapshot"
VERSION = 1
HEADER_SIZE = 64


class SnapshotFormatError(ValueError):
    """Malformed snapshot container or sidecar."""


def _pack_header(grid: GridSpec) -> bytes:
    head = MAGIC + struct.pack("<I", VERSION)
    head += struct.pack("<ddd", float(grid.dim), float(grid.n), float(grid.length))
    return head.ljust(HEADER_SIZE, b"\x00")


def write_snapshot(path, grid: GridSpec, fields: dict) -> None:
    """Write named scalar fields (ScalarField or raw arrays) plus the JSON
    sidecar at <path>.json.  Every field's shape is checked before the
    file is opened, so a rejected write leaves a snapshot already at path
    as it was."""
    path = Path(path)
    names = list(fields)
    blocks = []
    for name in names:
        f = fields[name]
        vals = f.values if isinstance(f, ScalarField) else np.asarray(f)
        if vals.shape != grid.shape:
            raise SnapshotFormatError(f"field {name!r} shape {vals.shape} != grid")
        blocks.append(vals)
    with open(path, "wb") as fh:
        fh.write(_pack_header(grid))
        for vals in blocks:
            fh.write(np.ascontiguousarray(vals, dtype="<f8").tobytes())
    sidecar = {
        "format": FORMAT,
        "version": VERSION,
        "fields": names,
        "dim": grid.dim,
        "n": grid.n,
        "length": grid.length,
    }
    with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def read_snapshot(path) -> tuple[GridSpec, dict]:
    """Read a snapshot; returns (grid, {name: array}).

    Raises SnapshotFormatError unless the sidecar is a JSON object whose
    fields are a list of names, the header's dim and n are integers, the
    file is exactly the header plus one block per sidecar field, and the
    sidecar's format, version, dim, n and length agree with the header.
    A malformed file raises no other exception than ValueError."""
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    if not sidecar_path.exists():
        raise SnapshotFormatError(f"missing sidecar {sidecar_path}")
    try:
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
    except RecursionError as exc:
        raise SnapshotFormatError(f"sidecar {sidecar_path} nests too deeply") from exc
    if not isinstance(sidecar, dict):
        raise SnapshotFormatError("sidecar is not a JSON object")
    names = sidecar.get("fields")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise SnapshotFormatError(f"sidecar fields {names!r} is not a list of names")
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
        if len(head) < HEADER_SIZE or head[:4] != MAGIC:
            raise SnapshotFormatError("bad magic or truncated header")
        (version,) = struct.unpack("<I", head[4:8])
        if version != VERSION:
            raise SnapshotFormatError(f"unsupported snapshot version {version}")
        dim_f, n_f, length = struct.unpack("<ddd", head[8:32])
        if not (dim_f.is_integer() and n_f.is_integer()):
            raise SnapshotFormatError(f"header dim {dim_f!r} or n {n_f!r} is not an integer")
        dim, n = int(dim_f), int(n_f)
        if sidecar.get("format") != FORMAT:
            raise SnapshotFormatError(f"sidecar format {sidecar.get('format')!r}")
        for key, value in (("version", version), ("dim", dim), ("n", n), ("length", length)):
            if sidecar.get(key) != value:
                raise SnapshotFormatError(
                    f"sidecar {key} {sidecar.get(key)!r} disagrees with header {value!r}"
                )
        grid = GridSpec(dim=dim, n=n, length=length)
        count = n**dim
        out = {}
        for name in names:
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise SnapshotFormatError(f"truncated data for field {name!r}")
            out[name] = np.frombuffer(raw, dtype="<f8").reshape(grid.shape).copy()
        if fh.read(1):
            raise SnapshotFormatError("trailing bytes after the last field")
    return grid, out


def write_checkpoint(
    prefix, state: State, t: float, step: int, cfg: StepperConfig, params: PhysParams
) -> None:
    """Snapshot the primitive fields at <prefix>.snap (+ sidecar) and the
    run metadata at <prefix>.meta.json."""
    prefix = Path(prefix)
    write_snapshot(
        prefix.with_suffix(".snap"),
        state.grid,
        {"n": state.n, "p": state.p, "theta": state.theta, "phi": state.phi},
    )
    meta = {
        "t": t,
        "step": step,
        "stepper": asdict(cfg),
        "params": asdict(params),
    }
    with open(prefix.with_suffix(".meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_checkpoint(prefix) -> tuple[State, dict]:
    """The State and metadata written by write_checkpoint.  Raises
    SnapshotFormatError, naming them, if the snapshot lacks any of the
    fields n, p, theta, phi."""
    prefix = Path(prefix)
    grid, fields = read_snapshot(prefix.with_suffix(".snap"))
    missing = [name for name in ("n", "p", "theta", "phi") if name not in fields]
    if missing:
        raise SnapshotFormatError(f"checkpoint snapshot lacks fields {missing}")
    with open(prefix.with_suffix(".meta.json")) as fh:
        meta = json.load(fh)
    state = State(
        ScalarField(grid, fields["n"]),
        ScalarField(grid, fields["p"]),
        ScalarField(grid, fields["theta"]),
        ScalarField(grid, fields["phi"]),
    )
    return state, meta
