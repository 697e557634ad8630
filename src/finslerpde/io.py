"""Artifact writers: CSV tables and JSON reports.

Numbers are always formatted with 17 significant digits and a ``.``
decimal separator so that identical runs produce byte-identical files.
JSON is strict: a float that is not finite is written as null.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .fields import nodal_gradient

_BLOCK_ROWS = 2048


def _write_rows(path, header, rows):
    """CSV in csv's default dialect: comma-separated, CRLF line ends.

    Neither the header names nor the formatted numbers need quoting, so a
    block of rows is one ``%`` format over its Python floats, the row format
    repeated once per row.  Blocks keep the text held in memory small for
    large tables.
    """
    values = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(values), _BLOCK_ROWS):
            block = values[start:start + _BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_field_csv(path, field):
    """Vertex table x,y,u,ux,uy with area-averaged nodal gradients."""
    grads = nodal_gradient(field)
    rows = np.column_stack([field.mesh.vertices, field.values, grads])
    _write_rows(path, ["x", "y", "u", "ux", "uy"], rows)


def write_profile_csv(path, profile):
    rows = np.column_stack([profile.grid, profile.w, profile.w_prime])
    _write_rows(path, ["rho", "w", "w_prime"], rows)


def write_wulff_csv(path, shape):
    rows = np.column_stack([shape.thetas, shape.boundary])
    _write_rows(path, ["theta", "x", "y"], rows)


def write_study_csv(path, rows):
    header = ["h", "hessian_integral", "weight_integral", "critical_fraction"]
    _write_rows(path, header, [[row[k] for k in header] for row in rows])


def _finite_or_null(value):
    """The payload with every float that is not finite replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_json(path, payload):
    """Strict JSON of a payload or a dataclass (through dataclasses.asdict),
    indented with sorted keys: NaN and +-inf are written as null, which
    strict readers accept, where json.dump would write its non-standard NaN
    and Infinity tokens."""
    if dataclasses.is_dataclass(payload):
        payload = dataclasses.asdict(payload)
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def canonical_json(payload):
    """Compact JSON bytes with sorted keys, so equal payloads give equal bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def config_sha256(raw_bytes):
    import hashlib  # loads OpenSSL: imported only where a hash is taken
    return hashlib.sha256(raw_bytes).hexdigest()
