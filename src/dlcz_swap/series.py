"""Curve containers and deterministic CSV/JSON file output.

Every artifact file embeds the full parameter set, seed and code version in
its metadata and contains nothing run-dependent (no timestamps, no paths),
so re-running the command that produced it yields byte-identical output.

CSV schema (stable):  one block per series,

    # series: <name>
    # columns: x,y,sigma
    # metadata: <single-line JSON, sorted keys>
    <x-name>,<y-name>,<sigma-name>
    <x>,<y>,<sigma>
    ...

blocks separated by a blank line.  Floats are written with repr, which
round-trips exactly.  The JSON file carries the same content as
{"format": 1, "series": [...]}.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Sequence, Union

from ._version import __version__

__all__ = [
    "CurveSeries",
    "write_csv",
    "write_json",
    "read_csv",
    "read_json",
    "atomic_write_text",
]

FORMAT_VERSION = 1


@dataclass(frozen=True)
class CurveSeries:
    """One named curve: ordered (x, y, sigma_y) rows plus provenance.

    Rows must be sorted ascending in x; sigma_y is nonnegative (NaN marks
    an unavailable error estimate, e.g. insufficient statistics).
    """

    name: str
    columns: tuple
    rows: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.columns) != 3:
            raise ValueError(f"columns must name (x, y, sigma), got {self.columns!r}")
        clean = []
        prev_x = -math.inf
        for row in self.rows:
            if len(row) != 3:
                raise ValueError(f"row {row!r} is not an (x, y, sigma) triple")
            x, y, s = (float(v) for v in row)
            if x < prev_x:
                raise ValueError(f"rows not sorted by x at {x}")
            prev_x = x
            if not math.isnan(s) and s < 0:
                raise ValueError(f"negative sigma {s} at x={x}")
            clean.append((x, y, s))
        object.__setattr__(self, "rows", tuple(clean))
        object.__setattr__(self, "columns", tuple(str(c) for c in self.columns))
        md = dict(self.metadata)
        md.setdefault("version", __version__)
        object.__setattr__(self, "metadata", md)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CurveSeries":
        return cls(name=d["name"], columns=tuple(d["columns"]),
                   rows=tuple(tuple(r) for r in d["rows"]),
                   metadata=dict(d.get("metadata", {})))


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file + rename, never a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-series-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _as_list(series: Union[CurveSeries, Sequence[CurveSeries]]):
    if isinstance(series, CurveSeries):
        return [series]
    out = list(series)
    if not out or not all(isinstance(s, CurveSeries) for s in out):
        raise TypeError("expected a CurveSeries or a non-empty sequence of them")
    return out


def write_json(path: str, series) -> None:
    payload = {"format": FORMAT_VERSION,
               "series": [s.to_dict() for s in _as_list(series)]}
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path: str):
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format {payload.get('format')!r}")
    return [CurveSeries.from_dict(d) for d in payload["series"]]


def write_csv(path: str, series) -> None:
    blocks = []
    for s in _as_list(series):
        lines = [
            f"# series: {s.name}",
            "# columns: x,y,sigma",
            "# metadata: " + json.dumps(s.metadata, sort_keys=True),
            ",".join(s.columns),
        ]
        lines.extend(f"{x!r},{y!r},{sig!r}" for x, y, sig in s.rows)
        blocks.append("\n".join(lines))
    atomic_write_text(path, "\n\n".join(blocks) + "\n")


def read_csv(path: str):
    out = []
    current = None
    with open(path) as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("# series: "):
                current = {"name": line[len("# series: "):], "metadata": {},
                           "columns": None, "rows": []}
                out.append(current)
            elif line.startswith("# metadata: "):
                if current is None:
                    raise ValueError(f"{path}: metadata before any series header")
                current["metadata"] = json.loads(line[len("# metadata: "):])
            elif line.startswith("#"):
                continue
            else:
                if current is None:
                    raise ValueError(f"{path}: data before any series header")
                if current["columns"] is None:
                    current["columns"] = tuple(line.split(","))
                else:
                    parts = line.split(",")
                    if len(parts) != 3:
                        raise ValueError(f"{path}: bad row {line!r}")
                    current["rows"].append(tuple(float(p) for p in parts))
    return [CurveSeries(name=c["name"], columns=c["columns"] or ("x", "y", "sigma"),
                        rows=tuple(c["rows"]), metadata=c["metadata"]) for c in out]
