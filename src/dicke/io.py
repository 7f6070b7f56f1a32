"""Serialization of result tables: CSV for plotting, JSON for interchange.

CSV columns are fixed as t, rho_0..rho_N, rate with populations clamped
to [0, 1] for presentation.  JSON keeps the raw (unclamped) values so a
round trip through `read_json` is bit-exact, and its metadata records
every tolerance that was in force.  Every JSON output, tables, reports
and error objects alike, goes through `emit_json`: strict JSON, with a
number that is not finite written as null.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .ladder import DickeLadder, build_ladder
from .observables import emission_curve
from .states import EvolutionTable

SCHEMA_VERSION = 1


def csv_lines(table: EvolutionTable, ladder: DickeLadder, digits: int = 17) -> list[str]:
    curve = emission_curve(table, ladder)
    clamped = np.clip(table.populations, 0.0, 1.0)
    header = "t," + ",".join(f"rho_{m}" for m in range(table.n_emitters + 1)) + ",rate"
    fmt = f"%.{digits}g"
    lines = [header]
    for j, t in enumerate(table.times):
        cells = [fmt % t] + [fmt % clamped[m, j] for m in range(table.n_emitters + 1)]
        cells.append(fmt % curve.rate[j])
        lines.append(",".join(cells))
    return lines


def write_csv(table: EvolutionTable, ladder: DickeLadder, path, digits: int = 17) -> None:
    Path(path).write_text("\n".join(csv_lines(table, ladder, digits)) + "\n",
                          encoding="utf-8", newline="\n")


def table_document(table: EvolutionTable, ladder: DickeLadder, config: dict | None = None) -> dict:
    curve = emission_curve(table, ladder)
    meta = dict(table.meta)
    meta.update({
        "tool_version": __version__,
        "trace_defect": table.trace_defect(),
        "min_population_raw": table.min_population(),
    })
    return {
        "schema": SCHEMA_VERSION,
        "config": config or {
            "n_emitters": table.n_emitters,
            "gamma": table.gamma,
            "initial_m0": table.initial_m0,
            "method": table.method,
        },
        "grid": table.times.tolist(),
        "populations": table.populations.tolist(),
        "rate": curve.rate.tolist(),
        "errors": None if table.std_errors is None else table.std_errors.tolist(),
        "metadata": meta,
    }


def emit_json(value, path=None, indent: int | None = 1, file=None) -> None:
    """Write `value` to `path` as strict JSON, or print it to `file`
    (stdout by default) when no path is given."""
    text = json.dumps(_finite_or_null(value), indent=indent, allow_nan=False)
    if path is None:
        print(text, file=file)
    else:
        Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def _finite_or_null(value):
    """`value` with each NaN or infinite float in it, at any depth of
    dicts, lists and tuples, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_json(table: EvolutionTable, ladder: DickeLadder, path,
               config: dict | None = None) -> None:
    """Write the table's JSON document to `path`, or print it when `path`
    is None."""
    emit_json(table_document(table, ladder, config), path)


def read_json(path) -> tuple[EvolutionTable, DickeLadder]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    cfg = doc["config"]
    ladder = build_ladder(int(cfg["n_emitters"]), float(cfg["gamma"]))
    errors = doc.get("errors")
    table = EvolutionTable(
        n_emitters=int(cfg["n_emitters"]),
        gamma=float(cfg["gamma"]),
        initial_m0=int(cfg["initial_m0"]),
        times=np.array(doc["grid"], dtype=float),
        populations=np.array(doc["populations"], dtype=float),
        method=str(doc["metadata"].get("method", cfg.get("method", "unknown"))),
        meta=doc["metadata"],
        std_errors=None if errors is None else np.array(errors, dtype=float),
    )
    return table, ladder
