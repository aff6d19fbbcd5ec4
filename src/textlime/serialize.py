"""Result emission: JSON with 17 significant digits, CSV with 10.

JSON is the machine interface (full float64 precision), CSV the plotting
interface. Emission is deterministic: given equal inputs the bytes are
identical.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .surrogate import Explanation
from .theory import TheoryExplanation, alpha_bounds, alpha_limit, alpha_values
from .verify import SUMMARY_FIELDS, ComparisonReport, RunStatistics, SweepPoint

_JSON_DIGITS = 17
_CSV_DIGITS = 10


def format_json_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return "%.*g" % (_JSON_DIGITS, x)


def format_csv_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return "%.*g" % (_CSV_DIGITS, float(x))
    return str(x)


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_json_float(float(obj))
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, dict):
        inner = ",".join(f"{_emit(str(k))}:{_emit(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj, path: str | Path) -> None:
    Path(path).write_text(_emit(obj) + "\n", encoding="utf-8")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_csv_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _records(header: Sequence[str], rows: Iterable[Sequence]) -> list[dict]:
    return [dict(zip(header, row)) for row in rows]


def write_table(
    path: str | Path, fmt: str, header: Sequence[str], rows: Sequence[Sequence], payload=None
) -> None:
    """Write `rows` as CSV under `header`, or as JSON: `payload` when given,
    else one object per row."""
    if fmt == "json":
        dump_json(_records(header, rows) if payload is None else payload, path)
    elif fmt == "csv":
        write_csv(path, header, rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def write_explanation(explanation: Explanation, path: str | Path, fmt: str) -> None:
    ranked = explanation.ranked()
    rows = [
        ("(intercept)", explanation.intercept, ""),
        *((w, c, rank) for rank, (w, c) in enumerate(ranked, start=1)),
    ]
    payload = {
        "intercept": explanation.intercept,
        "coefficients": [{"word": w, "coefficient": c} for w, c in ranked],
        "meta": dict(explanation.meta),
    }
    write_table(path, fmt, ["word", "coefficient", "rank"], rows, payload)


def _blank(value):
    """CSV and JSON write a missing value as an empty string."""
    return "" if value is None else value


def write_theory(theory: TheoryExplanation, path: str | Path, fmt: str) -> None:
    words = theory.words or tuple(str(j) for j in range(theory.d))
    stderr = dict(zip(words, theory.coefficient_stderr or (None,) * theory.d))
    ranked = sorted(zip(words, theory.coefficients), key=lambda kv: (-abs(kv[1]), kv[0]))
    rows = [
        ("(intercept)", theory.intercept, "", _blank(theory.intercept_stderr), theory.provenance),
        *(
            (w, c, rank, _blank(stderr[w]), theory.provenance)
            for rank, (w, c) in enumerate(ranked, start=1)
        ),
    ]
    coefficients = []
    for w, c in ranked:
        entry = {"word": w, "coefficient": c}
        if stderr[w] is not None:
            entry["stderr"] = stderr[w]
        coefficients.append(entry)
    payload = {
        "intercept": theory.intercept,
        "coefficients": coefficients,
        "provenance": theory.provenance,
    }
    if theory.intercept_stderr is not None:
        payload["intercept_stderr"] = theory.intercept_stderr
    if theory.notes:
        payload["notes"] = dict(theory.notes)
    header = ["word", "coefficient", "rank", "stderr", "provenance"]
    write_table(path, fmt, header, rows, payload)


# Column names of SUMMARY_FIELDS in the files.
_SUMMARY_HEADER = ["median", "q1", "q3", "min", "max", "std"]


def _summary_cells(summary: dict) -> tuple:
    """The SUMMARY_FIELDS of `summary` in order, a missing std blank."""
    return tuple(_blank(summary[name]) for name in SUMMARY_FIELDS)


def write_run_statistics(stats: RunStatistics, path: str | Path, fmt: str) -> None:
    rows = [
        ("(intercept)", *_summary_cells(stats.summary())),
        *((w, *_summary_cells(stats.summary(j))) for j, w in enumerate(stats.words)),
    ]
    header = ["word", *_SUMMARY_HEADER]
    payload = {"config": dict(stats.config), "rows": _records(header, rows)}
    write_table(path, fmt, header, rows, payload)


_REPORT_HEADER = [
    "word",
    "empirical_median",
    "theory_value",
    "abs_deviation",
    "rel_deviation",
    "inside_iqr",
    "inside_range",
]


def _report_rows(report: ComparisonReport) -> list[tuple]:
    return [
        tuple(getattr(r, field) for field in _REPORT_HEADER)
        for r in (report.intercept_row, *report.rows)
    ]


def write_comparison(report: ComparisonReport, path: str | Path, fmt: str) -> None:
    rows = _report_rows(report)
    payload = {
        "rows": _records(_REPORT_HEADER, rows),
        "summary": {
            "max_abs_deviation": report.max_abs_deviation,
            "mean_abs_deviation": report.mean_abs_deviation,
        },
    }
    write_table(path, fmt, _REPORT_HEADER, rows, payload)


def comparison_table(report: ComparisonReport) -> str:
    """Human-readable theory-vs-practice table."""
    rows = _report_rows(report)
    widths = [max(len(h), *(len(format_csv_value(r[i])) for r in rows)) for i, h in enumerate(_REPORT_HEADER)]
    def line(values):
        return "  ".join(format_csv_value(v).ljust(w) for v, w in zip(values, widths))
    out = [line(_REPORT_HEADER), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    out.append(
        "max abs deviation: %s   mean abs deviation: %s"
        % (
            format_csv_value(report.max_abs_deviation),
            format_csv_value(report.mean_abs_deviation),
        )
    )
    return "\n".join(out)


def write_sweep(points: Sequence[SweepPoint], path: str | Path, fmt: str) -> None:
    rows = [(p.nu, *_summary_cells(vars(p))) for p in points]
    write_table(path, fmt, ["nu", *_SUMMARY_HEADER], rows)


def alpha_table_rows(d: int, nu: float, p_max: int) -> list[tuple]:
    """Rows (p, d, nu, alpha, limit, lower bound, upper bound)."""
    return [
        (p, d, nu, value, alpha_limit(p, d), *alpha_bounds(p, d, nu))
        for p, value in enumerate(alpha_values(d, nu, p_max))
    ]


ALPHA_TABLE_HEADER = ["p", "d", "nu", "alpha", "limit", "lower_bound", "upper_bound"]


def write_alpha_table(d: int, nu: float, p_max: int, path: str | Path, fmt: str) -> None:
    write_table(path, fmt, ALPHA_TABLE_HEADER, alpha_table_rows(d, nu, p_max))
