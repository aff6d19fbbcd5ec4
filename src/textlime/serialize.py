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
from .theory import TheoryExplanation
from .verify import ComparisonReport, RunStatistics, SweepPoint

_JSON_DIGITS = 17
_CSV_DIGITS = 10


def format_json_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
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


def _ranked_items(words: Sequence[str], values: Sequence[float]) -> list[tuple[str, float]]:
    return sorted(zip(words, values), key=lambda kv: (-abs(kv[1]), kv[0]))


def explanation_json_dict(explanation: Explanation) -> dict:
    return {
        "intercept": explanation.intercept,
        "coefficients": [
            {"word": w, "coefficient": c} for w, c in explanation.ranked()
        ],
        "meta": dict(explanation.meta),
    }


def write_explanation(explanation: Explanation, path: str | Path, fmt: str) -> None:
    if fmt == "json":
        dump_json(explanation_json_dict(explanation), path)
    elif fmt == "csv":
        rows = [
            (w, c, rank)
            for rank, (w, c) in enumerate(explanation.ranked(), start=1)
        ]
        write_csv(path, ["word", "coefficient", "rank"], rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def theory_json_dict(theory: TheoryExplanation) -> dict:
    words = theory.words or tuple(str(j) for j in range(theory.d))
    coefficients = []
    stderr_by_word = {}
    if theory.coefficient_stderr is not None:
        stderr_by_word = dict(zip(words, theory.coefficient_stderr))
    for w, c in _ranked_items(words, theory.coefficients):
        entry = {"word": w, "coefficient": c}
        if stderr_by_word:
            entry["stderr"] = stderr_by_word[w]
        coefficients.append(entry)
    out = {
        "intercept": theory.intercept,
        "coefficients": coefficients,
        "provenance": theory.provenance,
    }
    if theory.intercept_stderr is not None:
        out["intercept_stderr"] = theory.intercept_stderr
    if theory.notes:
        out["notes"] = dict(theory.notes)
    return out


def write_theory(theory: TheoryExplanation, path: str | Path, fmt: str) -> None:
    if fmt == "json":
        dump_json(theory_json_dict(theory), path)
        return
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    words = theory.words or tuple(str(j) for j in range(theory.d))
    stderr = theory.coefficient_stderr or (None,) * theory.d
    by_word = {w: (c, s) for w, c, s in zip(words, theory.coefficients, stderr)}
    rows = []
    for rank, (w, c) in enumerate(_ranked_items(words, theory.coefficients), start=1):
        s = by_word[w][1]
        rows.append((w, c, rank, "" if s is None else s, theory.provenance))
    write_csv(path, ["word", "coefficient", "rank", "stderr", "provenance"], rows)


def write_run_statistics(stats: RunStatistics, path: str | Path, fmt: str) -> None:
    std = stats.std
    header = ["word", "median", "q1", "q3", "min", "max", "std"]
    rows = []
    summary = stats.intercept_summary()
    rows.append(
        (
            "(intercept)",
            summary["median"],
            summary["q1"],
            summary["q3"],
            summary["min"],
            summary["max"],
            "" if summary["std"] is None else summary["std"],
        )
    )
    for j, w in enumerate(stats.words):
        rows.append(
            (
                w,
                stats.median[j],
                stats.q1[j],
                stats.q3[j],
                stats.minimum[j],
                stats.maximum[j],
                "" if std is None else std[j],
            )
        )
    if fmt == "json":
        dump_json(
            {
                "config": dict(stats.config),
                "rows": [dict(zip(header, row)) for row in rows],
            },
            path,
        )
    elif fmt == "csv":
        write_csv(path, header, rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")


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
    rows = [report.intercept_row, *report.rows]
    return [
        (
            r.word,
            r.empirical_median,
            r.theory_value,
            r.abs_deviation,
            r.rel_deviation,
            r.inside_iqr,
            r.inside_range,
        )
        for r in rows
    ]


def write_comparison(report: ComparisonReport, path: str | Path, fmt: str) -> None:
    if fmt == "json":
        dump_json(
            {
                "rows": [dict(zip(_REPORT_HEADER, row)) for row in _report_rows(report)],
                "summary": {
                    "max_abs_deviation": report.max_abs_deviation,
                    "mean_abs_deviation": report.mean_abs_deviation,
                },
            },
            path,
        )
    elif fmt == "csv":
        write_csv(path, _REPORT_HEADER, _report_rows(report))
    else:
        raise ValueError(f"unknown format {fmt!r}")


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
    header = ["nu", "median", "q1", "q3", "min", "max", "std"]
    rows = [
        (
            p.nu,
            p.median,
            p.q1,
            p.q3,
            p.minimum,
            p.maximum,
            "" if p.std is None else p.std,
        )
        for p in points
    ]
    if fmt == "json":
        dump_json([dict(zip(header, row)) for row in rows], path)
    elif fmt == "csv":
        write_csv(path, header, rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def alpha_table_rows(d: int, nu: float, p_max: int) -> list[tuple]:
    """Rows (p, d, nu, alpha, limit, lower bound, upper bound)."""
    from .theory import alpha_bounds, alpha_limit, alpha_values

    values = alpha_values(d, nu, p_max)
    rows = []
    for p, value in enumerate(values):
        lo, hi = alpha_bounds(p, d, nu)
        rows.append((p, d, nu, value, alpha_limit(p, d), lo, hi))
    return rows


ALPHA_TABLE_HEADER = ["p", "d", "nu", "alpha", "limit", "lower_bound", "upper_bound"]


def write_alpha_table(d: int, nu: float, p_max: int, path: str | Path, fmt: str) -> None:
    rows = alpha_table_rows(d, nu, p_max)
    if fmt == "json":
        dump_json([dict(zip(ALPHA_TABLE_HEADER, row)) for row in rows], path)
    elif fmt == "csv":
        write_csv(path, ALPHA_TABLE_HEADER, rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")
