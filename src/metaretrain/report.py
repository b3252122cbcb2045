"""Comparison tables and CSV/JSON export.

CSV schema (documented interface):

    algorithm,configuration,metric,value,cycle,seed

Numeric values are written with repr (shortest round-trip), so
export -> parse -> export is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .errors import ValidationError

CSV_HEADER = ("algorithm", "configuration", "metric", "value", "cycle", "seed")
CELL_METRICS = ("accuracy", "robustness")


class ComparisonTable:
    """Algorithms x configuration-groups grid with (accuracy, robustness) cells
    and a derived Average row."""

    def __init__(self, row_labels, column_groups):
        self.row_labels = list(row_labels)
        self.column_groups = list(column_groups)
        self.cells: dict = {}
        self.meta: dict = {}

    def set_cell(self, row: str, group: str, metric: str, value: float,
                 cycle=None, seed=None) -> None:
        if row not in self.row_labels or group not in self.column_groups:
            raise ValidationError(f"unknown cell address ({row}, {group})")
        if metric not in CELL_METRICS:
            raise ValidationError(f"unknown cell metric {metric!r}")
        self.cells[(row, group, metric)] = float(value)
        self.meta[(row, group, metric)] = {"cycle": cycle, "seed": seed}

    def get_cell(self, row, group, metric):
        return self.cells.get((row, group, metric))

    def column_values(self, group: str, metric: str) -> list:
        return [
            self.cells[(row, group, metric)]
            for row in self.row_labels
            if (row, group, metric) in self.cells
        ]

    def average_row(self) -> dict:
        """Arithmetic mean per column over present cells, unrounded."""
        averages = {}
        for group in self.column_groups:
            for metric in CELL_METRICS:
                values = self.column_values(group, metric)
                if values:
                    averages[(group, metric)] = sum(values) / len(values)
        return averages

    def missing_cells(self) -> list:
        return [
            (row, group, metric)
            for row in self.row_labels
            for group in self.column_groups
            for metric in CELL_METRICS
            if (row, group, metric) not in self.cells
        ]

    def render(self) -> str:
        """Percentages at one decimal; raw values stay unrounded in the cells."""
        headers = ["algorithm"]
        for group in self.column_groups:
            for metric in CELL_METRICS:
                headers.append(f"{group}/{metric}")
        rows = [headers]
        for row in self.row_labels:
            line = [row]
            for group in self.column_groups:
                for metric in CELL_METRICS:
                    v = self.get_cell(row, group, metric)
                    line.append("-" if v is None else f"{100 * v:.1f}%")
            rows.append(line)
        averages = self.average_row()
        line = ["Average"]
        for group in self.column_groups:
            for metric in CELL_METRICS:
                v = averages.get((group, metric))
                line.append("-" if v is None else f"{100 * v:.1f}%")
        rows.append(line)
        widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
        return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.row_labels,
            "column_groups": self.column_groups,
            "cells": [
                {
                    "algorithm": row,
                    "configuration": group,
                    "metric": metric,
                    "value": value,
                    "cycle": self.meta[(row, group, metric)]["cycle"],
                    "seed": self.meta[(row, group, metric)]["seed"],
                }
                for (row, group, metric), value in sorted(self.cells.items())
            ],
            "average": {
                f"{group}/{metric}": value for (group, metric), value in sorted(self.average_row().items())
            },
        }

    def to_csv_rows(self) -> list:
        rows = []
        for (row, group, metric), value in sorted(self.cells.items()):
            meta = self.meta[(row, group, metric)]
            rows.append((row, group, metric, value,
                         "" if meta["cycle"] is None else meta["cycle"],
                         "" if meta["seed"] is None else meta["seed"]))
        return rows


def comparison_table(histories, layout=None, accuracy_n: int = 1) -> ComparisonTable:
    """Arrange final-cycle metrics of completed runs into a table.

    Rows are trainer names, column groups are retraining modes. `layout`
    optionally fixes the column-group order. All runs must target the same
    dataset, and no two runs may share a (trainer, mode) cell.
    """
    histories = list(histories)
    if not histories:
        raise ValidationError("comparison table needs at least one run history")
    datasets = {h.config.get("dataset") for h in histories}
    if len(datasets) > 1:
        raise ValidationError(f"runs target different datasets: {sorted(map(str, datasets))}")
    rows, groups, seeds = [], [], {}
    for h in histories:
        if h.termination in ("incomplete", "aborted_nan"):
            raise ValidationError(
                f"cannot tabulate run trainer={h.config.get('trainer')} mode={h.config.get('mode')} "
                f"seed={h.config.get('seed')}: termination {h.termination!r}, so it has no final evaluation"
            )
        if not h.records:
            raise ValidationError("cannot tabulate a run with no completed cycles")
        row = h.config.get("trainer", "?")
        group = h.config.get("mode", "?")
        seed = h.config.get("seed")
        if (row, group) in seeds:
            raise ValidationError(
                f"two runs fill the cell trainer={row} mode={group}: seeds "
                f"{seeds[(row, group)]} and {seed}; a cell holds one run"
            )
        seeds[(row, group)] = seed
        if row not in rows:
            rows.append(row)
        if group not in groups:
            groups.append(group)
    if layout:
        missing = [g for g in groups if g not in layout]
        if missing:
            raise ValidationError(f"layout omits configuration groups {missing}")
        groups = [g for g in layout if g in groups]
    table = ComparisonTable(rows, groups)
    for h in histories:
        row = h.config.get("trainer", "?")
        group = h.config.get("mode", "?")
        seed = h.config.get("seed")
        cycle = h.records[-1].cycle
        acc = h.final_eval["topn"].get(str(accuracy_n))
        if acc is None:
            raise ValidationError(f"run lacks top-{accuracy_n} accuracy in its final evaluation")
        table.set_cell(row, group, "accuracy", acc, cycle=cycle, seed=seed)
        table.set_cell(row, group, "robustness", h.final_eval["sr_mt"], cycle=cycle, seed=seed)
    return table


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for algorithm, configuration, metric, value, cycle, seed in rows:
        writer.writerow([algorithm, configuration, metric, repr(float(value)), cycle, seed])
    return buf.getvalue().encode("utf-8")


def json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def export(obj, fmt: str, path) -> Path:
    """Write a table/report to disk; numeric fields round-trip losslessly."""
    path = Path(path)
    if fmt == "json":
        if hasattr(obj, "to_json_dict"):
            payload = obj.to_json_dict()
        elif hasattr(obj, "to_dict"):
            payload = obj.to_dict()
        else:
            raise ValidationError(f"cannot JSON-export {type(obj).__name__}")
        data = json_bytes(payload)
    elif fmt == "csv":
        if not hasattr(obj, "to_csv_rows"):
            raise ValidationError(f"cannot CSV-export {type(obj).__name__}")
        data = _csv_bytes(obj.to_csv_rows())
    else:
        raise ValidationError(f"unknown export format {fmt!r} (choose csv or json)")
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    return path


def parse_table_csv(path) -> ComparisonTable:
    """Read back a table CSV written by export()."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValidationError(f"unexpected CSV header {header}")
        entries = list(reader)
    rows, groups = [], []
    for algorithm, configuration, *_ in entries:
        if algorithm not in rows:
            rows.append(algorithm)
        if configuration not in groups:
            groups.append(configuration)
    table = ComparisonTable(rows, groups)
    for algorithm, configuration, metric, value, cycle, seed in entries:
        table.set_cell(
            algorithm, configuration, metric, float(value),
            cycle=None if cycle == "" else int(cycle),
            seed=None if seed == "" else int(seed),
        )
    return table
