"""The comparison table of finished runs, and the bytes of its CSV and JSON files.

CSV schema (documented interface):

    algorithm,configuration,metric,value,cycle,seed

Numeric values are written with repr (shortest round-trip), so float() of a
value field gives back the stored value exactly.
"""

from __future__ import annotations

import csv
import io
import json

from .errors import ValidationError

CSV_HEADER = ("algorithm", "configuration", "metric", "value", "cycle", "seed")
CELL_METRICS = ("accuracy", "robustness")


class ComparisonTable:
    """Algorithms x configuration-groups grid with (accuracy, robustness) cells
    and a derived Average row."""

    def __init__(self, row_labels, column_groups):
        self.row_labels = list(row_labels)
        self.column_groups = list(column_groups)
        self.cells: dict = {}  # (row, group, metric) -> (value, cycle, seed)

    def set_cell(self, row: str, group: str, metric: str, value: float,
                 cycle=None, seed=None) -> None:
        if row not in self.row_labels or group not in self.column_groups:
            raise ValidationError(f"unknown cell address ({row}, {group})")
        if metric not in CELL_METRICS:
            raise ValidationError(f"unknown cell metric {metric!r}")
        self.cells[(row, group, metric)] = (float(value), cycle, seed)

    def get_cell(self, row, group, metric):
        cell = self.cells.get((row, group, metric))
        return None if cell is None else cell[0]

    def average_row(self) -> dict:
        """Arithmetic mean per column over present cells, unrounded, summed in
        row order."""
        averages = {}
        for group in self.column_groups:
            for metric in CELL_METRICS:
                values = [self.cells[key][0] for row in self.row_labels
                          if (key := (row, group, metric)) in self.cells]
                if values:
                    averages[(group, metric)] = sum(values) / len(values)
        return averages

    def render(self) -> str:
        """Percentages at one decimal; raw values stay unrounded in the cells."""
        columns = [(group, metric) for group in self.column_groups for metric in CELL_METRICS]
        averages = self.average_row()
        lines = [(row, [self.get_cell(row, *c) for c in columns]) for row in self.row_labels]
        lines.append(("Average", [averages.get(c) for c in columns]))
        rows = [["algorithm"] + [f"{group}/{metric}" for group, metric in columns]]
        rows += [[label] + ["-" if v is None else f"{100 * v:.1f}%" for v in values] for label, values in lines]
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.row_labels,
            "column_groups": self.column_groups,
            "cells": [
                {"algorithm": row, "configuration": group, "metric": metric,
                 "value": value, "cycle": cycle, "seed": seed}
                for (row, group, metric), (value, cycle, seed) in sorted(self.cells.items())
            ],
            "average": {
                f"{group}/{metric}": value for (group, metric), value in sorted(self.average_row().items())
            },
        }

    def to_csv_rows(self) -> list:
        return [(row, group, metric, value, "" if cycle is None else cycle, "" if seed is None else seed)
                for (row, group, metric), (value, cycle, seed) in sorted(self.cells.items())]


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
    found = {}  # (row, group) -> (accuracy, robustness, cycle, seed)
    for h in histories:
        row, group, seed = h.config.get("trainer", "?"), h.config.get("mode", "?"), h.config.get("seed")
        run = f"trainer={h.config.get('trainer')} mode={h.config.get('mode')} seed={seed}"
        if h.termination in ("incomplete", "aborted_nan"):
            raise ValidationError(
                f"cannot tabulate run {run}: termination {h.termination!r}, so it has no final evaluation"
            )
        if not h.records:
            raise ValidationError(f"cannot tabulate run {run}: it has no completed cycles")
        if (row, group) in found:
            raise ValidationError(
                f"two runs fill the cell trainer={row} mode={group}: seeds "
                f"{found[(row, group)][3]} and {seed}; a cell holds one run"
            )
        acc = h.final_eval["topn"].get(str(accuracy_n))
        if acc is None:
            raise ValidationError(f"--accuracy-n: run {run} lacks top-{accuracy_n} accuracy in its final evaluation")
        found[(row, group)] = (acc, h.final_eval["sr_mt"], h.records[-1].cycle, seed)
    rows = list(dict.fromkeys(row for row, _ in found))
    groups = list(dict.fromkeys(group for _, group in found))
    if layout:
        missing = [g for g in groups if g not in layout]
        if missing:
            raise ValidationError(f"layout omits configuration groups {missing}")
        repeated = sorted({g for g in layout if layout.count(g) > 1})
        if repeated:
            raise ValidationError(f"layout names configuration groups more than once: {repeated}")
        groups = [g for g in layout if g in groups]
    table = ComparisonTable(rows, groups)
    for (row, group), (acc, sr_mt, cycle, seed) in found.items():
        table.set_cell(row, group, "accuracy", acc, cycle=cycle, seed=seed)
        table.set_cell(row, group, "robustness", sr_mt, cycle=cycle, seed=seed)
    return table


def csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for algorithm, configuration, metric, value, cycle, seed in rows:
        writer.writerow([algorithm, configuration, metric, repr(float(value)), cycle, seed])
    return buf.getvalue().encode("utf-8")


def json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
