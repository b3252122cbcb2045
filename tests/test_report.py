import csv
import io
import json

import numpy as np
import pytest

from metaretrain.errors import ValidationError
from metaretrain.orchestrator import CycleRecord, RunHistory
from metaretrain.report import CSV_HEADER, ComparisonTable, comparison_table, csv_bytes, json_bytes


def paper_style_table():
    """Cells shaped like the CIFAR-10 base-vs-adaptive comparison."""
    table = ComparisonTable(["fixmatch", "flexmatch", "mixmatch", "fullmatch"], ["base", "adaptive"])
    base_acc = [0.70, 0.60, 0.65, 0.75]
    base_rob = [0.75, 0.90, 0.70, 0.68]
    adap_acc = [0.55, 0.60, 0.70, 0.68]
    adap_rob = [0.84, 0.83, 0.85, 0.87]
    for row, a, r, aa, ar in zip(table.row_labels, base_acc, base_rob, adap_acc, adap_rob):
        table.set_cell(row, "base", "accuracy", a)
        table.set_cell(row, "base", "robustness", r)
        table.set_cell(row, "adaptive", "accuracy", aa)
        table.set_cell(row, "adaptive", "robustness", ar)
    return table


def fake_history(trainer, mode, seed=0, acc=0.5, sr=0.6, dataset="mnist"):
    record = CycleRecord(
        cycle=0, sr_mt=0.1, accuracy={1: 0.2}, suites=[], loss_stats={"steps": 1},
        failed_ids=[], passed_ids=[], policy={}, model_version=0,
    )
    return RunHistory(
        config={"trainer": trainer, "mode": mode, "seed": seed, "dataset": dataset},
        records=[record],
        final_eval={"sr_mt": sr, "topn": {"1": acc, "5": min(1.0, acc + 0.2)}},
        termination="completed",
        final_version=1,
    )


class TestComparisonTable:
    def test_average_row_reproduces_reference_values(self):
        table = paper_style_table()
        avg = table.average_row()
        assert 100 * avg[("base", "accuracy")] == pytest.approx(67.5, abs=1e-9)
        assert 100 * avg[("base", "robustness")] == pytest.approx(75.75, abs=1e-9)
        assert 100 * avg[("adaptive", "accuracy")] == pytest.approx(63.25, abs=1e-9)
        assert 100 * avg[("adaptive", "robustness")] == pytest.approx(84.75, abs=1e-9)

    def test_render_shows_one_decimal_percentages(self):
        text = paper_style_table().render()
        assert "67.5%" in text and "84.8%" not in text.split("Average")[0]
        assert text.splitlines()[-1].startswith("Average")
        assert "75.8%" in text.splitlines()[-1]  # 75.75 rendered at one decimal

    def test_single_row_average_equals_row(self):
        table = ComparisonTable(["fixmatch"], ["base"])
        table.set_cell("fixmatch", "base", "accuracy", 0.42)
        table.set_cell("fixmatch", "base", "robustness", 0.9)
        avg = table.average_row()
        assert avg[("base", "accuracy")] == 0.42
        assert avg[("base", "robustness")] == 0.9

    def test_absent_cell_excluded_from_average_and_rendered_as_dash(self):
        table = ComparisonTable(["a", "b"], ["base"])
        table.set_cell("a", "base", "accuracy", 0.5)
        table.set_cell("a", "base", "robustness", 0.6)
        assert table.average_row()[("base", "accuracy")] == 0.5
        assert table.render().splitlines()[2].split() == ["b", "-", "-"]

    def test_unknown_address_rejected(self):
        table = ComparisonTable(["a"], ["base"])
        with pytest.raises(ValidationError):
            table.set_cell("zz", "base", "accuracy", 0.1)
        with pytest.raises(ValidationError):
            table.set_cell("a", "base", "f1", 0.1)

    def test_average_identity_rederived_from_cells(self):
        rng = np.random.default_rng(5)
        table = ComparisonTable(["r1", "r2", "r3"], ["g1", "g2"])
        for row in table.row_labels:
            for group in table.column_groups:
                table.set_cell(row, group, "accuracy", float(rng.random()))
                table.set_cell(row, group, "robustness", float(rng.random()))
        avg = table.average_row()
        for group in table.column_groups:
            for metric in ("accuracy", "robustness"):
                vals = [table.get_cell(r, group, metric) for r in table.row_labels]
                assert avg[(group, metric)] == pytest.approx(sum(vals) / 3, abs=1e-15)


class TestFromHistories:
    def test_table_i_layout(self):
        histories = [fake_history("fixmatch", "base"), fake_history("fixmatch", "adaptive"),
                     fake_history("fullmatch", "base"), fake_history("fullmatch", "adaptive")]
        table = comparison_table(histories, layout=["base", "adaptive"])
        assert table.row_labels == ["fixmatch", "fullmatch"]
        assert table.column_groups == ["base", "adaptive"]
        assert table.get_cell("fixmatch", "base", "robustness") == 0.6

    def test_layout_naming_a_group_twice_rejected_naming_it(self):
        histories = [fake_history("fixmatch", "base"), fake_history("fixmatch", "adaptive")]
        with pytest.raises(ValidationError, match=r"more than once: \['adaptive'\]"):
            comparison_table(histories, layout=["adaptive", "adaptive", "base"])

    def test_single_run_single_row(self):
        table = comparison_table([fake_history("mixmatch", "static", acc=0.3)])
        assert table.row_labels == ["mixmatch"]
        assert table.average_row()[("static", "accuracy")] == 0.3

    def test_mixed_datasets_rejected(self):
        with pytest.raises(ValidationError, match="different datasets"):
            comparison_table([fake_history("a", "base", dataset="mnist"),
                              fake_history("b", "base", dataset="cifar10")])

    def test_accuracy_metric_selection(self):
        table = comparison_table([fake_history("fixmatch", "base", acc=0.4)], accuracy_n=5)
        assert table.get_cell("fixmatch", "base", "accuracy") == pytest.approx(0.6)

    def test_duplicate_cell_rejected_naming_trainer_mode_and_both_seeds(self):
        runs = [fake_history("fixmatch", "adaptive", seed=0, sr=0.6),
                fake_history("fixmatch", "base", seed=0),
                fake_history("fixmatch", "adaptive", seed=1, sr=0.8)]
        with pytest.raises(ValidationError) as info:
            comparison_table(runs)
        message = str(info.value)
        assert "trainer=fixmatch mode=adaptive" in message
        assert "seeds 0 and 1" in message

    @pytest.mark.parametrize("termination", ["incomplete", "aborted_nan"])
    def test_unfinished_run_rejected_naming_termination_and_run(self, termination):
        unfinished = fake_history("flexmatch", "static", seed=7)
        unfinished.termination = termination
        unfinished.final_eval = {"sr_mt": None, "topn": {}}
        with pytest.raises(ValidationError) as info:
            comparison_table([fake_history("fixmatch", "base"), unfinished])
        message = str(info.value)
        assert repr(termination) in message
        assert "trainer=flexmatch mode=static seed=7" in message
        assert "lacks" not in message

    def test_run_without_requested_top_n_named(self):
        runs = [fake_history("fixmatch", "base", seed=3), fake_history("mixmatch", "static", seed=4)]
        del runs[1].final_eval["topn"]["5"]
        with pytest.raises(ValidationError) as info:
            comparison_table(runs, accuracy_n=5)
        message = str(info.value)
        assert message.startswith("--accuracy-n: ")
        assert "trainer=mixmatch mode=static seed=4 lacks top-5 accuracy" in message


class TestTableBytes:
    def test_csv_values_parse_back_exactly_and_rewrite_byte_identical(self):
        rng = np.random.default_rng(11)
        table = ComparisonTable(["r1", "r2", "r3"], ["g1", "g2"])
        # the first row's cells carry no cycle or seed, which the CSV writes as empty fields
        fields = {}
        for i, row in enumerate(table.row_labels):
            for group in table.column_groups:
                for metric in ("accuracy", "robustness"):
                    table.set_cell(row, group, metric, float(rng.random()), cycle=i or None, seed=7 if i else None)
                    fields[(row, group, metric)] = (str(i), "7") if i else ("", "")
        data = csv_bytes(table.to_csv_rows())
        header, *rows = csv.reader(io.StringIO(data.decode("utf-8")))
        assert tuple(header) == CSV_HEADER
        assert len(rows) == len(fields)
        for algorithm, configuration, metric, value, cycle, seed in rows:
            assert float(value) == table.get_cell(algorithm, configuration, metric)
            assert (cycle, seed) == fields[(algorithm, configuration, metric)]
        assert csv_bytes(rows) == data

    def test_csv_header_schema(self):
        assert csv_bytes(paper_style_table().to_csv_rows()).decode("utf-8").splitlines()[0] == ",".join(CSV_HEADER)

    def test_json_numeric_fields_roundtrip(self):
        table = paper_style_table()
        loaded = json.loads(json_bytes(table.to_json_dict()))
        for cell in loaded["cells"]:
            assert cell["value"] == table.get_cell(cell["algorithm"], cell["configuration"], cell["metric"])
        for column, value in loaded["average"].items():
            assert value == table.average_row()[tuple(column.split("/"))]

    def test_history_save_load_save_byte_identical(self, tmp_path):
        fake_history("fixmatch", "base").save(tmp_path / "h1.json")
        RunHistory.load(tmp_path / "h1.json").save(tmp_path / "h2.json")
        assert (tmp_path / "h1.json").read_bytes() == (tmp_path / "h2.json").read_bytes()
