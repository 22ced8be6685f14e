"""Tests for the ASCII report renderers."""

from repro.tamix.report import line_chart


class TestLineChart:
    def test_renders_series_and_legend(self):
        chart = line_chart(
            {"taDOM3+": [60, 80, 400, 420], "URIX": [60, 80, 300, 320]},
            x_labels=[0, 1, 2, 3],
            title="throughput",
        )
        assert "throughput" in chart
        assert "* taDOM3+" in chart
        assert "o URIX" in chart
        assert "+----" in chart

    def test_peak_row_contains_top_series(self):
        chart = line_chart({"a": [0, 100]}, x_labels=[0, 1])
        first_data_row = chart.splitlines()[0]
        assert "*" in first_data_row          # the peak sits on the top row

    def test_empty_series(self):
        assert line_chart({}, x_labels=[], title="t") == "t"

    def test_all_zero_series(self):
        chart = line_chart({"a": [0, 0]}, x_labels=[0, 1])
        assert "*" in chart                   # plotted on the baseline
