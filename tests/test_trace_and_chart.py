import csv
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsd import CSV_COLUMNS, ConfigurationError, TraceRecord, read_trace_csv, write_trace_csv
from mcsd.svgchart import Series, line_chart, write_chart


def make_records(count):
    return [
        TraceRecord(
            iter=t,
            objective=-100.0 - t / 3.0,
            subspace_error=2.0 ** -t,
            orth_violation=1e-15 * (t + 1),
            grad_dual_norm=50.0 / (t + 1),
            step_size=0.1 if t < count - 1 else 0.0,
            inner_iters=0,
            elapsed_s=0.001 * t,
        )
        for t in range(count)
    ]


def csv_writer_trace(path, records):
    """write_trace_csv in its csv.writer form: one writerow per record of
    each field's format() with "d" for an int column and ".17g" else."""
    specs = ["d" if t is int else ".17g" for t in TraceRecord.__annotations__.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([format(v, spec) for v, spec in zip(r, specs)])


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308]
fields_of_a_record = st.tuples(
    st.integers(-(2**63), 2**63),
    *[st.sampled_from(SPECIAL_FLOATS) | st.floats() for _ in range(5)],
    st.integers(-(2**40), 2**40),
    st.sampled_from(SPECIAL_FLOATS) | st.floats(),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(fields_of_a_record, max_size=6))
def test_property_trace_csv_is_csv_writers_bytes_and_round_trips(tmp_path_factory, rows):
    # elapsed_s, which the golden traces skip, is a column like the others here
    records = [TraceRecord(*row) for row in rows]
    out = tmp_path_factory.getbasetemp() / "trace_bytes"
    out.mkdir(exist_ok=True)
    write_trace_csv(out / "written.csv", records)
    csv_writer_trace(out / "reference.csv", records)
    assert (out / "written.csv").read_bytes() == (out / "reference.csv").read_bytes()
    back = read_trace_csv(out / "written.csv")
    assert [[repr(v) for v in r] for r in back] == [[repr(v) for v in row] for row in rows]


class TestTraceCsv:
    def test_round_trip_bit_faithful(self, tmp_path):
        records = make_records(7)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, records)
        back = read_trace_csv(path)
        assert back == records

    def test_header_written(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, make_records(2))
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_byte_identical_rewrites(self, tmp_path):
        records = make_records(5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(a, records)
        write_trace_csv(b, records)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("iter,objective\n0,1.0\n")
        with pytest.raises(ConfigurationError):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "row, problem",
        [("3,-101.0,0.125,4e-15,12.5,0.1,0", "7 fields, expected 8"), ("3,-101.0,0.125,4e-15,x,0.1,0,0.003", "'x'")],
        ids=["short_row", "non_numeric_cell"],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, problem):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, make_records(3))
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(ConfigurationError, match="line 5") as raised:
            read_trace_csv(path)
        assert str(path) in str(raised.value) and problem in str(raised.value)

    def test_seventeen_digit_precision(self, tmp_path):
        records = make_records(1)
        records[0] = records[0]._replace(objective=-1.0 / 3.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, records)
        assert read_trace_csv(path)[0].objective == -1.0 / 3.0


class TestSvgChart:
    def test_basic_structure(self):
        svg = line_chart(
            [Series("a", [0, 1, 2], [1.0, 0.5, 0.25]), Series("b", [0, 1, 2], [2.0, 1.0, 0.5])],
            title="demo",
            x_label="iteration",
            y_label="error",
        )
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "demo" in svg and "iteration" in svg and "error" in svg
        assert svg.rstrip().endswith("</svg>")

    def test_log_scale_skips_nonpositive(self):
        svg = line_chart([Series("a", [0, 1, 2], [1.0, 0.0, 0.01])])
        assert "<polyline" in svg
        assert "1e" in svg  # power-of-ten tick labels

    def test_bytes_pinned(self):
        # every byte of a two-series chart of the kind the bench commands
        # write: size, log-10 axis, ticks, legend and a dropped y = 0 point
        series = [
            Series("rgd", [0, 1, 2, 3], [1.0, 0.3, 0.05, 0.002]),
            Series("spel", [0, 1, 2, 3], [1.0, 0.1, 1e-3, 0.0]),
        ]
        svg = line_chart(
            series, title="Subspace error, St(200,5), d=1000", x_label="iteration", y_label="subspace error"
        )
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "354f772e30540acb31ff0579cc76ebadbe0b8d36c79ac429fd3abe1e05d541d9"
        )

    def test_deterministic(self):
        series = [Series("a", [0, 1], [3.0, 1.0])]
        assert line_chart(series) == line_chart(series)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            line_chart([Series("a", [], [])])

    def test_no_positive_values_draws_empty_axes(self):
        svg = line_chart([Series("a", [0, 1, 2], [0.0, 0.0, 0.0])], title="t")
        assert "no positive values on a log scale" in svg and "<polyline" not in svg
        assert svg.count('stroke="#333"') >= 2  # the frame and the x ticks

    def test_nan_points_dropped(self):
        svg = line_chart([Series("a", [0, 1, 2], [1.0, math.nan, 2.0])])
        assert "<polyline" in svg and "nan" not in svg

    def test_write_chart_creates_dirs(self, tmp_path):
        out = tmp_path / "plots" / "x.svg"
        write_chart(out, [Series("a", [0, 1], [1.0, 2.0])])
        assert out.is_file()

    def test_text_escaped(self):
        svg = line_chart([Series("a<b", [0, 1], [1.0, 2.0])], title="x & y")
        assert "a&lt;b" in svg and "x &amp; y" in svg
