import dataclasses
import json
import math
import os
import pathlib
import re
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lpcoreset as lc
import lpcoreset.io as lpc_io
from lpcoreset.cli import run_cli
from lpcoreset.errors import MatrixParseError
from lpcoreset.io import (
    emit_report,
    generate_instance,
    json_dumps,
    load_matrix,
    load_vector,
    report_to_dict,
    save_matrix_csv,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def canonical(report_text):
    """Parse report JSON and re-serialize without the timing fields."""
    doc = json.loads(report_text)
    doc.pop("timings_ms", None)
    return json_dumps(doc)


class TestCsv:
    def test_basic(self, tmp_path):
        # plain; UTF-8 byte-order mark; CRLF with whitespace-only lines
        for text in ("1,2\n3,4\n", "\ufeff1,2\n3,4\n", "1,2\r\n \r\n\t\r\n3,4\r\n"):
            M = load_matrix(write(tmp_path, "m.csv", text))
            np.testing.assert_array_equal(M, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_detection(self, tmp_path):
        # a first line is a header only when none of its cells is a number
        for header in ("colA,colB", "\ufeffcolA,colB", "a,", "1_0,x"):
            M = load_matrix(write(tmp_path, "m.csv", header + "\n1,2\n3,4\n"))
            np.testing.assert_array_equal(M, [[1.0, 2.0], [3.0, 4.0]])
        for first in ("1,x", "1_0,2"):  # a mistyped data row is no header
            with pytest.raises(MatrixParseError) as err:
                load_matrix(write(tmp_path, "m.csv", first + "\n3,4\n"))
            assert err.value.line == 1

    def test_ragged_row_reports_line(self, tmp_path):
        with pytest.raises(MatrixParseError) as err:
            load_matrix(write(tmp_path, "m.csv", "1,2\n3,4,5\n"))
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1,2\n3,oops\n", 2),
            ("colA,colB\nfoo,bar\n1,2\n", 2),
            ("1,x\n3,4\n", 1),
            ("1_0,2\n3,4\n", 1),
        ],
        ids=["data-row", "second-header", "mixed-first-row", "grouped-digits"],
    )
    def test_non_numeric_cell_reports_line(self, tmp_path, text, line):
        # only the first non-blank line may be a header
        with pytest.raises(MatrixParseError, match="non-numeric cell") as err:
            load_matrix(write(tmp_path, "m.csv", text))
        assert err.value.line == line

    @pytest.mark.parametrize(
        "token, accepted",
        [
            (" 1 ", True),
            ("+1", True),
            ("-0", True),
            (".5", True),
            ("5.", True),
            ("1E+05", True),
            ("nan", True),
            ("-Infinity", True),
            ("1e400", True),
            ("4.9e-324", True),
            ("", False),
            ("1_0", False),
            ("\uff11", False),  # full-width digit one
            ("0x10", False),
            ("1d3", False),
            ('"1"', False),
        ],
    )
    def test_token_grammar(self, tmp_path, token, accepted):
        path = write(tmp_path, "m.csv", f"x,y\n1,2\n{token},4\n")
        if accepted:
            M = load_matrix(path)
            assert M[1, 0].tobytes() == np.float64(float(token)).tobytes()
        else:
            with pytest.raises(MatrixParseError, match="non-numeric cell") as err:
                load_matrix(path)
            assert err.value.line == 3

    def test_unlocated_parse_error_is_chained(self, tmp_path, monkeypatch):
        def reject(*args, **kwargs):
            raise ValueError("rejected")

        monkeypatch.setattr(np, "loadtxt", reject)
        with pytest.raises(MatrixParseError) as err:
            load_matrix(write(tmp_path, "m.csv", "1,2\n3,4\n"))
        assert str(err.value.__cause__) == "rejected"

    @pytest.mark.parametrize(
        "bad_line, bad_row", [(40_001, "1,oops,3"), (50_000, "1,2")],
        ids=["bad-cell", "ragged-last-row"],
    )
    def test_late_error_in_large_file(self, tmp_path, bad_line, bad_row):
        rows = ["1,2,3"] * 50_000
        rows[bad_line - 1] = bad_row
        with pytest.raises(MatrixParseError) as err:
            load_matrix(write(tmp_path, "m.csv", "\n".join(rows) + "\n"))
        assert err.value.line == bad_line

    def test_empty_file(self, tmp_path):
        with pytest.raises(MatrixParseError):
            load_matrix(write(tmp_path, "m.csv", ""))

    def test_roundtrip_entrywise(self, tmp_path, rng):
        M = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, (7, 3))
        path = str(tmp_path / "round.csv")
        save_matrix_csv(M, path)
        M2 = load_matrix(path)
        np.testing.assert_array_equal(M, M2)
        save_matrix_csv(M2, path + ".again")
        np.testing.assert_array_equal(load_matrix(path + ".again"), M)

    @settings(max_examples=60, deadline=None)
    @given(
        M=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
            elements=st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308]),
            ),
        )
    )
    def test_writer_bytes_and_exact_roundtrip(self, M):
        legacy = "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in M)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.csv")
            save_matrix_csv(M, path)
            with open(path, "rb") as f:
                assert f.read() == legacy.encode("ascii")
            assert load_matrix(path).tobytes() == M.tobytes()

    @pytest.mark.parametrize(
        "M",
        [
            np.array([[-0.0, 1e-300, 1e300], [3.0, -7.0, 0.1], [2.0**53, -1.0, 1e-5]]),
            np.array([[-0.0], [1e-300], [1e300], [42.0], [-0.1]]),
            np.random.default_rng(5).standard_normal((5000, 2)),
        ],
        ids=["matrix", "one-column-b", "two-write-blocks"],
    )
    def test_writer_bytes_match_savetxt(self, tmp_path, M):
        ref = str(tmp_path / "ref.csv")
        np.savetxt(ref, M, fmt="%.17g", delimiter=",")
        out = str(tmp_path / "out.csv")
        save_matrix_csv(M, out)
        assert pathlib.Path(out).read_bytes() == pathlib.Path(ref).read_bytes()

    def test_writer_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            save_matrix_csv(np.array([[1.0, np.inf]]), str(tmp_path / "m.csv"))

    def test_mm_to_csv_roundtrip(self, tmp_path):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 3 3\n1 2 0.125\n2 1 -7.5\n2 3 3.25\n"
        )
        M = load_matrix(write(tmp_path, "m.mtx", text))
        out = str(tmp_path / "m.csv")
        save_matrix_csv(M, out)
        np.testing.assert_array_equal(load_matrix(out), M)


class TestMatrixMarket:
    def test_array_column_major(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
        M = load_matrix(write(tmp_path, "m.mtx", text))
        np.testing.assert_array_equal(M, [[1.0, 3.0], [2.0, 4.0]])

    def test_array_single_column(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\n% a comment\n2 1\n5\n6\n"
        M = load_matrix(write(tmp_path, "m.mtx", text))
        np.testing.assert_array_equal(M, [[5.0], [6.0]])

    def test_coordinate_duplicates_summed(self, tmp_path):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.5\n1 1 2.5\n2 2 -1\n"
        )
        M = load_matrix(write(tmp_path, "m.mtx", text))
        np.testing.assert_array_equal(M, [[4.0, 0.0], [0.0, -1.0]])

    def test_symmetric_rejected(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 3\n"
        with pytest.raises(MatrixParseError) as err:
            load_matrix(write(tmp_path, "m.mtx", text))
        assert "symmetry" in str(err.value)

    def test_complex_rejected(self, tmp_path):
        text = "%%MatrixMarket matrix array complex general\n1 1\n1 0\n"
        with pytest.raises(MatrixParseError):
            load_matrix(write(tmp_path, "m.mtx", text))

    def test_wrong_entry_count(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n"
        with pytest.raises(MatrixParseError):
            load_matrix(write(tmp_path, "m.mtx", text))

    def test_out_of_bounds_index(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        with pytest.raises(MatrixParseError) as err:
            load_matrix(write(tmp_path, "m.mtx", text))
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("%%MatrixMarket matrix array real\n1 1\n1\n", 1,
             "MatrixMarket header must have 5 fields"),
            ("%%MatrixMarket vector array real general\n1 1\n1\n", 1,
             "unsupported object 'vector'"),
            ("%%MatrixMarket matrix dense real general\n1 1\n1\n", 1,
             "unsupported format 'dense'"),
            ("%%MatrixMarket matrix array real general\n% only a comment\n", 1,
             "missing size line"),
            ("%%MatrixMarket matrix array real general\n%\n2 1 2\n1\n2\n", 3,
             "array size line must be 'n m'"),
            ("%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1\n", 2,
             "coordinate size line must be 'n m nnz'"),
            ("%%MatrixMarket matrix array real general\n2 x\n1\n", 2, "bad size line"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1.5\n1 1 1\n", 2,
             "bad size line"),
            ("%%MatrixMarket matrix array real general\n-2 -3\n" + "1\n" * 6, 2,
             "negative size"),
            ("%%MatrixMarket matrix coordinate real general\n-1 -1 1\n1 1 1\n", 2,
             "negative size"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 -1\n", 2, "negative size"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n", 2,
             "expected 2 entries, found 1"),
            ("%%MatrixMarket matrix array real general\n2 1\n1\n\n%\n1,5\n", 6,
             "bad entry '1,5'"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2\n", 4,
             "coordinate entry needs 'i j value'"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1.0 3\n", 3,
             "bad entry '1 1.0 3'"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 0 3\n", 3,
             r"index \(1, 0\) out of bounds"),
        ],
        ids=[
            "header-fields", "header-object", "header-format", "no-size-line",
            "array-size-fields", "coordinate-size-fields", "array-size-int",
            "coordinate-size-int", "array-negative", "coordinate-negative",
            "coordinate-negative-nnz", "entry-count", "array-entry", "coordinate-fields",
            "coordinate-entry", "coordinate-index",
        ],
    )
    def test_malformed_inputs_name_their_line(self, tmp_path, text, line, message):
        with pytest.raises(MatrixParseError, match=f"^line {line}: {message}") as err:
            load_matrix(write(tmp_path, "m.mtx", text))
        assert err.value.line == line

    def test_declared_layout_checked(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n"
        path = write(tmp_path, "m.mtx", text)
        np.testing.assert_array_equal(load_matrix(path), [[2.0]])


def line_path_load(path):
    """The line path alone, as the reference: one list of (line number,
    stripped line) for every non-blank line, then the parsers.  A byte
    that is not UTF-8 is found by decoding the lines one at a time."""
    for number, raw in enumerate(re.split(rb"\r\n|\r|\n", pathlib.Path(path).read_bytes()), 1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as err:
            message = f"invalid UTF-8 byte 0x{raw[err.start]:02x}"
            raise MatrixParseError(message, line=number) from None
    with open(path, "r", encoding="utf-8-sig") as f:
        lines = [(n, s) for n, line in enumerate(f, 1) if (s := line.strip())]
    if not lines:
        raise MatrixParseError("empty file", line=1)
    if lines[0][1].lower().startswith("%%matrixmarket"):
        return lpc_io._parse_matrix_market(lines)
    return lpc_io._parse_csv(lines)


def load_outcome(load, path):
    try:
        M = load(path)
    except ValueError as err:  # MatrixParseError
        return type(err).__name__, str(err), getattr(err, "line", None)
    return M.dtype.str, M.shape, M.tobytes()


TOKENS = [
    " 1 ", "+1", "-0", ".5", "5.", "1E+05", "nan", "-Infinity", "1e400", "4.9e-324",
    "", "1_0", "１", "0x10", "1d3", '"1"',
]
ROWS = "".join(f"{i}.25,-{i},{i}e-3\n" for i in range(1, 3000))

LOAD_CORPUS = {
    "plain": b"1,2\n3,4\n",
    "bom": b"\xef\xbb\xbf1,2\n3,4\n",
    "crlf": b"1,2\r\n3,4\r\n",
    "lone-cr": b"1,2\r3,4\r",
    "no-final-newline": b"1,2\n3,4",
    "blank-lines": b"\n1,2\n\n\n3,4\n\n",
    "whitespace-only-ascii": b"1,2\n \t \n3,4\n",
    "whitespace-only-nbsp": "1,2\n\xa0\n3,4\n".encode(),
    "whitespace-only-crlf": b"1,2\r\n \r\n\t\r\n3,4\r\n",
    "whitespace-only-one-column": b"1\n \n2\n",
    "header-after-blank-lines": b"\n\n \ncolA,colB\n1,2\n3,4\n",
    "header-with-bom": b"\xef\xbb\xbfcolA,colB\n1,2\n",
    "header-crlf-blank-lines": b"colA,colB\r\n\r\n \r\n1,2\r\n",
    "header-only": b"colA,colB\n",
    "header-then-blank-lines": b"colA,colB\n\n\r\n",
    "header-then-whitespace": b"colA,colB\n\n \n",
    "edge-whitespace": b" 1,2\t\n\t3 , 4 \n",
    "edge-nbsp": "\xa01,2\xa0\n3,4\xa0\n".encode(),
    "one-column": b"1\n2\n3\n",
    "one-row": b"1,2,3\n",
    "ragged": b"1,2\n3,4,5\n",
    "ragged-short": b"1,2\n3\n",
    "empty-cell": b"1,2\n3,\n",
    "mixed-first-row": b"1,x\n3,4\n",
    "second-header": b"colA,colB\nfoo,bar\n1,2\n",
    "empty-file": b"",
    "only-blank-lines": b"\n \n\r\n",
    "invalid-utf8": b"1,2\n3,\xff\n",
    "invalid-utf8-first-line": b"\xc3,2\n3,4\n",
    "invalid-utf8-late": ROWS.encode() + b"\xff,1,2\n",
    "invalid-utf8-after-cr-lines": b"1,2\r\n3,4\r5,6\r\xe2\x82,7\r",
    "invalid-utf8-matrix-market": b"%%MatrixMarket matrix array real general\n2 1\n5\n\xff\n",
    "whitespace-only-late": ROWS.encode() + b" \n1,2,3\n",
    "bad-cell-late": ROWS.encode() + b"1,oops,3\n",
    "matrix-market": b"%%MatrixMarket matrix array real general\n2 1\n5\n6\n",
    **{f"token-{t!r}": f"x,y\n1,2\n{t},4\n".encode() for t in TOKENS},
    **{f"edge-token-{t!r}": f"{t},4\n1,2\n".encode() for t in TOKENS},
}


def _through_pipe(tmp_path, data):
    """load_matrix of the bytes data written into a named pipe."""
    fifo = str(tmp_path / "pipe")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return load_matrix(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


class TestLoadPaths:
    """load_matrix hands a CSV file to np.loadtxt and builds its line list
    only for MatrixMarket or when loadtxt raises; a pipe is read whole
    first."""

    @pytest.mark.parametrize("data", LOAD_CORPUS.values(), ids=LOAD_CORPUS.keys())
    def test_matches_line_path(self, tmp_path, data):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        assert load_outcome(load_matrix, path) == load_outcome(line_path_load, path)

    @pytest.mark.parametrize(
        "header",
        ["", "colA,colB,colC\n", "\r\n\ncolA,colB,colC\r\n"],
        ids=["plain", "header", "blank-lines-then-header"],
    )
    def test_large_csv_builds_no_line_list(self, tmp_path, monkeypatch, header):
        # the first data row (after any header) is the last line drawn
        M = np.random.default_rng(9).standard_normal((50_000, 3))
        path = str(tmp_path / "m.csv")
        save_matrix_csv(M, path)
        with open(path, "r+", encoding="ascii") as f:
            text = f.read()
            f.seek(0)
            f.write(header + text)
        reader = lpc_io._nonblank_lines

        def two_lines_at_most(f):
            for k, item in enumerate(reader(f)):
                if k == 2:
                    raise AssertionError("the line list was built")
                yield item

        monkeypatch.setattr(lpc_io, "_nonblank_lines", two_lines_at_most)
        assert load_matrix(path).tobytes() == M.tobytes()
        with pytest.raises(AssertionError, match="line list"):  # the fallback reads on
            load_matrix(write(tmp_path, "ws.csv", header + "1,2,3\n \n4,5,6\n7,8,9\n"))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize(
        "text",
        ["colA,colB\r\n1,2\r\n \r\n3,4\r\n", "1,2\n3,4\n"],
        ids=["header-crlf-whitespace-line", "plain"],
    )
    def test_pipe_loads(self, tmp_path, text):
        M = _through_pipe(tmp_path, text.encode())
        np.testing.assert_array_equal(M, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "path",
        ["loadtxt", "lines", pytest.param("pipe", marks=pytest.mark.skipif(
            not hasattr(os, "mkfifo"), reason="needs os.mkfifo"))],
    )
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_invalid_utf8_late_names_its_line(self, tmp_path, path, end):
        # a bad byte on line 49,990 of 50,001, read by loadtxt, by the line
        # path (a whitespace-only line 3 makes loadtxt raise first), or from
        # a pipe; the decoder's own position lies inside one 8 KB chunk
        rows = [f"{i}.25,-{i}".encode() for i in range(50_001)]
        rows[49_989] = b"7,\xff8"
        if path == "lines":
            rows[2] = b" "
        data = end.join(rows) + end
        with pytest.raises(MatrixParseError, match="^line 49990: invalid UTF-8 byte 0xff$"):
            if path == "pipe":
                _through_pipe(tmp_path, data)
            else:
                (tmp_path / "m.csv").write_bytes(data)
                load_matrix(tmp_path / "m.csv")


class TestVectors:
    def test_column(self, tmp_path):
        for bom in ("", "\ufeff"):
            v = load_vector(write(tmp_path, "v.csv", bom + "1\n2\n3\n"))
            np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])

    def test_matrix_rejected(self, tmp_path):
        with pytest.raises(MatrixParseError):
            load_vector(write(tmp_path, "v.csv", "1,2\n3,4\n"))


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        for out in (d1, d2):
            generate_instance(50, 3, 1.5, "sparse-gross", 0.1, 7, str(out))
        for name in ("A.csv", "b.csv", "meta.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_corrupted_count_flagged(self, tmp_path):
        _, _, meta_path = generate_instance(
            200, 2, 1.0, "sparse-gross", 0.1, 3, str(tmp_path / "g")
        )
        meta = json.loads(pathlib.Path(meta_path).read_text())
        assert len(meta["corrupted_rows"]) == 20
        assert meta["x_star"] == [1.0, 1.0]

    def test_files_load_consistently(self, tmp_path):
        a_path, b_path, _ = generate_instance(
            40, 2, 2.0, "gaussian", 0.0, 1, str(tmp_path / "g")
        )
        A = load_matrix(a_path)
        b = load_vector(b_path)
        assert A.shape == (40, 2) and b.shape == (40,)


class TestReportJson:
    @pytest.fixture
    def report(self):
        inst = lc.reference_instance(n=120, d=2, p=1.5, seed=3)
        cfg = lc.SamplerConfig(p=1.5, d=2, epsilon=0.1, r1_scale=1e-4, r2_scale=1e-4)
        return lc.two_stage_solve(inst, cfg, seed=5, compute_exact=True)

    def test_roundtrip_exact(self, report):
        doc = json.loads(emit_report(report))
        assert doc["Z_exact"] == report.Z_exact
        assert doc["approx_ratio"] == report.approx_ratio
        assert doc["stage1"]["objective_full"] == report.stage1.full_objective
        assert doc["stage2"]["objective_sampled"] == report.stage2.sampled_objective
        for k in ("stage1", "stage2"):
            out = getattr(report, k)
            assert doc[k]["solver_iterations"] == out.solver_iterations > 0
            assert doc[k]["solver_converged"] is out.solver_converged is True
        assert doc["stage2"]["coreset_indices"] == [
            int(i) for i in report.coreset_indices
        ]
        np.testing.assert_array_equal(doc["stage2"]["scales"], report.coreset_scales)

    def test_exact_baseline_record_follows_z_exact(self, report):
        # the exact solve's Newton steps and converged flag, next to Z_exact
        doc = json.loads(emit_report(report))
        keys = list(doc)
        at = keys.index("Z_exact")
        assert keys[at:at + 4] == [
            "Z_exact", "exact_solver_iterations", "exact_solver_converged", "approx_ratio"
        ]
        assert doc["exact_solver_iterations"] == report.exact_solver_iterations > 1
        assert doc["exact_solver_converged"] is report.exact_solver_converged is True

    def test_seventeen_digit_floats_roundtrip(self):
        vals = [0.1, 1 / 3, math.pi, 1e-300, 123456.789]
        text = json_dumps({"vals": vals})
        assert json.loads(text)["vals"] == vals

    def test_ratio_omitted_without_exact(self):
        inst = lc.reference_instance(n=120, d=2, p=1.5, seed=3)
        cfg = lc.SamplerConfig(p=1.5, d=2, epsilon=0.1, r1_scale=1e-4, r2_scale=1e-4)
        rep = lc.two_stage_solve(inst, cfg, seed=5, compute_exact=False)
        doc = json.loads(emit_report(rep))
        assert "Z_exact" not in doc and "approx_ratio" not in doc
        assert "exact_solver_converged" not in doc
        assert rep.exact_solver_iterations is rep.exact_solver_converged is None

    def test_failed_report_has_status(self, rng):
        A = rng.standard_normal((40, 3))
        inst = lc.RegressionInstance(A=A, b=rng.standard_normal(40), p=2.0)
        cfg = lc.SamplerConfig(p=2.0, d=3, r1_scale=1e-15, r2_scale=1e-15)
        rep = lc.two_stage_solve(inst, cfg, seed=0)
        doc = json.loads(emit_report(rep))
        assert doc["status"] == "failed"
        assert "error" in doc

    def test_fixed_field_order(self, report):
        doc = json.loads(emit_report(report))
        assert list(doc)[:6] == ["n", "m", "d", "p", "epsilon", "seed"]
        assert list(doc["stage1"]) == [
            "expected_count",
            "actual_count",
            "objective_full",
            "objective_sampled",
            "solver_iterations",
            "solver_converged",
        ]


def item_by_item_dumps(obj, indent=0):
    """json_dumps with every list written one recursive call per item."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict) and obj:
        inner = " " * (indent + 2)
        items = [
            f"{inner}{json.dumps(str(k))}: {item_by_item_dumps(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        inner = " " * (indent + 2)
        items = [inner + item_by_item_dumps(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
    return json_dumps(obj, indent)


FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]),
)
JSON_FLOATS = st.one_of(
    FINITE_FLOATS,
    FINITE_FLOATS.map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
)
JSON_SCALARS = st.one_of(
    JSON_FLOATS,
    st.integers(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


class TestJsonLists:
    """json_dumps writes a list of only floats, or of only ints, in one join."""

    @settings(max_examples=150, deadline=None)
    @given(
        obj=st.one_of(
            st.lists(JSON_FLOATS),
            st.lists(st.integers()),
            st.lists(
                st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=4)), max_size=8
            ),
        ),
        indent=st.sampled_from([0, 2, 6]),
    )
    def test_bytes_match_item_by_item(self, obj, indent):
        assert json_dumps(obj, indent) == item_by_item_dumps(obj, indent)
        assert json_dumps(tuple(obj), indent) == item_by_item_dumps(obj, indent)

    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan, np.float64(np.inf), np.float32(np.nan)]
    )
    def test_non_finite_float_raises(self, bad):
        for obj in ([1.0, bad], [bad], np.array([0.5, bad])):
            with pytest.raises(ValueError, match="non-finite"):
                json_dumps(obj)

    def test_bools_stay_json_literals(self):
        assert json_dumps([True, False]) == "[\n  true,\n  false\n]"
        assert json_dumps([1, True, np.bool_(False)]) == "[\n  1,\n  true,\n  false\n]"

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_report_bytes_match_item_by_item(self, p):
        inst = lc.reference_instance(n=3000, d=3, p=p, seed=4)
        cfg = lc.SamplerConfig(p=p, d=3, epsilon=0.1, r1_scale=1e-3, r2_scale=1e-3)
        report = lc.two_stage_solve(inst, cfg, seed=8, compute_exact=True)
        assert report.status == "ok" and len(report.coreset_indices) > 50
        doc = report_to_dict(report)
        assert emit_report(report) == item_by_item_dumps(doc) + "\n"


@pytest.fixture
def instance_files(tmp_path):
    generate_instance(150, 2, 1.5, "sparse-gross", 0.1, 11, str(tmp_path))
    return tmp_path


class TestCli:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(["solve", "--nope"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert run_cli([]) == 1

    def test_missing_file(self, tmp_path, capsys):
        code = run_cli(
            ["solve", "--input", str(tmp_path / "nope.csv"), "--rhs", "x", "--p", "2"]
        )
        assert code == 1

    def test_epsilon_out_of_cli_range(self, instance_files, capsys):
        code = run_cli(
            [
                "solve",
                "--input", str(instance_files / "A.csv"),
                "--rhs", str(instance_files / "b.csv"),
                "--p", "1.5",
                "--epsilon", "0.2",
            ]
        )
        assert code == 1

    def test_invalid_utf8_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "A.csv"
        path.write_bytes(b"1,2\n3,\xc3\n")
        assert run_cli(["solve", "--input", str(path), "--rhs", "x", "--p", "2"]) == 1
        assert "error: line 2: invalid UTF-8 byte 0xc3" in capsys.readouterr().err

    def test_non_finite_rhs_is_clean_error(self, instance_files, capsys):
        b = load_vector(str(instance_files / "b.csv"))
        b[3] = np.nan
        rhs = write(instance_files, "b_nan.csv", "".join(f"{x:.17g}\n" for x in b))
        code = run_cli(
            ["solve", "--input", str(instance_files / "A.csv"), "--rhs", rhs, "--p", "2"]
        )
        assert code == 1
        assert "error: vector contains non-finite entries" in capsys.readouterr().err

    def test_gen_design(self, tmp_path, capsys):
        out = tmp_path / "inst"
        assert run_cli(["gen", "--n", "80", "--d", "2", "--seed", "4",
                        "--design", "heavy-tailed", "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["design"] == "heavy-tailed"
        A, _, _ = lc.make_instance_arrays(80, 2, seed=4, design="heavy-tailed")
        np.testing.assert_array_equal(load_matrix(str(out / "A.csv")), A)
        assert run_cli(["gen", "--n", "80", "--d", "2", "--design", "cauchy",
                        "--out", str(out)]) == 1

    def test_gen_then_solve_exact(self, tmp_path, capsys):
        assert run_cli(["gen", "--n", "80", "--d", "2", "--seed", "4",
                        "--out", str(tmp_path / "inst")]) == 0
        out = str(tmp_path / "report.json")
        code = run_cli(
            [
                "solve",
                "--input", str(tmp_path / "inst" / "A.csv"),
                "--rhs", str(tmp_path / "inst" / "b.csv"),
                "--p", "1.5",
                "--epsilon", "0.1",
                "--seed", "42",
                "--r1-scale", "1e-4",
                "--r2-scale", "1e-4",
                "--exact",
                "--output", out,
            ]
        )
        assert code == 0
        doc = json.loads(pathlib.Path(out).read_text())
        assert doc["approx_ratio"] >= 1.0 - 1e-10

    def test_full_sampling_ratio_one(self, instance_files, tmp_path):
        out = str(tmp_path / "full.json")
        code = run_cli(
            [
                "solve",
                "--input", str(instance_files / "A.csv"),
                "--rhs", str(instance_files / "b.csv"),
                "--p", "1.5",
                "--seed", "1",
                "--r1-scale", "1e9",
                "--r2-scale", "1e9",
                "--exact",
                "--output", out,
            ]
        )
        assert code == 0
        doc = json.loads(pathlib.Path(out).read_text())
        assert doc["approx_ratio"] <= 1.0 + 1e-6

    def test_stage1_only(self, instance_files, tmp_path):
        out = str(tmp_path / "s1.json")
        code = run_cli(
            [
                "solve",
                "--input", str(instance_files / "A.csv"),
                "--rhs", str(instance_files / "b.csv"),
                "--p", "1.5",
                "--stages", "1",
                "--r1-scale", "1e-4",
                "--output", out,
            ]
        )
        assert code == 0
        doc = json.loads(pathlib.Path(out).read_text())
        assert "stage2" not in doc
        assert "coreset_indices" in doc["stage1"]

    def test_solve_determinism(self, instance_files, tmp_path):
        args = [
            "solve",
            "--input", str(instance_files / "A.csv"),
            "--rhs", str(instance_files / "b.csv"),
            "--p", "1.5",
            "--seed", "9",
            "--r1-scale", "1e-4",
            "--r2-scale", "1e-4",
            "--exact",
        ]
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert run_cli(args + ["--output", out1]) == 0
        assert run_cli(args + ["--output", out2]) == 0
        texts = [pathlib.Path(out).read_text() for out in (out1, out2)]
        assert canonical(texts[0]) == canonical(texts[1])

    def test_weighted_variant(self, instance_files, tmp_path):
        w_path = str(tmp_path / "w.csv")
        save_matrix_csv(np.ones((150, 1)), w_path)
        out = str(tmp_path / "w.json")
        code = run_cli(
            [
                "solve",
                "--input", str(instance_files / "A.csv"),
                "--rhs", str(instance_files / "b.csv"),
                "--p", "1.5",
                "--weights", w_path,
                "--r1-scale", "1e-4",
                "--r2-scale", "1e-4",
                "--output", out,
            ]
        )
        assert code == 0
        assert json.loads(pathlib.Path(out).read_text())["config"]["variant"] == "weighted"

    def test_two_column_rhs_is_generalized(self, instance_files, tmp_path):
        A = load_matrix(str(instance_files / "A.csv"))
        b = load_vector(str(instance_files / "b.csv"))
        B_path = str(tmp_path / "B.csv")
        save_matrix_csv(np.column_stack([b, 2.0 * b + A[:, 0]]), B_path)
        out = str(tmp_path / "B.json")
        code = run_cli(
            [
                "solve",
                "--input", str(instance_files / "A.csv"),
                "--rhs", B_path,
                "--p", "1.5",
                "--r1-scale", "1e-3",
                "--r2-scale", "1e-3",
                "--output", out,
            ]
        )
        assert code == 0
        assert json.loads(pathlib.Path(out).read_text())["config"]["variant"] == "generalized"

    @pytest.mark.parametrize("variant", ["generalized", "weighted"])
    def test_instance_kinds_are_not_variants(self, instance_files, capsys, variant):
        # the rhs column count and --weights name these; --variant does not
        code = run_cli(
            [
                "solve",
                "--input", str(instance_files / "A.csv"),
                "--rhs", str(instance_files / "b.csv"),
                "--p", "1.5",
                "--variant", variant,
            ]
        )
        assert code == 1
        assert "usage error: argument --variant: invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["oracle", "augmented"])
    def test_weights_with_single_stage_variants(self, instance_files, tmp_path, variant):
        A = load_matrix(str(instance_files / "A.csv"))
        b = load_vector(str(instance_files / "b.csv"))
        w = np.random.default_rng(3).uniform(0.5, 2.0, 150)
        w_path = str(tmp_path / "w.csv")
        save_matrix_csv(w[:, None], w_path)
        out = str(tmp_path / f"{variant}.json")
        code = run_cli(
            [
                "solve",
                "--input", str(instance_files / "A.csv"),
                "--rhs", str(instance_files / "b.csv"),
                "--p", "1.5",
                "--variant", variant,
                "--weights", w_path,
                "--r2-scale", "2e-4",
                "--exact",
                "--output", out,
            ]
        )
        assert code == 0
        doc = json.loads(pathlib.Path(out).read_text())
        assert doc["config"]["variant"] == variant
        weighted = lc.RegressionInstance(A=A, b=b, p=1.5, weights=w)
        assert doc["Z_exact"] == pytest.approx(weighted.optimum[1], rel=1e-12)
        assert doc["Z_exact"] != pytest.approx(
            lc.RegressionInstance(A=A, b=b, p=1.5).optimum[1], rel=1e-3
        )

    def test_oracle_and_augmented_variants(self, instance_files, tmp_path):
        for variant in ("oracle", "augmented"):
            out = str(tmp_path / f"{variant}.json")
            code = run_cli(
                [
                    "solve",
                    "--input", str(instance_files / "A.csv"),
                    "--rhs", str(instance_files / "b.csv"),
                    "--p", "1.5",
                    "--variant", variant,
                    "--r2-scale", "2e-4",
                    "--exact",
                    "--output", out,
                ]
            )
            assert code == 0
            doc = json.loads(pathlib.Path(out).read_text())
            assert doc["config"]["variant"] == variant
            assert doc["approx_ratio"] >= 1.0 - 1e-10

    def test_oracle_exact_solves_the_full_problem_once(self, instance_files, monkeypatch):
        rows = []
        solve = lc.pipeline.solve_lp_regression

        def counted(A, b, p, *args, **kwargs):
            rows.append(A.shape[0])
            return solve(A, b, p, *args, **kwargs)

        monkeypatch.setattr(lc.pipeline, "solve_lp_regression", counted)
        code = run_cli(
            [
                "solve",
                "--input", str(instance_files / "A.csv"),
                "--rhs", str(instance_files / "b.csv"),
                "--p", "1.5",
                "--variant", "oracle",
                "--r2-scale", "2e-4",
                "--exact",
                "--output", str(instance_files / "oracle.json"),
            ]
        )
        assert code == 0
        # the reference solve's objective serves as Z_exact
        assert rows == [150, 111]

    def test_bench_conditions_and_solves_once_per_exponent(self, tmp_path, monkeypatch):
        n = 2000
        bases, full_solves = [], []
        condition = lc.pipeline.well_conditioned_basis
        solve = lc.pipeline.solve_lp_regression

        def counted_basis(A, *args, **kwargs):
            bases.append(A.shape[0])
            return condition(A, *args, **kwargs)

        def counted_solve(A, b, p, *args, **kwargs):
            if A.shape[0] == n:
                full_solves.append(p)
            return solve(A, b, p, *args, **kwargs)

        for module in (lc.pipeline, lc.cli):
            monkeypatch.setattr(module, "well_conditioned_basis", counted_basis)
            monkeypatch.setattr(module, "solve_lp_regression", counted_solve, raising=False)
        code = run_cli(
            ["bench", "--seeds", "3", "--p", "1.5", "--n", str(n), "--d", "3",
             "--r1-scale", "1e-5", "--r2-scale", "1e-5", "--out", str(tmp_path / "bench")]
        )
        assert code == 0
        assert bases == [n] and full_solves == [1.5]

    @pytest.mark.parametrize("command", ["solve", "certify"])
    def test_non_finite_p_is_clean_error(self, instance_files, capsys, command):
        argv = [command, "--input", str(instance_files / "A.csv"), "--p", "inf"]
        if command == "solve":
            argv += ["--rhs", str(instance_files / "b.csv")]
        assert run_cli(argv) == 1
        assert "error: p must be a finite number >= 1, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["1", "2"])
    def test_certify_output(self, instance_files, capsys, p):
        # at p=2 certify is what reads the basis's U, formed on demand
        code = run_cli(
            ["certify", "--input", str(instance_files / "A.csv"), "--p", p]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certificates_hold = true" in out
        if p == "2":
            # d = 2: the certificates are exactly (sqrt(2), 1)
            assert f"alpha_cert = {math.sqrt(2.0):.12g}\n" in out and "beta_cert = 1\n" in out

    @pytest.mark.parametrize("cert", ["alpha_cert", "beta_cert"])
    def test_certify_reports_a_certificate_below_the_measure(
        self, instance_files, capsys, monkeypatch, cert
    ):
        # certify reports whether the certificates hold; a false one is a
        # result, not an error, so the exit code stays 0
        condition = lc.cli.well_conditioned_basis

        def understated(A, p):
            W = condition(A, p)
            measured = dict(zip(("alpha_cert", "beta_cert"), lc.certify_basis(W)))
            return dataclasses.replace(W, **{cert: 0.5 * measured[cert]})

        monkeypatch.setattr(lc.cli, "well_conditioned_basis", understated)
        code = run_cli(["certify", "--input", str(instance_files / "A.csv"), "--p", "1.5"])
        assert code == 0
        assert "certificates_hold = false\n" in capsys.readouterr().out

    def test_bench_writes_statistics(self, tmp_path):
        out = str(tmp_path / "bench")
        code = run_cli(
            [
                "bench",
                "--seeds", "4",
                "--p", "1,2",
                "--n", "150",
                "--d", "2",
                "--epsilon", "0.1",
                "--r1-scale", "1e-3",
                "--r2-scale", "1e-3",
                "--out", out,
            ]
        )
        assert code == 0
        agg = json.loads(pathlib.Path(out, "bench.json").read_text())
        assert agg["family"] == "reference"
        for key in ("p=1", "p=2"):
            freqs = agg["results"][key]["statistics"]["frequencies"]
            assert set(freqs) == set("abcde")
            assert len(agg["results"][key]["ratio_sweep"]) == 3
        assert os.path.exists(os.path.join(out, "stats_p1.json"))

    def test_bench_determinism(self, tmp_path):
        outs = []
        for name in ("b1", "b2"):
            out = str(tmp_path / name)
            assert run_cli(
                [
                    "bench",
                    "--seeds", "3",
                    "--p", "1.5",
                    "--n", "120",
                    "--d", "2",
                    "--epsilon", "0.1",
                    "--r1-scale", "1e-3",
                    "--r2-scale", "1e-3",
                    "--out", out,
                ]
            ) == 0
            outs.append(pathlib.Path(out, "bench.json").read_text())
        assert outs[0] == outs[1]

    def test_bench_default_epsilon_is_accepted(self, tmp_path):
        out = str(tmp_path / "bench")
        code = run_cli(
            [
                "bench",
                "--seeds", "2",
                "--p", "2",
                "--n", "60",
                "--d", "2",
                "--r1-scale", "1e-3",
                "--r2-scale", "1e-3",
                "--out", out,
            ]
        )
        assert code == 0
        agg = json.loads(pathlib.Path(out, "bench.json").read_text())
        assert agg["epsilon"] == 0.1

    def test_bench_zero_seeds_is_an_error(self, tmp_path, capsys):
        code = run_cli(
            ["bench", "--seeds", "0", "--p", "2", "--n", "60", "--d", "2",
             "--epsilon", "0.1", "--out", str(tmp_path / "bench")]
        )
        assert code == 1
        assert "error: guarantee statistics need n_seeds >= 1" in capsys.readouterr().err

    def test_bench_failed_sweep_run_is_a_solve_failure(self, tmp_path, capsys):
        # the statistics pass, but at half the stage-2 scale a sweep run
        # keeps too few rows for rank 4 in every attempt
        code = run_cli(
            ["bench", "--seeds", "5", "--p", "1", "--n", "300", "--d", "4",
             "--r1-scale", "6e-6", "--r2-scale", "1e-9", "--seed", "0",
             "--out", str(tmp_path / "bench")]
        )
        assert code == 2
        assert "solve failed: ratio sweep at r2_scale=" in capsys.readouterr().err
