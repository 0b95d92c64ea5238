"""File formats: CSV / MatrixMarket ingestion, instance generation,
and JSON report emission.  np.loadtxt reads a CSV from the open file;
the list of stripped lines is built only for MatrixMarket, or when
loadtxt raises.

Reports are serialized with a fixed field layout and floats printed at 17
significant digits, so emit -> parse round-trips every numeric field
exactly and identical runs produce byte-identical files.
"""
import itertools
import json
import math
import os
from io import BytesIO, TextIOWrapper

import numpy as np

from .errors import MatrixParseError
from .pipeline import make_instance_arrays

_MM_BANNER = "%%matrixmarket"
# Rows formatted per write in save_matrix_csv.  Joining all rows at once
# held 27 MB of Python objects for a 50,000 x 8 matrix, growing with n;
# 4096-row blocks hold about 2 MB and wrote it no slower.
_CSV_WRITE_ROWS = 4096


def _format_float(x):
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def json_dumps(obj, indent=0):
    """Deterministic JSON with 17-significant-digit floats.

    Dict insertion order is preserved (the report schema fixes it);
    numpy scalars and arrays are accepted.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is int for v in obj):  # bools and numpy ints recurse
            items = map(str, obj)
        elif all(isinstance(v, (float, np.floating)) for v in obj):
            items = map(_format_float, obj)
        else:
            items = [json_dumps(v, indent + 2) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {json_dumps(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _is_header(line):  # a first line with no numeric cell
    return not any(_is_number(c) for c in line.split(","))


def _parse_csv(lines):
    if lines and _is_header(lines[0][1]):
        lines = lines[1:]
    if not lines:
        raise MatrixParseError("no data rows found", line=1)
    try:
        return np.loadtxt(
            [s for _, s in lines],
            delimiter=",",
            comments=None,
            ndmin=2,
            dtype=np.float64,
        )
    except ValueError as err:
        _locate_csv_error(lines)
        raise MatrixParseError(f"unparsable CSV: {err}") from err


def _locate_csv_error(lines):
    """Raise MatrixParseError at the first bad line; builds no values."""
    width = None
    for lineno, raw in lines:
        cells = raw.split(",")
        bad = next((c for c in cells if not _is_number(c)), None)
        if bad is not None:
            raise MatrixParseError(f"non-numeric cell {bad.strip()!r}", line=lineno)
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise MatrixParseError(
                f"ragged row: expected {width} cells, got {len(cells)}", line=lineno
            )


def _is_number(s):
    """True when s is one CSV number: float()'s grammar, ASCII, no '_'."""
    s = s.strip()
    if not s.isascii() or "_" in s:
        return False
    try:
        float(s)
        return True
    except ValueError:
        return False


def _mm_sizes(fields, line):
    """The sizes of a MatrixMarket size line, nonnegative integers."""
    try:
        sizes = [int(s) for s in fields]
    except ValueError:
        raise MatrixParseError("bad size line", line=line) from None
    if min(sizes) < 0:
        raise MatrixParseError("negative size", line=line)
    return sizes


def _parse_matrix_market(lines):
    header_line, header = lines[0]
    fields = header.split()
    if len(fields) != 5:
        raise MatrixParseError(
            "MatrixMarket header must have 5 fields "
            "(%%MatrixMarket matrix <format> <field> <symmetry>)",
            line=header_line,
        )
    _, obj, fmt, field, symmetry = (f.lower() for f in fields)
    if obj != "matrix":
        raise MatrixParseError(f"unsupported object {obj!r}", line=header_line)
    if fmt not in ("array", "coordinate"):
        raise MatrixParseError(f"unsupported format {fmt!r}", line=header_line)
    if field not in ("real", "integer"):
        raise MatrixParseError(
            f"unsupported field {field!r} (only real/integer)", line=header_line
        )
    if symmetry != "general":
        raise MatrixParseError(
            f"unsupported symmetry {symmetry!r} (only general)", line=header_line
        )

    body = [(ln, s) for ln, s in lines[1:] if not s.startswith("%")]
    if not body:
        raise MatrixParseError("missing size line", line=header_line)
    size_line, size_str = body[0]
    sizes = size_str.split()
    entries = body[1:]

    if fmt == "array":
        if len(sizes) != 2:
            raise MatrixParseError("array size line must be 'n m'", line=size_line)
        n, m = _mm_sizes(sizes, size_line)
        if len(entries) != n * m:
            raise MatrixParseError(
                f"expected {n * m} entries, found {len(entries)}", line=size_line
            )
        M = np.empty((n, m))
        try:
            values = [float(s.split()[0]) for _, s in entries]
        except ValueError:
            for lineno, s in entries:  # raise at the first bad entry
                try:
                    float(s.split()[0])
                except ValueError:
                    raise MatrixParseError(f"bad entry {s!r}", line=lineno) from None
        M.T[...] = np.reshape(values, (m, n))  # MatrixMarket array data is column-major
        return M

    if len(sizes) != 3:
        raise MatrixParseError("coordinate size line must be 'n m nnz'", line=size_line)
    n, m, nnz = _mm_sizes(sizes, size_line)
    if len(entries) != nnz:
        raise MatrixParseError(
            f"expected {nnz} entries, found {len(entries)}", line=size_line
        )
    M = np.zeros((n, m))
    for lineno, s in entries:
        parts = s.split()
        if len(parts) != 3:
            raise MatrixParseError(f"coordinate entry needs 'i j value'", line=lineno)
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise MatrixParseError(f"bad entry {s!r}", line=lineno) from None
        if not (1 <= i <= n and 1 <= j <= m):
            raise MatrixParseError(f"index ({i}, {j}) out of bounds", line=lineno)
        M[i - 1, j - 1] += v  # duplicates are summed, per MM convention
    return M


def _nonblank_lines(f):
    for lineno, line in enumerate(f, 1):
        if stripped := line.strip():
            yield lineno, stripped


def load_matrix(path):
    """Load a dense matrix from CSV or MatrixMarket (array or coordinate).

    A file whose first non-blank line starts with the %%MatrixMarket
    banner (in any case) is MatrixMarket, with the layout its header
    names; any other file is CSV.  The file is read as UTF-8; a leading
    byte-order mark is dropped.  Blank lines are skipped and line endings
    may be LF, CRLF or CR.  The file is opened once, and np.loadtxt reads a
    CSV from it; the list of stripped non-blank lines is built only for
    MatrixMarket, or when loadtxt raises.  A pipe is read whole into
    memory first, so that it too can be read again.

    A CSV cell is a number in float()'s grammar (surrounding whitespace,
    sign, decimal or exponent form, nan, inf, infinity in any case) without
    '_' digit grouping or non-ASCII characters such as full-width digits;
    each parses to the same double as float().  The first non-blank line
    is a header when none of its cells is a number; a first line that
    mixes numbers and non-numbers is an error.  Malformed inputs, and a
    byte that is not UTF-8, raise MatrixParseError with a 1-based line
    number.
    """
    with open(path, "rb") as f:
        raw = f if f.seekable() else BytesIO(f.read())
        text = TextIOWrapper(raw, encoding="utf-8-sig")
        try:
            return _load_text(text)
        except UnicodeDecodeError:
            raw.seek(0)
            _raise_at_invalid_utf8(raw.read())
            raise


def _load_text(f):
    """load_matrix of the seekable text file f."""
    lines = _nonblank_lines(f)
    head = list(itertools.islice(lines, 2))
    skip = head[0][0] if head and _is_header(head[0][1]) else 0  # header's line
    csv = head and not head[0][1].lower().startswith(_MM_BANNER)
    # loadtxt warns on a file with no data row
    if csv and len(head) > bool(skip):
        f.seek(0)
        try:
            return np.loadtxt(f, delimiter=",", comments=None, ndmin=2, skiprows=skip)
        except ValueError:  # a whitespace-only line, a bad cell, a ragged row
            f.seek(0)
            head, lines = [], _nonblank_lines(f)
    lines = head + list(lines)
    if not lines:
        raise MatrixParseError("empty file", line=1)
    if lines[0][1].lower().startswith(_MM_BANNER):
        return _parse_matrix_market(lines)
    return _parse_csv(lines)


def _raise_at_invalid_utf8(data):
    """Raise MatrixParseError at the line of the first byte of data that is
    not UTF-8, lines ending at LF, CRLF or CR as the text reader ends them."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[:err.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise MatrixParseError(f"invalid UTF-8 byte 0x{data[err.start]:02x}", line=line) from None


def load_vector(path):
    """Load a vector: a one-column (or one-row) matrix, flattened."""
    M = load_matrix(path)
    if 1 not in M.shape:
        raise MatrixParseError(
            f"expected a vector, got a {M.shape[0]}x{M.shape[1]} matrix", line=1
        )
    return M.ravel()


def save_matrix_csv(M, path):
    """Write M as CSV, one row per line, floats at 17 significant digits."""
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    if not np.isfinite(M).all():
        bad = M[~np.isfinite(M)][0]
        raise ValueError(f"cannot serialize non-finite value {float(bad)!r}")
    fmt = ",".join(["%.17g"] * M.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as f:
        for i in range(0, M.shape[0], _CSV_WRITE_ROWS):
            f.write("".join(fmt % tuple(r) for r in M[i : i + _CSV_WRITE_ROWS].tolist()))


def generate_instance(n, d, p, noise_model, corruption_rho, seed, out_dir, design="gaussian"):
    """Write A.csv, b.csv, and meta.json for a generated instance of the
    row design design (pipeline.DESIGNS).

    meta.json records the planted solution, generator parameters, and the
    corrupted row indices.  Identical arguments produce byte-identical
    files.
    """
    A, b, meta = make_instance_arrays(
        n, d, noise_model=noise_model, corruption_rho=corruption_rho, seed=seed, design=design
    )
    meta["p"] = float(p)
    os.makedirs(out_dir, exist_ok=True)
    a_path = os.path.join(out_dir, "A.csv")
    b_path = os.path.join(out_dir, "b.csv")
    meta_path = os.path.join(out_dir, "meta.json")
    save_matrix_csv(A, a_path)
    save_matrix_csv(b[:, None], b_path)
    with open(meta_path, "w", encoding="utf-8") as f:
        f.write(json_dumps(meta))
        f.write("\n")
    return a_path, b_path, meta_path


def _stage_dict(out, with_coreset):
    d = {
        "expected_count": out.plan.expected_count if out.plan is not None else 0.0,
        "actual_count": out.plan.actual_count if out.plan is not None else 0,
        "objective_full": out.full_objective,
        "objective_sampled": out.sampled_objective,
        "solver_iterations": out.solver_iterations,
        "solver_converged": out.solver_converged,
    }
    if out.exact_passthrough:
        d["exact_passthrough"] = True
    if with_coreset:
        idx = out.plan.realized_indices if out.plan is not None else []
        scales = out.plan.scales if out.plan is not None else []
        d["coreset_indices"] = [int(i) for i in idx]
        d["scales"] = list(scales)
    return d


def report_to_dict(report):
    """Fixed-layout dict for a SolveReport (the JSON schema)."""
    doc = {
        "n": report.n,
        "m": report.m,
        "d": report.d,
        "p": report.p,
        "epsilon": report.epsilon,
        "seed": report.seed,
    }
    if report.status != "ok":
        doc["status"] = report.status
        doc["error"] = report.error or ""
    final_is_stage1 = report.stage2 is None
    if report.stage1 is not None:
        doc["stage1"] = _stage_dict(report.stage1, with_coreset=final_is_stage1)
    if report.stage2 is not None:
        doc["stage2"] = _stage_dict(report.stage2, with_coreset=True)
    if report.Z_exact is not None:
        doc["Z_exact"] = report.Z_exact
        doc["exact_solver_iterations"] = report.exact_solver_iterations
        doc["exact_solver_converged"] = report.exact_solver_converged
        if report.approx_ratio is not None:
            doc["approx_ratio"] = report.approx_ratio
    doc["timings_ms"] = dict(report.timings_ms)
    doc["config"] = dict(report.config)
    return doc


def emit_report(report, path=None):
    """Serialize a report; returns the JSON text, writing it when path given."""
    text = json_dumps(report_to_dict(report)) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    return text
