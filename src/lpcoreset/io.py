"""File formats: CSV / MatrixMarket ingestion, instance generation,
and JSON report emission.

Reports are serialized with a fixed field layout and floats printed at 17
significant digits, so emit -> parse round-trips every numeric field
exactly and identical runs produce byte-identical files.
"""
import json
import math
import os

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
        items = [json_dumps(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {json_dumps(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _parse_csv(lines):
    if lines and not any(_is_number(c) for c in lines[0][1].split(",")):
        lines = lines[1:]  # first line with no numeric cell: header
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
        try:
            n, m = int(sizes[0]), int(sizes[1])
        except ValueError:
            raise MatrixParseError("bad size line", line=size_line) from None
        if len(entries) != n * m:
            raise MatrixParseError(
                f"expected {n * m} entries, found {len(entries)}", line=size_line
            )
        M = np.empty((n, m))
        k = 0
        for j in range(m):  # MatrixMarket array data is column-major
            for i in range(n):
                lineno, s = entries[k]
                try:
                    M[i, j] = float(s.split()[0])
                except (ValueError, IndexError):
                    raise MatrixParseError(f"bad entry {s!r}", line=lineno) from None
                k += 1
        return M

    if len(sizes) != 3:
        raise MatrixParseError("coordinate size line must be 'n m nnz'", line=size_line)
    try:
        n, m, nnz = (int(s) for s in sizes)
    except ValueError:
        raise MatrixParseError("bad size line", line=size_line) from None
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


def load_matrix(path):
    """Load a dense matrix from CSV or MatrixMarket (array or coordinate).

    A file whose first non-blank line starts with the %%MatrixMarket
    banner (in any case) is MatrixMarket, with the layout its header
    names; any other file is CSV.  The file is read as UTF-8; a leading
    byte-order mark is dropped.  Blank lines are skipped and line endings
    may be LF or CRLF.

    A CSV cell is a number in float()'s grammar (surrounding whitespace,
    sign, decimal or exponent form, nan, inf, infinity in any case) without
    '_' digit grouping or non-ASCII characters such as full-width digits;
    each parses to the same double as float().  The first non-blank line
    is a header when none of its cells is a number; a first line that
    mixes numbers and non-numbers is an error.  Malformed inputs raise
    MatrixParseError with a 1-based line number.
    """
    with open(path, "r", encoding="utf-8-sig") as f:
        lines = [
            (lineno, stripped)
            for lineno, line in enumerate(f, 1)
            if (stripped := line.strip())
        ]
    if not lines:
        raise MatrixParseError("empty file", line=1)
    if lines[0][1].lower().startswith(_MM_BANNER):
        return _parse_matrix_market(lines)
    return _parse_csv(lines)


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


def generate_instance(n, d, p, noise_model, corruption_rho, seed, out_dir):
    """Write A.csv, b.csv, and meta.json for a generated instance.

    meta.json records the planted solution, generator parameters, and the
    corrupted row indices.  Identical arguments produce byte-identical
    files.
    """
    A, b, meta = make_instance_arrays(
        n, d, noise_model=noise_model, corruption_rho=corruption_rho, seed=seed
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
