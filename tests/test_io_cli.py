import json
import math
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lpcoreset as lc
from lpcoreset.cli import run_cli
from lpcoreset.errors import MatrixParseError
from lpcoreset.io import (
    emit_report,
    generate_instance,
    json_dumps,
    load_matrix,
    load_vector,
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

    def test_declared_layout_checked(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n"
        path = write(tmp_path, "m.mtx", text)
        np.testing.assert_array_equal(load_matrix(path), [[2.0]])


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
        assert doc["stage2"]["coreset_indices"] == [
            int(i) for i in report.coreset_indices
        ]
        np.testing.assert_array_equal(doc["stage2"]["scales"], report.coreset_scales)

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
        ]


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

    def test_non_finite_rhs_is_clean_error(self, instance_files, capsys):
        b = load_vector(str(instance_files / "b.csv"))
        b[3] = np.nan
        rhs = write(instance_files, "b_nan.csv", "".join(f"{x:.17g}\n" for x in b))
        code = run_cli(
            ["solve", "--input", str(instance_files / "A.csv"), "--rhs", rhs, "--p", "2"]
        )
        assert code == 1
        assert "error: vector contains non-finite entries" in capsys.readouterr().err

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
                "--variant", "weighted",
                "--weights", w_path,
                "--r1-scale", "1e-4",
                "--r2-scale", "1e-4",
                "--output", out,
            ]
        )
        assert code == 0
        assert json.loads(pathlib.Path(out).read_text())["config"]["variant"] == "weighted"

    @pytest.mark.parametrize("variant", ["two-stage", "generalized", "oracle", "augmented"])
    def test_weights_outside_weighted_variant_is_usage_error(self, tmp_path, capsys, variant):
        # none of the files exists: the flags are rejected before any is read
        code = run_cli(
            [
                "solve",
                "--input", str(tmp_path / "A.csv"),
                "--rhs", str(tmp_path / "b.csv"),
                "--p", "1.5",
                "--variant", variant,
                "--weights", str(tmp_path / "w.csv"),
            ]
        )
        assert code == 1
        assert "usage error: --weights goes only with --variant weighted" in (
            capsys.readouterr().err
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

    def test_certify_output(self, instance_files, capsys):
        code = run_cli(
            ["certify", "--input", str(instance_files / "A.csv"), "--p", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certificates_hold = true" in out

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
