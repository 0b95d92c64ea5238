"""Input checks of the library's entry points: each raise, its error type
and its message."""
import math
import types

import numpy as np
import pytest

import lpcoreset as lc
from lpcoreset import cli, io, kernels, linalg, solver
from lpcoreset.errors import InvalidConfigError


def _generalized():
    A = np.random.default_rng(0).standard_normal((40, 2))
    return lc.RegressionInstance(A=A, b=np.column_stack([A[:, 0] + 1.0, A[:, 1] - 1.0]), p=1.5)


def _cfg():
    return lc.SamplerConfig(p=1.5, d=2)


def _bench_with_no_exponent():
    args = cli._build_parser().parse_args(["bench", "--p", ",", "--out", "unused"])
    return cli._cmd_bench(args)


CHECKS = [
    pytest.param(
        lambda: lc.RegressionInstance(A=np.ones((3, 2)), b=np.ones(4), p=2.0),
        ValueError, "A and b row counts differ", id="instance-rows",
    ),
    pytest.param(
        lambda: lc.two_stage_solve(lc.reference_instance(n=50, d=2), _cfg(), 0, stages=3),
        InvalidConfigError, "stages must be 1 or 2", id="stages-3",
    ),
    pytest.param(
        lambda: lc.single_stage_oracle_solve(_generalized(), None, _cfg(), 10.0, 0),
        InvalidConfigError, "oracle sampling expects a vector right-hand side",
        id="oracle-generalized",
    ),
    pytest.param(
        lambda: lc.single_stage_augmented_solve(_generalized(), _cfg(), 10.0, 0),
        InvalidConfigError, "augmented sampling expects a vector right-hand side",
        id="augmented-generalized",
    ),
    pytest.param(
        lambda: lc.guarantee_statistics(_generalized(), _cfg(), 2),
        InvalidConfigError, "guarantee statistics expect a vector right-hand side",
        id="statistics-generalized",
    ),
    pytest.param(
        lambda: lc.make_instance_arrays(10, 2, corruption_rho=1.0),
        InvalidConfigError, r"corruption_rho must lie in \[0, 1\)", id="rho-one",
    ),
    pytest.param(
        lambda: lc.make_instance_arrays(10, 2, corruption_rho=-0.1),
        InvalidConfigError, r"corruption_rho must lie in \[0, 1\)", id="rho-negative",
    ),
    pytest.param(
        lambda: lc.make_instance_arrays(10, 2, noise_model="laplace"),
        InvalidConfigError, "unknown noise model 'laplace'", id="noise-model",
    ),
    pytest.param(
        lambda: lc.SamplerConfig(p=2.0, d=0),
        InvalidConfigError, "d must be >= 1, got 0", id="config-d",
    ),
    pytest.param(
        lambda: lc.SamplerConfig(p=2.0, d=2, r1_scale=-1.0),
        InvalidConfigError, "scale multipliers must be nonnegative", id="config-scale",
    ),
    *[
        pytest.param(
            lambda field=field, value=value: lc.SamplerConfig(p=2.0, d=2, **{field: value}),
            InvalidConfigError, "scale multipliers must be nonnegative and finite",
            id=f"config-{field}-{value}",
        )
        for field in ("r1_scale", "r2_scale")
        for value in (math.nan, math.inf, -math.inf)
    ],
    pytest.param(
        lambda: lc.stage1_rule(types.SimpleNamespace(leverage=np.full(4, 0.25)), -1.0),
        ValueError, "r1 must be nonnegative", id="stage1-r1",
    ),
    pytest.param(
        lambda: lc.realize_sample(np.full((2, 2), 0.5), 2.0, 0),
        ValueError, "probs must be a vector", id="realize-2d",
    ),
    pytest.param(
        lambda: lc.apply_plan(lc.realize_sample(np.ones(5), 2.0, 0), np.ones((5, 2)), np.ones(4)),
        ValueError, "right-hand side length does not match the plan", id="apply-rhs",
    ),
    pytest.param(
        lambda: solver.row_scaled(np.ones((3, 2)), np.ones(3), np.ones(2), 1.5),
        ValueError, "weights length does not match A", id="weights-length",
    ),
    pytest.param(
        lambda: solver.row_scaled(np.ones((3, 2)), np.ones(3), np.array([1.0, -1.0, 1.0]), 1.5),
        ValueError, "weights must be nonnegative", id="weights-negative",
    ),
    pytest.param(
        lambda: linalg._as_2d(np.ones(3)),
        ValueError, r"expected a 2-D matrix, got shape \(3,\)", id="as-2d",
    ),
    pytest.param(
        lambda: kernels.row_pnorms(np.ones(3), 2.0),
        ValueError, "row_pnorms expects a 2-D array", id="row-pnorms-1d",
    ),
    pytest.param(
        lambda: io.json_dumps({"a": object()}),
        TypeError, "cannot serialize object", id="json-object",
    ),
    pytest.param(
        _bench_with_no_exponent,
        cli._UsageError, "--p must name at least one exponent", id="bench-no-exponent",
    ),
]


@pytest.mark.parametrize("call, error, message", CHECKS)
def test_input_check(call, error, message):
    with pytest.raises(error, match=message):
        call()
