import json
from fractions import Fraction

import numpy as np
import pytest

from shiftknot import Curve, SurfacePatch, basis_row, eval_decasteljau, eval_patch, make_config
from shiftknot.errors import ConstraintError, DomainError
from shiftknot.oracle import (
    DEFAULT_SEED,
    basis_row_exact,
    basis_value_exact,
    check_shift,
    domain_exact,
    elevation_matrix_exact,
    eval_curve_exact,
    eval_patch_exact,
    generate_fixtures,
)

from _helpers import run_shiftknot
from conftest import FIXTURE_PATH


F = Fraction


class TestExactPrimitives:
    def test_domain_frozen(self):
        assert domain_exact(4, 6, 3) == (F(4, 9), F(7, 9))
        assert domain_exact(2, 2, 2) == (F(1, 2), F(1))
        assert domain_exact(0, 0, 7) == (F(0), F(1))

    def test_basis_value_frozen(self):
        assert basis_value_exact(4, 6, 3, 1, F(3, 5)) == F(36288, 91125)

    def test_basis_row_frozen(self):
        row = basis_row_exact(4, 6, 3, F(3, 5))
        assert row == [F(13824, 91125), F(36288, 91125), F(31752, 91125), F(9261, 91125)]
        assert sum(row) == 1

    def test_rows_sum_to_one_exactly(self):
        for alpha, beta, n in [(0, 0, 5), (F(1, 2), 3, 4), (4, 6, 8), (7, 7, 2)]:
            lo, hi = domain_exact(alpha, beta, n)
            for j in range(5):
                t = lo + (hi - lo) * F(j, 4)
                assert sum(basis_row_exact(alpha, beta, n, t)) == 1

    def test_curve_point_frozen(self):
        control = [[k, k * k] for k in range(4)]
        assert eval_curve_exact(4, 6, control, F(3, 5)) == (F(7, 5), F(203, 75))

    def test_patch_center_frozen(self):
        net = [
            [[0, 0, 0], [0, 1, 0]],
            [[1, 0, 0], [1, 1, 2]],
        ]
        lo, hi = domain_exact(4, 6, 1)
        mid = (lo + hi) / 2
        assert eval_patch_exact(4, 6, net, mid, mid) == (F(1, 2), F(1, 2), F(1, 2))

    def test_elevation_matrix_frozen(self):
        assert elevation_matrix_exact(1) == [
            [F(1), F(0)],
            [F(1, 2), F(1, 2)],
            [F(0), F(1)],
        ]
        assert elevation_matrix_exact(2)[1] == [F(1, 3), F(2, 3), F(0)]

    def test_validation(self):
        with pytest.raises(ConstraintError):
            check_shift(3, 2)
        with pytest.raises(ConstraintError):
            domain_exact(0, 0, 0)
        with pytest.raises(DomainError):
            basis_value_exact(4, 6, 3, 0, F(1, 3))
        with pytest.raises(IndexError):
            basis_value_exact(0, 0, 2, 3, F(1, 2))
        with pytest.raises(ConstraintError):
            check_shift("x", 2)


class TestFixtureFile:
    def test_counts(self, oracle_fixtures):
        assert len(oracle_fixtures["basis"]) == 100
        assert len(oracle_fixtures["curve"]) == 60
        assert len(oracle_fixtures["patch"]) == 40
        assert oracle_fixtures["seed"] == DEFAULT_SEED

    def test_schema(self, oracle_fixtures):
        b = oracle_fixtures["basis"][0]
        assert set(b) == {"alpha", "beta", "n", "k", "t", "value"}
        c = oracle_fixtures["curve"][0]
        assert set(c) == {"alpha", "beta", "degree", "control", "t", "value"}
        p = oracle_fixtures["patch"][0]
        assert set(p) == {"alpha", "beta", "m", "n", "net", "u", "v", "value"}

    def test_values_are_reduced_rationals(self, oracle_fixtures):
        for case in oracle_fixtures["basis"][:20]:
            v = F(case["value"])
            assert 0 <= v <= 1

    def test_regeneration_is_deterministic(self, oracle_fixtures):
        assert generate_fixtures() == oracle_fixtures

    def test_file_matches_emitter_bytes(self, tmp_path):
        from shiftknot.oracle import write_fixtures

        out = tmp_path / "regen.json"
        write_fixtures(str(out))
        assert out.read_bytes() == FIXTURE_PATH.read_bytes()

    def test_module_main_writes_the_file_bytes(self, tmp_path):
        out = tmp_path / "regen.json"
        proc = run_shiftknot("--output", str(out), module="shiftknot.oracle")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"wrote 200 fixtures to {out}\n"
        assert out.read_bytes() == FIXTURE_PATH.read_bytes()

    def test_module_main_rejects_removed_flags(self, tmp_path):
        out = tmp_path / "regen.json"
        proc = run_shiftknot("--output", str(out), "--seed", "1", module="shiftknot.oracle")
        assert proc.returncode == 2
        assert not out.exists()


class TestFloatAgreement:
    """The float kernels must track the exact values on the bundled tables."""

    def test_basis_fixtures(self, oracle_fixtures):
        worst = 0.0
        for case in oracle_fixtures["basis"]:
            cfg = make_config(float(F(case["alpha"])), float(F(case["beta"])))
            got = basis_row(cfg, case["n"], float(F(case["t"])), clamp=True)[case["k"]]
            worst = max(worst, abs(got - float(F(case["value"]))))
        assert worst <= 1e-12

    def test_curve_fixtures(self, oracle_fixtures):
        worst = 0.0
        for case in oracle_fixtures["curve"]:
            cfg = make_config(float(F(case["alpha"])), float(F(case["beta"])))
            control = [[float(F(c)) for c in p] for p in case["control"]]
            curve = Curve(cfg, control)
            got = eval_decasteljau(curve, float(F(case["t"])), clamp=True)
            want = np.array([float(F(c)) for c in case["value"]])
            worst = max(worst, np.abs(got - want).max())
        assert worst <= 1e-12

    def test_patch_fixtures(self, oracle_fixtures):
        worst = 0.0
        for case in oracle_fixtures["patch"]:
            cfg = make_config(float(F(case["alpha"])), float(F(case["beta"])))
            net = [[[float(F(c)) for c in p] for p in row] for row in case["net"]]
            patch = SurfacePatch(cfg, net)
            got = eval_patch(patch, float(F(case["u"])), float(F(case["v"])), clamp=True)
            want = np.array([float(F(c)) for c in case["value"]])
            worst = max(worst, np.abs(got - want).max())
        assert worst <= 1e-12
