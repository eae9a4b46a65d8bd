import itertools
import json
import random
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

    def test_module_main_reports_a_missing_directory(self, tmp_path):
        out = tmp_path / "missing" / "regen.json"
        proc = run_shiftknot("--output", str(out), module="shiftknot.oracle")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("python -m shiftknot.oracle: error: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


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


# Rational shift pairs of the paper-claim tests: classical, the usual
# example, unequal fractions, equal shifts and a wide pair.
PAPER_SHIFTS = [(0, 0), (4, 6), (F(1, 3), F(5, 2)), (F(7, 2), F(7, 2)), (1000, 10000)]


def _params(alpha, beta, n, count, *, ends, seed):
    """``count`` strictly increasing rational parameters of the degree-n
    domain: random interior ones, and both ends too if ``ends``."""
    lo, hi = domain_exact(alpha, beta, n)
    inner = count - 2 if ends else count
    cuts = sorted(random.Random(seed).sample(range(1, 97), inner))
    units = [F(0), *(F(c, 97) for c in cuts), F(1)] if ends else [F(c, 97) for c in cuts]
    return [lo + (hi - lo) * u for u in units]


def _neville_pivots(matrix):
    """The pivots ``p[i][j]``, ``i >= j``, of the Neville elimination of a
    square matrix of Fractions: column by column, each row from the bottom
    up loses its entry by a multiple of the row just above it. Fails if a
    row would need an exchange: a zero above a nonzero entry."""
    a = [list(row) for row in matrix]
    size = len(a)
    pivots = []
    for j in range(size):
        pivots += [a[i][j] for i in range(j, size)]
        for i in range(size - 1, j, -1):
            if a[i][j]:
                assert a[i - 1][j], f"row {i} of column {j} needs a row exchange"
                factor = a[i][j] / a[i - 1][j]
                a[i] = [x - factor * y for x, y in zip(a[i], a[i - 1])]
    return pivots


def _det(matrix):
    """Determinant of a square matrix of Fractions by Gaussian elimination."""
    a = [list(row) for row in matrix]
    det = F(1)
    for j in range(len(a)):
        pivot = next((i for i in range(j, len(a)) if a[i][j]), None)
        if pivot is None:
            return F(0)
        if pivot != j:
            a[j], a[pivot] = a[pivot], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, len(a)):
            factor = a[i][j] / a[j][j]
            a[i] = [x - factor * y for x, y in zip(a[i], a[j])]
    return det


def _reduce_forward(elevated):
    """Forrest's forward recursion: the degree-n polygon ``P`` whose
    elevation is ``elevated``, from ``Q_j = (j P_{j-1} + (n + 1 - j) P_j)
    / (n + 1)`` solved for ``P_j`` with ``j`` rising from ``P_0 = Q_0``."""
    n = len(elevated) - 2
    reduced = [elevated[0]]
    for j in range(1, n + 1):
        reduced.append([((n + 1) * q - j * p) / (n + 1 - j)
                        for q, p in zip(elevated[j], reduced[-1])])
    return reduced


def _reduce_backward(elevated):
    """Forrest's backward recursion: the same equations solved for
    ``P_{j-1}`` with ``j`` falling from ``P_n = Q_{n+1}``."""
    n = len(elevated) - 2
    reduced = [elevated[-1]]
    for j in range(n, 0, -1):
        reduced.append([((n + 1) * q - (n + 1 - j) * p) / j
                        for q, p in zip(elevated[j], reduced[-1])])
    return reduced[::-1]


class TestPaperClaims:
    """The paper's degree elevation and total positivity, in exact arithmetic."""

    def test_the_checks_reject_what_is_not_totally_positive(self):
        assert _neville_pivots([[F(1), F(2)], [F(3), F(4)]]) == [1, 3, -2]
        with pytest.raises(AssertionError, match="row exchange"):
            _neville_pivots([[F(0), F(1)], [F(1), F(0)]])
        assert _det([[F(0), F(1)], [F(1), F(0)]]) == -1

    @pytest.mark.parametrize("alpha, beta", PAPER_SHIFTS, ids=str)
    def test_elevation_traces_the_same_curve(self, alpha, beta):
        # the degree-(n+1) polygon over its own domain against the degree-n
        # polygon over its domain, at equal normalized parameters
        rng = random.Random(str((alpha, beta)))
        for n in range(1, 13):
            control = [[F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(2)]
                       for _ in range(n + 1)]
            elevated = [[sum(e * p[c] for e, p in zip(row, control)) for c in range(2)]
                        for row in elevation_matrix_exact(n)]
            lo, hi = domain_exact(alpha, beta, n)
            lo_up, hi_up = domain_exact(alpha, beta, n + 1)
            for u in [F(0), F(1, 7), F(1, 2), F(5, 9), F(1)]:
                assert (eval_curve_exact(alpha, beta, elevated, lo_up + (hi_up - lo_up) * u)
                        == eval_curve_exact(alpha, beta, control, lo + (hi - lo) * u)), (n, u)

    @pytest.mark.parametrize("alpha, beta", PAPER_SHIFTS, ids=str)
    def test_degree_reduction_recovers_the_polygon(self, alpha, beta):
        # Forrest (Comput. J. 15, 1972): either recursion inverts the
        # elevation exactly, and on a polygon that is no elevation the two
        # disagree
        rng = random.Random(str((alpha, beta, "reduce")))
        for n in range(1, 13):
            control = [[F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(2)]
                       for _ in range(n + 1)]
            elevated = [[sum(e * p[c] for e, p in zip(row, control)) for c in range(2)]
                        for row in elevation_matrix_exact(n)]
            assert _reduce_forward(elevated) == control, n
            assert _reduce_backward(elevated) == control, n
            bent = [list(q) for q in elevated]
            bent[rng.randint(0, n + 1)][0] += 1
            assert _reduce_forward(bent) != _reduce_backward(bent), n

    @pytest.mark.parametrize("alpha, beta", PAPER_SHIFTS, ids=str)
    def test_collocation_matrices_are_totally_positive(self, alpha, beta):
        # Gasca & Pena: a nonsingular matrix is totally positive when the
        # Neville elimination of it and of its transpose needs no row
        # exchange and gives positive pivots
        for n in range(1, 13):
            ts = _params(alpha, beta, n, n + 1, ends=False, seed=n)
            matrix = [basis_row_exact(alpha, beta, n, t) for t in ts]
            for m in (matrix, [list(col) for col in zip(*matrix)]):
                pivots = _neville_pivots(m)
                assert len(pivots) == (n + 1) * (n + 2) // 2
                assert all(p > 0 for p in pivots), n

    @pytest.mark.parametrize("alpha, beta", PAPER_SHIFTS, ids=str)
    def test_every_minor_is_nonnegative(self, alpha, beta):
        # with both domain ends among the parameters, where entries vanish
        for n in range(1, 6):
            ts = _params(alpha, beta, n, n + 1, ends=True, seed=n)
            assert (ts[0], ts[-1]) == domain_exact(alpha, beta, n)
            matrix = [basis_row_exact(alpha, beta, n, t) for t in ts]
            for size in range(1, n + 2):
                for rows in itertools.combinations(range(n + 1), size):
                    for cols in itertools.combinations(range(n + 1), size):
                        minor = _det([[matrix[i][k] for k in cols] for i in rows])
                        assert minor >= 0, (n, rows, cols)
