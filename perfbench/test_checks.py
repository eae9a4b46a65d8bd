"""The benchmark's checks pass the program's real outputs and reject
deliberately wrong ones.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import reference as ref  # noqa: E402
from checks import CheckError  # noqa: E402
import workloads  # noqa: E402
from workloads import CliTables, LibBatch, LibPoint  # noqa: E402


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    workload = CliTables(7, tmp_path_factory.mktemp("cli"))
    workload.op(0)
    workload.check(None, 0)
    return workload


def _output(workload, kind):
    return next(path for _, k, _, path in workload.calls if k == kind)


def _rewrite(workload, kind, edit):
    """Run the op again, then replace one output with ``edit(text)``."""
    workload.op(1)
    path = _output(workload, kind)
    path.write_text(edit(path.read_text()))


def test_cli_outputs_pass(cli):
    cli.op(1)
    cli.check(None, 1)
    assert cli.values_per_op > cli.evals_per_op > 0


def test_output_not_written_by_the_op_is_rejected(cli, monkeypatch):
    # The previous op's file would pass every check; it must not be found.
    cli.op(1)
    cli.check(None, 1)
    skipped = _output(cli, "surface_json")
    main = workloads.sk_cli.main
    monkeypatch.setattr(workloads.sk_cli, "main",
                        lambda argv: 0 if str(skipped) in argv else main(argv))
    cli.op(1)
    with pytest.raises(CheckError, match="surface_json.out: the call wrote no output"):
        cli.check(None, 1)


def test_dropped_csv_row_is_rejected(cli):
    _rewrite(cli, "curve_csv", lambda text: text.replace(text.splitlines()[5] + "\n", "", 1))
    with pytest.raises(CheckError, match="rows"):
        cli.check(None, 1)


def test_flipped_byte_in_repeated_output_is_rejected(cli):
    # The last digit of an interior control coordinate moves the value by
    # about one ulp: only the repeated-bytes check can see it.
    def flip(text):
        first = text.index("]", text.index('"control"'))
        i = text.index("]", first + 1) - 1
        return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]

    _rewrite(cli, "elevate", flip)
    with pytest.raises(CheckError, match="different bytes"):
        cli.check(None, 1)


def test_missing_polyline_is_rejected(cli):
    def drop(text):
        lines = text.split("\n")
        first = next(i for i, line in enumerate(lines) if line.startswith("<polyline"))
        return "\n".join(lines[:first] + lines[first + 1:])

    _rewrite(cli, "surface_svg", drop)
    with pytest.raises(CheckError, match="polylines"):
        cli.check(None, 1)


def test_wrong_header_is_rejected(cli):
    _rewrite(cli, "basis_csv", lambda text: text.replace("t,k,value", "t,k,val", 1))
    with pytest.raises(CheckError, match="header"):
        cli.check(None, 1)


def test_route_disagreement_in_cli_is_rejected(cli):
    def nudge(text):
        doc = checks.parse_json(text)
        x = doc["samples"][100]["x"]
        return text.replace(format(x, ".17g"), format(x * (1 + 1e-9), ".17g"), 1)

    _rewrite(cli, "curve_json", nudge)
    with pytest.raises(CheckError, match="decasteljau vs direct|exceeds bound"):
        cli.check(None, 1)


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    workload = LibBatch(7, tmp_path_factory.mktemp("batch"))
    workload.check(workload.op(0), 0)
    return workload


def _copy(out):
    return [tuple(np.array(a) for a in case) for case in out]


def test_batch_outputs_pass(batch):
    batch.check(batch.op(1), 1)


@pytest.mark.parametrize("case", range(3))
def test_route_disagreement_in_batch_is_rejected(batch, case):
    out = _copy(batch.op(1))
    direct, pyramid, rows, grid, matrix = out[case]
    pyramid[1234, 1] *= 1 + 1e-9
    with pytest.raises(CheckError, match="decasteljau vs direct"):
        batch.check(out, 1)


def test_basis_row_off_partition_is_rejected(batch):
    out = _copy(batch.op(1))
    row = out[2][2][77]
    row[row.argmax()] *= 1 + 1e-9
    with pytest.raises(CheckError, match="partition of unity"):
        batch.check(out, 1)


def test_inexact_endpoint_is_rejected(batch):
    out = _copy(batch.op(1))
    out[1][0][-1, 0] = np.nextafter(out[1][0][-1, 0], np.inf)
    with pytest.raises(CheckError, match="high end"):
        batch.check(out, 1)


def test_changed_repeat_is_rejected(batch):
    out = _copy(batch.op(1))
    out[0][3][5, 5, 2] = np.nextafter(out[0][3][5, 5, 2], np.inf)
    with pytest.raises(CheckError, match="repeated library call"):
        batch.check(out, 1)


@pytest.fixture(scope="module")
def point(tmp_path_factory):
    return LibPoint(7, tmp_path_factory.mktemp("point"))


def test_point_outputs_pass(point):
    for index in range(3 * LibPoint.EXACT_EVERY):
        point.check(point.op(index), index)


@pytest.mark.parametrize("case", range(3))
def test_basis_value_off_by_1e9_relative_is_rejected(point, case):
    # The bound is absolute, so pick a point whose basis value is not tiny.
    index = next(i for i in range(LibPoint.SLOTS) if point.op(i)[case][5] > 0.1)
    out = [list(c) for c in point.op(index)]
    out[case][5] *= 1 + 1e-9
    with pytest.raises(CheckError, match="basis_value"):
        point.check(out, index)


@pytest.mark.parametrize("route", range(5))
def test_point_route_disagreement_is_rejected(point, route):
    index = 9
    out = [list(c) for c in point.op(index)]
    out[2][route] = out[2][route] + 1e-9 * np.abs(out[2][route]).max()
    with pytest.raises(CheckError, match="exceeds bound"):
        point.check(out, index)


def test_point_outside_hull_is_rejected():
    control = [[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]]
    checks.in_box([[1.0, 1.0]], control, 1e-12, "inside")
    with pytest.raises(CheckError, match="convex hull"):
        checks.in_box([[1.0, 2.0 + 1e-9]], control, 1e-12, "outside")


def test_negative_basis_value_is_rejected():
    rows = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    checks.basis_rows(rows, 1e-15, "rows")
    rows[1] = [1.0 + 1e-300, -1e-300]
    with pytest.raises(CheckError, match="negative"):
        checks.basis_rows(rows, 1e-15, "rows")


def test_tolerance_grows_with_degree_and_condition():
    lo, hi = ref.domain(4.0, 6.0, 3)
    wlo, whi = ref.domain(1e3, 1e4, 3)
    assert ref.tolerance(6, lo, hi) == 2 * ref.tolerance(3, lo, hi)
    assert ref.tolerance(3, wlo, whi) > 100 * ref.tolerance(3, lo, hi)
    # A basis value wrong by 1e-9 relative exceeds the bound at the widest
    # shift and highest degree any workload uses.
    blo, bhi = ref.domain(1e3, 1e4, LibBatch.DEGREE)
    assert ref.tolerance(LibBatch.DEGREE, blo, bhi) < 1e-9 * 0.01
