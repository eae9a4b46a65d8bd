"""End-to-end command runs through ``python -m shiftknot``.

Each invocation is a real subprocess so exit codes, stdout/stderr split and
byte determinism are tested exactly as a shell user sees them. The golden
byte matrix at the end calls ``cli.main`` in-process, for speed.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from shiftknot import (Curve, SurfacePatch, eval_direct, load_curve, make_config, sample_curve,
                       save_curve, save_patch)
from shiftknot import cli, files

from _helpers import run_shiftknot


def run_cli(*argv, expect=0):
    proc = run_shiftknot(*argv)
    assert proc.returncode == expect, (proc.returncode, proc.stderr)
    return proc


@pytest.fixture(scope="module")
def curve_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "parabola.json"
    save_curve(
        Curve(make_config(4, 6), [[0.0, 0.0], [1.0, 1.0], [2.0, 4.0], [3.0, 9.0]]), path
    )
    return str(path)


@pytest.fixture(scope="module")
def patch_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "patch.json"
    net = [
        [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[1.0, 0.0, 0.0], [1.0, 1.0, 2.0]],
    ]
    save_patch(SurfacePatch(make_config(4, 6), net), path)
    return str(path)


class TestBasisCommand:
    def test_csv_covers_domain_and_sums_to_one(self):
        proc = run_cli(
            "basis", "--alpha", "4", "--beta", "6", "--degree", "3",
            "--samples", "10", "--format", "csv",
        )
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "t,k,value"
        assert len(lines) == 1 + 10 * 4
        ts = sorted({float(line.split(",")[0]) for line in lines[1:]})
        assert ts[0] == pytest.approx(4 / 9, abs=1e-15)
        assert ts[-1] == pytest.approx(7 / 9, abs=1e-15)
        by_t = {}
        for line in lines[1:]:
            t, _, v = line.split(",")
            by_t.setdefault(t, 0.0)
            by_t[t] += float(v)
        for total in by_t.values():
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_json_carries_domain_metadata(self):
        proc = run_cli(
            "basis", "--alpha", "4", "--beta", "6", "--degree", "2",
            "--samples", "5", "--format", "json",
        )
        data = json.loads(proc.stdout)
        assert data["degree"] == 2
        assert data["domain"][0] == pytest.approx(0.5)
        assert data["domain"][1] == pytest.approx(0.75)
        assert len(data["samples"]) == 5 * 3

    def test_svg_has_one_polyline_per_function(self):
        proc = run_cli(
            "basis", "--alpha", "4", "--beta", "6", "--degree", "3",
            "--samples", "16", "--format", "svg",
        )
        assert proc.stdout.count("<polyline") == 4
        assert 'data-domain="' in proc.stdout
        # axis labels sit at the interval ends
        assert "0.444444" in proc.stdout and "0.777778" in proc.stdout

    def test_range_outside_domain_fails_without_clamp(self):
        proc = run_cli(
            "basis", "--alpha", "4", "--beta", "6", "--degree", "3",
            "--range", "0", "1", expect=1,
        )
        assert "error" in proc.stderr

    def test_range_with_clamp_intersects_domain(self):
        proc = run_cli(
            "basis", "--alpha", "4", "--beta", "6", "--degree", "3",
            "--range", "0", "1", "--clamp", "--samples", "3",
        )
        ts = [float(line.split(",")[0]) for line in proc.stdout.strip().splitlines()[1:]]
        assert min(ts) == pytest.approx(4 / 9)
        assert max(ts) == pytest.approx(7 / 9)

    @pytest.mark.parametrize("clamp", [[], ["--clamp"]], ids=["strict", "clamp"])
    def test_range_admitted_to_one_point_exits_one(self, clamp):
        # both ends admitted, each clipped to the domain's upper end 7/9
        proc = run_cli(
            "basis", "--alpha", "4", "--beta", "6", "--degree", "3",
            "--range", "0.7777777777777778", "0.7777777777777779", *clamp, expect=1,
        )
        assert proc.stderr == "shiftknot: error: --range does not intersect the valid domain\n"

    def test_invalid_shift_pair_exits_one(self):
        proc = run_cli("basis", "--alpha", "6", "--beta", "4", "--degree", "3", expect=1)
        assert "alpha" in proc.stderr

    def test_byte_determinism(self):
        argv = ["basis", "--alpha", "1.5", "--beta", "2.5", "--degree", "4",
                "--samples", "33", "--format", "svg"]
        assert run_cli(*argv).stdout == run_cli(*argv).stdout


class TestCurveCommands:
    def test_eval_frozen_point(self, curve_file):
        proc = run_cli("curve-eval", curve_file, "0.6")
        data = json.loads(proc.stdout)
        assert data["point"][0] == pytest.approx(1.4, abs=1e-14)
        assert data["point"][1] == pytest.approx(203 / 75, abs=1e-13)

    def test_eval_algorithms_agree(self, curve_file):
        points = []
        for algorithm in ("direct", "decasteljau", "matrix"):
            proc = run_cli("curve-eval", curve_file, "0.7", "--algorithm", algorithm)
            points.append(json.loads(proc.stdout)["point"])
        np.testing.assert_allclose(points[0], points[1], atol=1e-12)
        np.testing.assert_allclose(points[0], points[2], atol=1e-12)

    def test_eval_out_of_domain(self, curve_file):
        proc = run_cli("curve-eval", curve_file, "0.2", expect=1)
        assert "outside" in proc.stderr

    def test_eval_clamp_pulls_to_endpoint(self, curve_file):
        proc = run_cli("curve-eval", curve_file, "0.2", "--clamp")
        data = json.loads(proc.stdout)
        np.testing.assert_allclose(data["point"], [0.0, 0.0], atol=1e-12)

    def test_sample_csv_shape(self, curve_file):
        proc = run_cli("curve-sample", curve_file, "--samples", "7")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == 8
        first = [float(c) for c in lines[1].split(",")]
        np.testing.assert_allclose(first[1:], [0.0, 0.0], atol=1e-12)

    def test_sample_json_roundtrips_floats(self, curve_file):
        proc = run_cli("curve-sample", curve_file, "--samples", "5", "--format", "json")
        data = json.loads(proc.stdout)
        assert data["domain"][0] == pytest.approx(4 / 9, abs=1e-16)
        assert len(data["samples"]) == 5

    def test_sample_svg_single_polyline(self, curve_file):
        proc = run_cli("curve-sample", curve_file, "--samples", "40", "--format", "svg")
        assert proc.stdout.count("<polyline") == 1

    def test_elevate_writes_valid_curve(self, curve_file, tmp_path):
        out = tmp_path / "elevated.json"
        run_cli("elevate", curve_file, "--levels", "2", "--output", str(out))
        data = json.loads(out.read_text())
        assert data["degree"] == 5
        assert len(data["control"]) == 6
        np.testing.assert_allclose(data["control"][0], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(data["control"][-1], [3.0, 9.0], atol=1e-15)

    def test_elevate_keeps_the_sign_of_a_zero_low_end(self, tmp_path):
        source, out = tmp_path / "curve.json", tmp_path / "elevated.json"
        save_curve(Curve(make_config(-0.0, 3.0), [[1.0, 1.0], [2.0, 0.0]]), source)
        run_cli("elevate", str(source), "--output", str(out))
        assert out.read_text().startswith('{"alpha": -0, "beta": 3, "degree": 2, "control": ')
        back = load_curve(out)
        assert math.copysign(1.0, back.config.alpha) == math.copysign(1.0, back.domain.lo) == -1.0

    def test_missing_file_exits_two(self):
        proc = run_cli("curve-eval", "/nonexistent/f.json", "0.5", expect=2)
        assert "error" in proc.stderr

    @pytest.mark.parametrize("command", ["curve-eval", "surface-sample"])
    @pytest.mark.parametrize(
        "content",
        [b'{"alpha": 0', b"\xff\xfe{}", b"[" * 200_000],
        ids=["truncated", "not-utf8", "over-nested"],
    )
    def test_malformed_file_exits_two(self, tmp_path, content, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        t = ["0.5"] if command == "curve-eval" else []
        proc = run_cli(command, str(bad), *t, expect=2)
        assert proc.stderr.startswith("shiftknot: error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert "JSON" in proc.stderr


    @pytest.mark.parametrize("command", ["curve-eval", "surface-sample"])
    @pytest.mark.parametrize("coordinate", ["true", "null", '"1"', "[1]"],
                             ids=["bool", "null", "string", "nested"])
    def test_non_number_coordinate_exits_two(self, tmp_path, coordinate, command):
        bad = tmp_path / "bad.json"
        if command == "curve-eval":
            bad.write_text(
                f'{{"alpha": 0, "beta": 0, "degree": 1, "control": [[{coordinate}, 1], [2, 3]]}}'
            )
        else:
            bad.write_text(
                '{"alpha": 0, "beta": 0, "degrees": [1, 1], "control":'
                f' [[[0, 0, {coordinate}], [0, 1, 0]], [[1, 0, 0], [1, 1, 1]]]}}'
            )
        t = ["0.5"] if command == "curve-eval" else []
        proc = run_cli(command, str(bad), *t, expect=2)
        assert proc.stderr.startswith("shiftknot: error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "coordinates must be numbers" in proc.stderr

    @pytest.mark.parametrize("command", ["curve-sample", "surface-sample"])
    def test_ragged_points_exit_two(self, tmp_path, command):
        # control points of different lengths are off the schema
        bad = tmp_path / "bad.json"
        if command == "curve-sample":
            bad.write_text('{"alpha": 0, "beta": 0, "degree": 1, "control": [[1, 2], [3]]}')
        else:
            bad.write_text('{"alpha": 0, "beta": 0, "degrees": [1, 1], "control":'
                           ' [[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1]]]}')
        proc = run_cli(command, str(bad), expect=2)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "shiftknot: error: control points must all have the same number of coordinates,"
            f" got {'1, 2' if command == 'curve-sample' else '2, 3'}"]


class TestClosedStdout:
    """A reader that goes before the last byte truncates the output: the
    run exits 2 with the one error line, whether Python buffers stdout or
    not, and nothing more comes from the interpreter's flush at exit."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, keep", [
        (["curve-sample", "parabola.json", "--samples", "200000"], 10),
        (["curve-eval", "parabola.json", "0.5"], None),
    ], ids=["table-closed-after-ten-bytes", "point-closed-before-the-first"])
    def test_exits_two_with_one_error_line(self, argv, keep, unbuffered, tmp_path):
        (tmp_path / "parabola.json").write_text(GOLDEN_FILES["parabola.json"])
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        command = [sys.executable, "-m", "shiftknot", *argv]
        if keep is None:
            # a pipe whose reader is gone before the child starts
            read, write = os.pipe()
            os.close(read)
            with os.fdopen(write, "wb") as stdout:
                proc = subprocess.Popen(command, stdout=stdout, stderr=subprocess.PIPE,
                                        cwd=tmp_path, env=env)
        else:
            # the output is far longer than a pipe holds, so the child is
            # still writing when the reader closes
            proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    cwd=tmp_path, env=env)
            assert len(proc.stdout.read(keep)) == keep
            proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2, stderr
        assert stderr.startswith("shiftknot: error:")
        assert len(stderr.splitlines()) == 1, stderr


# One library op of each kind, then the first SVG: prints whether the cell
# kernels' module is loaded after each step.
_LOAD_CHILD = """\
import contextlib, io, sys
import shiftknot, shiftknot.cli
from shiftknot import Curve, SurfacePatch, make_config
c = Curve(make_config(4, 6), [[0.0, 0.0], [1.0, 1.0], [2.0, 4.0]])
shiftknot.sample_curve(c, c.domain.grid(11))
print("shiftknot._cells" in sys.modules)
p = SurfacePatch(make_config(4, 6), [[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 2.0]]])
shiftknot.sample_patch(p, p.domain_u.grid(5), p.domain_v.grid(5))
print("shiftknot._cells" in sys.modules)
shiftknot.eval_patch_decasteljau(p, p.domain_u.lo, p.domain_v.hi)
print("shiftknot._cells" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    shiftknot.cli.main(["basis", "--alpha", "0", "--beta", "1", "--degree", "2",
                        "--samples", "5", "--format", "svg"])
print("shiftknot._cells" in sys.modules)
"""


def test_library_ops_leave_the_cell_kernels_unloaded():
    # compiling a module raises every process's peak memory, so the
    # library routes must not load the kernels that only output needs
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LOAD_CHILD], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False", "True"]


# an integer literal beyond float range, such as a JSON file may hold
HUGE = "1" + "0" * 400
# an integer literal past the interpreter's 4300-digit limit on int parsing
LONG = "1" + "0" * 5000


class TestOversizedIntegers:
    def _assert_one_error_line(self, proc):
        assert proc.stderr.startswith("shiftknot: error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_curve_alpha(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            f'{{"alpha": {HUGE}, "beta": {HUGE}0, "degree": 1, "control": [[0], [1]]}}'
        )
        self._assert_one_error_line(run_cli("curve-eval", str(path), "0.5", expect=1))

    def test_curve_control_coordinate(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            f'{{"alpha": 4, "beta": 6, "degree": 1, "control": [[0, {HUGE}], [1, 1]]}}'
        )
        self._assert_one_error_line(run_cli("curve-eval", str(path), "0.5", expect=1))

    def test_patch_control_coordinate(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            '{"alpha": 4, "beta": 6, "degrees": [1, 1], "control": '
            f'[[[0, 0, {HUGE}], [0, 1, 0]], [[1, 0, 0], [1, 1, 2]]]}}'
        )
        self._assert_one_error_line(run_cli("surface-sample", str(path), expect=1))

    @pytest.mark.parametrize("field", ["degree", "coordinate"])
    def test_curve_past_the_digit_limit_exits_two(self, tmp_path, field):
        degree, coordinate = (LONG, 1) if field == "degree" else (1, LONG)
        path = tmp_path / "long.json"
        path.write_text(
            f'{{"alpha": 4, "beta": 6, "degree": {degree},'
            f' "control": [[0, {coordinate}], [1, 1]]}}'
        )
        self._assert_one_error_line(run_cli("curve-eval", str(path), "0.5", expect=2))

    def test_patch_past_the_digit_limit_exits_two(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(
            '{"alpha": 4, "beta": 6, "degrees": [1, 1], "control": '
            f'[[[0, 0, {LONG}], [0, 1, 0]], [[1, 0, 0], [1, 1, 2]]]}}'
        )
        self._assert_one_error_line(run_cli("surface-sample", str(path), expect=2))


class TestSurfaceCommand:
    def test_csv_grid(self, patch_file):
        proc = run_cli("surface-sample", patch_file, "--samples", "4")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "u,v,x,y,z"
        assert len(lines) == 1 + 16

    def test_json_has_both_domains(self, patch_file):
        proc = run_cli("surface-sample", patch_file, "--samples", "3", "--format", "json")
        data = json.loads(proc.stdout)
        assert data["domain_u"] == data["domain_v"]  # equal degrees here
        assert data["domain_u"][0] == pytest.approx(4 / 7)
        assert len(data["samples"]) == 9

    def test_svg_wireframe_line_count(self, patch_file):
        proc = run_cli(
            "surface-sample", patch_file, "--samples", "4", "--format", "svg"
        )
        # one polyline per u-line plus one per v-line
        assert proc.stdout.count("<polyline") == 8

    def test_drop_axis_changes_projection(self, patch_file):
        z = run_cli("surface-sample", patch_file, "--samples", "4", "--format", "svg")
        y = run_cli("surface-sample", patch_file, "--samples", "4", "--format", "svg",
                    "--drop-axis", "y")
        assert z.stdout != y.stdout


class TestArgumentErrors:
    def test_no_command(self):
        proc = run_shiftknot()
        assert proc.returncode == 2

    def test_unknown_format_rejected_by_argparse(self):
        proc = run_shiftknot(
            "basis", "--alpha", "0", "--beta", "0", "--degree", "2", "--format", "yaml"
        )
        assert proc.returncode == 2

    def test_too_few_samples(self):
        proc = run_cli(
            "basis", "--alpha", "0", "--beta", "0", "--degree", "2",
            "--samples", "1", expect=1,
        )
        assert proc.stdout == ""
        assert proc.stderr == "shiftknot: error: sample count must be at least 2, got 1\n"

    def test_elevate_past_max_degree_exits_one(self, tmp_path):
        path = tmp_path / "degree64.json"
        save_curve(Curve(make_config(4, 6), np.zeros((65, 2))), path)
        proc = run_cli("elevate", str(path), "--levels", "1", expect=1)
        assert proc.stdout == ""
        assert proc.stderr == "shiftknot: error: elevating degree 64 by 1 exceeds MAX_DEGREE 64\n"

    @pytest.mark.parametrize("alpha", ["0", "-0.0"])
    def test_range_from_either_zero_starts_at_the_domain_end(self, alpha):
        # the zero of the other sign admits as lo itself, so the grid and
        # its printed first t are those of the whole domain
        argv = ["basis", "--alpha", alpha, "--beta", "0", "--degree", "3", "--samples", "3"]
        whole = run_cli(*argv).stdout
        for start in ("0", "-0"):
            assert run_cli(*argv, "--range", start, "1").stdout == whole, start

    @pytest.mark.parametrize("command", ["basis", "curve-sample"])
    def test_infinite_range_end_with_clamp_exits_one(self, command, curve_file):
        # --clamp pulls finite values only, as curve-eval's does
        argv = (["basis", "--alpha", "4", "--beta", "6", "--degree", "3"]
                if command == "basis" else ["curve-sample", curve_file])
        proc = run_cli(*argv, "--samples", "2", "--range", "0.1", "inf", "--clamp", expect=1)
        assert proc.stdout == ""
        assert proc.stderr.startswith("shiftknot: error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "finite" in proc.stderr

    @pytest.mark.parametrize("bounds", [["nan", "1"], ["0", "nan"]], ids=["start", "end"])
    def test_nan_range_bound_exits_one(self, bounds, curve_file):
        # a NaN bound is not finite, not a misordered range
        proc = run_cli("curve-sample", curve_file, "--samples", "3", "--range", *bounds, expect=1)
        assert proc.stdout == ""
        assert proc.stderr == "shiftknot: error: parameter must be finite, got nan\n"

    def test_output_to_unwritable_path(self, curve_file):
        proc = run_cli(
            "curve-sample", curve_file, "--samples", "3",
            "--output", "/nonexistent-dir/out.csv", expect=2,
        )
        assert "error" in proc.stderr


# ---------------------------------------------------------------------------
# golden bytes: SHA-256 of stdout plus the exit status for a fixed matrix of
# invocations, pinned in tests/fixtures/cli_golden.json. Rewrite the fixture
# from the CLI as it stands with ``PYTHONPATH=src python tests/test_cli.py``:
# it prints each case whose digest changes, old -> new, and leaves the file
# untouched when none does.

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "cli_golden.json"

# Input files as literal text, so they do not depend on the writer under test.
# Degrees stay at or below 12.
_HELIX = ", ".join(f"[{k}, {(k * k) % 7 - 3.25!r}, {0.1 * k!r}]" for k in range(13))
# the benchmark's shapes: a 3-D quintic at (4, 6) and a 3-D degree-(3, 4)
# patch at (0, 0), with coordinates of mixed sign and magnitude up to 10
_QUINTIC = ", ".join(
    f"[{(k * 37) % 11 - 5.3!r}, {9.75 - 3.1 * k!r}, {(k * k) % 5 * -1.7!r}]" for k in range(6)
)
_NET34 = ", ".join(
    "[" + ", ".join(f"[{2.5 * i - 0.3 * j!r}, {1.9 * j - 0.1 * i * i!r}, "
                    f"{((3 * i + 5 * j) % 7 - 3) * 1.45!r}]" for j in range(5)) + "]"
    for i in range(4)
)
GOLDEN_FILES = {
    "line.json": '{"alpha": 0, "beta": 0, "degree": 2, "control": [[0], [-0.0], [1.5]]}',
    "negzero.json": (
        '{"alpha": -0.0, "beta": 0, "degree": 2, "control": [[0, 1], [-0.0, 2], [1.5, 0.5]]}'
    ),
    "parabola.json": (
        '{"alpha": 4, "beta": 6, "degree": 3, "control": [[0, -0.0], [1, 1], [2, 4], [3, 9]]}'
    ),
    "helix.json": f'{{"alpha": 1e8, "beta": 1e9, "degree": 12, "control": [{_HELIX}]}}',
    "quad4.json": '{"alpha": 1, "beta": 2, "degree": 1, "control": [[0, 0, 0, 0], [1, 1, 1, 1]]}',
    "patch3.json": (
        '{"alpha": 4, "beta": 6, "degrees": [2, 1], "control": ['
        "[[0, 0, 0], [0, 1, -0.0]], [[1, 0, 0.5], [1, 1, 2]], [[2, 0, 1], [2, 1, -1]]]}"
    ),
    "patch2.json": (
        '{"alpha": 0, "beta": 0, "degrees": [1, 1], "control": '
        "[[[0, 0], [0, 1]], [[1, 0], [1.25, 1.5]]]}"
    ),
    "patch1.json": (
        '{"alpha": 1e8, "beta": 1e9, "degrees": [1, 2], "control": '
        "[[[0], [1], [2]], [[3], [4], [5.5]]]}"
    ),
    "quintic.json": f'{{"alpha": 4, "beta": 6, "degree": 5, "control": [{_QUINTIC}]}}',
    "patch34.json": f'{{"alpha": 0, "beta": 0, "degrees": [3, 4], "control": [{_NET34}]}}',
    "bad.json": '{"alpha": 0',
}


def _golden_matrix() -> list[list[str]]:
    cases = []
    for alpha, beta in (("0", "0"), ("4", "6"), ("1e8", "1e9")):
        for degree in ("1", "3", "12"):
            for fmt in ("csv", "json", "svg"):
                cases.append(["basis", "--alpha", alpha, "--beta", beta, "--degree", degree,
                              "--samples", "9", "--format", fmt])
        if alpha == "0":
            # -0.0 after 0: a domain cached on the shift pair alone would
            # hand these the +0.0 interval of the cases above
            for fmt in ("csv", "json", "svg"):
                cases.append(["basis", "--alpha", "-0.0", "--beta", "0", "--degree", "3",
                              "--samples", "9", "--format", fmt])
    basis = ["basis", "--alpha", "4", "--beta", "6", "--degree", "3", "--samples", "5"]
    cases += [
        [*basis, "--range", "0.5", "0.7"],
        [*basis, "--range", "0", "1", "--clamp", "--format", "json"],
        [*basis, "--range", "0", "1", "--clamp", "--format", "svg"],
        [*basis, "--range", "0", "1"],
        [*basis, "--range", "0.7", "0.5"],
        ["basis", "--alpha", "6", "--beta", "4", "--degree", "3"],
        ["basis", "--alpha", "0", "--beta", "0", "--degree", "65"],
        [*basis[:7], "--samples", "1"],
        [*basis, "--format", "yaml"],
    ]
    inside = {"line.json": "0.25", "parabola.json": "0.6", "helix.json": "0.1"}
    for name, t in inside.items():
        for algorithm in ("direct", "decasteljau", "matrix"):
            cases.append(["curve-eval", name, t, "--algorithm", algorithm])
            for fmt in ("csv", "json", "svg"):
                cases.append(["curve-sample", name, "--samples", "9", "--algorithm", algorithm,
                              "--format", fmt])
        if name == "line.json":
            for fmt in ("csv", "json", "svg"):
                cases.append(["curve-sample", "negzero.json", "--samples", "5", "--format", fmt])
    cases += [
        ["elevate", "line.json"],
        ["elevate", "parabola.json", "--levels", "3"],
        ["curve-eval", "parabola.json", "0.2"],
        ["curve-eval", "parabola.json", "0.2", "--clamp"],
        ["curve-eval", "parabola.json", "0.9", "--clamp", "--algorithm", "matrix"],
        ["curve-sample", "parabola.json", "--samples", "5", "--range", "0.5", "0.7"],
        ["curve-sample", "parabola.json", "--samples", "5", "--range", "0", "1", "--clamp",
         "--format", "json"],
        ["curve-sample", "parabola.json", "--samples", "5", "--range", "0", "1"],
        ["curve-sample", "parabola.json", "--samples", "1"],
        ["curve-sample", "quad4.json"],
        ["curve-eval", "quad4.json", "0.5"],
        ["elevate", "helix.json", "--levels", "53"],
    ]
    for name in ("patch3.json", "patch2.json", "patch1.json"):
        for fmt in ("csv", "json", "svg"):
            cases.append(["surface-sample", name, "--samples", "5", "--format", fmt])
    cases += [
        ["surface-sample", "patch3.json", "--samples", "4", "--format", "svg", "--drop-axis", "x"],
        ["surface-sample", "patch3.json", "--samples", "4", "--format", "svg", "--drop-axis", "y"],
        ["surface-sample", "parabola.json"],
        ["surface-sample", "bad.json"],
        ["curve-sample", "bad.json"],
        ["curve-eval", "bad.json", "0.5"],
        ["curve-eval", "missing.json", "0.5"],
    ]
    # the benchmark's sizes: about five thousand rows or points per output
    basis = ["basis", "--alpha", "1e3", "--beta", "1e4", "--degree", "3", "--samples", "1250"]
    cases += [[*basis, "--format", fmt] for fmt in ("csv", "svg")]
    cases += [["surface-sample", "patch34.json", "--samples", "71", "--format", fmt]
              for fmt in ("csv", "json", "svg")]
    cases += [["curve-sample", name, "--samples", "5000", "--format", "svg"]
              for name in ("line.json", "quintic.json")]
    # the benchmark's CSV and JSON tables: both curve routes and the basis
    cases += [
        ["curve-sample", "quintic.json", "--samples", "5000", "--format", "csv"],
        ["curve-sample", "quintic.json", "--samples", "5000", "--algorithm", "decasteljau",
         "--format", "json"],
        [*basis, "--format", "json"],
    ]
    return cases


GOLDEN_MATRIX = _golden_matrix()


def _golden_digest(argv) -> list:
    """``[sha256 of stdout, exit status]`` of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code]


_EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()


def _write_golden_files(directory: Path) -> None:
    for name, text in GOLDEN_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_golden_files(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class TestGoldenBytes:
    def test_fixture_covers_the_matrix(self, golden):
        assert sorted(golden) == sorted(" ".join(argv) for argv in GOLDEN_MATRIX)

    @pytest.mark.parametrize("argv", GOLDEN_MATRIX, ids=" ".join)
    def test_stdout_and_status(self, argv, golden, golden_dir, monkeypatch):
        monkeypatch.chdir(golden_dir)
        assert _golden_digest(argv) == golden[" ".join(argv)]


class TestOutputFile:
    @pytest.mark.parametrize("argv", GOLDEN_MATRIX, ids=" ".join)
    def test_file_bytes_and_status(self, argv, golden, golden_dir, tmp_path, monkeypatch):
        # --output writes the bytes stdout would get, and on exit 1 or 2 no file
        monkeypatch.chdir(golden_dir)
        path = tmp_path / "out"
        digest, code = golden[" ".join(argv)]
        assert _golden_digest([*argv, "--output", str(path)]) == [_EMPTY_DIGEST, code]
        if code == 0:
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        else:
            assert not path.exists()


# Products big enough that OpenBLAS would split them across threads: an
# 11x11 net on a 301x301 grid, and a 1-D degree-10 curve at 100 003 samples.
_NET11 = ", ".join(
    "[" + ", ".join(f"[{i + 0.37 * j!r}, {j - 0.11 * i * j!r}, "
                    f"{((5 * i + 3 * j) % 11 - 5) * 0.83!r}]" for j in range(11)) + "]"
    for i in range(11)
)
_WIDE = ", ".join(f"[{(k * 37) % 11 - 5.3!r}]" for k in range(11))
_THREAD_FILES = {
    "net11.json": f'{{"alpha": 4, "beta": 6, "degrees": [10, 10], "control": [{_NET11}]}}',
    "wide10.json": f'{{"alpha": 1e3, "beta": 1e4, "degree": 10, "control": [{_WIDE}]}}',
}
_THREAD_MATRIX = [
    *GOLDEN_MATRIX,
    ["surface-sample", "net11.json", "--samples", "301"],
    ["curve-sample", "wide10.json", "--samples", "100003"],
]
# Runs the matrix in process, as TestGoldenBytes does, and prints one
# digest line per invocation.
_DIGEST_CHILD = """\
import json, sys
from test_cli import _golden_digest
for argv in json.load(sys.stdin):
    print(*_golden_digest(argv))
"""


def _child_digests(matrix, directory: Path, **environ) -> list[str]:
    """One ``sha256 status`` line per invocation of ``matrix``, from a child
    process whose environment differs from this one's only by ``environ``."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _DIGEST_CHILD], input=json.dumps(matrix),
        capture_output=True, text=True, env=env, cwd=directory,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="OpenBLAS runs one thread on one CPU, so no thread count can change a bit here",
)
def test_stdout_does_not_depend_on_the_blas_thread_count(golden_dir):
    for name, text in _THREAD_FILES.items():
        (golden_dir / name).write_text(text, encoding="utf-8")
    one, two = (_child_digests(_THREAD_MATRIX, golden_dir, OPENBLAS_NUM_THREADS=str(threads))
                for threads in (1, 2))
    assert len(one) == len(two) == len(_THREAD_MATRIX)
    differ = [" ".join(argv) for argv, a, b in zip(_THREAD_MATRIX, one, two) if a != b]
    assert differ == []


def _cpu_features() -> dict:
    """The CPU features numpy detected on this CPU, by name."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy before 2.0
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def _off_golden(matrix, lines, golden) -> list[str]:
    """The invocations of ``matrix`` whose child digest line is not the pinned one."""
    assert len(lines) == len(matrix)
    return [" ".join(argv) for argv, line in zip(matrix, lines)
            if line.split() != [str(v) for v in golden[" ".join(argv)]]]


def test_stdout_does_not_depend_on_avx512_dispatch(golden, golden_dir):
    # numpy picks its SIMD loops per CPU; with its AVX-512 loops switched
    # off, every golden invocation must still print the pinned bytes
    present = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if _cpu_features().get(f)]
    lines = _child_digests(GOLDEN_MATRIX, golden_dir, NPY_DISABLE_CPU_FEATURES=" ".join(present))
    assert _off_golden(GOLDEN_MATRIX, lines, golden) == []


def _reaches_blas(argv) -> bool:
    """Whether a golden invocation goes through a BLAS product: a patch grid,
    or a curve's direct or matrix route, the direct one being the default.
    Their bytes still follow OpenBLAS's per-CPU kernels."""
    return argv[0] == "surface-sample" or (
        argv[0] in ("curve-eval", "curve-sample") and "decasteljau" not in argv
    )


_BLAS_FREE_MATRIX = [argv for argv in GOLDEN_MATRIX if not _reaches_blas(argv)]

# The CPU features each OpenBLAS core's kernels need; a core the CPU lacks
# would fault, not round otherwise.
_CORE_FEATURES = {
    "Haswell": ("AVX2", "FMA3"),
    "SandyBridge": ("AVX",),
    "Nehalem": ("SSE42",),
    "Prescott": ("SSE3",),
}


@pytest.mark.parametrize("core", sorted(_CORE_FEATURES))
def test_stdout_does_not_depend_on_the_openblas_core(core, golden, golden_dir):
    # OpenBLAS picks its kernels per CPU, and older cores round gemm and gemv
    # otherwise (no FMA, other blocking); an output that reaches no BLAS
    # product must print the pinned bytes under each of them
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("OPENBLAS_CORETYPE names x86-64 cores")
    missing = [f for f in _CORE_FEATURES[core] if not _cpu_features().get(f)]
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(missing)}, which {core} needs")
    lines = _child_digests(_BLAS_FREE_MATRIX, golden_dir, OPENBLAS_CORETYPE=core)
    assert _off_golden(_BLAS_FREE_MATRIX, lines, golden) == []


def _old_polyline(xs, ys, bbox) -> str:
    """A polyline's ``points`` as the CLI wrote them point by point, on
    ``np.float64`` scalars, before its pixels were computed in numpy."""
    width, height = 640, 480
    xmin, xmax, ymin, ymax = bbox
    spanx = (xmax - xmin) or 1.0
    spany = (ymax - ymin) or 1.0
    xmin -= 0.05 * spanx
    xmax += 0.05 * spanx
    ymin -= 0.05 * spany
    ymax += 0.05 * spany
    sx = width / (xmax - xmin)
    sy = height / (ymax - ymin)
    return " ".join(f"{(x - xmin) * sx:.2f},{height - (y - ymin) * sy:.2f}"
                    for x, y in zip(xs, ys))


def _svg_cases():
    rng = np.random.default_rng(20151)
    cases = []
    for scale in (1e-300, 1e-10, 1.0, 1e10, 1e300):
        # the bbox is the data's extent, so points lie exactly on its edges
        data = rng.uniform(-scale, scale, size=(200, 3))
        data[rng.integers(0, 200, 20), rng.integers(0, 3, 20)] = -0.0
        bbox = tuple(float(f(data[:, c])) for c in (0, 1) for f in (np.min, np.max))
        cases.append((f"scale-{scale:g}", data, bbox))
    # just outside the padded box, so pixels round to -0.00
    xs = np.array([-0.05 - 1e-6, -0.05, 0.0, 1.0, 1.05, 1.05 + 1e-6, 0.5])
    ys = np.array([1.05 + 1e-6, 1.05, 1.0, 0.0, -0.05, -0.05 - 1e-6, -0.0])
    cases.append(("negative-zero-pixels", np.stack([xs, ys, xs], axis=1), (0.0, 1.0, 0.0, 1.0)))
    # near the half-cent rounding boundaries, where a reordered formula
    # that differs in the last bit writes a different pixel
    bbox = (-3.0, 7.0, -2.0, 11.0)
    xmin, ymin, sx, sy = -3.5, -2.65, 640 / 11.0, 480 / 14.3
    half = np.arange(0.0, 640.0, 1.37) + 0.005
    bits = np.arange(-4, 5)
    xs = (xmin + half / sx)[:, None].view(np.int64) + bits
    ys = (ymin + (480 - half) / sy)[:, None].view(np.int64) + bits
    near = np.stack([xs.view(np.float64).ravel(), ys.view(np.float64).ravel()], axis=1)
    cases.append(("rounding-boundaries", np.concatenate([near, near[:, :1]], axis=1), bbox))
    # zero-span bboxes: the span falls back to 1
    flat = np.stack([np.linspace(-3.0, 7.0, 50), np.full(50, 2.5), np.zeros(50)], axis=1)
    cases.append(("zero-span-y", flat, (-3.0, 7.0, 2.5, 2.5)))
    cases.append(("zero-span-both", flat[:, [1, 1, 2]], (2.5, 2.5, 2.5, 2.5)))
    cases.append(("zero-span-zero", -flat[:, [2, 2, 2]], (0.0, 0.0, -0.0, -0.0)))
    # far outside the box: pixels of 1e7 and beyond, among ordinary ones
    far = np.array([0.5, 1e7 / 640 * 1.1 - 0.05, 1e7 / 640 * 1.1, -2e4, 1e12, -3e15, 1e300, 0.25])
    cases.append(("beyond-fast-range", np.stack([far, far[::-1], far], axis=1), (0.0, 1.0, 0.0, 1.0)))
    return cases


_SVG_CASES = _svg_cases()


class TestSvgPixels:
    @pytest.mark.parametrize("name, data, bbox", _SVG_CASES, ids=[c[0] for c in _SVG_CASES])
    def test_points_match_the_per_point_formula(self, name, data, bbox):
        series = [(data[:, 0], data[:, 1], "#000000"), (data[::3, 2], data[::3, 0], "#111111")]
        # the first as one call's one line, the second as another's one column
        (xs, ys, stroke), (cross_xs, cross_ys, cross_stroke) = series
        calls = [(xs[None], ys[None], [stroke], []),
                 (cross_xs[:, None], cross_ys[:, None], [], [cross_stroke])]
        svg = "".join(b"".join(cli._svg_render(*call, bbox, (), annotations=[(bbox[0], "lo")]))
                      .decode() for call in calls)
        written = re.findall(r'points="([^"]*)"', svg)
        expected = [_old_polyline(xs, ys, bbox) for xs, ys, _ in series]
        assert written == expected
        if name == "negative-zero-pixels":
            assert expected[0].startswith("-0.00,-0.00 ")
        if name == "beyond-fast-range":
            pixels = [abs(float(c)) for point in expected[0].split() for c in point.split(",")]
            assert min(pixels) < 1e7 <= sorted(pixels)[-5] and max(pixels) > 1e300


def _kernel_sizes(monkeypatch, name) -> list[int]:
    """The number of values each later call of the cell kernel ``name`` gets."""
    from shiftknot import _cells

    sizes, kernel = [], getattr(_cells, name)

    def spy(values):
        sizes.append(np.size(values))
        return kernel(values)

    monkeypatch.setattr(_cells, name, spy)
    return sizes


class TestCellKernelCalls:
    def test_basis_svg_formats_each_t_pixel_once(self, monkeypatch):
        sizes = _kernel_sizes(monkeypatch, "pixel_cells")
        argv = ["basis", "--alpha", "4", "--beta", "6", "--degree", "3", "--samples", "50",
                "--format", "svg"]
        assert _golden_digest(argv)[1] == 0
        # one t pixel per sample and one value pixel per sample and function
        assert sizes == [50 * 5]

    def test_table_calls_hold_one_block(self, golden_dir, monkeypatch):
        monkeypatch.chdir(golden_dir)
        sizes = _kernel_sizes(monkeypatch, "float_cells")
        argv = ["curve-sample", "quintic.json", "--samples", "5000", "--format", "csv"]
        assert _golden_digest(argv)[1] == 0
        names = ["t", "x", "y", "z"]
        assert max(sizes) <= cli._BLOCK_ROWS * len(names)
        assert sum(sizes) == 5000 * len(names)


# the benchmark's CSV and JSON tables of each kind, some thousand rows each
_BLOCKED_TABLES = [argv for argv in GOLDEN_MATRIX
                   if argv[0] in ("basis", "curve-sample", "surface-sample")
                   and argv[-1] in ("csv", "json") and argv[argv.index("--samples") + 1]
                   in ("1250", "5000", "71")]


class TestTableBlocks:
    @pytest.mark.parametrize("argv", _BLOCKED_TABLES, ids=" ".join)
    def test_block_size_moves_no_byte(self, argv, golden, golden_dir, monkeypatch):
        # from one first-axis line a block up to 2048 rows: the same bytes,
        # the trailing separator cut at the last block included
        monkeypatch.chdir(golden_dir)
        for rows in (1, 7, 71, 1024, 2048):
            monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
            assert _golden_digest(argv) == golden[" ".join(argv)], rows

    def test_blocked_tables_cover_every_kind(self):
        kinds = {(argv[0], argv[-1]) for argv in _BLOCKED_TABLES}
        assert kinds == {(c, f) for c in ("basis", "curve-sample", "surface-sample")
                         for f in ("csv", "json")}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_above_the_output(self, fmt):
        # a 20 000-row curve table holds its output whole; what it holds
        # besides is one block's rows and kernel temporaries
        curve = Curve(make_config(4, 6), np.random.default_rng(11).uniform(-10, 10, (6, 3)))
        ts = curve.domain.grid(20_000)
        columns = [ts, *sample_curve(curve, ts).T]
        meta = [("domain", (curve.domain.lo, curve.domain.hi))]
        cli._table(fmt, ["t", "x", "y", "z"], [column[:2] for column in columns], meta)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            blocks = cli._table(fmt, ["t", "x", "y", "z"], columns, meta)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak - sum(map(len, blocks)) <= 640 * 1024


class TestSvgExtent:
    @pytest.fixture
    def wide_dir(self, tmp_path):
        # x spans -1e308..1e308, so the padded extent overflows
        save_curve(Curve(make_config(4, 6), [[-1e308, 0.0], [0.0, 1.0], [1e308, 2.0]]),
                   tmp_path / "curve.json")
        net = [[[-1e308, 0.0, 0.0], [-1e308, 1.0, 0.0]], [[1e308, 0.0, 0.0], [1e308, 1.0, 2.0]]]
        save_patch(SurfacePatch(make_config(4, 6), net), tmp_path / "patch.json")
        # x is flat at 1e17, where the extent's 0.05 padding rounds away
        save_curve(Curve(make_config(0, 0), [[1e17, 2.0], [1e17, 3.0]]), tmp_path / "flat.json")
        net = [[[1e17, 2.0, 0.0], [1e17, 3.0, 0.0]], [[1e17, 2.0, 1.0], [1e17, 3.0, 1.0]]]
        save_patch(SurfacePatch(make_config(0, 0), net), tmp_path / "flatpatch.json")
        return tmp_path

    @pytest.mark.parametrize("argv", [
        ["curve-sample", "{dir}/curve.json", "--samples", "3"],
        ["basis", "--alpha", "0", "--beta", "0", "--degree", "2", "--samples", "3",
         "--range", "0", "1e-320"],
        ["surface-sample", "{dir}/patch.json", "--samples", "3"],
        ["curve-sample", "{dir}/flat.json", "--samples", "3"],
        ["surface-sample", "{dir}/flatpatch.json", "--samples", "3"],
    ], ids=["curve-wide", "basis-subnormal-range", "patch-wide", "curve-flat-at-1e17",
            "patch-flat-at-1e17"])
    def test_non_finite_pixels_exit_one(self, argv, wide_dir):
        argv = [a.format(dir=wide_dir) for a in argv]
        proc = run_cli(*argv, "--format", "svg", expect=1)
        assert proc.stdout == ""
        assert proc.stderr.startswith("shiftknot: error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "finite pixels" in proc.stderr


_BIG_CURVE = Curve(make_config(0, 0), [[1.7976931348623157e308]] * 13)


def _first_overflow() -> str:
    """The first of 2001 grid parameters at which ``eval_direct`` of the
    big curve overflows, as the CLI reads it back."""
    with np.errstate(over="ignore"):
        for t in _BIG_CURVE.domain.grid(2001).tolist():
            if not np.isfinite(eval_direct(_BIG_CURVE, t)).all():
                return repr(t)
    raise AssertionError("eval_direct stays finite on the whole grid")


class TestNonFiniteOutput:
    """The direct blend of a degree-12 curve whose control coordinates are
    all the largest double overflows at some parameters; no table or point
    may carry the ``inf``."""

    @pytest.fixture
    def big(self, tmp_path):
        path = tmp_path / "big.json"
        save_curve(_BIG_CURVE, path)
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["curve-sample", "{big}", "--samples", "2001", "--format", "json"],
        ["curve-sample", "{big}", "--samples", "2001", "--format", "csv"],
        ["curve-eval", "{big}", "{t}"],
    ], ids=["sample-json", "sample-csv", "eval"])
    def test_exits_one_with_one_error_line(self, argv, big):
        t = _first_overflow() if "{t}" in argv else None
        proc = run_cli(*(a.format(big=big, t=t) for a in argv), expect=1)
        assert proc.stdout == ""
        assert proc.stderr.startswith("shiftknot: error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "inf" in proc.stderr

    def test_the_pyramid_route_stays_finite(self, big):
        # convex combinations cannot overflow, so this table is written
        proc = run_cli("curve-sample", big, "--samples", "2001", "--algorithm", "decasteljau",
                       "--format", "json")
        doc = json.loads(proc.stdout)
        assert len(doc["samples"]) == 2001


def _old_table(fmt, names, axes, values, meta=()) -> str:
    """A grid table written with one ``'%.17g' %`` per row: the grid
    points of ``axes``, last axis fastest, beside the rows of ``values``."""
    if fmt == "csv":
        head = ",".join(names) + "\n"
        row = ",".join(["%.17g"] * len(names))
        sep, tail = "\n", "\n"
    else:
        head = "{\n" + "".join(f' "{k}": {files._json_text(v)},\n' for k, v in meta)
        head += ' "samples": [\n  '
        row = "{" + ", ".join(f'"{name}": %.17g' for name in names) + "}"
        sep, tail = ",\n  ", "\n ]\n}\n"
    points = list(itertools.product(*(axis.tolist() for axis in axes)))
    assert len(points) == len(values)
    return head + sep.join(row % (*p, *v) for p, v in zip(points, values.tolist())) + tail


# signed zeros, subnormals, the ends of float range and whole numbers: the
# values where a spec or a conversion that differs writes other bytes
_TABLE_SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
                   2.0, -3.0, 1e16, 0.1, 1 / 3]


class TestTablePins:
    # (axis lengths, value columns): the curve, basis and surface shapes,
    # at the benchmark's sizes and at the smallest
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("shape,cols", [
        ((2,), 6), ((3,), 6), ((5000,), 6),
        ((1250, 4), 1), ((71, 71), 3), ((1, 3), 6), ((2, 1), 6),
    ], ids=str)
    def test_table_matches_the_per_row_expression(self, shape, cols, fmt):
        rows = math.prod(shape)
        rng = np.random.default_rng(rows)
        pool = np.concatenate([_TABLE_SPECIALS,
                               rng.standard_normal(64) * 10.0 ** rng.integers(-300, 300, 64)])
        values = rng.choice(pool, size=(rows, cols))
        values.flat[:len(_TABLE_SPECIALS)] = _TABLE_SPECIALS
        axes = []
        for i, length in enumerate(shape):
            axis = rng.choice(pool, size=length)
            # each axis starts with the specials, from a different one
            specials = np.roll(_TABLE_SPECIALS, -3 * i)[:length]
            axis[:len(specials)] = specials
            axes.append(axis)
        names = [*"tuv"[:len(shape)], *(f"c{j}" for j in range(cols))]
        meta = [("degree", 3), ("alpha", -0.0), ("domain", (5e-324, 1e308))]
        columns = [*np.ix_(*axes), *np.moveaxis(values.reshape(*shape, cols), -1, 0)]
        got = b"".join(cli._table(fmt, names, columns, meta)).decode()
        want = _old_table(fmt, names, axes, values, meta)
        # compared as lines, which pytest reports at once; a failing string
        # of thousands of rows took it over a minute to diff
        assert got.splitlines(keepends=True) == want.splitlines(keepends=True)


# perfbench/spans.py times the CLI's layers by wrapping these module
# attributes by name, and ``parse_args`` on the parser ``build_parser``
# returns. ``build_parser()`` returns a fresh top-level object on every call
# and ``main`` looks each ``cmd_*`` up when it is called; a parser handed out
# twice or a command bound when the parser was built would silently break a
# metric.
_COMMANDS = {
    "basis": "cmd_basis",
    "curve-eval": "cmd_curve_eval",
    "curve-sample": "cmd_curve_sample",
    "elevate": "cmd_elevate",
    "surface-sample": "cmd_surface_sample",
}
_WIRING_CASES = [
    *(["basis", "--alpha", "4", "--beta", "6", "--degree", "3", "--samples", "5",
       "--format", fmt] for fmt in ("csv", "json", "svg")),
    ["curve-eval", "quintic.json", "0.6", "--algorithm", "matrix"],
    *(["curve-sample", "quintic.json", "--samples", "5", "--format", fmt]
      for fmt in ("csv", "json", "svg")),
    ["elevate", "quintic.json", "--levels", "2"],
    *(["surface-sample", "patch34.json", "--samples", "4", "--format", fmt]
      for fmt in ("csv", "json", "svg")),
]


class TestTracedWiring:
    @pytest.mark.parametrize("argv", _WIRING_CASES, ids=" ".join)
    def test_each_layer_is_called_once_per_main(self, argv, golden_dir, monkeypatch):
        monkeypatch.chdir(golden_dir)
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        build_parser = cli.build_parser

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = counted("parse_args", parser.parse_args)
            return parser

        monkeypatch.setattr(cli, "build_parser", counted("build_parser", traced_build_parser))
        for name in ("_emit", *_COMMANDS.values()):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        # twice: a parser kept between calls would have parse_args wrapped twice
        for _ in range(2):
            assert _golden_digest(argv)[1] == 0
        assert calls == {"build_parser": 2, "parse_args": 2, _COMMANDS[argv[0]]: 2, "_emit": 2}


# SHA-256 of ``--help`` at COLUMNS=80, as the parser built afresh on every
# call printed it; argparse lays help out differently in other Python
# versions, so the digests hold on 3.11 only
_HELP_DIGESTS = {
    "": "0cd56af2609faa8d67f98a42ff2a826c9b0691f61bdf8eb1138ecc79a190d241",
    "basis": "4bfd951f746b3c49a00f55944c3b5b437484fa0fff83d807b10bafc15b6c6e16",
    "curve-eval": "bdd6a30f38747979626ef5ff0d5d42c4bde5fd4c7665d059351cd58e1245f789",
    "curve-sample": "1c93c61d74c61183cf9d9af37ec397c1bc3de0f04e92732d37d1ab918390fc1d",
    "elevate": "8ea42c4057cc1cc6865ad276cdb26ee50275b9379a5a09a96e3c790086628b6f",
    "surface-sample": "d8f427733bd5db0ef6092c48eb635cb9a917f27697a6727d41d02fe8805bdc84",
}


class TestParserContract:
    def test_each_call_gets_its_own_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_bad_flag_leaves_no_trace(self, golden_dir, monkeypatch):
        monkeypatch.chdir(golden_dir)
        good = ["curve-sample", "quintic.json", "--samples", "7", "--format", "json"]
        alone = _golden_digest(good)
        for bad in (["curve-sample", "quintic.json", "--samples", "3", "--bogus"],
                    ["curve-sample", "quintic.json", "--algorithm", "matrix", "--format", "yaml"]):
            assert _golden_digest(bad)[1] == 2
            assert _golden_digest(good) == alone

    @pytest.mark.parametrize("command", list(_HELP_DIGESTS), ids=lambda c: c or "top")
    def test_help_bytes(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "--help"] if command else ["--help"]
        first, second = _golden_digest(argv), _golden_digest(argv)
        assert first == second
        assert first[1] == 0
        if sys.version_info[:2] == (3, 11):
            assert first[0] == _HELP_DIGESTS[command]

    def test_commands_are_looked_up_per_call(self, golden_dir, monkeypatch):
        monkeypatch.chdir(golden_dir)
        argv = ["curve-sample", "quintic.json", "--samples", "3"]
        assert _golden_digest(argv)[1] == 0
        monkeypatch.setattr(cli, "cmd_curve_sample", lambda args: [b"patched\n"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue() == "patched\n"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_golden_files(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            digests = {" ".join(argv): _golden_digest(argv) for argv in GOLDEN_MATRIX}
        finally:
            os.chdir(here)
    old = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}
    changed = [case for case in sorted(old.keys() | digests.keys())
               if old.get(case) != digests.get(case)]
    for case in changed:
        print(f"{case}: {old.get(case)} -> {digests.get(case)}")
    if changed:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"{len(changed)} of {len(digests)} cases changed in {GOLDEN_PATH}")
