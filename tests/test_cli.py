"""End-to-end command runs through ``python -m shiftknot``.

Each invocation is a real subprocess so exit codes, stdout/stderr split and
byte determinism are tested exactly as a shell user sees them.
"""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from shiftknot import Curve, SurfacePatch, make_config, save_curve, save_patch


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "shiftknot", *argv],
        capture_output=True,
        text=True,
    )
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

    def test_missing_file_exits_two(self):
        proc = run_cli("curve-eval", "/nonexistent/f.json", "0.5", expect=2)
        assert "error" in proc.stderr

    def test_malformed_file_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alpha": 0')
        proc = run_cli("curve-eval", str(bad), "0.5", expect=2)
        assert "JSON" in proc.stderr


# an integer literal beyond float range, such as a JSON file may hold
HUGE = "1" + "0" * 400


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
        proc = subprocess.run(
            [sys.executable, "-m", "shiftknot"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_unknown_format_rejected_by_argparse(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shiftknot", "basis", "--alpha", "0", "--beta", "0",
             "--degree", "2", "--format", "yaml"],
            capture_output=True,
            text=True,
            )
        assert proc.returncode == 2

    def test_too_few_samples(self):
        proc = run_cli(
            "basis", "--alpha", "0", "--beta", "0", "--degree", "2",
            "--samples", "1", expect=1,
        )
        assert "--samples" in proc.stderr

    def test_output_to_unwritable_path(self, curve_file):
        proc = run_cli(
            "curve-sample", curve_file, "--samples", "3",
            "--output", "/nonexistent-dir/out.csv", expect=2,
        )
        assert "error" in proc.stderr
