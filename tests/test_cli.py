"""End-to-end command runs through ``python -m shiftknot``.

Each invocation is a real subprocess so exit codes, stdout/stderr split and
byte determinism are tested exactly as a shell user sees them. The golden
byte matrix at the end calls ``cli.main`` in-process, for speed.
"""

import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shiftknot import Curve, SurfacePatch, make_config, save_curve, save_patch
from shiftknot import cli


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


# ---------------------------------------------------------------------------
# golden bytes: SHA-256 of stdout plus the exit status for a fixed matrix of
# invocations, pinned in tests/fixtures/cli_golden.json. Rewrite the fixture
# from the CLI as it stands with ``PYTHONPATH=src python tests/test_cli.py``.

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "cli_golden.json"

# Input files as literal text, so they do not depend on the writer under test.
# Degrees stay at or below 12.
_HELIX = ", ".join(f"[{k}, {(k * k) % 7 - 3.25!r}, {0.1 * k!r}]" for k in range(13))
GOLDEN_FILES = {
    "line.json": '{"alpha": 0, "beta": 0, "degree": 2, "control": [[0], [-0.0], [1.5]]}',
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
    "bad.json": '{"alpha": 0',
}


def _golden_matrix() -> list[list[str]]:
    cases = []
    for alpha, beta in (("0", "0"), ("4", "6"), ("1e8", "1e9")):
        for degree in ("1", "3", "12"):
            for fmt in ("csv", "json", "svg"):
                cases.append(["basis", "--alpha", alpha, "--beta", beta, "--degree", degree,
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


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_golden_files(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            digests = {" ".join(argv): _golden_digest(argv) for argv in GOLDEN_MATRIX}
        finally:
            os.chdir(here)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} cases to {GOLDEN_PATH}")
