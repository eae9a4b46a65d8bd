"""shiftknot benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload lib-point --seed 1 --seconds 35 --trace 0

Run from the repository root; the program is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# One client on one thread, kept on one CPU before numpy starts, so numpy's
# BLAS runs one thread too. On the shared two-vCPU reference machine each
# vCPU's speed changes by up to 1.7x from second to second; a loop that
# migrates between them mixes both in every op.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Fresh interpreters whose set-up is timed in one run, besides this one.
# The run is cut into this many stretches and one set-up starts each, so
# their median covers the same stretch of time as the ops.
SETUPS = 10
# Untimed ops before the clock starts: they fill caches and fix the
# reference bytes and arrays that later ops must repeat.
WARMUP = {"cli-tables": 1, "lib-batch": 1, "lib-point": 200}
# Traced ops of the other workloads in a traced run, so that every
# per-layer metric is measured on the workload it belongs to.
PROBE_OPS = {"cli-tables": 2, "lib-batch": 3, "lib-point": 1000}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-tables", "lib-batch", "lib-point"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    return parser.parse_args(argv)


class Runner:
    """Runs and checks ops of one workload, counting attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.peak_rss_mb = None

    def run(self, tracer=None):
        """The next op, timed; returns its wall time in seconds, or None if
        it failed."""
        index = self.index
        self.index += 1
        self.attempted += 1
        gc.collect()
        if tracer is not None:
            tracer.op_id = index
            tracer.install()
        start = time.perf_counter()
        try:
            out = self.workload.op(index)
            elapsed = time.perf_counter() - start
            if self.peak_rss_mb is None:
                # Taken before the first check, whose parsed copies of the
                # outputs are the checker's memory, not the program's.
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        except Exception:
            traceback.print_exc()
            return self._fail()
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            self.workload.check(out, index)
        except AssertionError:
            traceback.print_exc()
            self.correct = False
            return self._fail()
        return elapsed

    def _fail(self):
        self.failed += 1
        return None


def timed_setup(args) -> float:
    """Set-up time of one fresh interpreter running this workload."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def measure(runner, seconds: float, tracer=None):
    """Closed loop for ``seconds`` of ops. With a tracer, ops alternate
    between traced and untraced. Returns (untraced times, traced times,
    traced ops)."""
    plain, traced, traced_ops = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        index = runner.index
        use = tracer if tracer is not None and index % 2 == 0 else None
        elapsed = runner.run(use)
        if elapsed is not None:
            (traced if use else plain).append(elapsed)
            if use:
                traced_ops.append(index)
    return plain, traced, traced_ops


def quantile(values, q: float) -> float:
    return float(np.quantile(values, q))


def end_to_end(runner, setups, times) -> dict:
    """The shared reference machine switches between speeds up to 1.8x
    apart for seconds at a time, in a share that changes from run to run.
    The median and the mean op time of a run move with that share; the 90th
    percentile stays in the slow state and repeats, so the throughputs are
    taken at it too."""
    p90 = quantile(times, 0.9)
    return {
        "setup_s": quantile(setups, 0.5),
        "latency_p90_ms": p90 * 1e3,
        "values_per_s": runner.workload.values_per_op / p90,
        "evals_per_s": runner.workload.evals_per_op / p90,
        "peak_rss_mb": runner.peak_rss_mb,
    }


def per_layer(args, workload, runner, workloads):
    import spans

    traces = {}
    tracer = spans.Tracer()
    plain, traced, ops = measure(runner, args.seconds, tracer)
    metrics = spans.LAYER_METRICS[args.workload](spans.Summary(tracer, ops), workload)
    metrics["trace.overhead_pct"] = (np.median(traced) / np.median(plain) - 1.0) * 100.0
    traces[args.workload] = tracer
    for name, cls in workloads.items():
        if name == args.workload:
            continue
        probe_dir = Path(tempfile.mkdtemp(prefix=f"probe-{name}-", dir=OUT))
        try:
            probe = Runner(cls(args.seed, probe_dir))
            for _ in range(WARMUP[name]):
                probe.run()
            tracer = spans.Tracer()
            ops = list(range(WARMUP[name], WARMUP[name] + PROBE_OPS[name]))
            for _ in ops:
                probe.run(tracer)
            if probe.failed:
                runner.correct = False
            probed = spans.LAYER_METRICS[name](spans.Summary(tracer, ops), probe.workload)
            traces[name] = tracer
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        metrics.update(probed)
    np.savez_compressed(
        OUT / f"trace-{args.workload}-seed{args.seed}.npz",
        **{f"{name}/{key}": value for name, t in traces.items()
           for key, value in t.arrays().items()})
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "shiftknot" / "__init__.py").is_file():
        print(f"perfbench: no shiftknot sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        runner = Runner(workload)
        for _ in range(WARMUP[args.workload]):
            runner.run()
        if runner.failed:
            print("perfbench: a warm-up op failed", file=sys.stderr)
            return 1
        # What set-up and warm-up left behind is never collected again, so
        # the collection before each op only sees the last op's garbage.
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics = per_layer(args, workload, runner, WORKLOADS)
            wanted = spec["per_layer"]
        else:
            setups, times = [setup], []
            for _ in range(SETUPS):
                setups.append(timed_setup(args))
                runner.run()  # finds cold caches after the set-up; not timed
                times += measure(runner, args.seconds / SETUPS)[0]
            if not times:
                print("perfbench: every op failed", file=sys.stderr)
                return 1
            metrics = end_to_end(runner, setups, times)
            print(f"{args.workload:<10} latency p10 {quantile(times, 0.1) * 1e3:.6g} ms,"
                  f" p50 {quantile(times, 0.5) * 1e3:.6g} ms over {len(times)} ops"
                  " (not steady on a shared host; see perfbench/README.md)")
            with open(OUT / f"latency-{args.workload}-seed{args.seed}.txt", "w") as f:
                f.write("".join(f"{t!r}\n" for t in times))
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    for name, m in report.items():
        print(f"{args.workload:<10} {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<10} ops attempted {runner.attempted}, failed {runner.failed}")
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
