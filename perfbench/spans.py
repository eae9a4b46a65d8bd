"""Spans recorded from outside the program, and the per-layer metrics.

The traced run wraps the module attributes through which each layer of
``shiftknot`` is reached (for example ``shiftknot.cli.load_curve``,
``shiftknot.curve.domain`` and ``shiftknot._kernels.decasteljau_batch``).
Each call through a wrapper records one span: its name, start, end, parent
span and op id. Spans stay in memory in flat arrays and are written out when
the run ends. A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import time
import tracemalloc
from array import array

import numpy as np

from shiftknot import _kernels as sk_kernels
from shiftknot import basis as sk_basis
from shiftknot import cli as sk_cli
from shiftknot import curve as sk_curve
from shiftknot import surface as sk_surface

MS, US = 1e3, 1e6
CURVE_SAMPLES = ("curve.sample_direct", "curve.sample_decasteljau", "curve.sample_matrix")
ROUTES = ("curve.eval_direct", "curve.eval_decasteljau", "curve.eval_matrix_form",
          "surface.eval_patch", "surface.eval_patch_decasteljau", "basis.basis_value")


def _format_span(args, kwargs) -> str:
    return "cli.format_" + getattr(args[0], "format", "json")


def _sample_span(args, kwargs) -> str:
    return "curve.sample_" + kwargs.get("algorithm", "direct")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.domain_builds = 0
        self._saved = []

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        i = len(self.end)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            stack.pop()

    def _span(self, name):
        """Wrapper factory; ``name`` is a string or a function of the call's
        arguments."""
        def make(fn):
            if callable(name):
                def traced(*args, **kwargs):
                    return self.call(self._nid(name(args, kwargs)), fn, args, kwargs)
            else:
                nid = self._nid(name)

                def traced(*args, **kwargs):
                    return self.call(nid, fn, args, kwargs)
            return traced
        return make

    def _parser(self, build_parser):
        nid = self._nid("cli.parse")

        def traced():
            parser = self.call(nid, build_parser, (), {})
            parse_args = parser.parse_args
            parser.parse_args = lambda argv=None: self.call(nid, parse_args, (argv,), {})
            return parser
        return traced

    def _count_domain(self, post_init):
        def counted(dom):
            self.domain_builds += 1
            return post_init(dom)
        return counted

    def _patch(self, owner, attr, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        span = self._span
        self._patch(sk_cli, "build_parser", self._parser)
        for cmd in ("cmd_basis", "cmd_curve_eval", "cmd_curve_sample", "cmd_elevate",
                    "cmd_surface_sample"):
            self._patch(sk_cli, cmd, span(_format_span))
        self._patch(sk_cli, "_emit", span("cli.emit"))
        self._patch(sk_cli, "load_curve", span("files.load"))
        self._patch(sk_cli, "load_patch", span("files.load"))
        self._patch(sk_cli, "curve_to_json", span("files.dump"))
        for module in (sk_cli, sk_basis, sk_curve, sk_surface):
            self._patch(module, "domain", span("basis.domain"))
            self._patch(module, "basis_rows", span("basis.rows"))
        self._patch(sk_basis, "basis_value", span("basis.basis_value"))
        self._patch(sk_basis.DomainInterval, "admit", span("basis.admit"))
        self._patch(sk_basis.DomainInterval, "admit_array", span("basis.admit_array"))
        self._patch(sk_basis.DomainInterval, "__post_init__", self._count_domain)
        for kernel in ("basis_rows_batch", "decasteljau_batch", "patch_grid"):
            self._patch(sk_kernels, kernel, span("kernels." + kernel.removesuffix("_batch")))
        for module in (sk_cli, sk_curve):
            self._patch(module, "sample_curve", span(_sample_span))
        for module in (sk_cli, sk_surface):
            self._patch(module, "sample_patch", span("surface.sample"))
        for route in ROUTES[:3]:
            self._patch(sk_curve, route.split(".")[1], span(route))
        for route in ROUTES[3:5]:
            self._patch(sk_surface, route.split(".")[1], span(route))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


class Summary:
    """Per-op and per-call views of a tracer's spans."""

    def __init__(self, tracer: Tracer, ops: list[int]):
        a = tracer.arrays()
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.name = a["name"]
        self.dur = a["end"] - a["start"]
        child = np.zeros_like(self.dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], self.dur[nested])
        self.self_time = self.dur - child
        self.ops = np.asarray(sorted(ops))
        self.row = np.searchsorted(self.ops, a["op"])
        self.domain_builds = tracer.domain_builds

    def _mask(self, names) -> np.ndarray:
        return np.isin(self.name, [self.ids[n] for n in names if n in self.ids])

    def per_op(self, *names, self_time: bool = False) -> np.ndarray:
        """Seconds per traced op spent in spans called ``names``."""
        mask = self._mask(names)
        weights = (self.self_time if self_time else self.dur)[mask]
        return np.bincount(self.row[mask], weights=weights, minlength=len(self.ops))

    def per_call(self, name: str) -> np.ndarray:
        return self.dur[self._mask([name])]

    def calls(self, *names) -> int:
        return int(self._mask(names).sum())


def _median(values) -> float:
    return float(np.median(values))


def cli_tables(s: Summary, workload) -> dict[str, float]:
    formats = {f: s.per_op(f"cli.format_{f}", self_time=True) for f in ("csv", "json", "svg")}
    formatting = formats["csv"] + formats["json"] + formats["svg"]
    return {
        "cli.parse_ms": _median(s.per_op("cli.parse")) * MS,
        "files.load_ms": _median(s.per_op("files.load")) * MS,
        "files.dump_ms": _median(s.per_op("files.dump")) * MS,
        **{f"cli.format_{f}_ms": _median(v) * MS for f, v in formats.items()},
        "cli.format_ns_per_value": _median(formatting) * 1e9 / workload.values_per_op,
        "cli.emit_ms": _median(s.per_op("cli.emit")) * MS,
    }


def lib_batch(s: Summary, workload) -> dict[str, float]:
    return {
        "basis.rows_ms": _median(s.per_op("basis.rows")) * MS,
        "curve.sample_ms": _median(s.per_op(*CURVE_SAMPLES)) * MS,
        "surface.sample_ms": _median(s.per_op("surface.sample")) * MS,
        "basis.admit_ms": _median(s.per_op("basis.admit_array", self_time=True)) * MS,
        **{f"kernels.{k}_ms": _median(s.per_op(f"kernels.{k}")) * MS
           for k in ("basis_rows", "decasteljau", "patch_grid")},
        **{f"{name}_ms": _median(s.per_op(name)) * MS for name in CURVE_SAMPLES},
        "kernels.decasteljau_alloc_mb": decasteljau_alloc_mb(workload),
    }


def lib_point(s: Summary, workload) -> dict[str, float]:
    return {
        **{f"{route}_us": _median(s.per_call(route)) * US for route in ROUTES},
        "basis.domain_us": _median(s.per_call("basis.domain")) * US,
        "basis.admit_us": _median(s.per_call("basis.admit")) * US,
        "kernels.decasteljau_us": _median(s.per_call("kernels.decasteljau")) * US,
        "basis.domain_builds_per_eval": s.domain_builds / s.calls(*ROUTES),
    }


LAYER_METRICS = {"cli-tables": cli_tables, "lib-batch": lib_batch, "lib-point": lib_point}


def decasteljau_alloc_mb(workload) -> float:
    """Peak bytes allocated inside one ``decasteljau_batch`` call of a
    ``lib-batch`` op, the largest over the op's calls."""
    peaks = []
    kernel = sk_kernels.decasteljau_batch

    def measured(*args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return kernel(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    sk_kernels.decasteljau_batch = measured
    tracemalloc.start()
    try:
        workload.op(0)
    finally:
        tracemalloc.stop()
        sk_kernels.decasteljau_batch = kernel
    return max(peaks) / 2**20
