"""Layer spans recorded from outside the package.

``Tracer`` patches the public functions and methods that one CLI command
crosses, at the attribute its caller looks up (``diffreg.sim.bootstrap_test``,
``RidgeSystem.__init__``, the ``diffreg.cli.COMMANDS`` table), records one
span per call on a thread-local parent stack, and restores every attribute
when the ``with`` block ends.  Spans stay in memory until ``metrics()`` turns
them into the per-layer figures listed in ``LAYER_METRICS``.

A span's self time is its duration minus the durations of its direct child
spans.  Figures derived from array shapes rather than measured carry the
suffix ``_computed``.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict

# (metric, unit, better, source, end-to-end metric it should move)
# source: ("incl" | "self" | "calls", span name) or ("count", counter name)
LAYER_METRICS = (
    ("basis.resample.ms", "ms", "lower", ("incl", "basis.resample"),
     "analysis_large throughput_per_s (ingest command)"),
    ("basis.resample.calls", "count", "lower", ("calls", "basis.resample"),
     "analysis_large throughput_per_s (ingest command)"),
    ("kernels.assemble.ms", "ms", "lower", ("incl", "kernels.assemble"),
     "setup_s on every workload; analysis_large latency_s_p50"),
    ("kernels.assemble.calls", "count", "lower", ("calls", "kernels.assemble"),
     "setup_s on every workload"),
    ("kernels.cache_save.ms", "ms", "lower", ("incl", "kernels.cache_save"),
     "analysis_large latency_s_p50"),
    ("kernels.cache_load.ms", "ms", "lower", ("incl", "kernels.cache_load"),
     "analysis_large latency_s_p50"),
    ("kernels.cache_bytes", "bytes", "lower", ("count", "kernels.cache_bytes"),
     "analysis_large latency_s_p50"),
    ("regress.factor.ms", "ms", "lower", ("incl", "regress.factor"),
     "analysis_large latency_s_p50 and peak_rss_mb; mc_power throughput_per_s"),
    ("regress.factor.calls", "count", "lower", ("calls", "regress.factor"),
     "mc_power throughput_per_s"),
    ("regress.factor.gflop_computed", "GFLOP", "lower", ("count", "regress.factor.gflop"),
     "analysis_large latency_s_p50"),
    ("regress.design_mb_computed", "MB", "lower", ("count", "regress.design_mb"),
     "analysis_large peak_rss_mb"),
    ("regress.solve.ms", "ms", "lower", ("incl", "regress.solve"),
     "mc_power throughput_per_s; analysis_large latency_s_p50"),
    ("regress.solve.calls", "count", "lower", ("calls", "regress.solve"),
     "mc_power throughput_per_s"),
    ("regress.sweep.ms", "ms", "lower", ("incl", "regress.sweep"),
     "analysis_large latency_s_p50"),
    ("regress.spectrum.ms", "ms", "lower", ("incl", "regress.spectrum"),
     "analysis_large latency_s_p50"),
    ("gof.bootstrap.ms", "ms", "lower", ("self", "gof.bootstrap"),
     "mc_power throughput_per_s; analysis_large latency_s_p50"),
    ("gof.bootstrap.calls", "count", "lower", ("calls", "gof.bootstrap"),
     "mc_power throughput_per_s"),
    ("gof.replicates", "count", "higher", ("count", "gof.replicates"),
     "mc_power throughput_per_s"),
    ("gof.apply_gflop_computed", "GFLOP", "lower", ("count", "gof.apply_gflop"),
     "mc_power throughput_per_s; analysis_large latency_s_p50"),
    ("sim.run_mc.ms", "ms", "lower", ("self", "sim.run_mc"),
     "mc_power throughput_per_s"),
    ("sim.gen_dataset.ms", "ms", "lower", ("incl", "sim.gen_dataset"),
     "mc_power throughput_per_s"),
    ("sim.reps", "count", "higher", ("count", "sim.reps"),
     "mc_power throughput_per_s"),
    ("sim.skipped", "count", "lower", ("count", "sim.skipped"),
     "mc_power failed/attempted"),
    ("ingest.load.ms", "ms", "lower", ("incl", "ingest.load"),
     "analysis_large throughput_per_s (ingest command)"),
    ("ingest.rows", "count", "higher", ("count", "ingest.rows"),
     "analysis_large throughput_per_s (ingest command)"),
    ("ingest.gate.ms", "ms", "lower", ("self", "ingest.gate"),
     "analysis_large throughput_per_s (ingest command)"),
    ("ingest.project.ms", "ms", "lower", ("self", "ingest.project"),
     "analysis_large throughput_per_s (ingest command)"),
    ("ingest.project.calls", "count", "lower", ("calls", "ingest.project"),
     "analysis_large throughput_per_s (ingest command)"),
    ("ingest.build.ms", "ms", "lower", ("incl", "ingest.build"),
     "analysis_large throughput_per_s (ingest command)"),
    ("ingest.save.ms", "ms", "lower", ("incl", "ingest.save"),
     "analysis_large throughput_per_s (ingest command)"),
    ("ingest.yield", "ratio", "higher", ("count", "ingest.yield"),
     "analysis_large throughput_per_s (ingest command)"),
    ("cli.resolve_config.ms", "ms", "lower", ("incl", "cli.resolve_config"),
     "latency_s_p50 and throughput_per_s on every workload"),
    ("cli.load_dataset.ms", "ms", "lower", ("incl", "cli.load_dataset"),
     "analysis_large latency_s_p50"),
    ("cli.simulate.ms", "ms", "lower", ("self", "cli.simulate"),
     "mc_power latency_s_p50"),
    ("cli.sweep.ms", "ms", "lower", ("self", "cli.sweep"),
     "analysis_large latency_s_p50"),
    ("cli.fit.ms", "ms", "lower", ("self", "cli.fit"),
     "analysis_large latency_s_p50"),
    ("cli.test.ms", "ms", "lower", ("self", "cli.test"),
     "analysis_large latency_s_p50"),
    ("cli.spectrum.ms", "ms", "lower", ("self", "cli.spectrum"),
     "analysis_large latency_s_p50"),
    ("cli.ingest.ms", "ms", "lower", ("self", "cli.ingest"),
     "analysis_large latency_s_p50 (ingest command)"),
    ("cli.bytes_out", "bytes", "lower", ("count", "cli.bytes_out"),
     "latency_s_p50 on every workload"),
    ("trace.spans", "count", "lower", ("count", "trace.spans"),
     "the tracing overhead"),
    ("trace.overhead_pct", "%", "lower", None,
     "none; traced minus untraced command time over untraced"),
)


class Tracer:
    """Records spans around patched diffreg entry points while active."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: defaultdict = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns its result."""
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, self.spans[index][3])

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    # -- patching --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Route ``owner.attr`` (or ``owner[attr]`` for a dict) through a span.

        ``after(result, args, kwargs)`` runs outside the span to update counts.
        """
        original = _get(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        self._saved.append((owner, attr, original))
        _set(owner, attr, wrapper)

    def __enter__(self):
        install(self)
        return self

    def __exit__(self, *exc):
        while self._saved:
            _set(*self._saved.pop())
        return False

    # -- results ---------------------------------------------------------
    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["incl"] += end - start
            entry["self"] += end - start - inner
        return dict(out)

    def metrics(self) -> dict:
        """Every metric of ``LAYER_METRICS`` except the overhead, as numbers."""
        totals = self.totals()
        counts = dict(self.counts)
        counts["trace.spans"] = len(self.spans)
        subjects_in = counts.get("ingest.subjects_in", 0.0)
        counts["ingest.yield"] = (
            counts.get("ingest.subjects_out", 0.0) / subjects_in if subjects_in else 0.0
        )
        values = {}
        for metric, _unit, _better, source, _moves in LAYER_METRICS:
            if source is None:
                continue
            kind, key = source
            if kind == "count":
                values[metric] = counts.get(key, 0.0)
            elif kind == "calls":
                values[metric] = totals.get(key, {}).get("calls", 0)
            else:
                values[metric] = totals.get(key, {}).get(kind, 0.0) * 1e3
        return values


def _get(owner, attr: str):
    # the object's own attribute, not one found on a base class or instance
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def factor_flops(n: int, p: int) -> float:
    """Flops of one dense ``RidgeSystem`` factorization at sample size n.

    Design einsum 2 n p^4, Cholesky of K p^6 / 3, the triangular solve for
    the whitened design n p^5, and a thin SVD of the m x k whitened design
    (m = n p, k = p^2) counted as 6 m k^2 + 20 k^3 when m >= k.
    """
    m, k = n * p, p * p
    lo, hi = min(m, k), max(m, k)
    return 2.0 * n * p**4 + p**6 / 3.0 + n * p**5 + 6.0 * hi * lo**2 + 20.0 * lo**3


def install(tracer: Tracer) -> None:
    """Patch every traced entry point of the installed diffreg package."""
    from diffreg import cli, ingest, sim
    from diffreg.regress import RidgeSystem

    t = tracer

    def on_factor(_result, args, kwargs):
        data = args[1] if len(args) > 1 else kwargs["data"]
        n, p = data.U.shape
        t.count("regress.factor.gflop", factor_flops(n, p) / 1e9)
        t.maximum("regress.design_mb", n * p * p * p * 8 / 1e6)

    def on_bootstrap(result, args, kwargs):
        data = args[0] if args else kwargs["data"]
        n, p = data.U.shape
        B = int(result.bootstrap_values.size)
        rank = min(n * p, p * p)
        # S v = W (f * W' v) on the statistic's column and the B replicate columns
        t.count("gof.replicates", B)
        t.count("gof.apply_gflop", 4.0 * n * p * rank * (B + 1) / 1e9)

    def on_run_mc(report, _args, _kwargs):
        t.count("sim.reps", len(report.records))
        t.count("sim.skipped", len(report.skipped))

    def on_load(table, _args, _kwargs):
        rows = sum(track.ordinate.size for track in table.subjects.values())
        t.count("ingest.rows", rows + table.dropped_rows)

    def on_gate(result, _args, _kwargs):
        report = result[1]
        t.count("ingest.subjects_in", report.n_in)
        t.count("ingest.subjects_out", report.n_out)

    def on_cache_save(_result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        t.count("kernels.cache_bytes", os.path.getsize(path))

    t.wrap(cli, "resolve_config", "cli.resolve_config")
    for command in list(cli.COMMANDS):
        t.wrap(cli.COMMANDS, command, f"cli.{command}")
    t.wrap(cli, "load_dataset", "cli.load_dataset")
    t.wrap(cli, "assemble", "kernels.assemble")
    t.wrap(sim, "assemble", "kernels.assemble")
    t.wrap(cli, "save_kernel_matrices", "kernels.cache_save", after=on_cache_save)
    t.wrap(cli, "load_kernel_matrices", "kernels.cache_load")
    t.wrap(RidgeSystem, "__init__", "regress.factor", after=on_factor)
    t.wrap(RidgeSystem, "solve", "regress.solve")
    t.wrap(cli, "gcv_sweep", "regress.sweep")
    t.wrap(cli, "spectrum_diag", "regress.spectrum")
    t.wrap(cli, "bootstrap_test", "gof.bootstrap", after=on_bootstrap)
    t.wrap(sim, "bootstrap_test", "gof.bootstrap", after=on_bootstrap)
    t.wrap(cli, "run_mc", "sim.run_mc", after=on_run_mc)
    t.wrap(sim, "gen_dataset", "sim.gen_dataset")
    t.wrap(cli, "load_trajectories", "ingest.load", after=on_load)
    t.wrap(cli, "curves_to_basis", "ingest.gate", after=on_gate)
    t.wrap(ingest, "project_with_offset", "ingest.project")
    t.wrap(ingest, "resample_to_quad_grid", "basis.resample")
    t.wrap(cli, "build_thermo_dataset", "ingest.build")
    t.wrap(cli, "save_dataset", "ingest.save")
    t.wrap(cli, "save_ingest_provenance", "ingest.save")
