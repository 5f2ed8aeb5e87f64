"""Outside-in span tracing of an in-process ``misodof.cli.main`` run.

The tracer replaces public module attributes with timing wrappers for the
duration of one run, so the program itself carries no tracing code.  Spans
are kept in memory; the per-layer metrics are derived from them after the
run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class TraceError(RuntimeError):
    """A wrapper could not be installed, or an expected span never ran."""


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of one traced run.

    A span's parent is the innermost open span of its own thread.  Pool
    threads start with no open span; their spans are adopted by
    ``worker_parent``, the ``mc.estimate`` span that owns the pool.
    """

    def __init__(self):
        self.spans = []
        self.worker_parent = None
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.worker_parent
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   threading.get_ident(), attrs))

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(attrs(*args) if attrs else {})):
                return fn(*args, **kwargs)
        return traced


def _traced_estimate(tracer, estimate):
    @functools.wraps(estimate)
    def traced(f, cfg, csit):
        with tracer.span("mc.estimate", workers=cfg.n_workers) as span_id:
            outer, tracer.worker_parent = tracer.worker_parent, span_id
            try:
                return estimate(tracer.wrap("mc.integrand", f), cfg, csit)
            finally:
                tracer.worker_parent = outer
    return traced


@contextmanager
def installed(tracer):
    """Patch the traced attributes of ``misodof`` for the body of the block."""
    from misodof import cli, mc

    patches = [
        (mc, "sample_batch", lambda fn: tracer.wrap("channel.sample_batch", fn)),
        (mc, "block_rng", lambda fn: tracer.wrap(
            "mc.block_rng", fn, lambda seed, block: {"key": (int(seed), int(block))})),
        (mc, "estimate", lambda fn: _traced_estimate(tracer, fn)),
        (cli, "rate_scheme", lambda fn: tracer.wrap(
            "rates.rate_scheme", fn,
            lambda scheme, *_: {"scheme": getattr(scheme, "value", scheme)})),
        (cli, "rotation_mean_log_quadrature",
         lambda fn: tracer.wrap("oracles.rotation_quadrature", fn)),
        (cli, "exp_log_mean", lambda fn: tracer.wrap("oracles.exp_log_mean", fn)),
        (cli, "conditional_log_bounds_check",
         lambda fn: tracer.wrap("oracles.bounds_check", fn)),
    ]
    for module, attr, _ in patches:
        if not callable(getattr(module, attr, None)):
            raise TraceError(f"{module.__name__}.{attr} is not a function; cannot trace it")
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, make in patches:
            setattr(module, attr, make(getattr(module, attr)))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def traced_main(argv):
    """Run ``misodof.cli.main(argv)`` under a fresh tracer: (exit code, tracer)."""
    from misodof import cli

    tracer = Tracer()
    with installed(tracer), tracer.span("cli.main"):
        code = cli.main(argv)
    return code, tracer


def check_expected(spans, expected):
    """Raise TraceError if any expected span name recorded no calls."""
    seen = {s.name for s in spans}
    missing = [name for name in expected if name not in seen]
    if missing:
        raise TraceError("expected spans recorded zero calls: " + ", ".join(missing))


def self_time(span, spans):
    """Duration of ``span`` minus the durations of its direct children.

    Meant for spans whose children run one after another on one thread.
    """
    return span.duration - sum(s.duration for s in spans if s.parent == span.id)


def mc_self_ms_per_block(spans):
    """``mc.estimate`` self time per block, in ms; take it from a serial run."""
    blocks = sum(1 for s in spans if s.name == "mc.block_rng")
    own = sum(self_time(s, spans) for s in spans if s.name == "mc.estimate")
    return 1e3 * own / blocks if blocks else 0.0


SCHEMES = ("tdma", "zf", "mat", "rszf", "proposed")

# Per-layer metrics: name -> (unit, better).
LAYER_METRICS = {
    "channel.sample_batch.calls": ("count", "lower"),
    "channel.sample_batch.ms_per_block": ("ms", "lower"),
    "channel.sample_batch.busy_s": ("s", "lower"),
    "channel.draws_per_distinct_block": ("draws/block", "lower"),
    "rates.rate_scheme.calls": ("count", "lower"),
    "rates.finalize_ms": ("ms", "lower"),
    **{f"rates.integrand.{s}.ms_per_block": ("ms", "lower") for s in SCHEMES},
    "mc.estimate.calls": ("count", "lower"),
    "mc.blocks": ("count", "lower"),
    "mc.self_ms_per_block": ("ms", "lower"),
    "mc.parallel_efficiency": ("ratio", "higher"),
    "cli.self_s": ("s", "lower"),
    "oracles.rotation_quadrature.ms_per_call": ("ms", "lower"),
    "oracles.exp_log_mean.ms": ("ms", "lower"),
    "oracles.bounds_check.s": ("s", "lower"),
    "oracles.mc_estimate.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced run; a layer that never ran reads 0.

    ``mc.self_ms_per_block`` needs a serial run and ``trace.overhead_s`` an
    untraced one, so both are left to the caller.
    """
    by_id = {s.id: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def ancestor(span, name):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return span
        return None

    draws = named.get("channel.sample_batch", [])
    rngs = named.get("mc.block_rng", [])
    schemes = named.get("rates.rate_scheme", [])
    estimates = named.get("mc.estimate", [])
    integrands = named.get("mc.integrand", [])
    keys = {s.attrs["key"] for s in rngs}

    per_scheme = {name: [] for name in SCHEMES}
    for s in integrands:
        cell = ancestor(s, "rates.rate_scheme")
        if cell is not None and cell.attrs["scheme"] in per_scheme:
            per_scheme[cell.attrs["scheme"]].append(s.duration)

    block_work = sum(s.duration for s in (*draws, *rngs, *integrands))
    estimate_capacity = sum(s.duration * s.attrs["workers"] for s in estimates)
    main = named["cli.main"][0]

    return {
        "channel.sample_batch.calls": len(draws),
        "channel.sample_batch.ms_per_block": 1e3 * _mean([s.duration for s in draws]),
        "channel.sample_batch.busy_s": sum(s.duration for s in draws),
        "channel.draws_per_distinct_block": len(draws) / len(keys) if keys else 0.0,
        "rates.rate_scheme.calls": len(schemes),
        "rates.finalize_ms": 1e3 * _mean([self_time(s, spans) for s in schemes]),
        **{f"rates.integrand.{name}.ms_per_block": 1e3 * _mean(durations)
           for name, durations in per_scheme.items()},
        "mc.estimate.calls": len(estimates),
        "mc.blocks": len(rngs),
        "mc.parallel_efficiency": block_work / estimate_capacity if estimate_capacity else 0.0,
        "cli.self_s": self_time(main, spans),
        "oracles.rotation_quadrature.ms_per_call": 1e3 * _mean(
            [s.duration for s in named.get("oracles.rotation_quadrature", [])]),
        "oracles.exp_log_mean.ms": 1e3 * sum(
            s.duration for s in named.get("oracles.exp_log_mean", [])),
        "oracles.bounds_check.s": sum(s.duration for s in named.get("oracles.bounds_check", [])),
        "oracles.mc_estimate.s": sum(s.duration for s in estimates if s.parent == main.id),
    }
