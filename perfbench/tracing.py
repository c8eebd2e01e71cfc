"""Span recording around rabibeat's public functions, from outside ``src/``.

``Tracer.install()`` replaces each traced function by a wrapper everywhere a
caller looks it up: the defining module, every ``rabibeat`` module that
imported the name, and the class dict for methods.  ``uninstall()`` puts
every original back.  Spans are kept in memory; a span's parent is the
span open in the calling context, carried into the CLI's sweep pool
threads by a context-copying executor, so spans recorded from several
threads still nest correctly.
"""
from __future__ import annotations

import contextvars
import functools
import inspect
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

_current_span = contextvars.ContextVar("perfbench_span", default=None)
_current_job = contextvars.ContextVar("perfbench_job", default=None)


@dataclass
class Span:
    id: int
    parent: int | None
    job: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    thread: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children running concurrently (sweep variants on pool threads) may
    overlap each other; their union is subtracted once.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def _size(path) -> int:
    return Path(path).stat().st_size


def _fast_len(n: int) -> int:
    import scipy.fft

    return int(n == scipy.fft.next_fast_len(n, real=True))


def _fft_counts(a, result):
    points = int(a["zero_pad"]) * a["trace"].n
    return {"points": points, "fast_len": _fast_len(points)}


def _envelope_counts(a, result):
    return {"points": a["trace"].n, "fast_len": _fast_len(a["trace"].n)}


# (module, qualified name, counts taken from (bound arguments, result));
# every traced call also counts as one call
TARGETS = (
    ("rabibeat.cli", "main", None),
    ("rabibeat.config", "load_config", None),
    ("rabibeat.evolve", "rabi_trace_incoherent",
     lambda a, r: {"samples": r.n}),
    ("rabibeat.evolve", "rabi_trace_vtype", lambda a, r: {"samples": r.n}),
    ("rabibeat.evolve", "apply_power_drift",
     lambda a, r: {"sweeps": int(a["n_sweeps"])}),
    ("rabibeat.spinmodel", "vtype_population", None),
    ("rabibeat.traces", "SampledTrace.to_csv", lambda a, r: {"bytes": _size(r)}),
    ("rabibeat.traces", "SampledTrace.from_csv",
     lambda a, r: {"bytes": _size(a["path"])}),
    ("rabibeat.analysis", "fft_spectrum", _fft_counts),
    ("rabibeat.analysis", "analytic_envelope", _envelope_counts),
    ("rabibeat.analysis", "refine_peak_frequency", None),
    ("rabibeat.analysis", "find_peaks", None),
    ("rabibeat.analysis", "extract_beats", None),
    ("rabibeat.analysis", "fit_decay_time", None),
    ("rabibeat.analysis", "synthesize_esr",
     lambda a, r: {"points": int(r.freqs.size)}),
    ("rabibeat.analysis", "Spectrum.to_csv", lambda a, r: {"bytes": _size(r)}),
    ("rabibeat.analysis", "Lineshape.to_csv", lambda a, r: {"bytes": _size(r)}),
    ("rabibeat.imaging", "FieldMap.from_model", None),
    ("rabibeat.imaging", "FieldMap.to_csv", lambda a, r: {"bytes": _size(r)}),
    ("rabibeat.imaging", "position_from_rabi", None),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    Only calls made inside ``job()`` are recorded; the benchmark's own
    checks between jobs call the same functions untraced.
    """

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore: list = []

    # -- recording ---------------------------------------------------------
    def start(self, name: str, parent: Span | None = None) -> Span | None:
        job = _current_job.get()
        if job is None:
            return None
        if parent is None:
            parent = _current_span.get()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        return Span(span_id, parent.id if parent else None, job, name,
                    perf_counter(), thread=threading.get_ident())

    def finish(self, span: Span) -> None:
        span.end = perf_counter()
        with self._lock:
            self.spans.append(span)

    def job(self, job_id: int):
        """Context in which calls are traced and attributed to ``job_id``."""
        ctx = contextvars.copy_context()
        ctx.run(_current_job.set, job_id)
        ctx.run(_current_span.set, None)
        return ctx

    # -- patching ----------------------------------------------------------
    def _wrap(self, name: str, fn, counts):
        signature = inspect.signature(fn) if counts else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.start(name)
            if span is None:
                return fn(*args, **kwargs)
            token = _current_span.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                _current_span.reset(token)
                tracer.finish(span)
            if counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(counts(bound.arguments, result))
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target where callers look it up."""
        import scipy.optimize

        import rabibeat.cli

        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "rabibeat" or n.startswith("rabibeat.")]
        for module_name, qualname, counts in TARGETS:
            module = sys.modules[module_name]
            name = f"{module_name.rsplit('.', 1)[-1]}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, counts))
                else:
                    wrapped = self._wrap(name, raw, counts)
                self._set(cls, attr, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(name, original, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

        # refine_peak_frequency's DTFT evaluations: nfev of the optimizer
        minimize_scalar = scipy.optimize.minimize_scalar

        @functools.wraps(minimize_scalar)
        def counting_minimize_scalar(*args, **kwargs):
            result = minimize_scalar(*args, **kwargs)
            span = _current_span.get()
            if span is not None and _current_job.get() is not None:
                span.counts["dtft_evals"] = (
                    span.counts.get("dtft_evals", 0) + int(result.nfev))
            return result

        self._set(scipy.optimize, "minimize_scalar", counting_minimize_scalar)
        self._set(rabibeat.cli, "ThreadPoolExecutor", self._executor_class())

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _executor_class(self):
        """ThreadPoolExecutor that records the pool's lifetime as the span
        ``cli.sweep`` and each task as a child ``cli.sweep.variant``, with
        the submitting context carried into the worker thread."""
        tracer = self

        class TracingExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._span = tracer.start("cli.sweep")

            def submit(self, fn, /, *args, **kwargs):
                def variant(*a, **k):
                    span = tracer.start("cli.sweep.variant", parent=self._span)
                    token = _current_span.set(span)
                    cpu = thread_time()
                    try:
                        return fn(*a, **k)
                    finally:
                        _current_span.reset(token)
                        if span is not None:
                            span.counts["cpu_s"] = thread_time() - cpu
                            tracer.finish(span)

                ctx = contextvars.copy_context()
                return super().submit(ctx.run, variant, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if self._span is not None and self._span.end == 0.0:
                    tracer.finish(self._span)

        return TracingExecutor


def layer_table(spans, n_jobs: int) -> dict:
    """Per-layer figures, per job: ``<module>.<function>.<stat>`` -> value.

    Every traced function gets ``calls`` and ``self_ms`` plus the sum of its
    counts; ``fast_len`` becomes ``fast_len_frac``, the share of transform
    lengths that are already fast.  Two ratios are derived from the span
    tree: ``evolve.apply_power_drift.useful_trace_frac`` (sweeps over the
    inner trace calls) and ``cli.sweep.overlap`` (summed CPU time of the
    variant threads over sweep wall time; 1 means no parallel speed-up).
    """
    selfs = self_times(spans)
    groups: dict = {}
    for s in spans:
        groups.setdefault(s.name, []).append(s)
    table = {}
    for name, group in sorted(groups.items()):
        totals: dict = {}
        for s in group:
            for key, value in s.counts.items():
                totals[key] = totals.get(key, 0) + value
        table[f"{name}.calls"] = len(group) / n_jobs
        table[f"{name}.self_ms"] = 1e3 * sum(selfs[s.id] for s in group) / n_jobs
        for key, value in sorted(totals.items()):
            if key == "fast_len":
                table[f"{name}.fast_len_frac"] = value / len(group)
            else:
                table[f"{name}.{key}"] = value / n_jobs
    drift_ids = {s.id for s in groups.get("evolve.apply_power_drift", ())}
    if drift_ids:
        inner = sum(1 for s in groups.get("evolve.rabi_trace_incoherent", ())
                    if s.parent in drift_ids)
        sweeps = table["evolve.apply_power_drift.sweeps"] * n_jobs
        table["evolve.apply_power_drift.useful_trace_frac"] = sweeps / inner
    if "cli.sweep" in groups:
        busy = sum(s.counts["cpu_s"] for s in groups.get("cli.sweep.variant", ()))
        wall = sum(s.duration for s in groups["cli.sweep"])
        table["cli.sweep.overlap"] = busy / wall
    return table
