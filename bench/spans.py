"""Span tracer for the benchmark's traced run, and the per-layer figures built from it.

The tracer lives in the benchmark, not in the program: ``install`` replaces
each public function of ``spatialbsa``'s five modules with a timing wrapper
in every module namespace where that function is looked up, and wraps the
``QuantumRegister`` methods on the class.  Spans are kept in memory and
summarized once the traced command has returned.

A span is ``(name, start, end, span_id, parent_id, thread)``.  Each thread
keeps its own stack of open spans.  A span opened on a thread with an empty
stack (a thread-pool worker) takes as parent the innermost span open on the
thread that installed the tracer, so ``quality`` calls made by
``sweep_points``' pool are its children.  A span's self time is its duration
minus the union of its children's intervals, across threads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict

MODULES = ("register", "cavity", "bsa", "qsdc", "cli")

# QuantumRegister methods that move amplitudes.  The accessors (axis,
# subsystem, require_kind, norm_squared) are not spanned: they cost about
# as much as a span does, and their time stays in the caller's self time.
REGISTER_METHODS = (
    "copy",
    "apply_one",
    "apply_two",
    "apply_diagonal",
    "probabilities",
    "measure",
    "add_subsystem",
    "remove_subsystem",
)

ROOT = 0


class Tracer:
    """Collects spans and the few values the per-layer ratios need."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._lock = threading.Lock()
        self.amp_bytes = 0
        self.emit_bytes = 0
        self.analyze_inputs: list = []
        self.analyze_outputs: list = []
        self.sessions: list = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args, kwargs)`` runs ahead of the span and its result is
        handed to ``after(token, args, result)``, which runs once the span
        has closed.  Neither hook is counted in the span's own time.
        """
        spans = self.spans
        ids = self._ids
        main_stack = self._main_stack
        stack_of = self._stack
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else ROOT
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, span_id, parent, get_ident()))
            if after is not None:
                after(token, args, result)
            return result

        return traced

    # Hooks -----------------------------------------------------------------

    def _register_in(self, args, kwargs):
        return args[0].amplitudes.nbytes if args and hasattr(args[0], "amplitudes") else 0

    def _register_out(self, token, args, result):
        reg = result if hasattr(result, "amplitudes") else args[0]
        with self._lock:
            self.amp_bytes += token + reg.amplitudes.nbytes

    def _analyze_in(self, args, kwargs):
        state = args[0] if args else kwargs["state"]
        if hasattr(state, "amplitudes"):
            names = [s.name for s in state.subsystems]
            return state.amplitudes.copy() if names == ["a", "b"] else None
        return state.value

    def _analyze_out(self, token, args, result):
        with self._lock:
            self.analyze_inputs.append(token)
            self.analyze_outputs.append(
                (result.inferred.value, result.success_probability)
            )

    def _session_out(self, token, args, result):
        with self._lock:
            self.sessions.append((result.phase1_qber, len(result.decoded_bits) // 2))

    def _emit_in(self, args, kwargs):
        with self._lock:
            self.emit_bytes += len(args[0])


def install(tracer: Tracer) -> None:
    """Patch spatialbsa's public functions and register methods with spans.

    Must run after ``spatialbsa.cli`` is imported and before ``main``.  A
    function is named after the module that defines it, wherever it is
    looked up: ``analyze`` called from ``cli`` or ``qsdc`` is
    ``bsa.analyze``.  ``cli.main`` is not wrapped, since the caller times it.
    """
    mods = {name: importlib.import_module(f"spatialbsa.{name}") for name in MODULES}
    register_cls = mods["register"].QuantumRegister
    names: dict[int, tuple] = {}
    for short, mod in mods.items():
        for attr, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == mod.__name__
            ):
                names[id(value)] = (value, f"{short}.{attr}")
    del names[id(mods["cli"].main)]
    # The module-level measure alias only forwards to the spanned method.
    alias = getattr(mods["register"], "measure", None)
    if alias is not None:
        names.pop(id(alias), None)
    names[id(mods["cli"]._emit)] = (mods["cli"]._emit, "cli.emit")

    hooks = {
        "register.make_bell": (tracer._register_in, tracer._register_out),
        "bsa.analyze": (tracer._analyze_in, tracer._analyze_out),
        "qsdc.run_session": (None, tracer._session_out),
        "cli.emit": (tracer._emit_in, None),
    }
    wrappers = {
        key: tracer.wrap(name, fn, *hooks.get(name, (None, None)))
        for key, (fn, name) in names.items()
    }
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
    for method in REGISTER_METHODS:
        original = getattr(register_cls, method, None)
        if original is not None:
            setattr(
                register_cls,
                method,
                tracer.wrap(
                    f"register.{method}",
                    original,
                    tracer._register_in,
                    tracer._register_out,
                ),
            )
    parser_cls = mods["cli"].CliParser
    parser_cls.parse_args = tracer.wrap("cli.parse_args", parser_cls.parse_args)


# Summaries -------------------------------------------------------------------


def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by ``intervals``, clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans) -> dict:
    kids = defaultdict(list)
    for span in spans:
        kids[span[4]].append(span)
    return kids


def self_times(spans) -> dict:
    """Map span_id to duration minus the union of its children's intervals."""
    kids = _children(spans)
    return {
        s[3]: (s[2] - s[1]) - union_length([(c[1], c[2]) for c in kids[s[3]]], s[1], s[2])
        for s in spans
    }


def session_phases(session, children) -> dict:
    """Split one ``run_session`` span at its direct children.

    prep runs from session start to the first direct ``measure``; phase1 to
    the end of the last direct ``measure``; slots to the first direct
    ``apply_spatial_unitary`` (the interval holding the ``remaining`` build);
    phase2 to session end.  A session that aborts has no direct
    ``apply_spatial_unitary``: its phase 1 runs to session end and slots and
    phase2 are zero.
    """
    start, end = session[1], session[2]
    measures = [c for c in children if c[0] == "register.measure"]
    encodes = [c for c in children if c[0] == "register.apply_spatial_unitary"]
    t1 = min((c[1] for c in measures), default=end)
    if encodes:
        t3 = min(c[1] for c in encodes)
        t2 = max((c[2] for c in measures), default=t1)
    else:
        t2 = t3 = end
    return {
        "prep_s": t1 - start,
        "phase1_s": t2 - t1,
        "slots_s": t3 - t2,
        "phase2_s": end - t3,
    }


_BELL = {
    "phi+": (1, 0, 0, 1),
    "phi-": (1, 0, 0, -1),
    "psi+": (0, 1, 1, 0),
    "psi-": (0, 1, -1, 0),
}


def bell_label(amplitudes, tol: float = 1e-9):
    """Name the Bell state a two-qubit (a, b) amplitude vector holds, or None."""
    norm2 = sum(abs(a) ** 2 for a in amplitudes)
    if norm2 <= 0.0:
        return None
    for label, ket in _BELL.items():
        overlap = abs(sum(k * a for k, a in zip(ket, amplitudes))) ** 2 / (2.0 * norm2)
        if overlap >= 1.0 - tol:
            return label
    return None


def summarize(tracer: Tracer, main_s: float, main_start: float) -> dict:
    """Reduce one traced command to per-name totals and the per-layer extras."""
    spans = tracer.spans
    selfs = self_times(spans)
    kids = _children(spans)
    per_name: dict[str, list] = {}
    for s in spans:
        entry = per_name.setdefault(s[0], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s[2] - s[1]
        entry[2] += selfs[s[3]]
    roots = [(s[1], s[2]) for s in kids[ROOT]]
    covered = union_length(roots, main_start, main_start + main_s)
    phases = {"prep_s": 0.0, "phase1_s": 0.0, "slots_s": 0.0, "phase2_s": 0.0}
    pairs_prepared = 0
    for s in spans:
        if s[0] == "qsdc.run_session":
            direct = kids[s[3]]
            for key, value in session_phases(s, direct).items():
                phases[key] += value
            pairs_prepared += sum(1 for c in direct if c[0] == "register.make_bell")
    analyze_us = [
        round((s[2] - s[1]) * 1e6, 3) for s in spans if s[0] == "bsa.analyze"
    ]
    known = correct = 0
    for given, (inferred, _) in zip(tracer.analyze_inputs, tracer.analyze_outputs):
        truth = given if isinstance(given, str) or given is None else bell_label(given)
        if truth is not None:
            known += 1
            correct += inferred == truth
    return {
        "names": per_name,
        "spans": len(spans),
        "main_s": main_s,
        "unspanned_s": main_s - covered,
        "concurrent_s": sum(selfs.values()) - union_length([(s[1], s[2]) for s in spans]),
        "analyze_us": analyze_us,
        "analyze_known": known,
        "analyze_correct": correct,
        "success_sum": sum(p for _, p in tracer.analyze_outputs),
        "phases": phases,
        "pairs_prepared": pairs_prepared,
        "sessions": tracer.sessions,
        "amp_bytes": tracer.amp_bytes,
        "emit_bytes": tracer.emit_bytes,
    }


# Per-layer metrics -----------------------------------------------------------

REGISTER_FNS = (
    "make_bell",
    "copy",
    "apply_one",
    "apply_diagonal",
    "probabilities",
    "measure",
    "add_subsystem",
    "remove_subsystem",
)


def metric_unit(name: str) -> str:
    if name == "register.amp_bytes":
        return "bytes_computed"
    if name == "cli.emit.bytes":
        return "bytes"
    if name.endswith(".calls") or name == "trace.spans":
        return "count"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def is_exact(name: str) -> bool:
    """Counts and ratios repeat exactly from one traced cycle to the next."""
    return metric_unit(name) not in ("s", "us") and name != "trace.overhead_frac"


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 for an empty one."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _scaled(summary: dict, factor: float) -> dict:
    """A copy of one command's summary with every time multiplied by ``factor``."""
    out = dict(summary)
    out["names"] = {
        name: [calls, total * factor, self_s * factor]
        for name, (calls, total, self_s) in summary["names"].items()
    }
    out["analyze_us"] = [us * factor for us in summary["analyze_us"]]
    out["phases"] = {key: value * factor for key, value in summary["phases"].items()}
    for key in ("main_s", "unspanned_s", "concurrent_s"):
        out[key] = summary[key] * factor
    return out


def layer_metrics(summaries, speeds, untraced_main_s: float) -> dict:
    """Per-layer metrics of one traced cycle, from its commands' summaries.

    Each command's times are multiplied by its host speed in ``speeds``.
    ``untraced_main_s`` is the cycle's scaled time inside ``main`` with
    tracing off.
    """
    summaries = [_scaled(summary, speed) for summary, speed in zip(summaries, speeds)]
    names: dict[str, list] = {}
    for summary in summaries:
        for name, (calls, total, self_s) in summary["names"].items():
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s

    def calls(name):
        return names.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return names.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return names.get(name, (0, 0.0, 0.0))[2]

    def add(key):
        return sum(summary[key] for summary in summaries)

    m: dict[str, float] = {}
    for fn in REGISTER_FNS:
        m[f"register.{fn}.calls"] = calls(f"register.{fn}")
        m[f"register.{fn}.self_s"] = self_s(f"register.{fn}")
    m["register.amp_bytes"] = add("amp_bytes")
    for fn in ("reflection", "scatter_factors", "operating_point"):
        m[f"cavity.{fn}.calls"] = calls(f"cavity.{fn}")
        m[f"cavity.{fn}.self_s"] = self_s(f"cavity.{fn}")

    analyze_us = sorted(us for summary in summaries for us in summary["analyze_us"])
    n_analyze = calls("bsa.analyze")
    known = add("analyze_known")
    m["bsa.analyze.calls"] = n_analyze
    m["bsa.analyze.self_s"] = self_s("bsa.analyze")
    m["bsa.analyze.p50_us"] = percentile(analyze_us, 0.50)
    m["bsa.analyze.p99_us"] = percentile(analyze_us, 0.99)
    m["bsa.parity_qnd.total_s"] = total("bsa.parity_qnd")
    m["bsa.spin_readout.total_s"] = total("bsa.spin_readout")
    m["bsa.apply_bs.total_s"] = total("register.apply_bs")
    m["bsa.detect.total_s"] = total("bsa.detect")
    m["bsa.quality.calls"] = calls("bsa.quality")
    m["bsa.quality.self_s"] = self_s("bsa.quality")
    m["bsa.correct_frac"] = add("analyze_correct") / known if known else 0.0
    m["bsa.mean_success"] = add("success_sum") / n_analyze if n_analyze else 0.0

    sessions = [s for summary in summaries for s in summary["sessions"]]
    prepared = add("pairs_prepared")
    m["qsdc.run_session.total_s"] = total("qsdc.run_session")
    m["qsdc.run_session.self_s"] = self_s("qsdc.run_session")
    for phase in ("prep_s", "phase1_s", "slots_s", "phase2_s"):
        m[f"qsdc.phase.{phase}"] = sum(summary["phases"][phase] for summary in summaries)
    m["qsdc.apply_channel.calls"] = calls("qsdc.apply_channel")
    m["qsdc.eve_intercept_resend.calls"] = calls("qsdc.eve_intercept_resend")
    m["qsdc.message_pair_frac"] = (
        sum(pairs for _, pairs in sessions) / prepared if prepared else 0.0
    )
    m["qsdc.phase1_qber"] = (
        sum(qber for qber, _ in sessions) / len(sessions) if sessions else 0.0
    )

    m["cli.parse_s"] = total("cli.build_parser") + total("cli.parse_args")
    m["cli.build_qsdc_config.total_s"] = total("cli.build_qsdc_config")
    m["cli.sweep_points.total_s"] = total("cli.sweep_points")
    m["cli.sweep_points.self_s"] = self_s("cli.sweep_points")
    m["cli.format_sweep_csv.total_s"] = total("cli.format_sweep_csv")
    m["cli.emit.total_s"] = total("cli.emit")
    m["cli.emit.bytes"] = add("emit_bytes")

    m["trace.overhead_frac"] = add("main_s") / untraced_main_s - 1.0
    m["trace.spans"] = add("spans")
    m["trace.unspanned_s"] = add("unspanned_s")
    m["trace.concurrent_s"] = add("concurrent_s")
    return m
