"""Outside-in tracing of relic's layers.

The tracer replaces the module attributes through which the workloads reach
each layer's public functions with wrappers that record a span (name, start,
end, parent) and a few counters, then puts the originals back.  Nothing under
``src/`` changes.  Each wrapped function is reached through exactly one
wrapped binding per call, so every call is counted once: ``learner`` imports
``covers``, ``refine`` and ``clause_of`` by name, ``logic.theory_covers``
looks ``covers`` up in ``logic``, and ``dlab.refine`` recurses through the
unwrapped ``dlab`` binding, so only the learner's top-level calls count.

Spans and counters are kept per thread.  A span's parent is the span open
on the calling thread; a span opened on a thread with nothing open (a worker
of ``evaluate``'s fold pool) takes as parent the span open on the thread
that started the operation, so folds run in a pool still hang under
``cross_validate``.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name): every binding a workload reaches a layer
# function through.
BINDINGS = (
    ("logic", "covers", "logic.covers"),
    ("learner", "covers", "logic.covers"),
    ("learner", "refine", "dlab.refine"),
    ("learner", "clause_of", "dlab.clause_of"),
    ("learner", "learn_class", "learner.learn_class"),
    ("multisource", "learn_class", "learner.learn_class"),
    ("multisource", "aggregate", "multisource.aggregate"),
    ("evaluate", "aggregate", "multisource.aggregate"),
    ("multisource", "interleavings", "multisource.interleavings"),
    ("multisource", "filter_constraints", "multisource.filter"),
    ("multisource", "bottom_clauses_for_pair", "multisource.bottoms"),
    ("multisource", "synthesize_bias", "multisource.synthesize"),
    ("multisource", "biased_multisource_learn", "multisource.pipeline"),
    ("evaluate", "biased_multisource_learn", "multisource.pipeline"),
    ("evaluate", "cross_validate", "evaluate.cross_validate"),
    ("evaluate", "train_accuracy", "evaluate.score"),
    ("evaluate", "theory_covers", "evaluate.score"),
    ("data", "write_model_file", "data.write"),
    ("data", "parse_model_file", "data.parse"),
    ("data", "saturate", "data.saturate"),
    ("synth", "saturate", "data.saturate"),
    ("synth", "generate_dataset", "synth.generate"),
)

# Every per-layer metric the traced run reports, in output order.
LAYER_METRICS = (
    ("logic.covers.calls", "count"), ("logic.covers.true", "count"),
    ("logic.covers.false", "count"), ("logic.covers.s", "s"),
    ("logic.covers.false_s", "s"), ("logic.covers.distinct", "count"),
    ("logic.covers.repeat_frac", "ratio"), ("logic.covers.frac", "ratio"),
    ("logic.index.builds", "count"), ("logic.index.build_s", "s"),
    ("learner.learn_class.calls", "count"), ("learner.learn_class.s", "s"),
    ("learner.self_s", "s"), ("learner.nodes", "count"),
    ("learner.mono.ECG.s", "s"), ("learner.mono.ECG.nodes", "count"),
    ("learner.mono.ABP.s", "s"), ("learner.mono.ABP.nodes", "count"),
    ("learner.agg.s", "s"), ("learner.agg.nodes", "count"),
    ("dlab.refine.calls", "count"), ("dlab.refine.s", "s"),
    ("dlab.refine.children", "count"), ("dlab.clause_of.calls", "count"),
    ("dlab.clause_of.s", "s"), ("dlab.frac", "ratio"),
    ("dlab.space.synth", "count"), ("dlab.space.naive", "count"),
    ("multisource.aggregate.s", "s"), ("multisource.aggregate.dropped", "count"),
    ("multisource.merges.generated", "count"),
    ("multisource.merges.kept", "count"),
    ("multisource.bottoms.distinct", "count"), ("multisource.bottoms.s", "s"),
    ("multisource.synthesize.s", "s"),
    ("data.write.s", "s"), ("data.parse.s", "s"), ("data.parse.mb_s", "MB/s"),
    ("data.saturate.calls", "count"), ("data.saturate.s", "s"),
    ("data.facts", "count"),
    ("evaluate.folds", "count"), ("evaluate.fold.s_max", "s"),
    ("evaluate.fold.s_sum", "s"), ("evaluate.full.s", "s"),
    ("evaluate.score.s", "s"),
    ("synth.generate.s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Metrics that are exact counts: every traced operation of a run must
# reproduce them.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS
                      if unit == "count" and not name.startswith("dlab.space"))


def _body_key(clause) -> tuple[str, ...]:
    return tuple(sorted(map(str, clause.body)))


class _ThreadState:
    """What one thread has recorded: its open spans and its counters."""

    def __init__(self):
        self.stack: list[int] = []      # indices of the open spans
        self.counts: Counter = Counter()
        self.covers_false_s = 0.0
        self.pairs: set = set()
        self.examples: dict[int, object] = {}   # keeps ids unique
        self.pass_s: Counter = Counter()
        self.pass_nodes: Counter = Counter()
        self.last_clause = None
        self.last_key = None


class Tracer:
    """Spans and counters of one traced phase (a set-up or an operation),
    kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._home: _ThreadState | None = None   # thread of the root span

    # -- spans ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def _parent(self, state: _ThreadState) -> int:
        if state.stack:
            return state.stack[-1]
        home = self._home.stack if self._home is not None else ()
        try:
            return home[-1]
        except IndexError:
            return -1

    def open(self, name: str, state: _ThreadState | None = None) -> list:
        state = state or self._state()
        rec = [name, 0.0, 0.0, self._parent(state)]
        with self._lock:
            state.stack.append(len(self.spans))
            self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec: list, state: _ThreadState | None = None) -> None:
        rec[2] = perf_counter()
        (state or self._state()).stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """Span around a whole operation, on the calling thread."""
        self._home = self._state()
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, m):
        """Wrap every binding in BINDINGS and FactIndex construction for the
        duration of the block, then put the originals back."""
        saved = []
        try:
            for mod_name, attr, span in BINDINGS:
                mod = getattr(m, mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(span, original))
            cls = m.logic.FactIndex
            original = cls.__init__
            saved.append((cls, "__init__", original))
            cls.__init__ = self._wrap("logic.index", original)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        note = getattr(self, "_note_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            rec = tracer.open(name, state)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec, state)
            if note is not None:
                note(state, rec, args, result)
            return result

        return traced

    # -- counters, one per wrapped layer function that has any -----------------

    def _note_logic_covers(self, st, rec, args, result):
        clause, facts = args[0], args[1]
        if clause is not st.last_clause:
            st.last_clause, st.last_key = clause, _body_key(clause)
        st.examples[id(facts)] = facts
        st.pairs.add((st.last_key, id(facts)))
        if result:
            st.counts["logic.covers.true"] += 1
        else:
            st.counts["logic.covers.false"] += 1
            st.covers_false_s += rec[2] - rec[1]

    def _note_dlab_refine(self, st, rec, args, result):
        st.counts["dlab.refine.children"] += len(result)

    def _note_learner_learn_class(self, st, rec, args, result):
        source = args[1][0].source if args[1] else "AGG"
        key = "agg" if source == "AGG" else f"mono.{source}"
        st.pass_s[key] += rec[2] - rec[1]
        st.pass_nodes[key] += result.stats.nodes

    def _note_multisource_aggregate(self, st, rec, args, result):
        st.counts["multisource.aggregate.dropped"] += len(result.dropped)

    def _note_multisource_interleavings(self, st, rec, args, result):
        st.counts["multisource.merges.generated"] += len(result)

    def _note_multisource_filter(self, st, rec, args, result):
        st.counts["multisource.merges.kept"] += len(result)

    def _note_multisource_pipeline(self, st, rec, args, result):
        st.counts["multisource.bottoms.distinct"] += sum(
            len(b) for b in result.bottoms.values())

    def _note_data_parse(self, st, rec, args, result):
        st.counts["data.parse.chars"] += len(args[0])

    def _note_data_saturate(self, st, rec, args, result):
        st.counts["data.facts"] += len(result.facts)

    # -- derived metrics -------------------------------------------------------

    def total_s(self, name: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def _under_cross_validate(self, index: int) -> bool:
        """Whether the nearest pipeline or cross_validate span above the
        span `index` is a cross_validate span."""
        parent = self.spans[index][3]
        while parent != -1:
            name = self.spans[parent][0]
            if name in ("evaluate.cross_validate", "multisource.pipeline"):
                return name == "evaluate.cross_validate"
            parent = self.spans[parent][3]
        return False

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one operation: the tracer's first span is the
        operation's root and every later span lies inside it."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child_s: defaultdict = defaultdict(float)
        for name, start, end, parent in self.spans[1:]:
            calls[name] += 1
            total[name] += end - start
            child_s[parent] += end - start
        learn_self = sum(end - start - child_s[i]
                         for i, (name, start, end, _) in enumerate(self.spans)
                         if name == "learner.learn_class")
        # pipelines run by cross_validate, in the order they started: the
        # folds, then the full run
        runs = sorted((s, e - s) for i, (n, s, e, _) in enumerate(self.spans)
                      if n == "multisource.pipeline"
                      and self._under_cross_validate(i))
        folds, full = [d for _, d in runs[:-1]], [d for _, d in runs[-1:]]
        op_s = self.spans[0][2] - self.spans[0][1]
        covers_calls = calls["logic.covers"]
        parse_s = total["data.parse"]
        states = self._states
        c = sum((st.counts for st in states), Counter())
        pairs = set().union(*(st.pairs for st in states))
        pass_s = sum((st.pass_s for st in states), Counter())
        pass_nodes = sum((st.pass_nodes for st in states), Counter())
        return {
            "logic.covers.calls": covers_calls,
            "logic.covers.true": c["logic.covers.true"],
            "logic.covers.false": c["logic.covers.false"],
            "logic.covers.s": total["logic.covers"],
            "logic.covers.false_s": sum(st.covers_false_s for st in states),
            "logic.covers.distinct": len(pairs),
            "logic.covers.repeat_frac": (1 - len(pairs) / covers_calls
                                         if covers_calls else 0.0),
            "logic.covers.frac": total["logic.covers"] / op_s,
            "logic.index.builds": calls["logic.index"],
            "logic.index.build_s": total["logic.index"],
            "learner.learn_class.calls": calls["learner.learn_class"],
            "learner.learn_class.s": total["learner.learn_class"],
            "learner.self_s": learn_self,
            "learner.nodes": sum(pass_nodes.values()),
            "learner.mono.ECG.s": pass_s["mono.ECG"],
            "learner.mono.ECG.nodes": pass_nodes["mono.ECG"],
            "learner.mono.ABP.s": pass_s["mono.ABP"],
            "learner.mono.ABP.nodes": pass_nodes["mono.ABP"],
            "learner.agg.s": pass_s["agg"],
            "learner.agg.nodes": pass_nodes["agg"],
            "dlab.refine.calls": calls["dlab.refine"],
            "dlab.refine.s": total["dlab.refine"],
            "dlab.refine.children": c["dlab.refine.children"],
            "dlab.clause_of.calls": calls["dlab.clause_of"],
            "dlab.clause_of.s": total["dlab.clause_of"],
            "dlab.frac": (total["dlab.refine"] + total["dlab.clause_of"]) / op_s,
            "multisource.aggregate.s": total["multisource.aggregate"],
            "multisource.aggregate.dropped": c["multisource.aggregate.dropped"],
            "multisource.merges.generated": c["multisource.merges.generated"],
            "multisource.merges.kept": c["multisource.merges.kept"],
            "multisource.bottoms.distinct": c["multisource.bottoms.distinct"],
            "multisource.bottoms.s": total["multisource.bottoms"],
            "multisource.synthesize.s": total["multisource.synthesize"],
            "data.write.s": total["data.write"],
            "data.parse.s": parse_s,
            "data.parse.mb_s": (c["data.parse.chars"] / 1e6 / parse_s
                                if parse_s else 0.0),
            "data.saturate.calls": calls["data.saturate"],
            "data.saturate.s": total["data.saturate"],
            "data.facts": c["data.facts"],
            "evaluate.folds": len(folds),
            "evaluate.fold.s_max": max(folds, default=0.0),
            "evaluate.fold.s_sum": sum(folds),
            "evaluate.full.s": sum(full),
            "evaluate.score.s": total["evaluate.score"],
        }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced operations."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def span_rows(tracer: Tracer) -> list[list]:
    """Spans as [name, start, end, parent], times relative to the first."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    return [[n, round(s - t0, 7), round(e - t0, 7), p]
            for n, s, e, p in tracer.spans]
