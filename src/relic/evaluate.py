"""Cross-validation with fold alignment across sources, plus report emission.

TrAcc and Acc come from the cross-validation (mean training accuracy over
folds; pooled test accuracy over every held-out example).  Nodes, TimeMs and
Comp come from one training run over the full dataset, mirroring how the
efficiency and accuracy tables pair up.  For the biased mode, Nodes/TimeMs
cover the second (aggregated) learning step; monosource costs are reported
in the metadata.
"""

from __future__ import annotations

import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .data import Dataset, Interpretation
from .dlab import DlabTemplate
from .errors import UsageError
from .learner import LearnerParams, Theory, learn_theory, train_accuracy
from .logic import Clause, PredicateSchema, theory_covers
from .multisource import (InterleavingConstraint, aggregate,
                          biased_multisource_learn, naive_bias)

MODES = ("mono", "naive", "biased")


@dataclass(frozen=True)
class FoldPlan:
    """Ordered test sets partitioning the situation ids."""

    fold_count: int
    test_sets: tuple[tuple[int, ...], ...]


def make_folds(situations: Sequence[int], p: int) -> FoldPlan:
    """Split situations into p ordered test sets; remainder situations go
    to the earliest folds."""
    n = len(situations)
    if not 2 <= p <= n:
        raise UsageError(f"fold count {p} outside 2..{n}")
    ordered = sorted(situations)
    base, rem = divmod(n, p)
    sets: list[tuple[int, ...]] = []
    at = 0
    for j in range(p):
        size = base + (1 if j < rem else 0)
        sets.append(tuple(ordered[at:at + size]))
        at += size
    return FoldPlan(p, tuple(sets))


def comp_metric(clauses: Sequence[Clause], schema: PredicateSchema) -> str:
    """Per-clause complexity: the count of event literals, slash-separated."""
    if not clauses:
        return "0"
    return "/".join(str(sum(1 for b in c.body if schema.is_event(b.pred)))
                    for c in clauses)


@dataclass
class ClassReport:
    label: str
    tracc: float
    acc: float
    comp: str
    nodes: int
    time_ms: float


@dataclass
class EvaluationReport:
    mode: str
    rows: list[ClassReport]
    meta: dict[str, str] = field(default_factory=dict)
    fold_audit: list[dict[str, frozenset[int]]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _test_score(theory: Theory, label: str, example: Interpretation) -> int:
    covered = theory_covers(theory.clauses_for(label), example.index)
    if example.label == label:
        return 1 if covered else 0
    return 0 if covered else 1


def _threads() -> int:
    raw = os.environ.get("RELIC_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise UsageError(f"RELIC_THREADS must be an integer, got {raw!r}")


def _fold_map(work, folds):
    threads = _threads()
    if threads == 1:
        return [work(j) for j in range(folds)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, range(folds)))


def cross_validate(dataset: Dataset, mode: str, folds: int,
                   biases: Mapping[str, DlabTemplate] | None = None,
                   constraints: Iterable[InterleavingConstraint] = (),
                   params: LearnerParams = LearnerParams(),
                   source: str | None = None,
                   naive_max_events: int = 4,
                   suc_window: int = 8) -> EvaluationReport:
    """p-fold cross-validation (folds == number of situations is
    leave-one-out), with the identical fold plan applied to every source."""
    if mode not in MODES:
        raise UsageError(f"unknown evaluation mode {mode!r}")
    classes = list(dataset.classes)
    plan = make_folds(dataset.situations(), folds)
    constraints = list(constraints)
    report = EvaluationReport(mode=mode, rows=[])
    report.meta["folds"] = str(folds)

    if mode == "mono":
        if source is None:
            raise UsageError("mono mode needs a source")
        if biases is None or source not in biases:
            raise UsageError(f"no bias for source {source}")
        pool = dataset.by_source(source)
        bias = biases[source]

        def run_fold(j: int):
            test_ids = set(plan.test_sets[j])
            train = [e for e in pool if e.situation not in test_ids]
            test = [e for e in pool if e.situation in test_ids]
            theory, warns = _guarded_theory(train, bias, params, classes, j)
            return _fold_outcome(theory, classes, train, test), warns

        per_fold = _fold_results(report, _fold_map(run_fold, plan.fold_count))
        for j in range(plan.fold_count):
            report.fold_audit.append({source: frozenset(plan.test_sets[j])})
        full = learn_theory(pool, bias, params, classes=classes)
        _fill_rows(report, classes, per_fold, full, dataset.schema)
        return report

    agg_all = aggregate(dataset, suc_window=suc_window).examples
    by_situation = {e.situation: e for e in agg_all}

    if mode == "naive":
        bias = naive_bias(dataset.schema, naive_max_events)
        report.meta["naive_max_events"] = str(naive_max_events)

        def run_fold(j: int):
            test_ids = set(plan.test_sets[j])
            train = [e for e in agg_all if e.situation not in test_ids]
            test = [e for e in agg_all if e.situation in test_ids]
            theory, warns = _guarded_theory(train, bias, params, classes, j)
            return _fold_outcome(theory, classes, train, test), warns

        per_fold = _fold_results(report, _fold_map(run_fold, plan.fold_count))
        for j in range(plan.fold_count):
            report.fold_audit.append({"AGG": frozenset(plan.test_sets[j])})
        full = learn_theory(agg_all, bias, params, classes=classes)
        _fill_rows(report, classes, per_fold, full, dataset.schema)
        return report

    if biases is None:
        raise UsageError("biased mode needs per-source biases")

    def run_fold(j: int):
        test_ids = set(plan.test_sets[j])
        train_ds = dataset.restrict([s for s in dataset.situations()
                                     if s not in test_ids])
        result = biased_multisource_learn(train_ds, biases, constraints,
                                          params, suc_window=suc_window)
        test = [by_situation[s] for s in plan.test_sets[j]
                if s in by_situation]
        audit = {src: frozenset(s for s in test_ids
                                if dataset.get(src, s) is not None)
                 for src in dataset.sources()}
        audit["AGG"] = frozenset(e.situation for e in test)
        return _fold_outcome(result.theory, classes, result.aggregated,
                             test), audit, result.warnings

    outcomes = _fold_map(run_fold, plan.fold_count)
    per_fold = [o[0] for o in outcomes]
    for _, audit, warns in outcomes:
        report.fold_audit.append(audit)
        report.warnings.extend(warns)
    full = biased_multisource_learn(dataset, biases, constraints, params,
                                    suc_window=suc_window)
    report.warnings.extend(full.warnings)
    for src, theory in full.mono.items():
        report.meta[f"mono_time_ms_{src}"] = str(round(sum(
            r.stats.time_ms for r in theory.per_class.values()), 1))
        report.meta[f"mono_nodes_{src}"] = str(theory.total_nodes())
    _fill_rows(report, classes, per_fold, full.theory, dataset.schema)
    return report


def _guarded_theory(train: list[Interpretation], bias, params, classes,
                    fold: int) -> tuple[Theory, list[str]]:
    """Learn per class, skipping (with a warning) classes with no training
    positives."""
    present = {e.label for e in train}
    usable = [c for c in classes if c in present]
    warnings = [f"fold {fold}: class {c} has no training positives; skipped"
                for c in classes if c not in present]
    return learn_theory(train, bias, params, classes=usable), warnings


def _fold_results(report: EvaluationReport, outcomes) -> list:
    """Fold outcomes, with each fold's warnings added in fold order, so
    the report does not depend on which pool thread finished first."""
    for _, warns in outcomes:
        report.warnings.extend(warns)
    return [outcome for outcome, _ in outcomes]


def _fold_outcome(theory: Theory, classes, train, test):
    traccs = {}
    scores = {}
    for label in classes:
        clauses = theory.clauses_for(label)
        traccs[label] = train_accuracy(clauses, label, train) if train else 0.0
        scores[label] = [_test_score(theory, label, e) for e in test]
    return traccs, scores


def _fill_rows(report: EvaluationReport, classes, per_fold, full_theory,
               schema: PredicateSchema):
    for label in classes:
        traccs = [f[0][label] for f in per_fold]
        pooled = [s for f in per_fold for s in f[1][label]]
        result = full_theory.per_class.get(label)
        report.rows.append(ClassReport(
            label=label,
            tracc=sum(traccs) / len(traccs) if traccs else 0.0,
            acc=sum(pooled) / len(pooled) if pooled else 0.0,
            comp=comp_metric(result.clauses if result else (), schema),
            nodes=result.stats.nodes if result else 0,
            time_ms=result.stats.time_ms if result else 0.0))


# --------------------------------------------------------------------------
# report emission
# --------------------------------------------------------------------------

_COLUMNS = ("class", "nodes", "time_ms", "tracc", "acc", "comp")


def emit_report(report: EvaluationReport, fmt: str = "markdown") -> str:
    """One row per class: Nodes, TimeMs, TrAcc, Acc, Comp."""
    if fmt not in ("csv", "markdown"):
        raise UsageError(f"unknown report format {fmt!r}")
    rows = [(r.label, str(r.nodes), f"{r.time_ms:.0f}", f"{r.tracc:.3f}",
             f"{r.acc:.3f}", r.comp) for r in report.rows]
    out = io.StringIO()
    if fmt == "csv":
        out.write(",".join(_COLUMNS) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
        return out.getvalue()
    widths = [max(len(c), *(len(r[i]) for r in rows)) if rows else len(c)
              for i, c in enumerate(_COLUMNS)]
    header = "| " + " | ".join(c.ljust(w) for c, w in zip(_COLUMNS, widths)) + " |"
    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    out.write(header + "\n" + rule + "\n")
    for row in rows:
        out.write("| " + " | ".join(v.ljust(w) for v, w in zip(row, widths))
                  + " |\n")
    return out.getvalue()
