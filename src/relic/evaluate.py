"""Cross-validation with fold alignment across sources, plus report emission.

TrAcc and Acc come from the cross-validation (mean training accuracy over
the folds that have a training example; pooled test accuracy over every
held-out example).  Nodes, TimeMs and Comp come from one training run over
the full dataset, mirroring how the efficiency and accuracy tables pair
up.  For the biased mode, Nodes/TimeMs cover the second (aggregated)
learning step; monosource costs are reported in the metadata.
"""

from __future__ import annotations

import io
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
FORMATS = ("csv", "markdown")  # what emit_report writes


def make_folds(situations: Sequence[int],
               p: int) -> tuple[tuple[int, ...], ...]:
    """Split situations into p ordered test sets, which partition them;
    remainder situations go to the earliest folds."""
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
    return tuple(sets)


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


def cross_validate(dataset: Dataset, mode: str, folds: int,
                   biases: Mapping[str, DlabTemplate] | None = None,
                   constraints: Iterable[InterleavingConstraint] = (),
                   params: LearnerParams = LearnerParams(),
                   source: str | None = None,
                   naive_max_events: int = 4) -> EvaluationReport:
    """p-fold cross-validation (folds == number of situations is
    leave-one-out), with the identical fold plan applied to every source.

    Each mode supplies one learn function, called by every fold in plan
    order and then by one run on the full dataset, and says which examples
    are held out and which source views its audit lists.  Biased mode runs
    biased_multisource_learn on the fold's training situations (on dataset
    itself for the full run); mono and naive modes run learn_theory on the
    held-out examples outside the test set, skipping with a warning each
    class with no positive there.  A fold whose training examples hold
    fewer than two classes learns nothing (an empty theory) and warns; the
    full run still raises on such data.  TrAcc averages over the folds
    with a training example: a fold whose test set holds every held-out
    example has none to score.  A fold's warnings carry its
    number, the full run's do not.  A fold is scored as it runs, on the
    held-out examples outside its test set (in biased mode, the very
    examples its pipeline learned from) and on its test examples; the rows
    pair those scores with the full run's theory.  A fold's audit lists
    the situations of its test examples under their source (AGG when
    aggregated); biased mode first lists, per source, the fold's test
    situations with a view there.
    """
    if mode not in MODES:
        raise UsageError(f"unknown evaluation mode {mode!r}")
    classes = list(dataset.classes)
    test_sets = make_folds(dataset.situations(), folds)
    report = EvaluationReport(mode=mode, rows=[])
    report.meta["folds"] = str(folds)
    views: list[str] = []
    audit_key = "AGG"

    if mode == "biased":
        if biases is None:
            raise UsageError("biased mode needs per-source biases")
        constraints = list(constraints)
        held_out = aggregate(dataset).examples
        views = dataset.sources()

        def learn(test_ids: frozenset[int], train: list[Interpretation]):
            pipeline_data = (dataset.restrict(set(dataset.situations())
                                              - test_ids)
                             if test_ids else dataset)
            result = biased_multisource_learn(pipeline_data, biases,
                                              constraints, params)
            return result.theory, result.warnings, result.mono
    else:
        if mode == "mono":
            if source is None:
                raise UsageError("mono mode needs a source")
            if biases is None or source not in biases:
                raise UsageError(f"no bias for source {source}")
            held_out = dataset.by_source(source)
            bias = biases[source]
            audit_key = source
        else:
            held_out = aggregate(dataset).examples
            bias = naive_bias(dataset.schema, naive_max_events)
            report.meta["naive_max_events"] = str(naive_max_events)

        def learn(test_ids: frozenset[int], train: list[Interpretation]):
            present = {e.label for e in train}
            theory = learn_theory(train, bias, params,
                                  classes=[c for c in classes if c in present])
            return theory, [f"class {c} has no training positives; skipped"
                            for c in classes if c not in present], {}

    tracc = dict.fromkeys(classes, 0.0)
    trained = 0  # folds with a training example to score
    correct = dict.fromkeys(classes, 0)  # test examples predicted right
    for fold, test_set in enumerate(test_sets):
        test_ids = frozenset(test_set)
        train = [e for e in held_out if e.situation not in test_ids]
        test = [e for e in held_out if e.situation in test_ids]
        if len({e.label for e in train}) < 2:
            theory, warns = Theory(), ["fewer than two classes to train on; "
                                       "skipped"]
        else:
            theory, warns, _ = learn(test_ids, train)
        trained += bool(train)
        for label in classes:
            clauses = theory.clauses_for(label)
            if train:
                tracc[label] += train_accuracy(clauses, label, train)
            correct[label] += sum(theory_covers(clauses, e.index)
                                  == (e.label == label) for e in test)
        audit = {src: frozenset(s for s in test_ids
                                if dataset.get(src, s) is not None)
                 for src in views}
        audit[audit_key] = frozenset(e.situation for e in test)
        report.fold_audit.append(audit)
        report.warnings.extend(f"fold {fold}: {w}" for w in warns)

    theory, warns, mono = learn(frozenset(), held_out)
    report.warnings.extend(warns)
    for src, mono_theory in mono.items():
        report.meta[f"mono_time_ms_{src}"] = str(round(sum(
            r.stats.time_ms for r in mono_theory.per_class.values()), 1))
        report.meta[f"mono_nodes_{src}"] = str(mono_theory.total_nodes())
    for label in classes:
        result = theory.per_class.get(label)
        report.rows.append(ClassReport(
            label=label, tracc=tracc[label] / trained,
            acc=correct[label] / len(held_out),
            comp=comp_metric(result.clauses if result else (),
                             dataset.schema),
            nodes=result.stats.nodes if result else 0,
            time_ms=result.stats.time_ms if result else 0.0))
    return report


# --------------------------------------------------------------------------
# report emission
# --------------------------------------------------------------------------

_COLUMNS = ("class", "nodes", "time_ms", "tracc", "acc", "comp")


def emit_report(report: EvaluationReport, fmt: str = "markdown") -> str:
    """One row per class: Nodes, TimeMs, TrAcc, Acc, Comp."""
    if fmt not in FORMATS:
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
