"""Top-down rule induction per class: beam search under a DLAB bias with the
accuracy heuristic, a fixed stop rule (fp = 0 and tp >= 1), and a covering
loop; LearnerParams sets only the beam width and the clause budget.  The
beam search is the package's one clause scorer; train_accuracy scores a
learned class theory.  tests/oracles.py::reference_learn_class is the plain
search, with none of the shortcuts below, that this one is checked against.

The search identifies a clause by the body text dlab.refine hands it with
each child's selection and body: the sorted literal texts joined by ", "
(every clause of one search has the head class(label)).  A search node
is that child, the Refinement itself, with the selections pooled onto it
and what it covers; the root is the start selection with no body.  Only
an accepted node is made a Clause.  refine keeps each
selection's children on the bias template, so the classes, covering rounds
and pipeline runs that share a template expand a selection once; the
biased pipeline compiles each distinct class bias once per dataset and its
restrictions (Dataset.templates), so cross-validation folds that
synthesize the same bias share one template.  A child is tested only
on the examples its base covers: its parent when it is marked additive
(it holds every literal of its parent), the round's root otherwise.
Every selection a candidate pools induces the candidate's literal
multiset, so the mark holds for the candidate whichever of its
selections was refined.  The same text
keys each example's coverage memo (Interpretation.coverage_memo), so a body
is tested against an example once however many classes, covering rounds
and cross-validation folds reach it.  This is sound because whether a body
covers an interpretation depends only on the body, order aside, and on the
example's facts, which never change; not on the class label, the head or
the fold.  The memo lives and dies with its example.  The folds of a
cross-validation share it because Dataset.restrict keeps the same source
Interpretations and multisource.aggregate merges a situation once for a
dataset and all its restrictions.

A memo entry holds the body's witness when it covers the example (the
values of the grounding found, in the order of the body's variables
sorted by name), and None when it does not.  Every test is one step:
the matcher extends the base's witness (the root's is empty) over the
literals the child adds to the base, a non-additive child its whole
body; one with no row on the example means no cover.  Only when that
extension fails and the witness binds a variable does a full search of
the body decide, since another grounding of the base may extend where
the kept one does not.  Each literal is planned once per example on its
FactIndex, and SearchStats counts how each test was answered.

A child that covers no positive is never acceptable and never enters the
beam, so its negatives are not tested: it keeps its place among the
round's candidates, so later selections of its body still pool onto it,
with no negative covered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .data import Interpretation
from .dlab import (DlabTemplate, Refinement, Selection, clause_of, refine,
                   start_selection)
from .errors import UsageError
from .logic import Clause, covers, grounding


def accuracy(tp: int, tn: int, fp: int, fn: int) -> float:
    """(TP + TN) / (TP + TN + FN + FP)."""
    total = tp + tn + fp + fn
    if total <= 0:
        raise UsageError("accuracy undefined on an empty example set")
    return (tp + tn) / total


@dataclass(frozen=True)
class LearnerParams:
    beam_width: int = 10
    max_clauses_per_class: int = 8

    def __post_init__(self):
        if self.beam_width < 1:
            raise UsageError("beam_width must be >= 1")
        if self.max_clauses_per_class < 1:
            raise UsageError("max_clauses_per_class must be >= 1")


@dataclass
class SearchStats:
    """nodes counts every selection produced by refine, kept or pruned.
    lookups counts the search's coverage tests, one per (body, example)
    pair, and each is answered one way: memo_hits by the example's
    coverage memo; extended by extending the base's witness, its memo
    entry (the root's is empty), over the literals the child adds to it;
    rejected because one of those has no row on the example; searched by
    a full search of the body after an extension failed."""

    nodes: int = 0
    time_ms: float = 0.0
    lookups: int = 0
    memo_hits: int = 0
    extended: int = 0
    rejected: int = 0
    searched: int = 0


@dataclass
class ClassResult:
    label: str
    clauses: tuple[Clause, ...]
    stats: SearchStats
    complete: bool


@dataclass
class Theory:
    """Learned clause set per class, plus per-class search statistics."""

    per_class: dict[str, ClassResult] = field(default_factory=dict)

    def clauses_for(self, label: str) -> tuple[Clause, ...]:
        result = self.per_class.get(label)
        return result.clauses if result else ()

    def total_nodes(self) -> int:
        return sum(r.stats.nodes for r in self.per_class.values())


@dataclass
class _Candidate:
    """One node of the search: the Refinement refine handed it, and every
    selection of its body met this round, pooled so every continuation
    stays reachable.  One search shares one head, so ordering by ref.text
    orders as canonical_text would."""

    ref: Refinement
    sels: tuple[Selection, ...]
    pos_cover: tuple[int, ...]
    neg_cover: tuple[int, ...]
    acc: float


def _coverage(child: Refinement, base: Refinement,
              pool: Sequence[Interpretation], among: Sequence[int],
              stats: SearchStats) -> tuple[int, ...]:
    """The indices in among whose example child's clause covers.  Each
    example's coverage memo answers a body it has seen before, under any
    class or fold; _ground answers a miss, and the memo keeps its witness
    (None for no cover)."""
    text = child.text
    covered = []
    for i in among:
        e = pool[i]
        memo = e.coverage_memo
        if text in memo:
            stats.memo_hits += 1
            witness = memo[text]
        else:
            found = _ground(child, base, e, stats)
            witness = memo[text] = (
                None if found is None
                else tuple(map(found.__getitem__, child.variables)))
        if witness is not None:
            covered.append(i)
    stats.lookups += len(among)
    return tuple(covered)


def _ground(child: Refinement, base: Refinement, e: Interpretation,
            stats: SearchStats) -> dict[str, str] | None:
    """A grounding of child's body on e, or None if there is none.

    e's memo holds the base's witness (the root's is empty), and the
    child extends it over the literals it adds to the base.  That
    extension may fail where another grounding of the base extends, so
    only a full search then decides; but when the base binds no variable
    its witness is the only one, and the extension was the full search.
    A child whose added literal has no row on e covers nothing there."""
    index = e.index
    plan = index.plan(child.added)
    if plan is None:
        stats.rejected += 1
        return None
    w = e.coverage_memo[base.text] if base.text else ()
    found = grounding(plan, index, zip(base.variables, w))
    if found is not None or not w:
        stats.extended += 1
        return found
    stats.searched += 1
    return grounding(index.plan(child.body), index)


def _beam_search(bias: DlabTemplate, pos: Sequence[Interpretation],
                 remaining: list[int],
                 neg: Sequence[Interpretation],
                 params: LearnerParams,
                 stats: SearchStats) -> _Candidate | None:
    """One covering round: search for a clause with fp = 0 and tp >= 1
    among the remaining positives."""
    n_pos, n_neg = len(remaining), len(neg)
    # the root covers every example left to test, with an empty witness
    start = start_selection(bias)
    root = _Candidate(Refinement(start, (), "", (), (), True), (start,),
                      tuple(remaining), tuple(range(n_neg)), 0.0)
    beam = [root]
    expanded: set[Selection] = set()

    while beam:
        grouped: dict[str, _Candidate] = {}
        for parent in beam:
            for sel in parent.sels:
                if sel in expanded:
                    continue
                expanded.add(sel)
                children = refine(bias, sel)
                stats.nodes += len(children)
                for child in children:
                    text = child.text
                    known = grouped.get(text)
                    if known is not None:
                        if child.sel not in known.sels:
                            known.sels = (*known.sels, child.sel)
                        continue
                    base = parent if child.additive else root
                    pos_cover = _coverage(child, base.ref, pos,
                                          base.pos_cover, stats)
                    # covering no positive, it never enters the beam
                    neg_cover = (_coverage(child, base.ref, neg,
                                           base.neg_cover, stats)
                                 if pos_cover else ())
                    tp, fp = len(pos_cover), len(neg_cover)
                    acc = accuracy(tp, n_neg - fp, fp, n_pos - tp)
                    grouped[text] = _Candidate(child, (child.sel,),
                                               pos_cover, neg_cover, acc)

        if not grouped:
            return None
        ordered = list(grouped.values())
        acceptable = [c for c in ordered if not c.neg_cover and c.pos_cover]
        if acceptable:
            # the stop rule fires on the earliest round reaching fp = 0;
            # among that round's candidates prefer coverage, then brevity
            acceptable.sort(key=lambda c: (-c.acc, len(c.ref.body),
                                           c.ref.text))
            return acceptable[0]
        # a candidate covering no positive can never become acceptable:
        # refinement specializes, so tp only shrinks (its nodes still count)
        ordered = [c for c in ordered if c.pos_cover]
        ordered.sort(key=lambda c: (-c.acc, c.ref.text))
        beam = ordered[:params.beam_width]
    return None


def learn_class(label: str, examples: Sequence[Interpretation],
                bias: DlabTemplate,
                params: LearnerParams = LearnerParams()) -> ClassResult:
    """Covering loop: accept zero-false-positive clauses until every positive
    is covered, the clause budget is spent, or the space is exhausted."""
    t0 = time.perf_counter()
    pos = [e for e in examples if e.label == label]
    neg = [e for e in examples if e.label != label]
    if not pos:
        raise UsageError(f"no positive examples for class {label}")

    stats = SearchStats()
    accepted: list[Clause] = []
    remaining = list(range(len(pos)))
    complete = False

    while remaining and len(accepted) < params.max_clauses_per_class:
        best = _beam_search(bias, pos, remaining, neg, params, stats)
        if best is None:
            break
        accepted.append(clause_of(bias, best.ref.sel, label))
        covered = set(best.pos_cover)
        remaining = [i for i in remaining if i not in covered]
    complete = not remaining

    stats.time_ms = (time.perf_counter() - t0) * 1000.0
    return ClassResult(label=label, clauses=tuple(accepted), stats=stats,
                       complete=complete)


def learn_theory(examples: Sequence[Interpretation], bias: DlabTemplate,
                 params: LearnerParams = LearnerParams(),
                 classes: Sequence[str] | None = None) -> Theory:
    """learn_class per class label, every class under bias."""
    if classes is None:
        classes = sorted({e.label for e in examples})
    if len(classes) < 2:
        raise UsageError("need at least two classes (no negatives otherwise)")
    theory = Theory()
    for label in classes:
        theory.per_class[label] = learn_class(label, examples, bias, params)
    return theory


def train_accuracy(clauses: Iterable[Clause], label: str,
                   examples: Sequence[Interpretation]) -> float:
    """Accuracy of one class theory over labelled examples (a covered
    example counts as a positive prediction)."""
    clauses = tuple(clauses)
    tp = tn = fp = fn = 0
    for e in examples:
        covered = any(covers(c, e.index) for c in clauses)
        if e.label == label:
            tp += covered
            fn += not covered
        else:
            fp += covered
            tn += not covered
    return accuracy(tp, tn, fp, fn)
