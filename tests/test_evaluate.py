from dataclasses import replace

import pytest
from conftest import DEFAULT_CONSTRAINTS, random_two_source
from hypothesis import given, settings
from hypothesis import strategies as st

from relic import (GeneratorConfig, InterleavingConstraint, UsageError,
                   generate_dataset, learn_theory, monosource_biases,
                   train_accuracy)
from relic import evaluate
from relic.data import Dataset, Interpretation
from relic.dlab import template_text
from relic.evaluate import (MODES, comp_metric, cross_validate,
                            emit_report, make_folds)
from relic.logic import clause, lit
from relic.multisource import biased_multisource_learn
from relic.synth import cardiac_schema

SCHEMA = cardiac_schema("full")


class TestFolds:
    def test_loo(self):
        assert make_folds([3, 1, 2], 3) == ((1,), (2,), (3,))

    def test_remainder_to_earliest(self):
        test_sets = make_folds(list(range(7)), 3)
        assert [len(s) for s in test_sets] == [3, 2, 2]
        assert test_sets[0] == (0, 1, 2)

    def test_partition(self):
        flat = [s for fold in make_folds(list(range(10)), 4) for s in fold]
        assert sorted(flat) == list(range(10))

    def test_single_fold_rejected(self):
        with pytest.raises(UsageError):
            make_folds([1, 2, 3], 1)

    def test_too_many_folds_rejected(self):
        with pytest.raises(UsageError):
            make_folds([1, 2, 3], 4)


class TestComp:
    def test_two_clauses(self):
        c1 = clause("x", (lit("qrs", "A", "normal"), lit("p", "B", "normal"),
                          lit("rr1", "A", "C", "short"),
                          lit("qrs", "C", "normal"), lit("qrs", "D", "normal")))
        c2 = clause("x", (lit("qrs", "A", "normal"),
                          lit("sys", "S", "low"),
                          lit("suc", "S", "A")))
        assert comp_metric((c1, c2), SCHEMA) == "4/2"

    def test_single(self):
        c = clause("x", (lit("qrs", "A", "normal"), lit("p", "B", "normal"),
                         lit("dias", "D", "low")))
        assert comp_metric((c,), SCHEMA) == "3"

    def test_empty(self):
        assert comp_metric((), SCHEMA) == "0"


def _example(label, situation, source, shapes):
    facts = [lit("qrs", f"{source.lower()}{situation}_{i}", shape)
             for i, shape in enumerate(shapes)]
    return Interpretation(situation=situation, source=source, label=label,
                          facts=frozenset(facts))


@pytest.fixture(scope="module")
def hand_dataset():
    """Four situations, two classes, separable by qrs shape on both sources."""
    interps = []
    for k, label in enumerate(["up", "down", "up", "down"]):
        shapes = ("abnormal",) if label == "up" else ("normal",)
        interps.append(_example(label, k, "A", shapes))
        interps.append(_example(label, k, "B", shapes))
    schema = cardiac_schema("full")
    return Dataset(tuple(interps), schema, ("down", "up"))


@pytest.fixture(scope="module")
def hand_bias():
    from relic.dlab import choice, compile_template, inline, literal

    return compile_template(choice(
        "len", "len", literal("qrs", "R0", inline(1, 1, "normal", "abnormal"))))


class TestCrossValidate:
    def test_hand_loo_mono(self, hand_dataset, hand_bias):
        # hand computation: each fold's training set still separates the two
        # classes by qrs shape, the held-out example is always classified
        # correctly -> TrAcc = Acc = 1.0 for both classes
        report = cross_validate(hand_dataset, "mono", 4,
                                biases={"A": hand_bias}, source="A")
        for row in report.rows:
            assert row.tracc == 1.0
            assert row.acc == 1.0

    def test_biased_fold_alignment(self, hand_dataset, hand_bias):
        report = cross_validate(hand_dataset, "biased", 2,
                                biases={"A": hand_bias, "B": hand_bias})
        assert report.fold_audit
        for audit in report.fold_audit:
            sets = {frozenset(v) for v in audit.values()}
            assert len(sets) == 1  # identical removals on A, B and AGG

    def test_mono_requires_source(self, hand_dataset, hand_bias):
        with pytest.raises(UsageError):
            cross_validate(hand_dataset, "mono", 2, biases={"A": hand_bias})

    def test_unknown_mode(self, hand_dataset, hand_bias):
        with pytest.raises(UsageError):
            cross_validate(hand_dataset, "sideways", 2)

    def test_fold_warnings_in_fold_order(self, hand_bias):
        # one situation per class: every leave-one-out fold trains without
        # the held-out class and warns about it
        labels = ("up", "down", "left", "right")
        dataset = Dataset(tuple(_example(label, k, "A", ("normal",))
                                for k, label in enumerate(labels)),
                          SCHEMA, tuple(sorted(labels)))
        expected = [f"fold {k}: class {label} has no training positives; "
                    "skipped" for k, label in enumerate(labels)]
        report = cross_validate(dataset, "mono", 4,
                                biases={"A": hand_bias}, source="A")
        assert report.warnings == expected


@pytest.fixture(scope="module")
def small():
    return generate_dataset(GeneratorConfig(seed=2, per_class=2))


class TestFoldAudit:
    """A fold's audit lists only the situations its held-out examples
    came from, whichever mode held them out."""

    def test_naive_agrees_with_biased_on_a_dropped_situation(self, small):
        # relabel situation 0's ABP view: aggregation drops 0 as
        # inconsistent, so no mode holds it out on AGG
        views = tuple(replace(i, label="vt" if i.label != "vt" else "sr")
                      if (i.source, i.situation) == ("ABP", 0) else i
                      for i in small.interpretations)
        ds = Dataset(views, small.schema, small.classes)
        naive = cross_validate(ds, "naive", 2, naive_max_events=2)
        biased = cross_validate(ds, "biased", 2,
                                biases=monosource_biases("full"))
        assert 0 not in naive.fold_audit[0]["AGG"]
        assert [a["AGG"] for a in naive.fold_audit] == \
            [a["AGG"] for a in biased.fold_audit]
        assert 0 in biased.fold_audit[0]["ECG"]

    def test_mono_omits_a_missing_view(self, small):
        ds = Dataset(tuple(i for i in small.interpretations
                           if (i.source, i.situation) != ("ECG", 0)),
                     small.schema, small.classes)
        report = cross_validate(ds, "mono", 2, source="ECG",
                                biases=monosource_biases("full"))
        ecg = {i.situation for i in ds.by_source("ECG")}
        assert [set(a) for a in report.fold_audit] == [{"ECG"}] * 2
        assert report.fold_audit[0]["ECG"] == \
            frozenset(make_folds(ds.situations(), 2)[0]) & ecg
        assert 0 not in report.fold_audit[0]["ECG"]


@pytest.fixture(scope="module")
def abp_gap(small):
    """small without any ABP view of class af: af has no view on ABP and
    no aggregated example."""
    return Dataset(tuple(i for i in small.interpretations
                         if (i.source, i.label) != ("ABP", "af")),
                   small.schema, small.classes)


class TestSourceGap:
    """A class with no view on one source leaves the folds and the full run
    of every mode without its positives there: each skips it with a
    warning, and its row reports no full-run theory."""

    @pytest.mark.parametrize("mode, kwargs, warning", [
        ("naive", dict(naive_max_events=2),
         "class af has no training positives; skipped"),
        ("biased", dict(biases=monosource_biases("full")),
         "class af: no aggregated example; skipped"),
        ("mono", dict(source="ABP", biases=monosource_biases("full")),
         "class af has no training positives; skipped"),
    ], ids=["naive", "biased", "mono"])
    def test_crossval_completes_without_the_class(self, abp_gap, mode,
                                                  kwargs, warning):
        report = cross_validate(abp_gap, mode, 2, **kwargs)
        row = {r.label: r for r in report.rows}["af"]
        assert (row.nodes, row.comp) == (0, "0")
        assert report.warnings[-1] == warning
        assert f"fold 0: {warning}" in report.warnings

    def test_pipeline_skips_the_class(self, abp_gap):
        result = biased_multisource_learn(abp_gap, monosource_biases("full"))
        assert "class af: no aggregated example; skipped" in result.warnings
        assert "af" not in result.theory.per_class
        assert "af" not in result.class_biases


@pytest.fixture(scope="module")
def abp_first_four(seed1):
    """Every ECG view of seed1 but only the ABP views of situations 0-3:
    with three folds, fold 0's test set holds every ABP view and every
    aggregated example, so that fold has none to train on."""
    return Dataset(tuple(i for i in seed1.interpretations
                         if i.source == "ECG" or i.situation < 4),
                   seed1.schema, seed1.classes)


class TestEmptyTrainingFold:
    """A fold with no training example is skipped with a warning, and
    TrAcc averages over the folds that have one."""

    @pytest.mark.parametrize("mode, kwargs", [
        ("mono", dict(source="ABP", biases=monosource_biases("full"))),
        ("naive", dict(naive_max_events=2)),
        ("biased", dict(biases=monosource_biases("full"))),
    ], ids=["mono", "naive", "biased"])
    def test_fold_is_skipped_with_a_warning(self, abp_first_four, mode,
                                            kwargs):
        report = cross_validate(abp_first_four, mode, 3, **kwargs)
        assert report.warnings[0] == \
            "fold 0: fewer than two classes to train on; skipped"
        assert not any(w.startswith("fold 0: ") for w in report.warnings[1:])
        held_out = "ABP" if mode == "mono" else "AGG"
        assert report.fold_audit[0][held_out] == frozenset(range(4))

    def test_tracc_averages_over_the_folds_that_trained(self,
                                                        abp_first_four):
        """Folds 1 and 2 both train on all four ABP views, so each class's
        TrAcc is that one training accuracy, not two thirds of it."""
        views = abp_first_four.by_source("ABP")
        biases = monosource_biases("full")
        report = cross_validate(abp_first_four, "mono", 3, source="ABP",
                                biases=biases)
        present = {e.label for e in views}
        theory = learn_theory(views, biases["ABP"], classes=[
            c for c in abp_first_four.classes if c in present])
        assert {r.label: r.tracc for r in report.rows} == {
            c: train_accuracy(theory.clauses_for(c), c, views)
            for c in abp_first_four.classes}


@pytest.fixture(scope="module")
def seed1():
    return generate_dataset(GeneratorConfig(seed=1, per_class=2))


class TestOneClassFold:
    """One sr situation (0) and two vt ones (8, 9) under leave-one-out:
    the fold holding situation 0 out trains on vt alone.  It learns
    nothing and warns, and the run goes on; a full run on one class still
    fails."""

    @pytest.mark.parametrize("mode, kwargs", [
        ("naive", dict(naive_max_events=2)),
        ("biased", dict(biases=monosource_biases("full"))),
        ("mono", dict(source="ECG", biases=monosource_biases("full"))),
    ], ids=["naive", "biased", "mono"])
    def test_fold_is_skipped(self, seed1, mode, kwargs):
        ds = seed1.restrict([0, 8, 9])
        assert [ds.get("ECG", k).label for k in (0, 8, 9)] == \
            ["sr", "vt", "vt"]
        report = cross_validate(ds, mode, 3, **kwargs)
        skipped = "fewer than two classes to train on; skipped"
        assert [w for w in report.warnings if skipped in w] == \
            [f"fold 0: {skipped}"]
        rows = {r.label: r for r in report.rows}
        assert rows["sr"].nodes > 0 and rows["vt"].nodes > 0
        # fold 0's empty theory misses both vt training examples
        assert rows["vt"].tracc == pytest.approx(2 / 3)
        with pytest.raises(UsageError, match="two classes"):
            cross_validate(seed1.restrict([8, 9]), mode, 2, **kwargs)


def _passes(result):
    """A pipeline run's learned clauses, nodes and completeness per class,
    for each pass."""
    return {name: {label: ([str(c) for c in r.clauses], r.stats.nodes,
                           r.complete)
                   for label, r in theory.per_class.items()}
            for name, theory in (("agg", result.theory),
                                 *result.mono.items())}


class TestSmallPipelineCrossval:
    """2 examples per class, 2 folds: exercises the full biased CV path."""

    def test_biased_crossval_runs(self, small):
        report = cross_validate(
            small, "biased", 2, biases=monosource_biases("full"),
            constraints=[InterleavingConstraint("ABP", "dias", "sys")])
        assert len(report.rows) == 7
        for audit in report.fold_audit:
            assert audit["ECG"] == audit["ABP"] == audit["AGG"]
        for row in report.rows:
            assert 0.0 <= row.tracc <= 1.0
            assert 0.0 <= row.acc <= 1.0

    def test_rerun_with_warm_memos(self):
        """Every fold and the full run share each example's coverage memo,
        and a second run on the same dataset starts with the memos the
        first one filled; both runs give the same rows and warnings."""
        ds = generate_dataset(GeneratorConfig(seed=2, per_class=2,
                                              mode="split"))

        def run():
            report = cross_validate(ds, "biased", 2,
                                    biases=monosource_biases("split"))
            return ([(r.label, r.tracc, r.acc, r.comp, r.nodes)
                     for r in report.rows], report.warnings)

        cold = run()
        assert all(e.coverage_memo for e in ds.interpretations)
        warm = run()
        assert cold[1]  # the split schema leaves some classes unlearned
        assert cold == warm

    def test_folds_share_class_biases(self, monkeypatch):
        """A class bias is compiled once per dataset family: the folds and
        the full run hold one template per distinct bias text, each fold's
        restriction shares the dataset's table, and a pipeline whose
        biases all come from the table learns what one on fresh data
        learns."""
        config = GeneratorConfig(seed=2, per_class=2)
        constraints = [InterleavingConstraint("ABP", "dias", "sys")]
        ds = generate_dataset(config)
        biases = monosource_biases("full")
        runs = []
        learn = evaluate.biased_multisource_learn

        def keep(dataset, *args, **kwargs):
            assert dataset.templates is ds.templates
            result = learn(dataset, *args, **kwargs)
            runs.append(result)
            return result

        monkeypatch.setattr(evaluate, "biased_multisource_learn", keep)
        cross_validate(ds, "biased", 3, biases=biases,
                       constraints=constraints)
        used = [t for r in runs for t in r.class_biases.values()]
        assert len(runs) == 4
        distinct = {id(t): t for t in used}
        assert len(distinct) == len({template_text(t) for t in used}) \
            < len(used)
        assert distinct.keys() == {id(t) for t in ds.templates.values()}
        assert ds.restrict([1, 2]).templates is ds.templates

        again = biased_multisource_learn(ds, biases, constraints)
        assert len(ds.templates) == len(distinct)
        assert all(id(t) in distinct for t in again.class_biases.values())
        fresh = biased_multisource_learn(generate_dataset(config),
                                         monosource_biases("full"),
                                         constraints)
        assert _passes(again) == _passes(fresh)

    def test_search_counters_pinned(self, monkeypatch):
        """The search counters of a seed-1 5-fold biased cross-validation,
        summed over the final and monosource theories of its six pipeline
        runs, as recorded: how each coverage test is answered is part of
        the learner's contract, not only what it learns."""
        ds = generate_dataset(GeneratorConfig(seed=1, per_class=3))
        runs = []
        learn = evaluate.biased_multisource_learn

        def keep(*args, **kwargs):
            result = learn(*args, **kwargs)
            runs.append(result)
            return result

        monkeypatch.setattr(evaluate, "biased_multisource_learn", keep)
        cross_validate(ds, "biased", 5, biases=monosource_biases("full"),
                       constraints=[InterleavingConstraint("ABP", "dias",
                                                           "sys")])
        assert len(runs) == 6
        names = ("nodes", "lookups", "memo_hits", "extended", "rejected",
                 "searched")
        totals = dict.fromkeys(names, 0)
        for result in runs:
            for theory in (result.theory, *result.mono.values()):
                for r in theory.per_class.values():
                    for n in names:
                        totals[n] += getattr(r.stats, n)
        assert totals == {"nodes": 9901, "lookups": 43856,
                          "memo_hits": 37169, "extended": 2380,
                          "rejected": 3012, "searched": 1295}


@settings(deadline=None, derandomize=True, database=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_random_folds_learn_what_a_fresh_pipeline_learns(seed, constrained):
    """On random two-source data, each pipeline run of a biased
    cross-validation, folds and full run alike, learns what a pipeline
    learns on a fresh, unshared copy of its training data (new
    Interpretations, a new Dataset, new biases), or raises the same
    UsageError: sharing coverage memos, aggregated examples and class
    biases across the family changes nothing."""
    ds = random_two_source(seed)
    constraints = DEFAULT_CONSTRAINTS if constrained else []
    runs = []
    learn = evaluate.biased_multisource_learn

    def keep(dataset, *args, **kwargs):
        try:
            result = learn(dataset, *args, **kwargs)
        except UsageError as err:
            runs.append((dataset, str(err)))
            raise
        runs.append((dataset, _passes(result)))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "biased_multisource_learn", keep)
        try:
            cross_validate(ds, "biased", 2, biases=monosource_biases("full"),
                           constraints=constraints)
        except UsageError:
            pass
    assert runs
    for dataset, outcome in runs:
        fresh = Dataset(tuple(Interpretation(i.situation, i.source, i.label,
                                             i.facts)
                              for i in dataset.interpretations),
                        dataset.schema, dataset.classes)
        try:
            again = _passes(biased_multisource_learn(
                fresh, monosource_biases("full"), constraints))
        except UsageError as err:
            again = str(err)
        assert again == outcome


# Every mode's report for 3 folds over generate_dataset(seed=2, per_class=2,
# mode="split"), pinned as recorded: the held-out classes leave training
# gaps, so every mode warns (a fold's warnings carry its number, the full
# run's do not).
_PINNED_FOLD_SETS = (frozenset(range(0, 5)), frozenset(range(5, 10)),
                     frozenset(range(10, 14)))
_PINNED = {
    "mono": {
        "rows": [
            ("sr", 1.0, 0.8571428571428571, "3", 64),
            ("ves", 1.0, 0.7142857142857143, "3", 78),
            ("bige", 1.0, 0.7142857142857143, "3", 79),
            ("doublet", 1.0, 0.8571428571428571, "4", 190),
            ("vt", 0.9259259259259259, 0.7142857142857143, "0", 520),
            ("svt", 0.9259259259259259, 0.5714285714285714, "0", 520),
            ("af", 1.0, 0.7142857142857143, "3", 79),
        ],
        "meta": {"folds": "3"},
        "audit_keys": ["QRS"],
        "warnings": [
            "fold 0: class sr has no training positives; skipped",
            "fold 0: class ves has no training positives; skipped",
            "fold 1: class doublet has no training positives; skipped",
            "fold 1: class vt has no training positives; skipped",
            "fold 2: class svt has no training positives; skipped",
            "fold 2: class af has no training positives; skipped",
        ],
    },
    "naive": {
        "rows": [
            ("sr", 1.0, 0.8571428571428571, "3", 372),
            ("ves", 1.0, 0.8571428571428571, "3", 368),
            ("bige", 1.0, 0.7142857142857143, "3", 372),
            ("doublet", 0.8592592592592592, 0.8571428571428571, "0", 1009),
            ("vt", 0.8592592592592592, 0.8571428571428571, "0", 1012),
            ("svt", 0.9259259259259259, 0.5714285714285714, "0", 1150),
            ("af", 1.0, 0.8571428571428571, "3", 372),
        ],
        "meta": {"folds": "3", "naive_max_events": "3"},
        "audit_keys": ["AGG"],
        "warnings": [
            "fold 0: class sr has no training positives; skipped",
            "fold 0: class ves has no training positives; skipped",
            "fold 1: class doublet has no training positives; skipped",
            "fold 1: class vt has no training positives; skipped",
            "fold 2: class svt has no training positives; skipped",
            "fold 2: class af has no training positives; skipped",
        ],
    },
    "biased": {
        "rows": [
            ("sr", 1.0, 0.8571428571428571, "3", 104),
            ("ves", 1.0, 0.5714285714285714, "3", 134),
            ("bige", 1.0, 0.7142857142857143, "3", 134),
            ("doublet", 1.0, 0.8571428571428571, "4", 24),
            ("vt", 0.9259259259259259, 0.7142857142857143, "0", 0),
            ("svt", 0.9259259259259259, 0.5714285714285714, "0", 0),
            ("af", 1.0, 0.7142857142857143, "3", 8),
        ],
        "meta": {"folds": "3", "mono_nodes_P": "823", "mono_nodes_QRS": "1530"},
        "audit_keys": ["P", "QRS", "AGG"],
        "warnings": [
            "fold 0: class af: empty theory on P; pairing with the empty hypothesis",
            "fold 0: class doublet: empty theory on P; pairing with the empty hypothesis",
            "fold 0: class svt: no monosource rules on either source; skipped",
            "fold 0: class vt: no monosource rules on either source; skipped",
            "fold 1: class af: empty theory on P; pairing with the empty hypothesis",
            "fold 1: class svt: empty theory on P; pairing with the empty hypothesis",
            "fold 2: class doublet: empty theory on P; pairing with the empty hypothesis",
            "fold 2: class vt: empty theory on P; pairing with the empty hypothesis",
            "class af: empty theory on P; pairing with the empty hypothesis",
            "class doublet: empty theory on P; pairing with the empty hypothesis",
            "class svt: no monosource rules on either source; skipped",
            "class vt: no monosource rules on either source; skipped",
        ],
    },
}


@pytest.mark.parametrize("mode", MODES)
def test_crossval_modes_pinned(mode):
    dataset = generate_dataset(GeneratorConfig(seed=2, per_class=2,
                                               mode="split"))
    biases = monosource_biases("split")
    kwargs = {"mono": dict(source="QRS", biases=biases),
              "naive": dict(naive_max_events=3),
              "biased": dict(biases=biases)}[mode]
    report = cross_validate(dataset, mode, 3, **kwargs)
    pinned = _PINNED[mode]
    assert [(r.label, r.tracc, r.acc, r.comp, r.nodes)
            for r in report.rows] == pinned["rows"]
    assert [(k, v) for k, v in report.meta.items()
            if "time" not in k] == list(pinned["meta"].items())
    assert report.fold_audit == [dict.fromkeys(pinned["audit_keys"], s)
                                 for s in _PINNED_FOLD_SETS]
    assert [list(a) for a in report.fold_audit] == [pinned["audit_keys"]] * 3
    assert report.warnings == pinned["warnings"]


class TestEmitReport:
    def _report(self, hand_dataset, hand_bias):
        return cross_validate(hand_dataset, "mono", 4,
                              biases={"A": hand_bias}, source="A")

    def test_markdown_and_csv_agree(self, hand_dataset, hand_bias):
        report = self._report(hand_dataset, hand_bias)
        md = emit_report(report, "markdown")
        csv = emit_report(report, "csv")
        assert md.count("\n") == len(report.rows) + 2  # header + rule
        assert csv.splitlines()[0] == "class,nodes,time_ms,tracc,acc,comp"
        for row in report.rows:
            assert f"{row.tracc:.3f}" in md and f"{row.tracc:.3f}" in csv

    def test_empty_report(self):
        from relic.evaluate import EvaluationReport

        empty = EvaluationReport(mode="mono", rows=[])
        assert emit_report(empty, "csv") == "class,nodes,time_ms,tracc,acc,comp\n"

    def test_unknown_format(self, hand_dataset, hand_bias):
        with pytest.raises(UsageError):
            emit_report(self._report(hand_dataset, hand_bias), "xml")
