import pytest

from relic import UsageError
from relic.data import Interpretation
from relic.dlab import (choice, compile_template, inline, literal, refine,
                        start_selection)
from relic.learner import (LearnerParams, accuracy, learn_class, learn_theory,
                           score_clause, train_accuracy)
from relic.logic import clause, covers, lit


def _example(label, situation, facts):
    return Interpretation(situation=situation, source="ECG", label=label,
                          facts=frozenset(facts), raw_events=())


def _beat_example(label, situation, shapes):
    facts = []
    for i, shape in enumerate(shapes):
        facts.append(lit("qrs", f"r{i}", shape))
        if i:
            facts.append(lit("suc", f"r{i}", f"r{i-1}"))
    return _example(label, situation, facts)


TINY_BIAS = compile_template(choice(
    "len", "len",
    literal("qrs", "R0", inline(1, 1, "normal", "abnormal")),
    choice(0, 1, choice("len", "len",
                        literal("qrs", "R1", inline(1, 1, "normal", "abnormal")),
                        literal("suc", "R1", "R0")))))


class TestAccuracy:
    def test_formula(self):
        assert accuracy(3, 4, 2, 1) == 0.7

    def test_all_true_negatives(self):
        assert accuracy(0, 17, 0, 0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            accuracy(0, 0, 0, 0)


class TestScoreClause:
    POS = [_beat_example("x", i, ("abnormal", "abnormal")) for i in range(3)]
    NEG = [_beat_example("y", 10 + i, ("normal", "normal")) for i in range(3)]

    def test_perfect_clause(self):
        c = clause("x", (lit("qrs", "A", "abnormal"),))
        s = score_clause(c, self.POS, self.NEG)
        assert (s.tp, s.fp, s.accuracy) == (3, 0, 1.0)

    def test_empty_body_covers_everything(self):
        s = score_clause(clause("x", ()), self.POS, self.NEG)
        assert (s.tp, s.fp) == (3, 3)
        assert s.accuracy == len(self.POS) / (len(self.POS) + len(self.NEG))

    def test_partial_coverage_counts(self):
        pos = [_beat_example("x", 0, ("abnormal", "normal")),
               _beat_example("x", 1, ("abnormal", "abnormal")),
               _beat_example("x", 2, ("normal", "normal"))]
        neg = [_beat_example("y", 3, ("abnormal", "normal")),
               _beat_example("y", 4, ("normal", "normal")),
               _beat_example("y", 5, ("normal", "normal"))]
        c = clause("x", (lit("qrs", "A", "abnormal"),))
        s = score_clause(c, pos, neg)
        assert (s.tp, s.tn, s.fp, s.fn) == (2, 2, 1, 1)
        assert s.accuracy == pytest.approx(4 / 6)


class TestLearnClass:
    def test_single_literal_separation(self):
        examples = ([_beat_example("x", i, ("abnormal", "normal"))
                     for i in range(4)]
                    + [_beat_example("y", 10 + i, ("normal", "normal"))
                       for i in range(4)])
        result = learn_class("x", examples, TINY_BIAS)
        assert result.complete
        assert len(result.clauses) == 1
        s = score_clause(result.clauses[0],
                         examples[:4], examples[4:])
        assert s.fp == 0 and s.tp == 4

    def test_indistinguishable_data_flags_incomplete(self):
        examples = ([_beat_example("x", i, ("normal", "normal"))
                     for i in range(3)]
                    + [_beat_example("y", 10 + i, ("normal", "normal"))
                       for i in range(3)])
        result = learn_class("x", examples, TINY_BIAS)
        assert not result.complete
        assert result.clauses == ()

    def test_no_positives_rejected(self):
        examples = [_beat_example("y", 0, ("normal",))]
        with pytest.raises(UsageError):
            learn_class("x", examples, TINY_BIAS)

    def test_nodes_equal_refinements_generated(self, monkeypatch):
        import relic.learner as learner

        examples = ([_beat_example("x", i, ("abnormal", "normal"))
                     for i in range(3)]
                    + [_beat_example("y", 10 + i, ("normal", "normal"))
                       for i in range(3)])
        audited = []

        def counted(t, sel):
            children = refine(t, sel)
            audited.append(len(children))
            return children

        monkeypatch.setattr(learner, "refine", counted)
        result = learn_class("x", examples, TINY_BIAS)
        assert audited and result.stats.nodes == sum(audited)


class TestLearnTheory:
    def test_two_separable_classes(self):
        examples = ([_beat_example("x", i, ("abnormal", "abnormal"))
                     for i in range(3)]
                    + [_beat_example("y", 10 + i, ("normal", "normal"))
                       for i in range(3)])
        theory = learn_theory(examples, TINY_BIAS)
        for label in ("x", "y"):
            assert theory.per_class[label].complete
            assert train_accuracy(theory.clauses_for(label), label,
                                  examples) == 1.0

    def test_single_class_rejected(self):
        examples = [_beat_example("x", i, ("normal",)) for i in range(3)]
        with pytest.raises(UsageError):
            learn_theory(examples, TINY_BIAS)

    def test_per_class_bias_mapping(self):
        examples = ([_beat_example("x", i, ("abnormal", "abnormal"))
                     for i in range(3)]
                    + [_beat_example("y", 10 + i, ("normal", "normal"))
                       for i in range(3)])
        theory = learn_theory(examples, {"x": TINY_BIAS, "y": TINY_BIAS})
        assert set(theory.labels()) == {"x", "y"}
        assert all(r.complete for r in theory.per_class.values())

    def test_deterministic(self):
        examples = ([_beat_example("x", i, ("abnormal", "normal"))
                     for i in range(4)]
                    + [_beat_example("y", 10 + i, ("normal", "abnormal"))
                       for i in range(4)])
        a = learn_theory(examples, TINY_BIAS)
        b = learn_theory(examples, TINY_BIAS)
        assert {l: r.clauses for l, r in a.per_class.items()} == \
            {l: r.clauses for l, r in b.per_class.items()}
        assert {l: r.stats.nodes for l, r in a.per_class.items()} == \
            {l: r.stats.nodes for l, r in b.per_class.items()}


class TestParams:
    def test_beam_width_must_be_positive(self):
        with pytest.raises(UsageError):
            LearnerParams(beam_width=0)

    def test_max_clauses_must_be_positive(self):
        with pytest.raises(UsageError):
            LearnerParams(max_clauses_per_class=0)


def test_refinement_coverage_monotone():
    """Under additive biases a child's covered positives are a subset of
    its parent's."""
    examples = ([_beat_example("x", i, ("abnormal", "normal"))
                 for i in range(4)]
                + [_beat_example("y", 10 + i, ("normal", "normal"))
                   for i in range(4)])
    frontier = [(start_selection(TINY_BIAS), None)]
    while frontier:
        nxt = []
        for sel, parent_cov in frontier:
            for child in refine(TINY_BIAS, sel):
                c = clause("x", child.body)
                cov = frozenset(i for i, e in enumerate(examples)
                                if covers(c, e.index))
                if parent_cov is not None:
                    assert cov <= parent_cov
                nxt.append((child.sel, cov))
        frontier = nxt


def _fresh(examples):
    """Copies of the examples with empty coverage memos."""
    return [Interpretation(e.situation, e.source, e.label, e.facts,
                           e.raw_events) for e in examples]


def _learned(theory):
    return {label: (r.clauses, r.stats.nodes)
            for label, r in theory.per_class.items()}


class TestCoverageMemo:
    """Each example's coverage memo, shared by every class and search."""

    @pytest.fixture(scope="class")
    def ecg(self):
        from relic import GeneratorConfig, generate_dataset, monosource_biases

        ds = generate_dataset(GeneratorConfig(seed=2, per_class=2))
        return ds.by_source("ECG"), monosource_biases("full")["ECG"]

    def test_warm_memo_learns_what_a_cold_one_does(self, ecg, monkeypatch):
        import relic.learner as learner

        examples, bias = ecg
        cold = learn_theory(_fresh(examples), bias)
        first = learn_theory(examples, bias)
        assert all(e.coverage_memo for e in examples)
        calls = []

        def counted(c, facts):
            calls.append(c)
            return covers(c, facts)

        monkeypatch.setattr(learner, "covers", counted)
        second = learn_theory(examples, bias)
        assert calls == []  # every pair answered by the memo
        assert _learned(first) == _learned(second) == _learned(cold)

    def test_entries_stay_with_their_example(self):
        from relic.learner import _coverage
        from relic.logic import body_key

        c = clause("x", (lit("qrs", "A", "abnormal"),))
        body = ", ".join(body_key(c))
        hit = _beat_example("x", 0, ("abnormal",))
        miss = _beat_example("y", 1, ("normal",))
        assert _coverage(c, body, [hit, miss], range(2)) == (0,)
        assert _coverage(c, body, [miss, hit], range(2)) == (1,)
        assert hit.coverage_memo == {body: True}
        assert miss.coverage_memo == {body: False}
