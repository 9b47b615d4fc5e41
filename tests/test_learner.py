import random
from functools import cache

import pytest
from conftest import (fresh_index_covers, random_grammar,
                      random_ground_facts, relabel)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import brute_covers, reference_learn_class

from relic import (GeneratorConfig, UsageError, generate_dataset,
                   monosource_biases, naive_bias)
from relic.data import Interpretation
from relic.dlab import (Refinement, choice, compile_template, inline, literal,
                        refine, start_selection)
from relic.errors import BiasError
from relic.learner import (LearnerParams, SearchStats, _coverage, accuracy,
                           learn_class, learn_theory, train_accuracy)
from relic.logic import (apply_substitution, body_key, clause, covers,
                         grounding, is_variable, lit)


def _example(label, situation, facts):
    return Interpretation(situation=situation, source="ECG", label=label,
                          facts=frozenset(facts))


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
    """One clause scored as a class theory by train_accuracy."""

    EXAMPLES = ([_beat_example("x", i, ("abnormal", "abnormal"))
                 for i in range(3)]
                + [_beat_example("y", 10 + i, ("normal", "normal"))
                   for i in range(3)])

    def test_perfect_clause(self):
        c = clause("x", (lit("qrs", "A", "abnormal"),))
        assert train_accuracy((c,), "x", self.EXAMPLES) == 1.0

    def test_empty_body_covers_everything(self):
        # tp = fp = 3: every positive and no negative is right
        assert train_accuracy((clause("x", ()),), "x", self.EXAMPLES) == 0.5

    def test_partial_coverage_counts(self):
        pos = [_beat_example("x", 0, ("abnormal", "normal")),
               _beat_example("x", 1, ("abnormal", "abnormal")),
               _beat_example("x", 2, ("normal", "normal"))]
        neg = [_beat_example("y", 3, ("abnormal", "normal")),
               _beat_example("y", 4, ("normal", "normal")),
               _beat_example("y", 5, ("normal", "normal"))]
        c = clause("x", (lit("qrs", "A", "abnormal"),))
        # tp = tn = 2, fp = fn = 1
        assert train_accuracy((c,), "x", pos + neg) == pytest.approx(4 / 6)


class TestLearnClass:
    def test_single_literal_separation(self):
        examples = ([_beat_example("x", i, ("abnormal", "normal"))
                     for i in range(4)]
                    + [_beat_example("y", 10 + i, ("normal", "normal"))
                       for i in range(4)])
        result = learn_class("x", examples, TINY_BIAS)
        assert result.complete
        assert len(result.clauses) == 1
        assert train_accuracy(result.clauses, "x", examples) == 1.0

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
    return [Interpretation(e.situation, e.source, e.label, e.facts)
            for e in examples]


def _learned(theory):
    return {label: (r.clauses, r.stats.nodes)
            for label, r in theory.per_class.items()}


def _refinement(body, added=None):
    """A child as refine hands it, for _coverage: additive when added is
    given, and otherwise non-additive, adding its whole body to the
    root."""
    body = tuple(body)
    variables = sorted({a for b in body for a in b.args if is_variable(a)})
    return Refinement(start_selection(TINY_BIAS), body,
                      ", ".join(body_key(body)), tuple(variables),
                      body if added is None else added, added is not None)


# the search's root: no body, an empty witness
ROOT = Refinement(start_selection(TINY_BIAS), (), "", (), (), True)


def _stats_sum(theory):
    names = ("lookups", "memo_hits", "extended", "rejected", "searched")
    return {n: sum(getattr(r.stats, n) for r in theory.per_class.values())
            for n in names}


def _memo_checked(examples, learn):
    """learn(), run with refine wrapped to keep each child by its body
    text; then every coverage memo entry on examples is checked against
    that child: None exactly where covers says the body does not cover,
    and otherwise a witness, one value per variable, whose substitution
    puts every body literal among the facts.  Returns what learn returns."""
    import relic.learner as learner

    children = {}

    def kept(template, sel):
        out = refine(template, sel)
        children.update((child.text, child) for child in out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "refine", kept)
        learned = learn()
    for e in examples:
        for text, witness in e.coverage_memo.items():
            child = children[text]
            assert (witness is None) == (
                not covers(clause("x", child.body), e.facts))
            if witness is not None:
                assert len(witness) == len(child.variables)
                theta = dict(zip(child.variables, witness))
                assert all(apply_substitution(b, theta) in e.facts
                           for b in child.body)
    return learned


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
        calls = []

        def counted(plan, index, start=()):
            calls.append(plan)
            return grounding(plan, index, start)

        monkeypatch.setattr(learner, "grounding", counted)
        cold = learn_theory(_fresh(examples), bias)
        assert calls  # a cold memo's misses reach the matcher
        first = learn_theory(examples, bias)
        assert all(e.coverage_memo for e in examples)
        calls.clear()
        second = learn_theory(examples, bias)
        assert calls == []  # every pair answered by the memo
        assert _learned(first) == _learned(second) == _learned(cold)

    def test_counters_account_for_every_lookup(self, ecg):
        examples, bias = ecg
        fresh = _fresh(examples)
        cold = _stats_sum(learn_theory(fresh, bias))
        assert cold["lookups"] == (cold["memo_hits"] + cold["extended"]
                                   + cold["rejected"] + cold["searched"])
        assert cold["extended"] and cold["searched"]
        warm = _stats_sum(learn_theory(fresh, bias))
        assert warm["lookups"] == cold["lookups"]
        assert warm["memo_hits"] == warm["lookups"]

    def test_entries_stay_with_their_example(self):
        child = _refinement((lit("qrs", "A", "abnormal"),))
        hit = _beat_example("x", 0, ("abnormal",))
        miss = _beat_example("y", 1, ("normal",))
        stats = SearchStats()
        assert _coverage(child, ROOT, [hit, miss], range(2), stats) == (0,)
        assert _coverage(child, ROOT, [miss, hit], range(2), stats) == (1,)
        assert hit.coverage_memo == {child.text: ("r0",)}
        assert miss.coverage_memo == {child.text: None}
        # a non-additive child extends the root's empty witness, and miss
        # has no qrs row with shape abnormal
        assert (stats.lookups, stats.memo_hits, stats.extended,
                stats.rejected, stats.searched) == (4, 2, 1, 1, 0)

    def test_failed_extension_falls_back_to_a_full_search(self):
        """The parent's kept witness (A = r1) has no suc row to extend
        over, but A = r2, B = r3 grounds the child: a failed extension
        never means the child does not cover the example."""
        qrs = lit("qrs", "A", "abnormal")
        suc = lit("suc", "B", "A")
        e = _example("x", 0, (lit("qrs", "r1", "abnormal"),
                              lit("qrs", "r2", "abnormal"),
                              lit("suc", "r3", "r2")))
        stats = SearchStats()
        first = _refinement((qrs,), added=(qrs,))
        assert _coverage(first, ROOT, [e], [0], stats) == (0,)
        assert e.coverage_memo[first.text] == ("r1",)
        child = _refinement((qrs, suc), added=(suc,))
        assert _coverage(child, first, [e], [0], stats) == (0,)
        assert e.coverage_memo[child.text] == ("r2", "r3")
        assert (stats.extended, stats.searched) == (1, 1)

    def test_every_entry_left_by_a_run_is_right(self, ecg):
        examples, bias = ecg
        fresh = _fresh(examples)
        _memo_checked(fresh, lambda: learn_theory(fresh, bias))
        assert all(e.coverage_memo for e in fresh)

    def test_added_literal_without_rows_rejects(self):
        qrs = lit("qrs", "A", "abnormal")
        e = _beat_example("x", 0, ("abnormal",))
        stats = SearchStats()
        first = _refinement((qrs,), added=(qrs,))
        _coverage(first, ROOT, [e], [0], stats)
        child = _refinement((qrs, lit("p", "B", "normal")),
                            added=(lit("p", "B", "normal"),))
        assert _coverage(child, first, [e], [0], stats) == ()
        assert e.coverage_memo[child.text] is None
        assert (stats.extended, stats.rejected, stats.searched) == (1, 1, 0)


def _learned_class(label, examples, bias, params):
    result = learn_class(label, examples, bias, params)
    return result.clauses, result.stats.nodes, result.complete


@cache
def _cardiac(seed, per_class):
    ds = generate_dataset(GeneratorConfig(seed=seed, per_class=per_class))
    return ds, {"naive": naive_bias(ds.schema, 2), **monosource_biases("full")}


@cache
def _noisy_cardiac(seed, per_class):
    ds, biases = _cardiac(seed, per_class)
    return relabel(ds, seed, 0.1), biases


REFERENCE = settings(deadline=None, derandomize=True, database=None)


class TestReferenceLearner:
    """learn_class and its shortcuts (the coverage memo, additive children
    tested on their parent's covers, the template's refine cache) learn
    what the plain search of oracles.reference_learn_class learns; on
    random grammars every memo entry a search leaves is checked too."""

    @settings(REFERENCE, max_examples=400)
    @given(st.sampled_from((3, 4)), st.integers(0, 2**32 - 1))
    # each pinned case tells a learner testing every child on its parent's
    # covers apart from the reference
    @example(3, 817)
    @example(4, 157)
    @example(4, 565)
    def test_random_grammars_and_facts(self, depth, seed):
        rng = random.Random(seed)
        try:
            bias = compile_template(random_grammar(rng, depth))
        except BiasError:
            assume(False)
        self._check_random_search(rng, bias, depth)

    @settings(REFERENCE, max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_random_wide_inline_grammars(self, seed):
        """Grammars whose inline choices can grow below the root, so the
        search meets non-additive children there: a learner that tests
        every child only on its parent's covers fails this."""
        rng = random.Random(seed)
        bias = compile_template(random_grammar(rng, 3, wide_inlines=True))
        self._check_random_search(rng, bias, 3)

    def test_wide_inline_grammars_reach_non_additive_children(self):
        """Most grammars of that family give some child of the root a
        non-additive child of its own."""
        reached = 0
        for seed in range(40):
            bias = compile_template(random_grammar(random.Random(seed), 3,
                                                   wide_inlines=True))
            reached += any(not grandchild.additive
                           for child in refine(bias, start_selection(bias))
                           for grandchild in refine(bias, child.sel))
        assert reached >= 20

    @staticmethod
    def _check_random_search(rng, bias, depth):
        """Random examples drawn from rng, learnt as class x: learn_class
        equals the reference on clauses, nodes and completeness, every
        memo entry it leaves is right, and its counters answer each
        coverage test one way."""
        n = rng.randint(3, 8) if depth == 3 else rng.randint(6, 14)
        examples = [_example("x" if k == 0 else rng.choice("xy"), k,
                             random_ground_facts(rng)) for k in range(n)]
        params = LearnerParams(beam_width=rng.randint(1, 2))
        result = _memo_checked(
            examples, lambda: learn_class("x", examples, bias, params))
        s = result.stats
        assert s.lookups == s.memo_hits + s.extended + s.rejected + s.searched
        assert (result.clauses, s.nodes, result.complete) == \
            reference_learn_class("x", examples, bias, params,
                                  lambda c, e: brute_covers(c, e.facts))

    @settings(REFERENCE, max_examples=80)
    @given(st.integers(0, 5), st.integers(1, 2),
           st.sampled_from(("ECG", "ABP")),
           st.sampled_from(("authored", "naive")), st.integers(1, 4),
           st.integers(0, 6))
    # the first case tells a learner that does not prefer the shorter of
    # two equally accurate acceptable clauses apart from the reference,
    # the second one whose beam does not break accuracy ties by text
    @example(0, 1, "ECG", "authored", 1, 0)
    @example(0, 1, "ECG", "authored", 2, 1)
    def test_cardiac_data(self, seed, per_class, source, bias_kind, width,
                          class_no):
        ds, biases = _cardiac(seed, per_class)
        bias = biases["naive" if bias_kind == "naive" else source]
        label = ds.classes[class_no]
        examples = ds.by_source(source)
        params = LearnerParams(beam_width=width)
        assert _learned_class(label, examples, bias, params) == \
            reference_learn_class(label, examples, bias, params,
                                  fresh_index_covers())

    @settings(REFERENCE, max_examples=55)
    @given(st.integers(0, 5), st.integers(1, 2),
           st.sampled_from(("ECG", "ABP")),
           st.sampled_from(("authored", "naive")), st.integers(1, 4),
           st.integers(0, 6))
    def test_noisy_cardiac_data(self, seed, per_class, source, bias_kind,
                                width, class_no):
        """As test_cardiac_data, on data with a tenth of its situations
        relabelled on every view; a class left with no positive on the
        chosen source is skipped."""
        ds, biases = _noisy_cardiac(seed, per_class)
        bias = biases["naive" if bias_kind == "naive" else source]
        label = ds.classes[class_no]
        examples = ds.by_source(source)
        assume(any(e.label == label for e in examples))
        params = LearnerParams(beam_width=width)
        assert _learned_class(label, examples, bias, params) == \
            reference_learn_class(label, examples, bias, params,
                                  fresh_index_covers())
