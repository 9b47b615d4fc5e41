import hashlib
from math import comb

import pytest
from conftest import (ECG_BLOCK, ABP_BLOCK, fresh_index_covers,
                      random_two_source)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_covers, reference_pipeline

from relic import (GeneratorConfig, ParseError, UsageError, generate_dataset,
                   learn_theory, parse_model_file)
from relic.data import (Dataset, Interpretation, SymbolizationConfig,
                        saturate)
from relic.dlab import (MAX_NESTING, count_space, enumerate_bodies, member,
                        parse_dlab, template_text)
from relic.learner import LearnerParams
from relic.logic import (Literal, body_key, clause, covers, lit,
                         standardize_apart, theta_subsumes)
from relic.multisource import (InterleavingConstraint, aggregate,
                               biased_multisource_learn,
                               bottom_clauses_for_pair, deepest_bottom_events,
                               filter_constraints,
                               interleavings, make_bottom_clause, naive_bias,
                               ordered_events, parse_constraints,
                               synthesize_bias)
from relic.synth import CLASSES, cardiac_schema, monosource_biases

SCHEMA = cardiac_schema("full")

# A canonical monosource pair: a P-R beat on the ECG, a dias-sys cycle
# on the pressure channel.
H1 = clause("x", (lit("p", "P0", "normal"), lit("qrs", "R0", "normal"),
                  lit("pr1", "P0", "R0", "normal"), lit("suc", "R0", "P0")))
H2 = clause("x", (lit("dias", "D0", "normal"), lit("sys", "S0", "normal"),
                  lit("suc", "S0", "D0")))
DIAS_SYS = InterleavingConstraint("ABP", "dias", "sys")


def _merge_order(m):
    return tuple(it.var for it in m)


class TestInterleavings:
    def test_canonical_pair_count(self):
        merges = interleavings(H1, H2, SCHEMA, ("ECG", "ABP"))
        assert len(merges) == 6
        orders = {_merge_order(m) for m in merges}
        assert ("P0", "R0", "D0", "S0") in orders   # btn
        assert ("P0", "D0", "R0", "S0") in orders   # bt1
        assert ("D0", "P0", "S0", "R0") in orders   # bt2
        assert ("D0", "S0", "P0", "R0") in orders   # bt3

    def test_counts_formula(self):
        for n in range(0, 5):
            for p in range(0, 5):
                h1 = _chain("qrs", "A", n)
                h2 = _chain("sys", "B", p)
                assert len(interleavings(h1, h2, SCHEMA, ("ECG", "ABP"))) \
                    == comb(n + p, n)

    def test_empty_side(self):
        empty = clause("x", ())
        merges = interleavings(H1, empty, SCHEMA, ("ECG", "ABP"))
        assert len(merges) == 1
        assert _merge_order(merges[0]) == ("P0", "R0")

    def test_shared_variables_rejected(self):
        with pytest.raises(UsageError, match="standardize"):
            interleavings(H1, H1, SCHEMA, ("ECG", "ECG2"))

    def test_partial_order_rejected(self):
        h = clause("x", (lit("qrs", "A", "normal"), lit("qrs", "B", "normal"),
                         lit("qrs", "C", "normal"), lit("suc", "B", "A"),
                         lit("suc", "C", "A")))
        with pytest.raises(UsageError, match="not total"):
            ordered_events(h, SCHEMA)

    @pytest.mark.parametrize("body", [
        (lit("qrs", "A", "normal"), lit("qrs", "B", "normal"),
         lit("suc", "B", "A"), lit("suc", "A", "B")),
        (lit("qrs", "A", "normal"), lit("suc", "A", "A")),
    ], ids=["2-cycle", "self-loop"])
    def test_cyclic_order_rejected(self, body):
        h = clause("x", body)
        with pytest.raises(UsageError, match="not total"):
            ordered_events(h, SCHEMA)
        with pytest.raises(UsageError, match="not total"):
            bottom_clauses_for_pair(h, H2, SCHEMA, ("ECG", "ABP"))


def _event_chain(preds, var):
    """A hypothesis whose events, named var0, var1, ..., follow one
    another in the order of preds."""
    body = []
    for i, pred in enumerate(preds):
        body.append(lit(pred, f"{var}{i}", "normal"))
        if i:
            body.append(lit("suc", f"{var}{i}", f"{var}{i-1}"))
    return clause("x", body)


def _chain(pred, var, n):
    return _event_chain([pred] * n, var)


class TestConstraints:
    def test_canonical_pair_filtering(self):
        merges = interleavings(H1, H2, SCHEMA, ("ECG", "ABP"))
        kept = filter_constraints(merges, [DIAS_SYS])
        orders = {_merge_order(m) for m in kept}
        assert ("P0", "D0", "R0", "S0") not in orders   # bt1 removed
        assert ("D0", "P0", "S0", "R0") not in orders   # bt2 removed
        assert ("P0", "R0", "D0", "S0") in orders       # btn survives
        assert ("D0", "S0", "P0", "R0") in orders       # bt3 survives

    def test_empty_constraint_set_is_identity(self):
        merges = interleavings(H1, H2, SCHEMA, ("ECG", "ABP"))
        assert filter_constraints(merges, []) == merges

    def test_absent_predicate_is_identity(self):
        merges = interleavings(H1, H2, SCHEMA, ("ECG", "ABP"))
        ghost = InterleavingConstraint("ABP", "pulse", "sys")
        assert filter_constraints(merges, [ghost]) == merges

    def test_parse_constraints(self):
        text = "% comment\nforbid_between ABP dias sys\n"
        assert parse_constraints(text) == [DIAS_SYS]
        with pytest.raises(Exception):
            parse_constraints("forbid ABP dias\n")


    @pytest.mark.parametrize("con, wrong", [
        (InterleavingConstraint("abp", "dias", "sys"),
         "unknown source 'abp' (sources: ECG, ABP)"),
        (InterleavingConstraint("ABP", "diastole", "sys"),
         "'diastole' is not an event predicate of source ABP"),
        (InterleavingConstraint("ABP", "dias", "qrs"),
         "'qrs' is not an event predicate of source ABP"),
        (InterleavingConstraint("ABP", "ss1", "sys"),
         "'ss1' is not an event predicate of source ABP"),
    ], ids=["source", "unknown-pred", "other-source-pred", "relational-pred"])
    def test_pipeline_rejects_unknown_source_or_event(self, reference_dataset,
                                                      con, wrong):
        # checked before any learning: a misspelt constraint would
        # otherwise filter nothing
        text = f"forbid_between {con.source} {con.before} {con.after}"
        with pytest.raises(UsageError) as exc:
            biased_multisource_learn(reference_dataset,
                                     monosource_biases("full"), [con])
        assert str(exc.value) == f"constraint {text!r}: {wrong}"


class TestBottomClauses:
    def test_btn_layout(self):
        merges = interleavings(H1, H2, SCHEMA, ("ECG", "ABP"))
        btn_merge = next(m for m in merges
                         if _merge_order(m) == ("P0", "R0", "D0", "S0"))
        bt = make_bottom_clause(H1, H2, btn_merge, SCHEMA)
        expected = (lit("p", "P0", "normal"), lit("qrs", "R0", "normal"),
                    lit("suc", "R0", "P0"), lit("pr1", "P0", "R0", "normal"),
                    lit("dias", "D0", "normal"), lit("suci", "D0", "R0"),
                    lit("sys", "S0", "normal"), lit("suc", "S0", "D0"))
        assert sorted(map(str, bt.clause.body)) == sorted(map(str, expected))

    def test_bt1_cross_links(self):
        merges = interleavings(H1, H2, SCHEMA, ("ECG", "ABP"))
        bt1_merge = next(m for m in merges
                         if _merge_order(m) == ("P0", "D0", "R0", "S0"))
        bt = make_bottom_clause(H1, H2, bt1_merge, SCHEMA)
        sucis = {str(b) for b in bt.clause.body if b.pred == "suci"}
        assert sucis == {"suci(D0,P0)", "suci(R0,D0)", "suci(S0,R0)"}

    def test_empty_side_returns_other(self):
        empty = clause("x", ())
        [bt] = bottom_clauses_for_pair(H1, empty, SCHEMA, ("ECG", "ABP"))
        assert body_key(bt.clause.body) == body_key(H1.body)

    def test_more_specific_than_both(self):
        for bt in bottom_clauses_for_pair(H1, H2, SCHEMA, ("ECG", "ABP")):
            assert theta_subsumes(H1, bt.clause)
            assert theta_subsumes(H2, bt.clause)

    def test_suci_only_cross_source(self):
        ecg_vars = {"P0", "R0"}
        for bt in bottom_clauses_for_pair(H1, H2, SCHEMA, ("ECG", "ABP")):
            for b in bt.clause.body:
                if b.pred == "suci":
                    assert (b.args[0] in ecg_vars) != (b.args[1] in ecg_vars)


class TestSynthesizeBias:
    def test_bottom_is_member_of_its_own_block(self):
        for bt in bottom_clauses_for_pair(H1, H2, SCHEMA, ("ECG", "ABP")):
            bias = synthesize_bias([bt])
            assert member(bt.clause, bias)

    def test_monosource_rules_recoverable(self):
        bottoms = bottom_clauses_for_pair(H1, H2, SCHEMA, ("ECG", "ABP"),
                                          [DIAS_SYS])
        bias = synthesize_bias(bottoms)
        a, b = standardize_apart(H1, H2)
        assert member(a, bias)
        assert member(b, bias)

    def test_block_shape(self):
        merges = interleavings(H1, H2, SCHEMA, ("ECG", "ABP"))
        btn_merge = next(m for m in merges
                         if _merge_order(m) == ("P0", "R0", "D0", "S0"))
        bt = make_bottom_clause(H1, H2, btn_merge, SCHEMA)
        bias = synthesize_bias([bt])
        bodies = {tuple(sorted(map(str, b))) for b in enumerate_bodies(bias)}

        def key(*lits):
            return tuple(sorted(map(str, lits)))

        head = (lit("p", "P0", "normal"), lit("qrs", "R0", "normal"),
                lit("suc", "R0", "P0"))
        pr = lit("pr1", "P0", "R0", "normal")
        d_seg = (lit("dias", "D0", "normal"), lit("suci", "D0", "R0"))
        s_seg = (lit("sys", "S0", "normal"), lit("suc", "S0", "D0"))
        # the mandatory head, each optional extension, and the full bottom
        assert key(*head) in bodies
        assert key(*head, pr) in bodies
        assert key(*head, *d_seg) in bodies
        assert key(*head, pr, *d_seg, *s_seg) in bodies
        # the systole block only opens underneath the diastole block
        assert key(*head, *s_seg) not in bodies
        # constraint 1: never more literals than the bottom clause
        assert all(len(b) <= len(bt.clause.body) for b in bodies)
        assert count_space(bias) == len(bodies)
        # exactly: the head with or without pr1, then nothing, the
        # diastole segment, or the diastole segment and the systole one
        assert bodies == {key(*head, *extra, *tail)
                          for extra in ((), (pr,))
                          for tail in ((), d_seg, d_seg + s_seg)}
        assert template_text(bias) == (
            "1-1:[5-5:[p(P0,normal), qrs(R0,normal), suc(R0,P0), "
            "0-1:[pr1(P0,R0,normal)], 0-1:[2-2:[2-2:[dias(D0,normal), "
            "suci(D0,R0)], 0-1:[1-1:[2-2:[sys(S0,normal), suc(S0,D0)]]]]]]]")

    def test_empty_input_rejected(self):
        with pytest.raises(UsageError):
            synthesize_bias([])


class TestNaiveBias:
    def test_single_event_two_values(self):
        from relic.logic import PredicateDecl, PredicateSchema

        schema = PredicateSchema((
            PredicateDecl("beep", "event", "S1", (("on", "off"),)),))
        bias = naive_bias(schema, 1)
        assert count_space(bias) == 2

    def test_zero_events_rejected(self):
        with pytest.raises(UsageError):
            naive_bias(SCHEMA, 0)

    def test_depth_bounded_by_nesting_limit(self):
        # the deepest grammar naive_bias builds still reads back from its
        # text; one event more would nest past MAX_NESTING
        deepest = (MAX_NESTING - 1) // 2
        text = template_text(naive_bias(SCHEMA, deepest))
        assert template_text(parse_dlab(text)) == text
        with pytest.raises(UsageError, match="between 1 and"):
            naive_bias(SCHEMA, deepest + 1)

    def test_grows_with_depth(self):
        assert count_space(naive_bias(SCHEMA, 3)) \
            > count_space(naive_bias(SCHEMA, 2)) \
            > count_space(naive_bias(SCHEMA, 1))

    def test_split_depth_three_text(self):
        # each later event nests inside the one before it, with a 0-len
        # choice of the relations back to every earlier event
        bias = naive_bias(cardiac_schema("split"), 3)
        cat = "1-1:[short,normal,long]"
        assert template_text(bias) == (
            "2-2:[1-1:[p(E1), qrs(E1)], 0-1:[3-3:[1-1:[p(E2), qrs(E2)], "
            f"0-4:[pp1(E1,E2,{cat}), rr1(E1,E2,{cat}), suc(E2,E1), "
            "suci(E2,E1)], 0-1:[2-2:[1-1:[p(E3), qrs(E3)], "
            f"0-8:[pp1(E1,E3,{cat}), rr1(E1,E3,{cat}), suc(E3,E1), "
            f"suci(E3,E1), pp1(E2,E3,{cat}), rr1(E2,E3,{cat}), "
            "suc(E3,E2), suci(E3,E2)]]]]]]")
        assert count_space(bias) == 2_097_410


class TestAggregate:
    def _relabelled_pair(self):
        left = parse_model_file(ECG_BLOCK)[0]
        right = parse_model_file(ABP_BLOCK)[0]
        right = Interpretation(situation=right.situation, source=right.source,
                               label="doublet", facts=right.facts)
        return Dataset((left, right), SCHEMA, ("doublet",))

    def test_union_with_cross_links(self):
        result = aggregate(self._relabelled_pair())
        [agg] = result.examples
        assert agg.source == "AGG"
        stored = (parse_model_file(ECG_BLOCK)[0].facts
                  | parse_model_file(ABP_BLOCK)[0].facts)
        assert len(stored) == 11
        assert stored <= agg.facts
        # merged timeline 3406,3558,4905,5026,5638,6448: the one cross-source
        # adjacency is p7 right after ps4
        assert lit("suci", "p7", "ps4") in agg.facts
        assert lit("suc", "p7", "ps4") in agg.facts
        assert lit("suc", "r9", "pd4") in agg.facts
        cross_sucis = {f for f in agg.facts if f.pred == "suci"} - stored
        assert cross_sucis == {lit("suci", "p7", "ps4")}
        # every added suc links an ECG event with an ABP one
        ecg = {e.args[0] for e in parse_model_file(ECG_BLOCK)[0].events}
        added_sucs = {f for f in agg.facts if f.pred == "suc"} - stored
        assert added_sucs
        assert all((f.args[0] in ecg) != (f.args[1] in ecg)
                   for f in added_sucs)

    def test_views_fact_sets_are_kept_as_parts(self):
        ds = generate_dataset(GeneratorConfig(seed=1, per_class=1))
        for e in aggregate(ds).examples:
            views = [ds.get(s, e.situation) for s in ds.sources()]
            assert all(e.facts.parts[i] is v.facts
                       for i, v in enumerate(views))

    def test_fact_on_both_views_counted_once(self):
        note = lit("note", "x")
        views = [_view(1, "ECG", "a", [lit("qrs", "r1", "5", "normal")]),
                 _view(1, "ABP", "a", [lit("sys", "s1", "9", "normal")])]
        views = [Interpretation(v.situation, v.source, v.label,
                                v.facts | {note})
                 for v in views]
        [agg] = aggregate(Dataset(tuple(views), SCHEMA, ("a",))).examples
        assert list(agg.facts).count(note) == 1
        want = frozenset().union(*(v.facts for v in views),
                                 {lit("suc", "s1", "r1"),
                                  lit("suci", "s1", "r1")})
        assert len(agg.facts) == len(want) and agg.facts == want

    def test_inconsistent_situation_dropped(self):
        left = parse_model_file(ECG_BLOCK)[0]
        right = parse_model_file(ABP_BLOCK)[0]
        ds = Dataset((left, right), SCHEMA, ("doublet", "rs"))
        with pytest.raises(UsageError):
            aggregate(ds)  # the only situation is dropped -> empty result

    def test_incomplete_and_inconsistent_reported(self):
        left = parse_model_file(ECG_BLOCK)[0]
        right = parse_model_file(ABP_BLOCK)[0]
        other = Interpretation(situation=4, source="I", label="sr",
                               facts=frozenset())
        good_left = Interpretation(situation=5, source="I", label="sr",
                                   facts=frozenset())
        good_right = Interpretation(situation=5, source="ABP", label="sr",
                                    facts=frozenset())
        ds = Dataset((left, right, other, good_left, good_right), SCHEMA,
                     ("doublet", "rs", "sr"))
        result = aggregate(ds)
        assert [(s, r) for s, r in result.dropped] == [(3, "inconsistent"),
                                                       (4, "incomplete")]
        assert [e.situation for e in result.examples] == [5]

    def test_single_source_rejected(self):
        left = parse_model_file(ECG_BLOCK)[0]
        ds = Dataset((left,), SCHEMA, ("doublet",))
        with pytest.raises(UsageError):
            aggregate(ds)

    def test_situations_share_cross_source_facts(self):
        # event ids restart in every situation, so merges repeat suc/suci
        def views(k):
            return (_view(k, "ECG", "a", [lit("qrs", "r1", "5", "normal"),
                                          lit("qrs", "r2", "20", "normal")]),
                    _view(k, "ABP", "a", [lit("sys", "s1", "9", "normal")]))

        one, two = aggregate(Dataset(views(1) + views(2), SCHEMA,
                                     ("a",))).examples
        cross = {f: f for f in one.facts if f.pred in ("suc", "suci")}
        assert set(cross) == {lit("suc", "s1", "r1"), lit("suc", "r2", "s1"),
                              lit("suci", "s1", "r1"), lit("suci", "r2", "s1")}
        assert all(cross[f] is f for f in two.facts if f in cross)
        # each situation merged on its own, with nothing to share
        alone = [aggregate(Dataset(views(k), SCHEMA, ("a",))).examples[0]
                 for k in (1, 2)]
        assert [one, two] == alone


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


TOKENS = st.text("abcXYZ019_", min_size=1, max_size=5)
BLANKS = st.sampled_from([" ", "  ", "\t", " \t "])
FILLER = st.sampled_from(["", "  ", "\t", "% note", "  % forbid_between a b c",
                          "%"])


@st.composite
def constraint_files(draw):
    """Constraints written one per line among blank and comment lines,
    with blanks of any width around the tokens; and the same file with a
    line of the wrong token count inserted, with that line's number."""
    cons = draw(st.lists(st.builds(InterleavingConstraint, TOKENS, TOKENS,
                                   TOKENS), max_size=5))
    lines = []
    for con in cons:
        lines += draw(st.lists(FILLER, max_size=2))
        tokens = ["forbid_between", con.source, con.before, con.after]
        lines.append(draw(st.sampled_from(["", " ", "\t"]))
                     + "".join(t + draw(BLANKS) for t in tokens)
                     + draw(st.sampled_from(["", "% c", "%"])))
    lines += draw(st.lists(FILLER, max_size=2))
    at = draw(st.integers(0, len(lines)))
    k = draw(st.sampled_from([1, 2, 3, 5]))
    bad = " ".join((["forbid_between"] + draw(st.lists(TOKENS, min_size=4,
                                                       max_size=4)))[:k])
    broken = lines[:at] + [bad] + lines[at:]
    return "\n".join(lines), cons, "\n".join(broken), at + 1


EVENT_PREDS = {s: tuple(d.name for d in SCHEMA.event_preds() if d.source == s)
               for s in ("ECG", "ABP")}


@st.composite
def chains_and_constraints(draw):
    ecg, abp = (draw(st.lists(st.sampled_from(EVENT_PREDS[s]), max_size=4))
                for s in ("ECG", "ABP"))
    source = st.sampled_from(("ECG", "ABP"))
    cons = draw(st.lists(source.flatmap(lambda s: st.builds(
        InterleavingConstraint, st.just(s), st.sampled_from(EVENT_PREDS[s]),
        st.sampled_from(EVENT_PREDS[s]))), max_size=6))
    return _event_chain(ecg, "A"), _event_chain(abp, "B"), cons


class TestInterleavingProperties:
    @PROPERTY
    @given(chains_and_constraints())
    def test_constraints_keep_both_concatenations(self, case):
        # a forbid_between constraint needs a foreign event between two
        # adjacent events of its source, and a concatenation has none:
        # so no pair of hypotheses loses every merge to its constraints
        h1, h2, cons = case
        first = tuple(v for v, _ in ordered_events(h1, SCHEMA))
        second = tuple(v for v, _ in ordered_events(h2, SCHEMA))
        kept = {_merge_order(m) for m in filter_constraints(
            interleavings(h1, h2, SCHEMA, ("ECG", "ABP")), cons)}
        assert first + second in kept
        assert second + first in kept


@st.composite
def linked_chains(draw):
    """Events A0..An-1 of a chain of 0-6, each tied to the one before by
    suc or suci, with extra suc(later, earlier) literals between events
    that are not neighbours; the body shuffled.  Returns the chain's
    variables, its neighbour links and the body."""
    n = draw(st.integers(0, 6))
    names = [f"A{i}" for i in range(n)]
    events = [lit(draw(st.sampled_from(EVENT_PREDS["ECG"])), v, "normal")
              for v in names]
    links = [lit(draw(st.sampled_from(("suc", "suci"))), names[i],
                 names[i - 1]) for i in range(1, n)]
    far = [(j, i) for j in range(n) for i in range(j - 1)]
    picks = draw(st.lists(st.sampled_from(far), max_size=4)) if far else []
    extra = [lit("suc", names[j], names[i]) for j, i in picks]
    body = draw(st.permutations(events + links + extra))
    return names, links, body


class TestOrderedEventsProperties:
    @PROPERTY
    @given(linked_chains())
    def test_order_is_peeled_from_the_links(self, case):
        # the chain's order comes back whatever the body order; a link
        # against it (or a self-loop) makes a cycle, and a missing
        # neighbour link leaves two events unordered: both raise
        names, links, body = case
        h = clause("x", body)
        assert [v for v, _ in ordered_events(h, SCHEMA)] == names
        for j, earlier in enumerate(names):
            for later in names[j:]:
                back = clause("x", (*body, lit("suc", earlier, later)))
                with pytest.raises(UsageError, match="not total"):
                    ordered_events(back, SCHEMA)
        for link in links:
            cut = clause("x", [b for b in body if b != link])
            with pytest.raises(UsageError, match="not total"):
                ordered_events(cut, SCHEMA)


class TestConstraintFileProperties:
    @PROPERTY
    @given(constraint_files())
    def test_parse_constraints_round_trip(self, case):
        text, cons, broken, bad_line = case
        assert parse_constraints(text) == cons
        with pytest.raises(ParseError) as exc:
            parse_constraints(broken)
        assert exc.value.line == bad_line


def _view(situation, source, label, events):
    """An unsaturated view whose facts are its event facts."""
    return Interpretation(situation, source, label, frozenset(events))


@st.composite
def event_streams(draw, source, prefix):
    """One to three events of the source's predicates, with attribute
    values from their domains; times on a coarse grid, so ties occur."""
    decls = [d for d in SCHEMA.event_preds() if d.source == source]
    events = []
    for i in range(draw(st.integers(1, 3))):
        d = draw(st.sampled_from(decls))
        attrs = tuple(draw(st.sampled_from(dom)) for dom in d.domains)
        events.append(Literal(d.name, (f"{prefix}{i}",
                                       str(draw(st.integers(0, 6)) * 250),
                                       *attrs)))
    return events


@st.composite
def views_and_patterns(draw):
    """Two saturated views of one situation, one of them, and a clause
    whose body is some of that view's facts with up to three of their
    event ids turned into variables."""
    cfg = SymbolizationConfig()
    views = [saturate(_view(1, s, "x", draw(event_streams(s, s[0].lower()))),
                      cfg, SCHEMA) for s in ("ECG", "ABP")]
    view = draw(st.sampled_from(views))
    facts = draw(st.lists(st.sampled_from(sorted(view.facts, key=str)),
                          min_size=1, max_size=3, unique=True))
    ids = draw(st.lists(st.sampled_from([e.args[0] for e in view.events]),
                        max_size=3, unique=True))
    theta = {eid: f"V{i}" for i, eid in enumerate(ids)}
    body = tuple(Literal(f.pred, tuple(theta.get(a, a) for a in f.args))
                 for f in facts)
    return views, view, clause("x", body)


class TestCoveragePreservedOnRandomStreams:
    """Property 1: aggregation keeps every view's facts, so a clause that
    covers a view covers the aggregated example."""

    @PROPERTY
    @given(views_and_patterns())
    def test_view_facts_and_coverage_survive_aggregation(self, case):
        views, view, c = case
        [agg] = aggregate(Dataset(tuple(views), SCHEMA, ("x",))).examples
        for v in views:
            assert v.facts <= agg.facts
        for e in (view, agg):
            assert covers(c, e.index)
            assert brute_covers(c, e.facts)


def _summary(ds):
    """aggregate(ds) as plain values (or its error), and its examples."""
    try:
        result = aggregate(ds)
    except UsageError as exc:
        return str(exc), []
    return ([(e.situation, e.label, e.facts) for e in result.examples],
            result.dropped), result.examples


@st.composite
def restriction_chains(draw):
    """A dataset of 2-3 sources with views missing or mislabelled, in any
    order, and the situation sets of a chain of restrictions."""
    sources = draw(st.sampled_from([("ECG", "ABP"), ("ECG", "ABP", "X")]))
    interps = []
    for k in range(1, 6):
        label = draw(st.sampled_from("ab"))
        for s in sources:
            kind = draw(st.sampled_from(("view", "view", "missing",
                                         "mislabelled")))
            if kind == "missing":
                continue
            events = [lit("sys", f"{s}{k}_{i}", str(draw(st.integers(0, 3))))
                      for i in range(draw(st.integers(0, 2)))]
            interps.append(_view(k, s, label if kind == "view"
                                 else {"a": "b", "b": "a"}[label], events))
    ds = Dataset(tuple(draw(st.permutations(interps))), SCHEMA, ("a", "b"))
    keeps = draw(st.lists(st.sets(st.integers(1, 5)), min_size=1,
                          max_size=3))
    return ds, keeps


# situation 2 lacks X: dropped by the dataset, merged by its restriction
# to {2}, which has lost source X
_LOSES_X = Dataset(tuple(_view(k, s, "a", [lit("sys", f"{s}{k}", str(k))])
                         for k, s in [(1, "ECG"), (1, "ABP"), (1, "X"),
                                      (2, "ECG"), (2, "ABP")]),
                   SCHEMA, ("a",))


class TestAggregateSharedByRestrictions:
    @PROPERTY
    @given(restriction_chains())
    @example((_LOSES_X, [{2}]))
    @example((_LOSES_X, [{1, 2}, {2}, {1}]))
    def test_restrictions_aggregate_as_fresh_datasets(self, case):
        """Along a chain of restrictions, aggregate gives what it gives on
        a fresh dataset of the same views, and a later call (after the
        other datasets of the chain filled the shared store) gives the
        same result and the identical example objects.  Datasets of the
        chain with the same sources share each situation's example."""
        ds, keeps = case
        chain = [ds]
        for keep in keeps:
            chain.append(chain[-1].restrict(keep))
        first = []
        shared = {}
        for d in chain:
            got, examples = _summary(d)
            fresh = Dataset(d.interpretations, d.schema, d.classes)
            assert got == _summary(fresh)[0]
            first.append((got, examples))
            for e in examples:
                key = (e.situation, frozenset(d.sources()))
                assert shared.setdefault(key, e) is e
        for d, (got, examples) in zip(chain, first):
            again, examples_again = _summary(d)
            assert again == got
            assert len(examples_again) == len(examples)
            assert all(a is b for a, b in zip(examples_again, examples))

    def test_duplicate_event_id_raises_on_every_call(self):
        ds = Dataset((_view(1, "ECG", "a", [lit("qrs", "e1", "5")]),
                      _view(1, "ABP", "a", [lit("sys", "e1", "9")]),
                      _view(2, "ECG", "a", []), _view(2, "ABP", "a", [])),
                     SCHEMA, ("a",))
        for d in (ds, ds, ds.restrict([1]), ds):
            with pytest.raises(UsageError, match="event id e1 appears on "
                               "two sources in situation 1"):
                aggregate(d)
        assert [e.situation for e in aggregate(ds.restrict([2])).examples] \
            == [2]


class TestPipelineArtifacts:
    def test_bottoms_and_rules_inside_their_bias(self, full_run):
        for label, bottoms in full_run.bottoms.items():
            bias = full_run.class_biases[label]
            for bt in bottoms:
                assert member(bt.clause, bias)
        for label, result in full_run.theory.per_class.items():
            bias = full_run.class_biases[label]
            for c in result.clauses:
                assert member(c, bias)

    def test_bottoms_more_specific_than_monosource_rules(self, full_run):
        for label, bottoms in full_run.bottoms.items():
            ecg_rules = full_run.mono["ECG"].clauses_for(label)
            abp_rules = full_run.mono["ABP"].clauses_for(label)
            for bt in bottoms:
                assert any(theta_subsumes(h, bt.clause) for h in ecg_rules)
                assert any(theta_subsumes(h, bt.clause) for h in abp_rules)

    def test_undetectable_class_flags_incompleteness(self, split_run):
        # vt carries no P-wave information at all: the P-source learner must
        # come back empty-handed with the incompleteness flag, not crash,
        # and the pipeline skips the class when both sources are empty
        _, res = split_run
        vt = res.mono["P"].per_class["vt"]
        assert vt.clauses == () and not vt.complete
        assert any("vt" in w and "skipped" in w for w in res.warnings)

    def test_accepted_clauses_have_no_false_positives(self, full_run):
        for label, result in full_run.theory.per_class.items():
            neg = [e for e in full_run.aggregated if e.label != label]
            for c in result.clauses:
                assert not any(covers(c, e.index) for e in neg)


# SHA-256 of template_text of every synthesized class bias and of its
# bottom clauses' texts, one a line in bias order, per fixture run and
# class; any change to the interleavings, the bottom clauses or their
# DLAB blocks shows here, where the fingerprints see only the theories
SYNTHESIZED = {
    ("full", "af"): ("db00d7f9b24396f9b035ca2bb398c0f2"
                     "7290d21e0723d7d684881c503c9d172b",
                     "34fdfcf7fd5f3bc4fea7c7e965fee021"
                     "0bd9f87828f7007f075bdf97fbeb1399"),
    ("full", "bige"): ("ca004d2ad86b99eac71488371333489c"
                       "5dd6bea40e8aea2e8076715b4c283224",
                       "bae63d89b515c9b6657843bcc9153d70"
                       "e06af5ed5939abbf915d7f9514d30d20"),
    ("full", "doublet"): ("dad234334fd88e37407e996b189a8eec"
                          "230b219a43fcf45d0bfa22f8caaf5ddb",
                          "3730c406326dc73d60fd10f8c19223dc"
                          "24656e0dff2e572e77f016cc6330a6b6"),
    ("full", "sr"): ("95c7c480e4d6110c6e5d35423c149125"
                     "adbd5be48f8fa79164eb88dea14be50e",
                     "f2a66764fcf3c0cc40f1837904df4310"
                     "0f36b2326f381f64e5430e47e996fb5b"),
    ("full", "svt"): ("047236f417b0c31197433aa51671cc12"
                      "a32bec5cb622c00638baa95225a446fd",
                      "65fba6c53855bdc5c30e15b38fe21626"
                      "a327f3231adc0dd83d6f8841363b7fa6"),
    ("full", "ves"): ("76cf9bbc9a24e187ffb676495117d0d0"
                      "3cffd85dc0be13eff121e5510dee964f",
                      "f9205850ff7f80ef84d3a25ba240473f"
                      "7fefde3646dca5f4560d89de8a678a98"),
    ("full", "vt"): ("f5f26741ba48fd9f0a4997f1c4695eb9"
                     "c2395511ce36d3533529e21b6386fbb9",
                     "40fa3ca295f5e37555c07bf6b1b27e01"
                     "76f82e7bb0eedd48a3c3f8301e532443"),
    ("split", "af"): ("e5dc5dd8c12b1194cf4646b05daf8b11"
                      "c08a394b204aa1512bded93a69b7933b",
                      "204c06b4a4a5dbfda1d7f021d21c2d3f"
                      "72366f0254650f2ff9a7abfdda28926c"),
    ("split", "bige"): ("acb12ef335456f95f0794dd3f08f0321"
                        "93153186844c67bdf5d580daeaad33e6",
                        "793724b52efb06b089e4b63b6ca45b55"
                        "a13b8b32f2c7ef5c0b50520ca9f1e7c2"),
    ("split", "doublet"): ("80d76fca9f2c5ae1a9ef5c05020af9c8"
                           "4e8ba4a08859b1fe376cf796cb875c89",
                           "7b94ac3ef6441cd8faf5b23c121821de"
                           "bac2533b52415191235bbdc50411d1dd"),
    ("split", "sr"): ("d6cc66d1979d6b2897fb17269612cf3b"
                      "0c28d8f395cc26e65f9d6e32b8c33f3f",
                      "a0f81273324102ca412ae0bf3fcc12bd"
                      "78533514f7c507d281acc65b5cdb5b01"),
    ("split", "svt"): ("5b654e0e3c0c7ab7e030afce18581364"
                       "7416c25f815bf8d98e7faea36b3c1eac",
                       "69391994b661bb6f41ad9d3ab27b41f1"
                       "1f24f2ca5b0f2f38a91584f74d2dba18"),
    ("split", "ves"): ("e0fa24570bb8b50c08c6e2c44aba6cbf"
                       "aab8e49cb6bb774acea1fc2cb0f0442e",
                       "554b15d4d1546f1ae08d181328953369"
                       "e84dceb4831b82b803f37cf160d7f363"),
    ("redundant", "af"): ("d3141cb8009bbe4820943e247301a127"
                          "c1797ef618a796f6279d46c8fb5a5e07",
                          "476c7374e7b8baf2da725cfafc8f04e5"
                          "997cf7368617c3535f62071f916a390b"),
    ("redundant", "bige"): ("9da67e5c477d99c881c4498433cc34f7"
                            "ac0a19f8eca322fd26c81d4b191b94bb",
                            "7975426682674fcb562d37ac43b24f97"
                            "265f6c50447b61d4415ec75e7aa90b56"),
    ("redundant", "doublet"): ("7c2eabe1586a0a959491df7c9fa5e750"
                               "2e3c8182244a5334c37d7670566d391b",
                               "052539ad0114d0bd9d28311db29a8ab5"
                               "3ed98655ff1f1b66402a97589fb976b9"),
    ("redundant", "sr"): ("54dcfb09bd0c80cbd0030fcd216ee3d3"
                          "f321d6ec1a7c9b5a7184e75d16c41a67",
                          "ca2d5028f2b78f606e970cc92791d42e"
                          "8f47d4a91f578a0bc440651c337aa5ac"),
    ("redundant", "svt"): ("6a1f42c7ea62b68eabfcae50ac65caf2"
                           "959940b6f5f817b337e2e35a53798688",
                           "267f09d35101ef74c031a80a6723732e"
                           "80b28771a4f095bc6acd96d161f2ecf9"),
    ("redundant", "ves"): ("db573752afe42b72936debd0190e74d0"
                           "f79e0682b350f8ab1f1ad8e7fa079995",
                           "8e3f92702893a4ecc91b351f0d08c540"
                           "061a473b8470b756a13d305ecb0283cf"),
    ("redundant", "vt"): ("c2e0a4eb1658e71a115e16b4aeb83a72"
                          "f52eb1e0c58c4aa517586632fe59d353",
                          "7ad0243b4fc1b16865de80ad1820adf3"
                          "5ac90b9ab360a97617ffd3a2c2dcfce4"),
}


def test_synthesized_biases_pinned(full_run, split_run, redundant_run):
    got = {}
    for mode, res in (("full", full_run), ("split", split_run[1]),
                      ("redundant", redundant_run[1])):
        for label, bias in res.class_biases.items():
            bottoms = "\n".join(str(bt.clause) for bt in res.bottoms[label])
            got[mode, label] = tuple(
                hashlib.sha256(text.encode()).hexdigest()
                for text in (template_text(bias), bottoms))
    assert got == SYNTHESIZED


# two situations per class, each one view per source
SMALL = GeneratorConfig(seed=1, per_class=2)
SMALL_SITUATIONS = SMALL.per_class * len(CLASSES)


def _learned(theory):
    """A theory's clauses, node counts and completeness per class."""
    return {label: ([str(c) for c in r.clauses], r.stats.nodes, r.complete)
            for label, r in theory.per_class.items()}


def _runs(interpretations_order, aggregated_order):
    """The biased pipeline on the SMALL dataset with its interpretations
    in the given order, and the naive learner on its aggregated examples in
    the other given order; built from fresh data and biases each time, so
    no memo or refine cache carries over from an earlier run."""
    ds = generate_dataset(SMALL)
    views = ds.interpretations
    shuffled = Dataset(tuple(views[i] for i in interpretations_order),
                       ds.schema, ds.classes)
    res = biased_multisource_learn(shuffled, monosource_biases("full"),
                                   [DIAS_SYS])
    depth = max(deepest_bottom_events(b) for b in res.bottoms.values())
    examples = aggregate(shuffled).examples
    naive = learn_theory([examples[i] for i in aggregated_order],
                         naive_bias(ds.schema, depth))
    return ({s: _learned(res.mono[s]) for s in ("ECG", "ABP")},
            _learned(res.theory), depth, _learned(naive))


@pytest.fixture(scope="module")
def small_runs():
    return _runs(range(2 * SMALL_SITUATIONS), range(SMALL_SITUATIONS))


class TestOrderIndependence:
    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(st.permutations(range(2 * SMALL_SITUATIONS)),
           st.permutations(range(SMALL_SITUATIONS)))
    # reversed, the dataset lists its sources as ABP, ECG
    @example(list(reversed(range(2 * SMALL_SITUATIONS))),
             list(reversed(range(SMALL_SITUATIONS))))
    def test_shuffled_examples_learn_the_same(self, small_runs, views,
                                              examples):
        """Shuffling the interpretations changes neither the monosource nor
        the final theories and node counts of the biased pipeline, even
        when the source order flips; shuffling the aggregated examples
        changes nothing the naive learner finds."""
        assert _runs(views, examples) == small_runs


def _passes(result):
    """Each pass of a pipeline run as (clauses, nodes, complete) per
    class: the monosource passes by source, then the second pass."""
    def learned(theory):
        return {label: (r.clauses, r.stats.nodes, r.complete)
                for label, r in theory.per_class.items()}

    return {s: learned(t) for s, t in result.mono.items()}, \
        learned(result.theory)


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_random_two_source_pipeline_matches_the_reference(seed):
    """On random two-source data, biased_multisource_learn builds the
    bottom clauses and learns the passes of oracles.reference_pipeline:
    per class the same bottom-clause bodies, and every monosource pass
    and the second pass (under the pipeline's own class bias) equal to
    the plain search on clauses, nodes and completeness.  Property 1
    holds too: a monosource rule covers a view exactly when it covers
    the view's aggregated example."""
    ds = random_two_source(seed)
    biases = monosource_biases("full")
    result = biased_multisource_learn(ds, biases, [DIAS_SYS])
    mono, bottoms, agg = reference_pipeline(
        ds, biases, [DIAS_SYS], LearnerParams(), fresh_index_covers(),
        result.class_biases)
    assert {label: {body_key(bt.clause.body) for bt in bts}
            for label, bts in result.bottoms.items()} == bottoms
    assert _passes(result) == (mono, agg)

    by_situation = {e.situation: e for e in result.aggregated}
    for source, theory in result.mono.items():
        for label in theory.per_class:
            for h in theory.clauses_for(label):
                for e in ds.by_source(source):
                    if e.situation in by_situation:
                        assert covers(h, e.index) == \
                            covers(h, by_situation[e.situation].index)
