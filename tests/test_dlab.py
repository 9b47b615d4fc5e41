import random
import re
from collections import Counter

import pytest
from conftest import assert_refinement_record, random_grammar
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relic import BiasError, ParseError, UsageError
from relic.dlab import (MAX_NESTING, DlabTemplate, Selection, choice,
                        compile_template, count_space, enumerate_bodies,
                        enumerate_selections, induce_body, literal, member,
                        parse_dlab, refine, start_selection, template_text)
from relic.logic import Clause, clause, lit

BEAT_GRAMMAR = """
len-len:[
  p(P1,1-1:[normal,abnormal]),
  suc(P1,R0),
  qrs(R1,1-1:[normal,abnormal]),
  suc(R1,P1),
  0-len:[rr(R0,R1,1-1:[short,normal,long]),
         pr(P1,R1,1-1:[short,normal,long])],
  0-len:[
    len-len:[p(P2,1-1:[normal,abnormal]),
             suci(P2,R1),
             pp(P1,P2,1-1:[short,normal,long])],
    len-len:[qrs(R2,1-1:[normal,abnormal]),
             suc(R2,R1),
             0-1:[rr(R1,R2,1-1:[short,normal,long])]]
  ]
]
"""


@pytest.fixture(scope="module")
def beat_grammar():
    return parse_dlab(BEAT_GRAMMAR)


class TestParse:
    def test_terminal_with_inline_choice(self):
        t = parse_dlab("p(P1,1-1:[normal,abnormal])")
        assert count_space(t) == 2
        assert enumerate_bodies(t) == [(lit("p", "P1", "normal"),),
                                       (lit("p", "P1", "abnormal"),)]

    def test_optional_block(self):
        t = parse_dlab("0-len:[rr(R0,R1,1-1:[short,normal,long])]")
        assert count_space(t) == 4  # absent, or one of three categories

    def test_min_over_max_rejected(self):
        with pytest.raises(BiasError):
            parse_dlab("2-1:[a]")

    def test_unbalanced_brackets(self):
        with pytest.raises(ParseError):
            parse_dlab("1-1:[a,b")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_dlab("1-1:[a] junk")

    def test_comments_ignored(self):
        t = parse_dlab("1-1:[a, % comment\n b]")
        assert count_space(t) == 2

    @pytest.mark.parametrize("text, message", [
        ("1-1:[(\n]", "line 1: expected literal, found '('"),
        ("1-x\n:[a]", "line 1: expected bound, found 'x'"),
        ("1-1:[p((\n)]", "line 1: expected term, found '('"),
    ])
    def test_error_names_the_tokens_own_line(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_dlab(text)
        assert str(err.value) == message

    def test_inline_choice_elements_must_be_terms(self):
        with pytest.raises(ParseError) as err:
            parse_dlab("1-1:[p(1-1:[a,(\n])]")
        assert str(err.value) == "line 1: expected term, found '('"
        with pytest.raises(ParseError) as err:
            parse_dlab("1-1:[p(1-1:[a,\n,])]")
        assert str(err.value) == "line 2: expected term, found ','"

    def test_nesting_at_the_limit(self):
        t = parse_dlab("1-1:[" * MAX_NESTING + "a" + "]" * MAX_NESTING)
        assert count_space(t) == 1
        assert [c.text for c in refine(t, start_selection(t))] == ["a"]

    def test_text_round_trip(self, beat_grammar):
        again = parse_dlab(template_text(beat_grammar))
        assert count_space(again) == count_space(beat_grammar)
        assert sorted(map(str, enumerate_bodies(again))) == \
            sorted(map(str, enumerate_bodies(beat_grammar)))


class TestCountSpace:
    def test_variable_arity_inline_choice(self):
        t = parse_dlab("p(2-len:[el1,el2,el3])")
        assert count_space(t) == 4
        assert [b[0] for b in enumerate_bodies(t)] == [
            lit("p", "el1", "el2"), lit("p", "el1", "el3"),
            lit("p", "el2", "el3"), lit("p", "el1", "el2", "el3")]

    def test_pick_one(self):
        assert count_space(parse_dlab("1-1:[a,b]")) == 2

    def test_any_subset(self):
        t = parse_dlab("0-len:[a,b]")
        assert count_space(t) == 4
        assert count_space(t) == len(enumerate_bodies(t))

    def test_beat_grammar_count(self, beat_grammar):
        assert count_space(beat_grammar) == len(enumerate_bodies(beat_grammar)) == 4032


class TestEnumerate:
    def test_pick_one_order(self):
        assert enumerate_bodies(parse_dlab("1-1:[a,b]")) == [(lit("a"),),
                                                             (lit("b"),)]

    def test_zero_zero(self):
        assert enumerate_bodies(parse_dlab("0-0:[a]")) == [()]

    def test_limit_refused(self):
        with pytest.raises(UsageError, match="4032"):
            enumerate_bodies(parse_dlab(BEAT_GRAMMAR), limit=100)

    def test_beat_grammar_contains_known_clauses(self, beat_grammar):
        bodies = {tuple(sorted(map(str, b))) for b in enumerate_bodies(beat_grammar)}
        cx = (lit("p", "P1", "normal"), lit("suc", "P1", "R0"),
              lit("qrs", "R1", "abnormal"), lit("suc", "R1", "P1"),
              lit("pr", "P1", "R1", "short"))
        cy = (lit("p", "P1", "normal"), lit("suc", "P1", "R0"),
              lit("qrs", "R1", "normal"), lit("suc", "R1", "P1"),
              lit("pr", "P1", "R1", "long"), lit("p", "P2", "abnormal"),
              lit("suci", "P2", "R1"), lit("pp", "P1", "P2", "short"),
              lit("qrs", "R2", "abnormal"), lit("suc", "R2", "R1"))
        assert tuple(sorted(map(str, cx))) in bodies
        assert tuple(sorted(map(str, cy))) in bodies


class TestMember:
    def test_known_beat_clause(self, beat_grammar):
        cx = clause("x", (lit("p", "P1", "normal"), lit("suc", "P1", "R0"),
                          lit("qrs", "R1", "abnormal"), lit("suc", "R1", "P1"),
                          lit("pr", "P1", "R1", "short")))
        assert member(cx, beat_grammar)

    def test_unknown_constant(self, beat_grammar):
        assert not member(clause("x", (lit("qrs", "R1", "weird"),)), beat_grammar)

    def test_empty_body_outside_beat_grammar(self, beat_grammar):
        assert not member(clause("x", ()), beat_grammar)

    def test_body_order_irrelevant(self, beat_grammar):
        body = (lit("suc", "R1", "P1"), lit("qrs", "R1", "normal"),
                lit("suc", "P1", "R0"), lit("p", "P1", "normal"))
        assert member(clause("x", body), beat_grammar)


class TestRefine:
    def test_minimal_extension(self):
        t = compile_template(choice(1, 1, choice(
            "len", "len", literal("a"), choice(0, 1, literal("b")))))
        [start] = refine(t, start_selection(t))
        assert start.body == (lit("a"),)
        [nxt] = refine(t, start.sel)
        assert nxt.body == (lit("a"), lit("b"))
        assert nxt.text == "a, b"

    def test_saturated_has_no_successors(self):
        t = compile_template(choice(1, 1, literal("a"), literal("b")))
        [s1, s2] = refine(t, start_selection(t))
        assert refine(t, s1.sel) == []

    def test_root_minimal_on_pick_one(self):
        t = parse_dlab("1-1:[a,b]")
        succ = refine(t, start_selection(t))
        assert [s.body for s in succ] == [(lit("a"),), (lit("b"),)]

    # node ids in preorder: 0 root, 1 p, 2 p's inline choice, 3 the
    # optional block, 4 q, 5 q's inline choice, 6 the block's 1-1 choice,
    # 7 u, 8 v, 9 the 1-2 choice, 10 r, 11 s, 12 t
    PICKY = "len-len:[p(1-1:[a,b]), 0-1:[q(X,1-2:[c,d,e]), 1-1:[u,v]], " \
            "1-2:[r,s,t]]"
    VALID = {0: (0, 1, 2), 2: (0,), 9: (0,)}

    @pytest.mark.parametrize("change", [
        {9: ()},                  # too few picks on a reached choice
        {0: (0, 1)},              # too few on the root
        {9: (0, 1, 2)},           # too many on a reached choice
        {2: (0, 1)},              # too many on a reached inline choice
        {9: (3,)},                # child index out of range
        {9: (-1,)},
        {2: (2,)},                # element index out of range
        {9: (0, 0)},              # a child chosen twice
        {9: (1, 0)},              # picks out of order
        {6: (0,)},                # pick on a choice under the unchosen block
        {5: (0,)},                # inline pick under an unreached terminal
    ])
    def test_invalid_selection_refused(self, change):
        t = parse_dlab(self.PICKY)
        assert refine(t, Selection(tuple(sorted(self.VALID.items()))))
        picks = {**self.VALID, **change}
        sel = Selection(tuple(sorted((k, v) for k, v in picks.items() if v)))
        with pytest.raises(UsageError, match="refine requires a valid or "
                           "empty start selection"):
            refine(t, sel)

    def test_empty_selection_yields_root_completions(self):
        t = parse_dlab(self.PICKY)
        got = refine(t, Selection(()))
        assert [c.text for c in got] == [f"{p}, {x}" for p in ("p(a)", "p(b)")
                                         for x in "rst"]
        assert all(c.additive for c in got)

    def test_terminal_root_children_rewrite_its_literal(self):
        """The empty start of a terminal root induces the root's literal,
        which every child rewrites, so no child is additive."""
        t = parse_dlab("p(X,1-2:[a,b])")
        first = refine(t, start_selection(t))
        assert [(c.text, c.additive) for c in first] == [
            ("p(X,a)", False), ("p(X,b)", False)]
        assert [(c.text, c.additive) for c in refine(t, first[0].sel)] == [
            ("p(X,a,b)", False)]


def _text(body) -> str:
    """A body's text as refine reports it: sorted literal texts joined."""
    return ", ".join(sorted(map(str, body)))


def _reachable_bodies(t: DlabTemplate, cap: int = 20000) -> set:
    seen = set()
    frontier = [start_selection(t)]
    visited = set()
    while frontier:
        nxt = []
        for s in frontier:
            if s.picks in visited:
                continue
            visited.add(s.picks)
            for r in refine(t, s):
                seen.add(r.text)
                nxt.append(r.sel)
                assert len(seen) <= cap
        frontier = nxt
    return seen


class TestFuzz:
    """count/enumerate/member agree on a random grammar corpus."""

    CORPUS = 60

    def _grammars(self):
        rng = random.Random(20250809)
        made = 0
        while made < self.CORPUS:
            spec = random_grammar(rng)
            try:
                t = compile_template(spec)
            except BiasError:
                continue
            if count_space(t) > 3000:
                continue
            made += 1
            yield t

    def test_count_matches_enumeration(self):
        for t in self._grammars():
            assert count_space(t) == len(enumerate_selections(t))

    def test_member_matches_enumeration(self):
        rng = random.Random(99)
        for t in self._grammars():
            bodies = enumerate_bodies(t)
            keys = {tuple(sorted(map(str, b))) for b in bodies}
            for b in rng.sample(bodies, min(5, len(bodies))):
                assert member(Clause(lit("class", "x"), b), t)
            # mutated clauses outside the space
            for b in rng.sample(bodies, min(3, len(bodies))):
                mutated = b + (lit("zz", "Q"),)
                assert not member(Clause(lit("class", "x"), mutated), t)


@st.composite
def small_templates(draw):
    """A compiled random grammar from conftest.random_grammar spanning at
    most 400 selections."""
    spec = random_grammar(random.Random(draw(st.integers(0, 2**32 - 1))))
    try:
        t = compile_template(spec)
    except BiasError:
        assume(False)
    assume(count_space(t) <= 400)
    return t


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


class TestRefineProperties:
    """refine's child records and the grammar text on random grammars."""

    @PROPERTY
    @given(small_templates())
    def test_children_carry_their_body_and_text(self, t):
        for sel in [start_selection(t), *enumerate_selections(t)[:40]]:
            parent_text = _text(induce_body(t, sel))
            children = refine(t, sel)
            for child in children:
                assert_refinement_record(t, sel, child)
                assert child.text != parent_text
            # sorted by the tuple of sorted literal texts, then by picks
            keys = [(tuple(sorted(map(str, c.body))), c.sel.picks)
                    for c in children]
            assert keys == sorted(set(keys))

    @PROPERTY
    @given(small_templates())
    def test_refinement_complete(self, t):
        """Every body of the space is reached from the start selection
        through refine, as beam completeness assumes (strictness is checked
        by test_children_carry_their_body_and_text)."""
        want = {_text(b) for b in enumerate_bodies(t)}
        start_text = _text(induce_body(t, start_selection(t)))
        assert _reachable_bodies(t) | {start_text} >= want

    @PROPERTY
    @given(small_templates(), st.data())
    def test_cached_children_equal_a_fresh_template(self, t, data):
        """refine answers from the template's cache in any call order, and
        each answer equals the first refine of a freshly compiled copy."""
        sels = [start_selection(t), *enumerate_selections(t)[:40]]
        order = [*data.draw(st.permutations(sels)),
                 *data.draw(st.lists(st.sampled_from(sels), max_size=20))]
        want = {}
        for sel in order:
            if sel not in want:
                fresh = parse_dlab(template_text(t))
                want[sel] = refine(fresh, sel)
            got = refine(t, sel)
            assert got == want[sel]
            parent = Counter(induce_body(t, sel))
            for child in got:
                assert child.additive == (not (parent - Counter(child.body)))
            got.clear()
            got.append(None)
            assert refine(t, sel) == want[sel]

    @PROPERTY
    @given(small_templates(), st.data())
    def test_blanks_and_comments_between_tokens(self, t, data):
        """The grammar text with any mix of spaces, newlines and comments
        between its tokens parses to the same grammar."""
        text = template_text(t)
        toks = re.findall(r"[A-Za-z_][A-Za-z0-9_]*|\d+|\S", text)
        seps = data.draw(st.lists(st.sampled_from([" ", "\n", " % note\n"]),
                                  min_size=len(toks), max_size=len(toks)))
        again = parse_dlab("".join(s + tok for s, tok in zip(seps, toks)))
        assert template_text(again) == text
        assert count_space(again) == count_space(t)

    @PROPERTY
    @given(small_templates())
    def test_text_round_trip(self, t):
        again = parse_dlab(template_text(t))
        assert template_text(again) == template_text(t)
        assert count_space(again) == count_space(t)
        assert refine(again, start_selection(again)) == \
            refine(t, start_selection(t))
