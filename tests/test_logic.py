import random
from collections import Counter

import pytest
from conftest import ECG_BLOCK, random_ground_facts, random_small_clause
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (brute_covers, brute_first_substitution, brute_groundings,
                     brute_subsumes)

from relic import UsageError, parse_model_file
from relic.logic import (Clause, FactIndex, Literal, PredicateDecl,
                         PredicateSchema, apply_substitution,
                         canonical_text, clause, covers,
                         find_covering_substitution, grounding, lit,
                         standardize_apart, theory_covers, theta_subsumes)


class TestLiteral:
    """A fact is its own (pred, args) key: equal to the pair, hashed alike,
    with its text and repr as before."""

    def test_equals_its_pair(self):
        assert lit("p", "a") == ("p", ("a",))
        assert hash(lit("p", "a")) == hash(("p", ("a",)))
        assert str(lit("p", "a", "b")) == "p(a,b)"
        assert str(Literal("q")) == "q"
        assert repr(lit("p", "a")) == "Literal(pred='p', args=('a',))"


class TestApplySubstitution:
    def test_direct_replacement(self):
        assert apply_substitution(lit("p", "X", "normal"), {"X": "p7"}) \
            == lit("p", "p7", "normal")

    def test_identity(self):
        literal = lit("p", "X", "normal")
        assert apply_substitution(literal, {}) == literal

    def test_two_bindings(self):
        assert apply_substitution(lit("suc", "X", "Y"),
                                  {"X": "r8", "Y": "r7"}) == lit("suc", "r8", "r7")


class TestThetaSubsumes:
    def test_body_subset(self):
        c = clause("x", (lit("qrs", "A", "normal"),))
        d = clause("x", (lit("qrs", "A", "normal"), lit("p", "B", "normal")))
        assert theta_subsumes(c, d)

    def test_reflexive(self):
        c = clause("x", (lit("qrs", "A", "abnormal"), lit("suc", "B", "A")))
        assert theta_subsumes(c, c)

    def test_attribute_mismatch(self):
        c = clause("x", (lit("qrs", "A", "abnormal"),))
        d = clause("x", (lit("qrs", "B", "normal"),))
        assert not brute_subsumes(c, d)
        assert not theta_subsumes(c, d)

    def test_agrees_with_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            c = random_small_clause(rng, max_body=3)
            d = random_small_clause(rng, max_body=3)
            assert theta_subsumes(c, d) == brute_subsumes(c, d)

    def test_transitive_on_samples(self):
        rng = random.Random(13)
        hits = 0
        while hits < 50:
            c = random_small_clause(rng, max_body=2)
            d = random_small_clause(rng, max_body=3)
            e = random_small_clause(rng, max_body=3)
            if theta_subsumes(c, d) and theta_subsumes(d, e):
                hits += 1
                assert theta_subsumes(c, e)


class TestCovers:
    def test_doublet_block_witness(self):
        from relic import SymbolizationConfig, saturate
        from relic.synth import cardiac_schema

        interp = saturate(parse_model_file(ECG_BLOCK)[0],
                          SymbolizationConfig(), cardiac_schema("full"))
        c = clause("doublet", (lit("qrs", "X", "abnormal"),
                               lit("qrs", "Y", "abnormal"),
                               lit("suc", "Y", "X")))
        assert covers(c, interp.facts)
        assert find_covering_substitution(c, interp.facts) == {"X": "r8",
                                                               "Y": "r9"}

    def test_empty_body_vacuous(self):
        assert covers(clause("x", ()), set())

    def test_missing_predicate(self):
        facts = {lit("dias", "pd4", "80"), lit("sys", "ps4", "120")}
        assert not covers(clause("x", (lit("p", "Z", "normal"),)), facts)

    def test_literal_planned_once_per_index(self):
        """An index keeps each literal's step: an equal literal of a later
        clause gets the same step, and a literal whose constants allow no
        row gets None, which fails every clause holding it."""
        index = FactIndex(CHAIN_FACTS)
        assert find_covering_substitution(CHAIN, index) == {"X": "a",
                                                            "Y": "b"}
        step = index.step(lit("q", "X", "Y"))
        assert step is not None and step is index.step(CHAIN.body[0])
        assert index.step(lit("q", "c", "Y")) is None
        assert not covers(clause("x", (lit("p", "X"), lit("q", "c", "Y"))),
                          index)

    def test_agrees_with_oracle(self):
        rng = random.Random(17)
        for _ in range(300):
            c = random_small_clause(rng)
            facts = random_ground_facts(rng)
            assert covers(c, facts) == brute_covers(c, facts)

    def test_generality_soundness(self):
        # theta_subsumes(c, d) means d is more specific: whatever d covers,
        # c covers as well
        rng = random.Random(19)
        checked = 0
        while checked < 120:
            c = random_small_clause(rng, max_body=3)
            d = random_small_clause(rng, max_body=4)
            if not theta_subsumes(c, d):
                continue
            facts = random_ground_facts(rng)
            if covers(d, facts):
                assert covers(c, facts)
            checked += 1


PREDS = (("p", 1), ("p", 2), ("q", 2), ("r", 3), ("s", 0))
CONSTS = ("a", "b", "c")
VARIABLES = ("X", "Y", "Z")
# variables drawn more often than constants, so that body literals share
# variables and the most constrained literal is often not the next one in
# body order
TERMS = (*VARIABLES, *VARIABLES, *CONSTS)


def literals(terms):
    return st.sampled_from(PREDS).flatmap(
        lambda pa: st.tuples(*[st.sampled_from(terms)] * pa[1]).map(
            lambda args: Literal(pa[0], args)))


def clauses(labels=("x",)):
    return st.builds(Clause,
                     st.sampled_from(labels).map(lambda l: lit("class", l)),
                     st.lists(literals(TERMS), min_size=1,
                              max_size=5).map(tuple))


@st.composite
def instances(draw, pattern, terms):
    """The pattern literals under a few random substitutions into terms
    (competing groundings), one to three of them replaced by a near miss
    with one argument redrawn from terms."""
    thetas = draw(st.lists(st.fixed_dictionaries(
        {v: st.sampled_from(terms) for v in VARIABLES}), min_size=1,
        max_size=3))
    near = sorted({apply_substitution(b, theta)
                   for theta in thetas for b in pattern}, key=str)
    out = set(near)
    for miss in draw(st.lists(st.sampled_from(near), min_size=1, max_size=3,
                              unique=True)):
        out.discard(miss)
        if miss.args:
            pos = draw(st.integers(0, len(miss.args) - 1))
            args = list(miss.args)
            args[pos] = draw(st.sampled_from(terms))
            out.add(Literal(miss.pred, tuple(args)))
    return out


@st.composite
def clause_and_facts(draw):
    c = draw(clauses())
    noise = draw(st.frozensets(literals(CONSTS), max_size=4))
    return c, frozenset(draw(instances(c.body, CONSTS)) | noise)


@st.composite
def sub_body_and_facts(draw):
    """A clause and facts as clause_and_facts draws them, plus the same
    clause with some of its body literals dropped."""
    c, facts = draw(clause_and_facts())
    keep = draw(st.lists(st.booleans(), min_size=len(c.body),
                         max_size=len(c.body)))
    shorter = Clause(c.head, tuple(b for b, k in zip(c.body, keep) if k))
    return c, shorter, facts


@st.composite
def warm_index_cases(draw):
    """A clause and facts as clause_and_facts draws them, plus earlier
    clauses built from the same literal objects (the clause's own and a
    few more), so that matching those first leaves the index with steps
    and columns that the later calls reuse."""
    c, facts = draw(clause_and_facts())
    pool = [*c.body, *draw(st.lists(literals(TERMS), max_size=3))]
    earlier = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1,
                                     max_size=5), max_size=4))
    return c, facts, [Clause(c.head, tuple(body)) for body in earlier]


@st.composite
def clause_pairs(draw):
    """c, and a d that is often an instance of c: c's literals under a
    substitution that may map to d's own variables, plus extra literals."""
    c = draw(clauses(("x", "y", "L")))
    near = draw(instances((c.head, *c.body), TERMS))
    heads = [h for h in near if h.pred == "class"] or [lit("class", "x")]
    body = [b for b in near if b.pred != "class"]
    extra = draw(st.lists(literals(TERMS), max_size=2))
    return c, Clause(heads[0], tuple(sorted(body, key=str)) + tuple(extra))


EMPTY_BODY = clause("x", ())
# a ground literal next to a non-ground one
WITH_GROUND = clause("x", (lit("q", "a", "b"), lit("p", "X", "a")))
# left to right the first grounding is X=a, Y=b; matching p(Y) first
# would meet X=b, Y=a first
CHAIN = clause("x", (lit("q", "X", "Y"), lit("p", "Y"), lit("s")))
CHAIN_FACTS = frozenset({lit("q", "a", "b"), lit("q", "b", "a"),
                         lit("p", "a"), lit("p", "b"), lit("p", "c", "c"),
                         lit("s")})
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


class TestMatcherProperties:
    """The matcher against the brute-force oracles on random clauses."""

    @PROPERTY
    @given(clause_and_facts())
    @example((EMPTY_BODY, frozenset()))
    @example((EMPTY_BODY, CHAIN_FACTS))
    @example((WITH_GROUND, CHAIN_FACTS))
    @example((WITH_GROUND, frozenset({lit("q", "a", "b"),
                                      lit("p", "b", "a")})))
    @example((CHAIN, CHAIN_FACTS))
    def test_covers(self, case):
        c, facts = case
        assert covers(c, facts) == brute_covers(c, facts)

    @PROPERTY
    @given(sub_body_and_facts())
    @example((CHAIN, clause("x", CHAIN.body[1:]), CHAIN_FACTS))
    @example((CHAIN, EMPTY_BODY, frozenset()))
    def test_coverage_monotone(self, case):
        """A body covers whatever any body extending it covers; the
        learner scores an additive child only on its parent's cover."""
        longer, shorter, facts = case
        wide, narrow = covers(shorter, facts), covers(longer, facts)
        assert narrow == brute_covers(longer, facts)
        assert wide == brute_covers(shorter, facts)
        assert wide or not narrow

    @PROPERTY
    @given(sub_body_and_facts())
    @example((CHAIN, EMPTY_BODY, CHAIN_FACTS))
    @example((CHAIN, clause("x", CHAIN.body[:1]), CHAIN_FACTS))
    # X = a, Y = b grounds q(X,Y) but does not extend over p(Y)
    @example((CHAIN, clause("x", CHAIN.body[:1]),
              frozenset({lit("q", "a", "b"), lit("q", "b", "c"),
                         lit("p", "c"), lit("s")})))
    def test_extension_with_fallback(self, case):
        """From every grounding of a shorter body, extending it over the
        longer body's extra literals, with a full search where that fails,
        decides the longer body as the oracle does; an extension found is
        a grounding of the longer body that keeps the shorter one's."""
        longer, shorter, facts = case
        extra = tuple(
            (Counter(longer.body) - Counter(shorter.body)).elements())
        want = brute_covers(longer, facts)
        index = FactIndex(facts)
        for start in brute_groundings(shorter, facts):
            plan = index.plan(extra)
            found = grounding(plan, index, start)
            if found is not None:
                assert start.items() <= found.items()
                assert all(apply_substitution(b, found) in facts
                           for b in longer.body)
            got = found is not None or (plan is not None
                                        and covers(longer, index))
            assert got == want

    @PROPERTY
    @given(warm_index_cases())
    @example((EMPTY_BODY, frozenset(), []))
    @example((CHAIN, CHAIN_FACTS, []))
    @example((CHAIN, CHAIN_FACTS, [clause("x", CHAIN.body[::-1]),
                                   clause("x", CHAIN.body[1:])]))
    def test_first_substitution(self, case):
        """On one index, every answer equals the oracle's, whichever steps
        and columns the calls before it planned and kept there."""
        c, facts, earlier = case
        index = FactIndex(facts)
        for d in earlier:
            assert covers(d, index) == brute_covers(d, facts)
        found = find_covering_substitution(c, index)
        assert found == brute_first_substitution(c, facts)
        assert covers(c, index) == (found is not None)

    @PROPERTY
    @given(clause_pairs())
    @example((EMPTY_BODY, EMPTY_BODY))
    @example((WITH_GROUND, clause("x", WITH_GROUND.body[::-1])))
    @example((CHAIN, clause("x", (lit("q", "Y", "X"), lit("p", "X"),
                                  lit("s")))))
    def test_theta_subsumes(self, case):
        c, d = case
        assert theta_subsumes(c, d) == brute_subsumes(c, d)


class TestTheoryCovers:
    FACTS = {lit("qrs", "r1", "abnormal")}

    def test_empty_theory(self):
        assert not theory_covers((), self.FACTS)

    def test_one_covering_clause(self):
        good = clause("x", (lit("qrs", "A", "abnormal"),))
        bad = clause("x", (lit("p", "A", "normal"),))
        assert theory_covers((bad, good), self.FACTS)

    def test_all_non_covering(self):
        bad1 = clause("x", (lit("p", "A", "normal"),))
        bad2 = clause("x", (lit("sys", "A", "low"),))
        assert not theory_covers((bad1, bad2), self.FACTS)


class TestStandardizeApart:
    def test_collision_renamed(self):
        c1 = clause("x", (lit("qrs", "R0", "normal"),))
        c2 = clause("x", (lit("qrs", "R0", "abnormal"), lit("suc", "R0", "R1")))
        a, b = standardize_apart(c1, c2)
        assert a == c1
        assert b.body[0] == lit("qrs", "R0_2", "abnormal")
        assert set(a.variables()).isdisjoint(b.variables())

    def test_disjoint_unchanged(self):
        c1 = clause("x", (lit("qrs", "R0", "normal"),))
        c2 = clause("x", (lit("p", "P0", "normal"),))
        assert standardize_apart(c1, c2) == (c1, c2)

    def test_ground_unchanged(self):
        c1 = clause("x", (lit("qrs", "r1", "normal"),))
        c2 = clause("x", (lit("qrs", "r1", "abnormal"),))
        assert standardize_apart(c1, c2) == (c1, c2)


class TestSchema:
    def test_duplicate_declaration_rejected(self):
        with pytest.raises(UsageError):
            PredicateSchema((PredicateDecl("p", "event", "ECG"),
                             PredicateDecl("p", "event", "ABP")))

    def test_unknown_role_rejected(self):
        with pytest.raises(UsageError):
            PredicateDecl("p", "thing", "ECG")

    def test_unknown_derivation_kind_rejected(self):
        with pytest.raises(UsageError, match="derivation kind 'previous'"):
            PredicateDecl("rr", "relational", argspec=("a", "b", "cat"),
                          derive=("previous", "qrs"))

    def test_unknown_timing_scale_rejected(self):
        with pytest.raises(UsageError, match="timing scale 'bar'"):
            PredicateDecl("rr", "relational", argspec=("a", "b", "cat"),
                          derive=("consecutive", "qrs"), scale="bar")


def test_canonical_text_order_insensitive():
    a = clause("x", (lit("p", "A"), lit("q", "A", "B")))
    b = clause("x", (lit("q", "A", "B"), lit("p", "A")))
    assert canonical_text(a) == canonical_text(b)
    assert str(a) != str(b)
