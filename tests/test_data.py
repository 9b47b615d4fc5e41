import functools
import operator

import pytest
from conftest import ECG_BLOCK, ABP_BLOCK
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_parse_model_file

from relic import (GeneratorConfig, ParseError, SymbolizationConfig,
                   UsageError, aggregate, generate_dataset, parse_model_file,
                   write_model_file)
from relic.data import (SUC_WINDOW, Dataset, FactUnion, Interpretation,
                        saturate)
from relic.logic import Literal, lit
from relic.synth import MODES, cardiac_schema, generate_example

CFG = SymbolizationConfig()
SCHEMA = cardiac_schema("full")


class TestParse:
    def test_ecg_block(self):
        interps = parse_model_file(ECG_BLOCK)
        assert len(interps) == 1
        i = interps[0]
        assert (i.label, i.situation, i.source) == ("doublet", 3, "I")
        assert len(i.facts) == 7
        assert lit("qrs", "r8", "5638", "abnormal") in i.facts
        assert [e.args[0] for e in i.events] == ["p7", "r7", "r8", "r9"]

    def test_abp_block(self):
        i = parse_model_file(ABP_BLOCK)[0]
        assert (i.label, i.situation, i.source) == ("rs", 3, "ABP")
        assert len(i.facts) == 4
        assert lit("sys", "ps4", "3558", "120") in i.facts

    def test_empty_text(self):
        assert parse_model_file("") == []

    def test_comments_and_whitespace(self):
        text = "begin(model). % a comment\n  sr_1_ECG.\n qrs( r1 , 100 , normal ).\nend(model)."
        i = parse_model_file(text)[0]
        assert i.label == "sr"
        assert lit("qrs", "r1", "100", "normal") in i.facts

    def test_missing_end_reports_line(self):
        text = "begin(model).\nsr_1_ECG.\nqrs(r1,100,normal)."
        with pytest.raises(ParseError, match="line 1.*end"):
            parse_model_file(text)

    def test_bad_identifier(self):
        with pytest.raises(ParseError, match="identifier"):
            parse_model_file("begin(model).\nnounderscores.\nend(model).")

    def test_non_ground_fact(self):
        text = "begin(model).\nsr_1_ECG.\nqrs(R1,100,normal).\nend(model)."
        with pytest.raises(ParseError, match="non-ground"):
            parse_model_file(text)

    def test_error_line_in_readme_layout(self):
        # comments after statements, as in the README; the bad fact is on
        # line 4, not on the line where the previous statement ended
        text = ("begin(model).\n"
                "doublet_3_ECG.            % <class>_<situation>_<source>\n"
                "p(p7,4905,normal).        % event: id, timestamp (ms), ...\n"
                "qrs(r7,50 26,normal).\n"
                "end(model).\n")
        with pytest.raises(ParseError, match=r"^line 4: non-ground or "
                           r"malformed argument '50 26'"):
            parse_model_file(text)

    def test_error_line_of_indented_statement(self):
        text = "begin(model).\nsr_1_ECG.\n\n    qrs(R1,100,normal).\nend(model)."
        with pytest.raises(ParseError, match="^line 4: non-ground"):
            parse_model_file(text)

    def test_missing_dot_reports_first_line_of_tail(self):
        text = "begin(model).\nsr_1_ECG.  % c\n\n  qrs(r1,\n100)\n"
        with pytest.raises(ParseError, match="^line 4: trailing text"):
            parse_model_file(text)

    def test_newline_never_joins_tokens(self):
        text = "begin(model).\nsr_1_ECG.\nfo\no.\nend(model)."
        with pytest.raises(ParseError, match=r"^line 3: malformed fact 'fo\\no'"):
            parse_model_file(text)

    def test_blocks_share_facts_and_events(self):
        # event ids restart in every block, so blocks repeat statements
        text = ("begin(model).\nsr_1_ECG.\nqrs(r1,100,normal).\nsuc(r2,r1).\n"
                "end(model).\nbegin(model).\nsr_2_ECG.\nqrs(r1,100,normal).\n"
                "suc( r2 ,\n r1).\nend(model).\n")
        a, b = parse_model_file(text)
        [qa] = [f for f in a.facts if f.pred == "qrs"]
        [qb] = [f for f in b.facts if f.pred == "qrs"]
        assert qa is qb
        assert a.events[0] is qa
        [sa] = [f for f in a.facts if f.pred == "suc"]
        [sb] = [f for f in b.facts if f.pred == "suc"]
        assert sa == sb == lit("suc", "r2", "r1")
        assert sa is sb

    def test_repeated_event_in_one_block_still_rejected(self):
        text = "begin(model).\nsr_1_ECG.\nqrs(r1,5).\nqrs(r1,5).\nend(model)."
        with pytest.raises(UsageError, match="duplicate event ids in sr_1_ECG"):
            parse_model_file(text)

    def test_distinct_events_sharing_an_id_rejected(self):
        text = "begin(model).\nsr_1_ECG.\nq(r1,5).\np(r1,6).\nend(model)."
        with pytest.raises(UsageError, match="duplicate event ids in sr_1_ECG"):
            parse_model_file(text)

    def test_newline_separates_arguments(self):
        text = "begin(model).\nsr_1_ECG.\np(a,\n b).\nq(r1, % c\n 5).\nend(model)."
        i = parse_model_file(text)[0]
        assert i.facts == {lit("p", "a", "b"), lit("q", "r1", "5")}
        assert i.events == (lit("q", "r1", "5"),)


class TestWrite:
    def test_round_trip_both_blocks(self):
        interps = parse_model_file(ECG_BLOCK + ABP_BLOCK)
        again = parse_model_file(write_model_file(interps))
        assert again == interps

    def test_empty(self):
        assert write_model_file([]) == ""

    def test_two_blocks_in_order(self):
        interps = parse_model_file(ECG_BLOCK + ABP_BLOCK)
        text = write_model_file(interps)
        assert text.index("doublet_3_I") < text.index("rs_3_ABP")

    def test_layout(self):
        # events by (timestamp, id), then the other facts in text order,
        # where a bare name sorts before its applications
        facts = {lit("qrs", "r2", "10"), lit("p", "z9", "10"),
                 lit("qrs", "r1", "10"), lit("p", "p1", "5", "a"), lit("p"),
                 lit("p", "x"), lit("suc", "r2", "r1")}
        i = Interpretation(situation=4, source="ECG", label="sr",
                           facts=frozenset(facts))
        assert write_model_file([i]) == (
            "begin(model).\nsr_4_ECG.\np(p1,5,a).\nqrs(r1,10).\n"
            "qrs(r2,10).\np(z9,10).\np.\np(x).\nsuc(r2,r1).\n"
            "end(model).\n")

    def test_duplicate_event_ids_refused(self):
        """Events sharing an id are refused when written, as they would be
        when the file is read back."""
        i = _interp([lit("qrs", "r1", "100"), lit("p", "r1", "200")])
        with pytest.raises(UsageError, match="duplicate event ids in sr_1_ECG"):
            write_model_file([i])

    def test_round_trip_generated(self):
        ds = generate_dataset(GeneratorConfig(seed=3, per_class=2))
        for source in ds.sources():
            pool = ds.by_source(source)
            assert parse_model_file(write_model_file(pool)) == pool


# Fact files built from valid blocks, then damaged in up to two places.
# Separators between tokens may hold newlines and comments (with '.' and
# parentheses in them); a separator inside a token breaks the token.
SEPS = st.sampled_from(["", "", "", "", "", "", " ", "\n", "\t \n  ",
                        " % c.(x)\n"])
GAPS = st.sampled_from(["\n", "\n", "", " ", "\n\n", "  % note. (\n",
                        " . \n"])
IDENTS = st.sampled_from(["sr_1_ECG", "af_12_ABP", "a_b_3_P", "AF_2_X1",
                          "sr_01_E"])
PREDS = st.sampled_from(["qrs", "p", "suc", "a_B1", "end", "begin"])
ARGS = st.sampled_from(["r1", "r2", "5026", "007", "normal", "0a", "x_Y"])
BROKEN = st.sampled_from([
    "sr1ECG", "sr_x_ECG", "sr_1_2", "sr_1_E(x)", "Qrs(a)", "9p", "q(R1)",
    "q(_a)", "q(a-b)", "q()", "q(a,)", "q(a", "q(a))", "q(a)(b)", "fo\no",
    "q(50 26)", "begin( model)", "begin(model)", "end(model)", "q(a)",
    "sr_1_P"])
TAILS = st.sampled_from(["", "", "", "", "", "", "\n", "\n", "% end",
                         "\n q(a)\n"])


@st.composite
def fact_statements(draw, eid):
    pred = draw(PREDS)
    if draw(st.integers(0, 4)) == 0:
        return pred
    args = [eid] + draw(st.lists(ARGS, max_size=3))
    if draw(st.integers(0, 6)) == 0:
        args[0] = draw(ARGS)  # now and then two events share an id
    parts = [pred, draw(SEPS), "(", draw(SEPS)]
    for k, a in enumerate(args):
        if k:
            parts += [draw(SEPS), ",", draw(SEPS)]
        parts.append(a)
    return "".join(parts + [draw(SEPS), ")"])


@st.composite
def fact_files(draw):
    statements = []
    for _ in range(draw(st.integers(0, 3))):
        statements += ["begin(model)", draw(IDENTS)]
        statements += [draw(fact_statements(f"e{k}"))
                       for k in range(draw(st.integers(0, 5)))]
        statements.append("end(model)")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(statements)))
        how = draw(st.sampled_from(["insert", "replace", "drop", "split"]))
        if how == "insert" or at == len(statements):
            statements.insert(at, draw(BROKEN))
        elif how == "replace":
            statements[at] = draw(BROKEN)
        elif how == "drop":
            del statements[at]
        else:
            stmt = statements[at]
            k = draw(st.integers(0, len(stmt)))
            statements[at] = stmt[:k] + draw(SEPS) + stmt[k:]
    text = "".join(draw(GAPS) + stmt + draw(SEPS) + "." for stmt in statements)
    return text + draw(TAILS)


def _timeline(facts):
    """The event facts among facts, found and ordered the plain way: by
    integer timestamp, then id."""
    return sorted((f for f in facts if len(f.args) >= 2
                   and f.args[1].isdecimal() and not f.args[0].isdecimal()),
                  key=lambda f: (int(f.args[1]), f.args[0]))


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, UsageError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def interpretation_lists(draw):
    out = []
    for situation in draw(st.lists(st.integers(0, 99), max_size=3)):
        facts = draw(st.frozensets(st.builds(
            Literal, st.sampled_from(["qrs", "p", "suc", "a_B1"]),
            st.lists(st.sampled_from(["r1", "r2", "5026", "007", "0",
                                      "normal", "0a", "x_Y"]),
                     max_size=4).map(tuple)), max_size=8))
        ids = [e.args[0] for e in _timeline(facts)]
        if len(set(ids)) < len(ids):
            continue
        out.append(Interpretation(
            situation=situation, source=draw(st.sampled_from(["ECG", "P"])),
            label=draw(st.sampled_from(["sr", "a_b", "v1"])), facts=facts))
    return out


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


class TestParseProperties:
    """The scanner against the plain reference parser, and the writer
    against the scanner, on random texts and interpretations."""

    @PROPERTY
    @given(fact_files())
    @example(ECG_BLOCK + ABP_BLOCK)
    @example("begin(model).\nsr_1_E.\nfo\no.\nend(model).")
    @example("begin(model). .. sr_1_E.\n  q(r1 , 5 ) . end(model). .")
    @example("begin(model).\nsr_1_E.\nq(r1,5).\np(r1,6).\nend(model).\n")
    @example("begin(model).\nsr_1_E.\nq(r1,5).\nq(r1,5).\nend(model).\n")
    @example("begin(model).\nsr_1_E.\nend( model).\nend(model).\n"
             "begin(model).\nsr_2_E.\nq(a).\nq( a ).\nend(model).\n")
    @example("begin(model).\nsr_1_E.\nbegin( model).\nend(model).\n"
             "begin(model).\nsr_2_E.\nq(a).\nend(model).\n")
    @example("begin(model).\nsr_1_E.\nq(r1,5).\nsr_1_E.\nend(model).\n")
    @example("begin(model).\nsr_1_E.\nq(a).\nend(model). . ")
    def test_parse_matches_reference(self, text):
        got = _outcome(parse_model_file, text)
        assert got == _outcome(brute_parse_model_file, text)
        if isinstance(got, list):  # one object per distinct fact
            shared = {}
            for i in got:
                for x in i.facts:
                    assert shared.setdefault(x, x) is x

    @PROPERTY
    @given(interpretation_lists())
    def test_write_then_parse_round_trip(self, interps):
        again = parse_model_file(write_model_file(interps))
        assert again == interps
        assert [i.events for i in again] == [i.events for i in interps]


class TestEvents:
    """An interpretation's events are its event facts by (timestamp, id),
    and saturation never adds one."""

    @staticmethod
    def _check(interps, schema=SCHEMA):
        for i in interps:
            assert i.events == tuple(_timeline(i.facts))
            assert saturate(i, CFG, schema).events == i.events

    @PROPERTY
    @given(interpretation_lists())
    def test_random(self, interps):
        self._check(interps)

    @PROPERTY
    @given(fact_files())
    @example(ECG_BLOCK + ABP_BLOCK)
    def test_parsed(self, text):
        got = _outcome(parse_model_file, text)
        if isinstance(got, list):
            self._check(got)

    @pytest.mark.parametrize("mode", MODES)
    def test_generated(self, mode):
        cfg = GeneratorConfig(seed=2, per_class=1, mode=mode)
        schema = cardiac_schema(mode)
        self._check(generate_dataset(cfg).interpretations, schema)
        self._check(generate_example("af", 0, cfg), schema)

    def test_handed_over(self, monkeypatch):
        """parse_model_file and saturate hand over the events they know
        already: reading them scans no fact, and they are the facts' own
        objects, equal to a fresh scan."""
        import relic.data as data

        generated = generate_dataset(GeneratorConfig(seed=2, per_class=1))
        parsed = [*parse_model_file(ECG_BLOCK + ABP_BLOCK),
                  *parse_model_file(write_model_file(
                      generated.interpretations))]
        saturated = [saturate(i, CFG, SCHEMA) for i in parsed[:2]]
        assert not any(s is i for s, i in zip(saturated, parsed))

        def scan(args):
            raise AssertionError("events found by scanning the facts")

        monkeypatch.setattr(data, "_is_event", scan)
        for i in [*parsed, *saturated, *generated.interpretations]:
            assert i.events == tuple(_timeline(i.facts))
            held = {f: f for f in i.facts}
            assert all(held[e] is e for e in i.events)


def _interp(events, label="sr", situation=1, source="ECG"):
    return Interpretation(situation=situation, source=source, label=label,
                          facts=frozenset(events))


class TestSaturate:
    def test_two_qrs_short_interval(self):
        i = _interp([lit("qrs", "r1", "1000", "normal"),
                     lit("qrs", "r2", "1400", "normal")])
        s = saturate(i, CFG, SCHEMA)
        assert lit("rr1", "r1", "r2", "short") in s.facts
        assert lit("suc", "r2", "r1") in s.facts
        assert lit("suci", "r2", "r1") in s.facts
        assert lit("qrs", "r1", "normal") in s.facts

    def test_suc_window(self):
        # suc reaches back SUC_WINDOW events and no further
        i = _interp([lit("qrs", f"r{k}", str(1000 * k), "normal")
                     for k in range(SUC_WINDOW + 3)])
        s = saturate(i, CFG, SCHEMA)
        gaps = {int(f.args[0][1:]) - int(f.args[1][1:])
                for f in s.facts if f.pred == "suc"}
        assert gaps == set(range(1, SUC_WINDOW + 1))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.tuples(st.sampled_from(["p", "qrs", "dias", "sys"]),
                              st.integers(0, 6)), max_size=12))
    def test_next_pairs_each_event_with_the_first_later_one(self, stream):
        i = _interp([lit(pred, f"e{k}", str(100 * t))
                     for k, (pred, t) in enumerate(stream)])
        events = _timeline(i.facts)
        expected = set()
        for name, first, second in (("pr1", "p", "qrs"), ("ds1", "dias", "sys")):
            for n, a in enumerate(events):
                later = [b for b in events[n + 1:] if b.pred == second]
                if a.pred == first and later:
                    expected.add((name, a.args[0], later[0].args[0]))
        s = saturate(i, CFG, SCHEMA)
        assert {(f.pred, *f.args[:2]) for f in s.facts
                if f.pred in ("pr1", "ds1")} == expected

    def test_single_event_no_pairwise(self):
        i = _interp([lit("qrs", "r1", "1000", "normal")])
        s = saturate(i, CFG, SCHEMA)
        assert not any(f.pred in ("suc", "suci", "rr1") for f in s.facts)

    def test_abp_block_cycle(self):
        i = parse_model_file(ABP_BLOCK)[0]
        s = saturate(i, CFG, SCHEMA)
        assert lit("suc", "ps4", "pd4") in s.facts
        cycles = [f for f in s.facts if f.pred == "cycle_abp"]
        assert len(cycles) == 1
        assert cycles[0].args[0] == "pd4" and cycles[0].args[2] == "ps4"
        # 120 - 80 = 40 mmHg rise, the middle variation category
        assert cycles[0].args[3] == "normal"
        assert cycles[0].args[1] == "undef"  # no systole before pd4

    def test_idempotent(self):
        i = parse_model_file(ECG_BLOCK)[0]
        once = saturate(i, CFG, SCHEMA)
        twice = saturate(once, CFG, SCHEMA)
        assert once == twice
        assert twice is once

    def test_saturated_file_read_back_returned_as_is(self):
        """A written file holds every derived fact, so saturating what it
        reads back returns that very interpretation; the same events
        without their derived facts still gain all of them."""
        ds = generate_dataset(GeneratorConfig(seed=1, per_class=2, cycles=6))
        for read in parse_model_file(write_model_file(ds.interpretations)):
            assert saturate(read, CFG, SCHEMA) is read
            bare = _bare(read)
            assert bare.facts < read.facts
            assert saturate(bare, CFG, SCHEMA).facts == read.facts

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_partly_saturated_input_regains_exactly_what_it_lacks(self, data):
        """Any subset of a read-back saturated interpretation's derived
        facts removed, saturate restores exactly the facts it was read
        with; with nothing removed it returns its input itself."""
        read = data.draw(st.sampled_from(_read_back()))
        derived = sorted(read.facts - _bare(read).facts, key=str)
        gone = data.draw(st.sets(st.sampled_from(derived)))
        part = Interpretation(situation=read.situation, source=read.source,
                              label=read.label, facts=read.facts - gone)
        known = data.draw(st.sampled_from([None, {}]))
        out = saturate(part, CFG, SCHEMA, known=known)
        assert out.facts == read.facts
        assert (out is part) == (not gone)

    def test_suci_implies_suc_and_count(self):
        ds = generate_dataset(GeneratorConfig(seed=5, per_class=2))
        for i in ds.interpretations:
            sucs = {f.args for f in i.facts if f.pred == "suc"}
            sucis = [f for f in i.facts if f.pred == "suci"]
            assert len(sucis) == max(0, len(i.events) - 1)
            assert all(f.args in sucs for f in sucis)

    def test_empty_interpretation_unchanged(self):
        i = Interpretation(situation=1, source="P", label="vt",
                           facts=frozenset())
        assert saturate(i, CFG, SCHEMA) == i

    def test_amplitudes_symbolized(self):
        i = parse_model_file(ABP_BLOCK)[0]
        s = saturate(i, CFG, SCHEMA)
        assert lit("dias", "pd4", "normal") in s.facts
        assert lit("sys", "ps4", "high") in s.facts


def _bare(read):
    """read's events alone, without the facts derived from them."""
    return _interp(read.events, read.label, read.situation, read.source)


@functools.cache
def _read_back():
    ds = generate_dataset(GeneratorConfig(seed=2, per_class=1, cycles=4))
    return parse_model_file(write_model_file(ds.interpretations))


def _one_object_per_fact(interps):
    facts = [f for i in interps for f in i.facts]
    return len({id(f) for f in facts}) == len(set(facts))


class TestSharing:
    """Equal facts made in one call are one object; which object holds a
    fact is all a shared table changes."""

    def test_generated_dataset_holds_one_object_per_fact(self):
        ds = generate_dataset(GeneratorConfig(seed=1, per_class=2))
        assert _one_object_per_fact(ds.interpretations)
        assert _one_object_per_fact(aggregate(ds).examples)

    def test_shared_table_changes_no_result(self):
        known = {}
        shared = []
        for read in _read_back():
            bare = _bare(read)
            out = saturate(bare, CFG, SCHEMA, known=known)
            assert out.facts == saturate(bare, CFG, SCHEMA).facts == read.facts
            shared.append(out)
        assert _one_object_per_fact(shared)
        assert all(known[(f.pred, f.args)] is f
                   for i in shared for f in i.facts)
        assert all(known[f] is f for i in shared for f in i.facts)

    def test_parse_shares_argument_strings(self):
        text = ("begin(model).\nsr_1_ECG.\nqrs(r1,100,normal).\n"
                "p(p1,50,normal).\nend(model).\n"
                "begin(model).\nsr_2_ECG.\nqrs(r1,200,normal).\n"
                "end(model).\n")
        for interps in (parse_model_file(text), _read_back()):
            words = [w for i in interps for f in i.facts
                     for w in (f.pred, *f.args)]
            assert len({id(w) for w in words}) == len(set(words))


FACTS = [lit(p, a) for p in "pqr" for a in "abcd"]


class TestFactUnion:
    """A union of parts is, for every set use, the frozenset of their
    facts, whether the parts overlap, are empty or are plain sets."""

    @PROPERTY
    @given(st.lists(st.one_of(st.frozensets(st.sampled_from(FACTS)),
                              st.sets(st.sampled_from(FACTS))), max_size=4),
           st.frozensets(st.sampled_from(FACTS)))
    def test_equals_the_union_of_its_parts(self, parts, other):
        union = FactUnion(parts)
        want = frozenset().union(*parts)
        assert len(union) == len(want)
        listed = list(union)
        assert len(listed) == len(set(listed)) and set(listed) == want
        for f in (*FACTS, lit("s", "a"), lit("p")):
            assert (f in union) == (f in want)
        assert union == want and want == union
        assert not union != want and not want != union
        assert (union == other) == (other == union) == (want == other)
        assert (union != other) == (other != union) == (want != other)
        assert hash(union) == hash(want)
        for op in (operator.or_, operator.and_, operator.sub):
            for got, exp in ((op(union, other), op(want, other)),
                             (op(other, union), op(other, want))):
                assert type(got) is frozenset and got == exp
        for i, p in enumerate(parts):
            if isinstance(p, frozenset) and all(p.isdisjoint(q)
                                                for q in parts[:i]):
                assert union.parts[i] is p

    def test_interpretation_on_a_union_equals_one_on_the_set(self):
        a = frozenset({lit("p", "a"), lit("q", "b")})
        b = frozenset({lit("q", "b"), lit("r", "c")})
        on_union = Interpretation(1, "AGG", "sr", FactUnion((a, b)))
        on_set = Interpretation(1, "AGG", "sr", a | b)
        assert on_union == on_set and on_set == on_union
        assert hash(on_union) == hash(on_set)


class TestConsistency:
    """Two views of one situation agree iff their labels agree; aggregation
    drops a situation whose views disagree as inconsistent."""

    @staticmethod
    def _dropped(left, right):
        # a consistent second situation, so that one always survives
        spare = [_interp([], situation=99, source=v.source)
                 for v in (left, right)]
        views = (left, right, *spare)
        return aggregate(Dataset(views, SCHEMA, tuple(sorted(
            {v.label for v in views})))).dropped

    def test_consistent(self):
        a = _interp([], label="doublet", situation=3)
        b = _interp([], label="doublet", situation=3, source="ABP")
        assert self._dropped(a, b) == []

    def test_inconsistent(self):
        a = _interp([], label="doublet", situation=3)
        b = _interp([], label="sr", situation=3, source="ABP")
        assert self._dropped(a, b) == [(3, "inconsistent")]

    def test_mislabelled_pair_is_inconsistent(self):
        left = parse_model_file(ECG_BLOCK)[0]
        right = parse_model_file(ABP_BLOCK)[0]
        assert self._dropped(left, right) == [(3, "inconsistent")]


class TestSymbolizationConfig:
    def test_threshold_order_enforced(self):
        with pytest.raises(UsageError):
            SymbolizationConfig(beat_ms=(1000, 600))

    def test_categories(self):
        assert CFG.beat(599) == "short"
        assert CFG.beat(600) == "normal"
        assert CFG.beat(1000) == "normal"
        assert CFG.beat(1001) == "long"
        assert CFG.amp(69) == "low"
        assert CFG.amp(111) == "high"


def test_duplicate_event_ids_rejected():
    """A hand-built interpretation whose events share an id is refused
    when its events are first read: by saturate, or by aggregate."""
    def views():
        return (_interp([lit("qrs", "r1", "100"), lit("qrs", "r1", "200")]),
                _interp([lit("sys", "s1", "150", "100")], source="ABP"))

    with pytest.raises(UsageError, match="duplicate event ids in sr_1_ECG"):
        saturate(views()[0], CFG, SCHEMA)
    with pytest.raises(UsageError, match="duplicate event ids in sr_1_ECG"):
        aggregate(Dataset(views(), SCHEMA, ("sr",)))


def test_dataset_duplicate_view_rejected():
    from relic.data import Dataset

    a = _interp([], situation=1)
    b = _interp([], situation=1)
    with pytest.raises(UsageError):
        Dataset((a, b), SCHEMA, ("sr",))
