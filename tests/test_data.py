import pytest
from conftest import ECG_BLOCK, ABP_BLOCK

from relic import (GeneratorConfig, ParseError, SymbolizationConfig,
                   UsageError, check_consistency, generate_dataset,
                   parse_model_file, write_model_file)
from relic.data import SUC_WINDOW, Event, Interpretation, saturate
from relic.logic import Literal, lit
from relic.synth import cardiac_schema

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
        assert [e.eid for e in i.raw_events] == ["p7", "r7", "r8", "r9"]

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

    def test_round_trip_generated(self):
        ds = generate_dataset(GeneratorConfig(seed=3, per_class=2))
        for source in ds.sources():
            pool = ds.by_source(source)
            assert parse_model_file(write_model_file(pool)) == pool


def _interp(events, label="sr", situation=1, source="ECG"):
    facts = frozenset(Literal(e.pred, (e.eid, str(e.time), *e.attrs))
                      for e in events)
    return Interpretation(situation=situation, source=source, label=label,
                          facts=facts, raw_events=tuple(events))


class TestSaturate:
    def test_two_qrs_short_interval(self):
        i = _interp([Event("r1", "qrs", 1000, ("normal",)),
                     Event("r2", "qrs", 1400, ("normal",))])
        s = saturate(i, CFG, SCHEMA)
        assert lit("rr1", "r1", "r2", "short") in s.facts
        assert lit("suc", "r2", "r1") in s.facts
        assert lit("suci", "r2", "r1") in s.facts
        assert lit("qrs", "r1", "normal") in s.facts

    def test_suc_window(self):
        # suc reaches back SUC_WINDOW events and no further
        i = _interp([Event(f"r{k}", "qrs", 1000 * k, ("normal",))
                     for k in range(SUC_WINDOW + 3)])
        s = saturate(i, CFG, SCHEMA)
        gaps = {int(f.args[0][1:]) - int(f.args[1][1:])
                for f in s.facts if f.pred == "suc"}
        assert gaps == set(range(1, SUC_WINDOW + 1))

    def test_single_event_no_pairwise(self):
        i = _interp([Event("r1", "qrs", 1000, ("normal",))])
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

    def test_suci_implies_suc_and_count(self):
        ds = generate_dataset(GeneratorConfig(seed=5, per_class=2))
        for i in ds.interpretations:
            sucs = {f.args for f in i.facts if f.pred == "suc"}
            sucis = [f for f in i.facts if f.pred == "suci"]
            assert len(sucis) == max(0, len(i.raw_events) - 1)
            assert all(f.args in sucs for f in sucis)

    def test_empty_interpretation_unchanged(self):
        i = Interpretation(situation=1, source="P", label="vt",
                           facts=frozenset(), raw_events=())
        assert saturate(i, CFG, SCHEMA) == i

    def test_amplitudes_symbolized(self):
        i = parse_model_file(ABP_BLOCK)[0]
        s = saturate(i, CFG, SCHEMA)
        assert lit("dias", "pd4", "normal") in s.facts
        assert lit("sys", "ps4", "high") in s.facts


class TestConsistency:
    def test_consistent(self):
        a = _interp([], label="doublet", situation=3)
        b = _interp([], label="doublet", situation=3, source="ABP")
        assert check_consistency(a, b)

    def test_inconsistent(self):
        a = _interp([], label="doublet", situation=3)
        b = _interp([], label="sr", situation=3, source="ABP")
        assert not check_consistency(a, b)

    def test_mislabelled_pair_is_inconsistent(self):
        left = parse_model_file(ECG_BLOCK)[0]
        right = parse_model_file(ABP_BLOCK)[0]
        assert not check_consistency(left, right)

    def test_situation_mismatch(self):
        a = _interp([], situation=3)
        b = _interp([], situation=4, source="ABP")
        with pytest.raises(UsageError):
            check_consistency(a, b)


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
    with pytest.raises(UsageError):
        _interp([Event("r1", "qrs", 100, ()), Event("r1", "qrs", 200, ())])


def test_dataset_duplicate_view_rejected():
    from relic.data import Dataset

    a = _interp([], situation=1)
    b = _interp([], situation=1)
    with pytest.raises(UsageError):
        Dataset((a, b), SCHEMA, ("sr",))
