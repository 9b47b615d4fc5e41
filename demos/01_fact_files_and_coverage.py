"""Fact files, saturation, and covering tests.

Parses a two-view example written in the block format, derives the
background relations (ordering, timing categories, symbolic amplitudes),
and runs covering and generality tests against it.
"""

from relic import (SymbolizationConfig, clause, covers, lit,
                   parse_model_file, saturate, theta_subsumes,
                   write_model_file)
from relic.logic import find_covering_substitution
from relic.synth import cardiac_schema

TEXT = """
begin(model).
doublet_3_I.
p(p7,4905,normal).
qrs(r7,5026,normal).
qrs(r8,5638,abnormal).
qrs(r9,6448,abnormal).
end(model).

begin(model).
doublet_3_ABP.
dias(pd4,3406,80).
sys(ps4,3558,120).
end(model).
"""

ecg, abp = parse_model_file(TEXT)
print(f"parsed {ecg.ident}: {len(ecg.facts)} stored facts, "
      f"{len(ecg.events)} events")

# Saturation adds everything the background knowledge can derive: the
# timestamp-free event facts, suc/suci ordering, and timing categories.
schema = cardiac_schema("full")
cfg = SymbolizationConfig()
ecg = saturate(ecg, cfg, schema)
abp = saturate(abp, cfg, schema)
print(f"after saturation: {len(ecg.facts)} ECG facts, {len(abp.facts)} ABP facts")
for f in sorted(ecg.facts, key=str):
    if f.pred in ("rr1", "pr1", "suci"):
        print("   derived:", f)

# A ventricular doublet shows up as two adjacent abnormal beats.
doublet = clause("doublet", (lit("qrs", "X", "abnormal"),
                             lit("qrs", "Y", "abnormal"),
                             lit("suc", "Y", "X")))
print("doublet rule covers the ECG view:", covers(doublet, ecg.index))
print("   witness:", find_covering_substitution(doublet, ecg.facts))
print("doublet rule covers the ABP view:", covers(doublet, abp.index))

# theta-subsumption orders rules by generality: dropping a literal
# generalizes, so the one-beat rule subsumes the two-beat rule.
one_beat = clause("doublet", (lit("qrs", "X", "abnormal"),))
print("one_beat subsumes doublet:", theta_subsumes(one_beat, doublet))
print("doublet subsumes one_beat:", theta_subsumes(doublet, one_beat))

# Writing is the exact inverse of parsing.
assert parse_model_file(write_model_file([ecg, abp])) == [ecg, abp]
print("write -> parse round trip holds")
