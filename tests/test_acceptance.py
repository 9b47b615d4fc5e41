"""Acceptance criteria, one test per criterion.

Each test prints a single [acceptance] PASS/FAIL line (visible with -s or in
captured output); run the whole gate with:

    pytest tests/test_acceptance.py -v -s
"""

import functools
import random
import time
from math import comb

from conftest import DEFAULT_CONSTRAINTS, random_grammar, random_ground_facts, \
    random_small_clause
from oracles import brute_covers, brute_subsumes

from relic import (covers, generate_dataset, monosource_biases,
                   parse_model_file, theta_subsumes, train_accuracy)
from relic.dlab import (compile_template, count_space,
                        enumerate_selections, parse_dlab)
from relic.errors import BiasError
from relic.evaluate import cross_validate
from relic.learner import accuracy
from relic.logic import clause, find_covering_substitution, lit
from relic.multisource import (InterleavingConstraint, deepest_bottom_events,
                               filter_constraints, interleavings, naive_bias)
from relic.synth import cardiac_schema
from conftest import ECG_BLOCK


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] {name}: FAIL")
                raise
            print(f"\n[acceptance] {name}: PASS")
        return wrapper
    return deco


@criterion("C1 DLAB counting oracle (200 grammars, exact)")
def test_dlab_counting_oracle():
    t0 = time.perf_counter()
    rng = random.Random(1)
    checked = 0
    while checked < 200:
        spec = random_grammar(rng)
        try:
            template = compile_template(spec)
        except BiasError:
            continue
        n = count_space(template)
        if n > 10_000:
            continue
        assert n == len(enumerate_selections(template, limit=10_000))
        checked += 1
    # the worked variable-arity example: p(2-len:[el1,el2,el3]) -> 4 literals
    t = parse_dlab("p(2-len:[el1,el2,el3])")
    assert count_space(t) == 4 == len(enumerate_selections(t))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"counting oracle took {elapsed:.1f}s"


@criterion("C2 coverage oracle (1000 instances, exact)")
def test_coverage_oracle():
    rng = random.Random(2)
    for _ in range(1000):
        c = random_small_clause(rng, max_body=4)
        facts = random_ground_facts(rng, max_facts=8)
        assert covers(c, facts) == brute_covers(c, facts)
    doublet = clause("doublet", (lit("qrs", "X", "abnormal"),
                                 lit("qrs", "Y", "abnormal"),
                                 lit("suc", "Y", "X")))
    from relic import SymbolizationConfig, saturate

    interp = saturate(parse_model_file(ECG_BLOCK)[0], SymbolizationConfig(),
                      cardiac_schema("full"))
    assert find_covering_substitution(doublet, interp.facts) \
        == {"X": "r8", "Y": "r9"}


@criterion("C3 theta-subsumption oracle (1000 pairs, exact)")
def test_subsumption_oracle():
    rng = random.Random(3)
    for _ in range(1000):
        c = random_small_clause(rng, max_body=3)
        d = random_small_clause(rng, max_body=3)
        assert theta_subsumes(c, d) == brute_subsumes(c, d)
    # reflexivity on samples
    for _ in range(100):
        c = random_small_clause(rng, max_body=4)
        assert theta_subsumes(c, c)
    # transitivity on sampled chains
    chains = 0
    while chains < 30:
        c = random_small_clause(rng, max_body=2)
        d = random_small_clause(rng, max_body=3)
        e = random_small_clause(rng, max_body=3)
        if theta_subsumes(c, d) and theta_subsumes(d, e):
            assert theta_subsumes(c, e)
            chains += 1


@criterion("C4 interleaving counts with constraint filtering")
def test_interleaving_counts():
    schema = cardiac_schema("full")

    def chain(pred, var, k):
        body = []
        for i in range(k):
            body.append(lit(pred, f"{var}{i}", "normal"))
            if i:
                body.append(lit("suc", f"{var}{i}", f"{var}{i-1}"))
        return clause("x", body)

    for n in range(0, 7):
        for p in range(0, 7):
            merges = interleavings(chain("qrs", "A", n), chain("sys", "B", p),
                                   schema, ("ECG", "ABP"))
            assert len(merges) == comb(n + p, n)

    h1 = clause("x", (lit("p", "P0", "normal"), lit("qrs", "R0", "normal"),
                      lit("pr1", "P0", "R0", "normal"), lit("suc", "R0", "P0")))
    h2 = clause("x", (lit("dias", "D0", "normal"), lit("sys", "S0", "normal"),
                      lit("suc", "S0", "D0")))
    merges = interleavings(h1, h2, schema, ("ECG", "ABP"))
    assert len(merges) == 6
    kept = {tuple(it.var for it in m)
            for m in filter_constraints(
                merges, [InterleavingConstraint("ABP", "dias", "sys")])}
    assert ("P0", "D0", "R0", "S0") not in kept   # bt1 removed
    assert ("D0", "P0", "S0", "R0") not in kept   # bt2 removed
    assert ("P0", "R0", "D0", "S0") in kept
    assert ("D0", "S0", "P0", "R0") in kept


@criterion("C5 Property 1: monosource coverage carries to aggregation")
def test_property_one(reference_dataset, full_run):
    by_situation = {e.situation: e for e in full_run.aggregated}
    checks = 0
    for source in ("ECG", "ABP"):
        theory = full_run.mono[source]
        for label in theory.per_class:
            for h in theory.clauses_for(label):
                for e in reference_dataset.by_source(source):
                    agg = by_situation[e.situation]
                    mono_covers = covers(h, e.index)
                    agg_covers = covers(h, agg.index)
                    # 1(1): coverage persists under aggregation
                    if mono_covers:
                        assert agg_covers
                    # 1(2): with disjoint event predicates non-coverage
                    # persists as well
                    if not mono_covers:
                        assert not agg_covers
                    checks += 1
    assert checks >= 500, f"only {checks} checks"


@criterion("C6 Property 2: biased TrAcc >= max(monosource), all reach 1.0")
def test_property_two(reference_dataset, full_run, naive_run):
    naive_theory, _ = naive_run
    agg = full_run.aggregated
    for label in reference_dataset.classes:
        mono_accs = [
            train_accuracy(full_run.mono[s].clauses_for(label), label,
                           reference_dataset.by_source(s))
            for s in ("ECG", "ABP")]
        biased_acc = train_accuracy(full_run.theory.clauses_for(label),
                                    label, agg)
        naive_acc = train_accuracy(naive_theory.clauses_for(label), label, agg)
        assert biased_acc >= max(mono_accs)
        assert biased_acc == 1.0
        assert naive_acc == 1.0
        assert all(a == 1.0 for a in mono_accs)
    for theory in (*full_run.mono.values(), full_run.theory, naive_theory):
        for label, result in theory.per_class.items():
            assert result.stats.time_ms < 60_000.0, \
                f"{label} took {result.stats.time_ms:.0f} ms"


@criterion("C7 Property 3: smaller spaces, >=5x fewer refinements")
def test_property_three(reference_dataset, full_run, naive_run):
    naive_theory, depth = naive_run
    schema = reference_dataset.schema
    for label, bottoms in full_run.bottoms.items():
        synthesized = count_space(full_run.class_biases[label])
        naive_size = count_space(
            naive_bias(schema, deepest_bottom_events(bottoms)))
        assert synthesized < naive_size, label
    biased_nodes = full_run.theory.total_nodes()
    naive_nodes = naive_theory.total_nodes()
    assert naive_nodes >= 5 * biased_nodes, \
        f"naive {naive_nodes} vs biased {biased_nodes}"


@criterion("C8 complementary sources compose; redundant sources vote")
def test_complementary_and_redundant(split_run, redundant_run):
    split_ds, split_res = split_run

    def event_sources(c, schema):
        return {schema.get(b.pred).source for b in c.body
                if schema.get(b.pred) and schema.get(b.pred).role == "event"}

    composite = []
    for label, result in split_res.theory.per_class.items():
        for c in result.clauses:
            srcs = event_sources(c, split_ds.schema)
            if len(srcs) > 1:
                assert any(b.pred == "suci" for b in c.body), str(c)
                composite.append((label, c))
    assert composite, "no composite clause in split mode"

    red_ds, red_res = redundant_run
    for label, result in red_res.theory.per_class.items():
        assert train_accuracy(result.clauses, label, red_res.aggregated) == 1.0
        for c in result.clauses:
            assert len(event_sources(c, red_ds.schema)) <= 1, str(c)


@criterion("C9 cross-validation: hand-checked LOO and fold alignment")
def test_cross_validation():
    from relic.data import Dataset, Interpretation
    from relic.dlab import choice, compile_template, inline, literal
    from relic.synth import GeneratorConfig

    def example(label, situation, source, shape):
        facts = frozenset({lit("qrs", f"{source.lower()}{situation}", shape)})
        return Interpretation(situation=situation, source=source, label=label,
                              facts=facts)

    interps = []
    for k, label in enumerate(["up", "down", "up", "down"]):
        shape = "abnormal" if label == "up" else "normal"
        interps.append(example(label, k, "A", shape))
    ds = Dataset(tuple(interps), cardiac_schema("full"), ("down", "up"))
    bias = compile_template(choice(
        "len", "len", literal("qrs", "R0", inline(1, 1, "normal", "abnormal"))))
    # hand enumeration: every fold's training set keeps one example of each
    # class, the learned one-literal rules classify the held-out example
    # correctly -> Acc is exactly 1.0 for both classes
    report = cross_validate(ds, "mono", 4, biases={"A": bias}, source="A")
    assert [r.acc for r in report.rows] == [1.0, 1.0]
    assert [r.tracc for r in report.rows] == [1.0, 1.0]

    small = generate_dataset(GeneratorConfig(seed=2, per_class=2))
    biased = cross_validate(small, "biased", 2,
                            biases=monosource_biases("full"),
                            constraints=DEFAULT_CONSTRAINTS)
    assert biased.fold_audit
    for audit in biased.fold_audit:
        assert audit["ECG"] == audit["ABP"] == audit["AGG"]


@criterion("C10 accuracy(3,4,2,1) = 0.7 exactly")
def test_accuracy_formula():
    assert accuracy(3, 4, 2, 1) == 0.7
