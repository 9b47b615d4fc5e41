import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from relic import (GeneratorConfig, InterleavingConstraint, aggregate,
                   biased_multisource_learn, generate_dataset, learn_theory,
                   monosource_biases, naive_bias)

DEFAULT_CONSTRAINTS = [InterleavingConstraint("ABP", "dias", "sys")]

ECG_BLOCK = """\
begin(model).
doublet_3_I.
p(p7,4905,normal).
qrs(r7,5026,normal).
suc(r7,p7).
qrs(r8,5638,abnormal).
suc(r8,r7).
qrs(r9,6448,abnormal).
suc(r9,r8).
end(model).
"""

ABP_BLOCK = """\
begin(model).
rs_3_ABP.
dias(pd4,3406,80).
suc(pd4,ps3).
sys(ps4,3558,120).
suc(ps4,pd4).
end(model).
"""


@pytest.fixture(scope="session")
def reference_dataset():
    """Seed-1 full-mode dataset: 10 examples per class, saturated."""
    return generate_dataset(GeneratorConfig(seed=1, per_class=10))


@pytest.fixture(scope="session")
def full_run(reference_dataset):
    """The whole biased pipeline on the reference dataset."""
    return biased_multisource_learn(reference_dataset,
                                    monosource_biases("full"),
                                    DEFAULT_CONSTRAINTS)


@pytest.fixture(scope="session")
def naive_run(reference_dataset, full_run):
    """Naive multisource learning over the aggregated reference data."""
    from relic.multisource import deepest_bottom_events

    depth = max(deepest_bottom_events(b) for b in full_run.bottoms.values())
    agg = aggregate(reference_dataset).examples
    bias = naive_bias(reference_dataset.schema, depth)
    return learn_theory(agg, bias), depth


@pytest.fixture(scope="session")
def split_run():
    ds = generate_dataset(GeneratorConfig(seed=1, per_class=10, mode="split"))
    return ds, biased_multisource_learn(ds, monosource_biases("split"), [])


@pytest.fixture(scope="session")
def redundant_run():
    ds = generate_dataset(GeneratorConfig(seed=1, per_class=10,
                                          mode="redundant"))
    return ds, biased_multisource_learn(ds, monosource_biases("redundant"), [])


def relabel(dataset, seed, frac):
    """dataset with a drawn fraction of its situations given another class,
    on every view alike (label noise that aggregation keeps)."""
    from relic.data import Dataset

    rng = random.Random(seed)
    labels = {i.situation: i.label for i in dataset.interpretations}
    drawn = rng.sample(sorted(labels), round(frac * len(labels)))
    noisy = {k: rng.choice([c for c in dataset.classes if c != labels[k]])
             for k in drawn}
    return Dataset(tuple(replace(i, label=noisy[i.situation])
                         if i.situation in noisy else i
                         for i in dataset.interpretations),
                   dataset.schema, dataset.classes)


def fresh_index_covers():
    """covers on a FactIndex built afresh for each example, for
    oracles.reference_learn_class."""
    from relic.logic import FactIndex, covers

    indexes = {}

    def test(c, e):
        if id(e) not in indexes:
            indexes[id(e)] = e, FactIndex(e.facts)
        return covers(c, indexes[id(e)][1])

    return test


def random_two_source(seed: int):
    """A random two-source cardiac dataset: 8 situations over 3 labels,
    each with 2-6 p/qrs events of random shape and 2-6 dias/sys events of
    random amplitude, at random times, saturated with the full schema.
    Unlike the generator's data, the seed moves what is learned."""
    from relic.data import (Dataset, Interpretation, SymbolizationConfig,
                            saturate)
    from relic.logic import Literal
    from relic.synth import cardiac_schema

    rng = random.Random(seed)
    schema = cardiac_schema("full")
    labels = ("a", "b", "c")

    def events(preds, prefix, attribute):
        return frozenset(
            Literal(rng.choice(preds), (f"{prefix}{i}",
                                        str(rng.randrange(0, 4000)),
                                        attribute()))
            for i in range(rng.randint(2, 6)))

    interps = []
    for k in range(8):
        label = rng.choice(labels)
        ecg = events(("p", "qrs"), "e", lambda: rng.choice(("normal",
                                                             "abnormal")))
        abp = events(("dias", "sys"), "a", lambda: str(rng.randint(50, 160)))
        for source, facts in (("ECG", ecg), ("ABP", abp)):
            interps.append(saturate(Interpretation(k, source, label, facts),
                                    SymbolizationConfig(), schema))
    return Dataset(tuple(interps), schema, labels)


def random_grammar(rng: random.Random, max_depth: int = 3,
                   wide_inlines: bool = False):
    """A random DLAB spec tree with a modest search space.  With
    wide_inlines every literal has an inline choice, and every inline
    choice has a max of 2 or more and a min of at most 1, so adding an
    element to a reached literal, a non-additive child, is possible
    below the root."""
    from relic.dlab import choice, inline, literal

    preds = ("p", "q", "r", "s")
    consts = ("a", "b", "c")
    variables = ("X", "Y", "Z")

    def make_inline():
        if wide_inlines:
            k = rng.randint(2, 3)
            return inline(rng.randint(0, 1), rng.randint(2, k),
                          *rng.sample(consts, k))
        k = rng.randint(1, 3)
        lo = rng.randint(0 if rng.random() < 0.3 else 1, k)
        hi = rng.randint(lo, k)
        return inline(lo, hi, *rng.sample(consts, k))

    def make_literal():
        args = [make_inline()] if wide_inlines else []
        for _ in range(rng.randint(0, 2 - len(args))):
            kind = rng.random()
            if kind < 0.4:
                args.append(make_inline())
            elif kind < 0.7:
                args.append(rng.choice(variables))
            else:
                args.append(rng.choice(consts))
        return literal(rng.choice(preds), *args)

    def make_node(depth):
        if depth >= max_depth or rng.random() < 0.45:
            return make_literal()
        n = rng.randint(1, 3)
        children = tuple(make_node(depth + 1) for _ in range(n))
        lo = rng.randint(0, n)
        hi = "len" if rng.random() < 0.3 else rng.randint(lo, n)
        return choice(lo, hi, *children)

    n = rng.randint(1, 4)
    children = tuple(make_node(1) for _ in range(n))
    lo = rng.randint(0, n)
    hi = "len" if rng.random() < 0.3 else rng.randint(lo, n)
    from relic.dlab import choice as mk
    return mk(lo, hi, *children)


def random_ground_facts(rng: random.Random, max_facts: int = 8):
    from relic.logic import Literal

    preds = (("p", 1), ("p", 2), ("q", 2), ("r", 3))
    consts = ("a", "b", "c", "d")
    out = set()
    for _ in range(rng.randint(1, max_facts)):
        pred, arity = rng.choice(preds)
        out.add(Literal(pred, tuple(rng.choice(consts) for _ in range(arity))))
    return out


def random_small_clause(rng: random.Random, max_body: int = 4,
                        ground_bias: float = 0.35):
    from relic.logic import Clause, Literal

    preds = (("p", 1), ("p", 2), ("q", 2), ("r", 3))
    consts = ("a", "b", "c", "d")
    variables = ("X", "Y", "Z", "W")
    body = []
    for _ in range(rng.randint(0, max_body)):
        pred, arity = rng.choice(preds)
        args = tuple(rng.choice(consts) if rng.random() < ground_bias
                     else rng.choice(variables) for _ in range(arity))
        body.append(Literal(pred, args))
    return Clause(Literal("class", ("x",)), tuple(body))
