"""Multisource learning: aggregation, bottom-clause interleaving, automatic
bias construction, and the two-step biased learning pipeline.

The pipeline learns rules per source, merges aligned examples by set union
(dropping label-inconsistent situations), generates bottom clauses by
interleaving the events of every monosource rule pair, turns each bottom
clause into one DLAB block, and learns again on the aggregated data inside
the union of those blocks.  A rule pair's bottom clauses depend only on
the two rules, the schema, the sources and the interleaving constraints,
so each distinct pair is interleaved once per dataset and its
restrictions (Dataset.bottoms, keyed by those values).  A class bias
depends only on its blocks, in order, so each distinct one is compiled
once per dataset and its restrictions (Dataset.templates), with its
refine cache.  MultisourceResult counts the misses of both tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import Iterable, Mapping, Sequence

from .data import (Dataset, FactUnion, Interpretation, _timeline,
                   succession_facts)
from .dlab import (MAX_NESTING, ChoiceSpec, DlabTemplate, LiteralSpec,
                   choice, compile_template, inline, literal, nested)
from .errors import InternalError, ParseError, UsageError
from .learner import LearnerParams, Theory, learn_class, learn_theory
from .logic import (Clause, Literal, PredicateSchema, Term, body_key,
                    clause, is_variable, standardize_apart)

GLOBAL_RELATIONS = ("suc", "suci")


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------

@dataclass
class AggregationResult:
    examples: list[Interpretation]
    dropped: list[tuple[int, str]]  # (situation, reason)


def aggregate(dataset: Dataset) -> AggregationResult:
    """Union per-source facts per situation, recomputing cross-source
    suc/suci on the merged timeline; inconsistent or incomplete situations
    are dropped and reported.  An AGG example's facts are a FactUnion that
    keeps each view's fact set as a part instead of copying it.  A
    situation is merged once per source set into dataset.aggregated, which
    every restriction of dataset shares.
    Within one call, a cross-source suc/suci fact equal to one an earlier
    situation produced is that same object; the table is not kept."""
    sources = dataset.sources()
    if len(sources) < 2:
        raise UsageError("aggregation needs at least two sources")

    out: list[Interpretation] = []
    dropped: list[tuple[int, str]] = []
    merged_by = dataset.aggregated.setdefault(frozenset(sources), {})
    known: dict[Literal, Literal] = {}
    for k in dataset.situations():
        merged = merged_by.get(k) or _merge(dataset, k, sources, known)
        if isinstance(merged, str):
            dropped.append((k, merged))
        else:
            out.append(merged_by.setdefault(k, merged))
    if not out:
        raise UsageError("no situation survived aggregation")
    return AggregationResult(out, dropped)


def _merge(dataset: Dataset, k: int, sources: Sequence[str],
           known: dict[Literal, Literal]) -> Interpretation | str:
    """Situation k's views on every source merged into one AGG example, or
    the reason it is dropped: "incomplete" or "inconsistent".  Its facts
    are a FactUnion whose parts are the views' own fact sets, in source
    order, then the cross-source suc/suci facts; each of those is the one
    known holds for it (known.setdefault(f, f))."""
    views = [dataset.get(s, k) for s in sources]
    if any(v is None for v in views):
        return "incomplete"
    labels = {v.label for v in views}
    if len(labels) != 1:
        return "inconsistent"
    origin: dict[str, str] = {}
    for v in views:
        for e in v.events:
            if origin.setdefault(e.args[0], v.source) != v.source:
                raise UsageError(f"event id {e.args[0]} appears on two "
                                 f"sources in situation {k}")
    eids = [e.args[0] for e in _timeline(
        chain.from_iterable(v.events for v in views), f"situation {k}")]
    # copied from a set, so the frozenset is sized once for all its facts
    cross = frozenset({known.setdefault(f, f) for f in succession_facts(
        eids, [origin[i] for i in eids])})
    return Interpretation(situation=k, source="AGG", label=labels.pop(),
                          facts=FactUnion((*(v.facts for v in views), cross)))


# --------------------------------------------------------------------------
# interleavings and bottom clauses
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MergeItem:
    source: str
    var: Term
    event: Literal


Merge = tuple[MergeItem, ...]


@dataclass(frozen=True)
class InterleavingConstraint:
    """No foreign event may fall between source-adjacent before/after events."""

    source: str
    before: str
    after: str


def parse_constraints(text: str) -> list[InterleavingConstraint]:
    """One constraint per line: ``forbid_between <source> <before> <after>``."""
    out: list[InterleavingConstraint] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "forbid_between":
            raise ParseError(f"bad constraint {raw!r}", line=lineno)
        out.append(InterleavingConstraint(parts[1], parts[2], parts[3]))
    return out


def ordered_events(h: Clause, schema: PredicateSchema) -> list[tuple[Term, Literal]]:
    """Event variables of h (first arguments of its event literals), each
    with its first event literal, earliest first.  The order is peeled from
    h's direct suc/suci links between events: the last event is the one no
    other comes after, then the last of the rest, and so on.  Raises when
    no event or more than one can be taken, as the links then do not order
    the events totally: two are unordered, or links form a cycle or
    self-loop."""
    ev_lit: dict[Term, Literal] = {}
    for b in h.body:
        if schema.is_event(b.pred) and b.args and is_variable(b.args[0]):
            ev_lit.setdefault(b.args[0], b)
    later: dict[Term, set[Term]] = {v: set() for v in ev_lit}
    for b in h.body:
        if b.pred in GLOBAL_RELATIONS and len(b.args) == 2:
            x, y = b.args  # x occurs after y
            if x in later and y in later:
                later[y].add(x)

    left = dict.fromkeys(ev_lit)  # the events not yet taken, in body order
    peeled: list[Term] = []
    while left:
        last = [v for v in left if later[v].isdisjoint(left)]
        if len(last) != 1:
            # two candidates, or in a cycle an event and one after it
            a, b = last[:2] if last else next(
                (v, w) for v in left for w in left if w in later[v])
            raise UsageError(
                f"event order not total in hypothesis: {h} ({a} vs {b})")
        peeled.append(last[0])
        del left[last[0]]
    return [(v, ev_lit[v]) for v in reversed(peeled)]


def interleavings(h1: Clause, h2: Clause, schema: PredicateSchema,
                  sources: tuple[str, str]) -> list[Merge]:
    """Every way to intertwine the two hypotheses' event sequences while
    preserving each one's internal order: exactly C(n+p, n) merges."""
    shared = set(h1.variables()) & set(h2.variables())
    if shared:
        raise UsageError(f"hypotheses share variables {sorted(shared)}; "
                         "standardize apart first")
    first, second = ([MergeItem(s, var, ev)
                      for var, ev in ordered_events(h, schema)]
                     for h, s in zip((h1, h2), sources))
    n, p = len(first), len(second)
    merges: list[Merge] = []
    for slots in combinations(range(n + p), n):
        it1, it2 = iter(first), iter(second)
        merges.append(tuple(next(it1) if pos in slots else next(it2)
                            for pos in range(n + p)))
    return merges


def violates(merge: Merge, con: InterleavingConstraint) -> bool:
    own = [i for i, it in enumerate(merge) if it.source == con.source]
    for a, b in zip(own, own[1:]):  # adjacent in the constrained source
        if (merge[a].event.pred == con.before
                and merge[b].event.pred == con.after):
            if any(merge[k].source != con.source for k in range(a + 1, b)):
                return True
    return False


def filter_constraints(merges: Iterable[Merge],
                       constraints: Iterable[InterleavingConstraint]) -> list[Merge]:
    constraints = list(constraints)
    return [m for m in merges
            if not any(violates(m, c) for c in constraints)]


def _lit_spec(lit: Literal) -> LiteralSpec:
    return LiteralSpec(lit.pred, lit.args)  # shares the literal's args


@dataclass(frozen=True)
class BottomClause:
    """A maximally specific multisource clause, the merge it interleaves,
    and its DLAB block."""

    clause: Clause
    merge: Merge
    block: ChoiceSpec


def make_bottom_clause(h1: Clause, h2: Clause, merge: Merge,
                       schema: PredicateSchema) -> BottomClause:
    """All literals of both hypotheses plus one new suci literal for every
    cross-source adjacent pair of the merge, and one DLAB block spanning
    every clause equal to or more general than that bottom clause.

    Each event of the merge brings its connectors (the suc/suci literals
    tying it to the previous event) and its options (the other literals
    whose latest event it is); literals tied to no event are leftovers.
    In the block, the first two events and their connectors are mandatory,
    their options and the leftovers individually optional; every later
    event is an optional block holding its connectors, its options (each
    optional) and the next event's block."""
    pos_of = {it.var: i for i, it in enumerate(merge)}
    connectors: list[list[Literal]] = [[] for _ in merge]
    options: list[list[Literal]] = [[] for _ in merge]
    leftovers: list[Literal] = []
    for lit in (*h1.body, *h2.body):
        if schema.is_event(lit.pred):
            continue  # the merge places each event's first literal
        anchors = [pos_of[a] for a in lit.args if a in pos_of]
        if not anchors:
            leftovers.append(lit)
        elif (lit.pred in GLOBAL_RELATIONS and len(lit.args) == 2
              and len(anchors) == 2 and anchors[0] == anchors[1] + 1):
            # neighbours (later, earlier): same-source, as h1 and h2
            # share no variables
            connectors[anchors[0]].append(lit)
        else:
            options[max(anchors)].append(lit)

    for i in range(1, len(merge)):
        prev, cur = merge[i - 1], merge[i]
        if prev.source != cur.source:
            connectors[i].append(Literal("suci", (cur.var, prev.var)))
        elif not connectors[i]:
            raise InternalError(
                f"no ordering literal between {prev.var} and {cur.var}")

    body: list[Literal] = []
    for it, conn, opts in zip(merge, connectors, options):
        body += [it.event, *conn, *opts]
    body += leftovers

    def optional(lits: Iterable[Literal]) -> list[ChoiceSpec]:
        return [choice(0, 1, _lit_spec(o)) for o in lits]

    cut = min(2, len(merge))
    head = [_lit_spec(it.event) for it in merge[:cut]]
    head += [_lit_spec(c) for conn in connectors[:cut] for c in conn]
    head += optional([o for opts in options[:cut] for o in opts] + leftovers)
    tail = [[choice("len", "len", *map(_lit_spec, (it.event, *conn))),
             *optional(opts)]
            for it, conn, opts in zip(merge[cut:], connectors[cut:],
                                      options[cut:])]
    return BottomClause(clause=Clause(h1.head, tuple(body)), merge=merge,
                        block=choice("len", "len", *head, *nested(tail)))


def bottom_clauses_for_pair(h1: Clause, h2: Clause, schema: PredicateSchema,
                            sources: tuple[str, str],
                            constraints: Iterable[InterleavingConstraint] = (),
                            ) -> list[BottomClause]:
    a, b = standardize_apart(h1, h2)
    merges = filter_constraints(interleavings(a, b, schema, sources),
                                constraints)
    return [make_bottom_clause(a, b, m, schema) for m in merges]


# --------------------------------------------------------------------------
# bias construction
# --------------------------------------------------------------------------

def synthesize_bias(bottoms: Sequence[BottomClause]) -> DlabTemplate:
    """1-1 choice between the blocks of all bottom clauses."""
    if not bottoms:
        raise UsageError("cannot synthesize a bias from zero bottom clauses")
    return compile_template(choice(1, 1, *[bt.block for bt in bottoms]))


def naive_bias(schema: PredicateSchema, max_events: int) -> DlabTemplate:
    """Minimally restrictive grammar: any sequence of up to max_events events
    drawn from every source, every attribute value, and every relational
    predicate between every event pair."""
    # each event after the first opens two choices inside the one before
    # it; the outer block and, in the deepest level, a slot or relation
    # choice with an inline value take three more: 2 * max_events + 1
    limit = (MAX_NESTING - 1) // 2
    if not 1 <= max_events <= limit:
        raise UsageError(f"max_events must be between 1 and {limit}")
    events = sorted(schema.event_preds(), key=lambda d: d.name)
    if not events:
        raise UsageError("schema declares no event predicates")
    relations = sorted(schema.relational_preds(), key=lambda d: d.name)

    def slot(j: int) -> ChoiceSpec:
        alts = []
        for d in events:
            args: list = [f"E{j}"]
            args.extend(inline(1, 1, *dom) for dom in d.domains)
            alts.append(literal(d.name, *args))
        return choice(1, 1, *alts)

    def rel_options(i: int, j: int) -> list[LiteralSpec]:
        out = []
        fresh = 0
        for d in relations:
            if not d.argspec:
                continue
            args: list = []
            dom_iter = iter(d.domains)
            for spec in d.argspec:
                if spec == "a":
                    args.append(f"E{i}")
                elif spec == "b":
                    args.append(f"E{j}")
                elif spec == "cat":
                    args.append(inline(1, 1, *next(dom_iter)))
                else:  # free variable
                    args.append(f"V{i}_{j}_{fresh}")
                    fresh += 1
            out.append(literal(d.name, *args))
        return out

    levels = []
    for j in range(2, max_events + 1):
        rels = [o for i in range(1, j) for o in rel_options(i, j)]
        levels.append([slot(j), choice(0, "len", *rels)] if rels
                      else [slot(j)])
    return compile_template(choice("len", "len", slot(1), *nested(levels)))


# --------------------------------------------------------------------------
# the pipeline
# --------------------------------------------------------------------------

@dataclass
class MultisourceResult:
    theory: Theory
    mono: dict[str, Theory]
    aggregated: list[Interpretation]
    dropped: list[tuple[int, str]]
    bottoms: dict[str, tuple[BottomClause, ...]]
    class_biases: dict[str, DlabTemplate]
    warnings: list[str] = field(default_factory=list)
    # work this run did that its dataset family had not done before: rule
    # pairs whose bottom clauses it built (Dataset.bottoms misses) and
    # class biases it compiled (Dataset.templates misses)
    pairs_built: int = 0
    biases_compiled: int = 0


def biased_multisource_learn(dataset: Dataset,
                             biases: Mapping[str, DlabTemplate],
                             constraints: Iterable[InterleavingConstraint] = (),
                             params: LearnerParams = LearnerParams()
                             ) -> MultisourceResult:
    """Learn per source, aggregate, interleave rule pairs into bottom
    clauses, build one bias per class, and learn again on aggregated data.
    A class that no aggregated example holds (say, one with no view on a
    source) is skipped with a warning before its bottom clauses are built,
    as is one with no monosource rule on either source; the final theory
    has no entry for it.  A rule pair whose bottom clauses dataset's
    family has built before, under the same sources and constraints, takes
    them from dataset.bottoms, and a class bias whose blocks the family
    has compiled before is taken from dataset.templates:
    bottom_clauses_for_pair and synthesize_bias run only on a miss, and
    the result counts those misses (pairs_built, biases_compiled)."""
    sources = tuple(dataset.sources())
    if len(sources) != 2:
        raise UsageError("the pipeline handles exactly two sources")
    for s in sources:
        if s not in biases:
            raise UsageError(f"no bias supplied for source {s}")
    constraints = tuple(constraints)
    for con in constraints:
        text = f"forbid_between {con.source} {con.before} {con.after}"
        if con.source not in sources:
            raise UsageError(f"constraint {text!r}: unknown source "
                             f"{con.source!r} (sources: {', '.join(sources)})")
        for pred in (con.before, con.after):
            decl = dataset.schema.get(pred)
            if decl is None or decl.role != "event" or decl.source != con.source:
                raise UsageError(f"constraint {text!r}: {pred!r} is not an "
                                 f"event predicate of source {con.source}")
    warnings: list[str] = []

    mono: dict[str, Theory] = {}
    for s in sources:
        mono[s] = learn_theory(dataset.by_source(s), biases[s], params)

    agg = aggregate(dataset)

    classes = sorted({i.label for i in dataset.interpretations})
    aggregated = {e.label for e in agg.examples}
    bottoms: dict[str, tuple[BottomClause, ...]] = {}
    class_biases: dict[str, DlabTemplate] = {}
    pairs_built = biases_compiled = 0
    for label in classes:
        if label not in aggregated:
            warnings.append(f"class {label}: no aggregated example; skipped")
            continue
        hs = [list(mono[s].clauses_for(label)) for s in sources]
        if not any(hs):
            warnings.append(f"class {label}: no monosource rules on either "
                            "source; skipped")
            continue
        for s, h in zip(sources, hs):
            if not h:
                warnings.append(f"class {label}: empty theory on {s}; "
                                "pairing with the empty hypothesis")
                h.append(clause(label))

        found: dict[tuple[str, ...], BottomClause] = {}
        for h1, h2 in product(*hs):
            key = (h1, h2, sources, constraints)
            pair = dataset.bottoms.get(key)
            if pair is None:
                pair = dataset.bottoms[key] = tuple(bottom_clauses_for_pair(
                    h1, h2, dataset.schema, sources, constraints))
                pairs_built += 1
            for bt in pair:
                found.setdefault(body_key(bt.clause.body), bt)
        bottoms[label] = tuple(found.values())
        blocks = tuple(bt.block for bt in bottoms[label])
        bias = dataset.templates.get(blocks)
        if bias is None:
            bias = dataset.templates[blocks] = synthesize_bias(bottoms[label])
            biases_compiled += 1
        class_biases[label] = bias

    final = Theory()
    for label, bias in class_biases.items():  # in class order
        final.per_class[label] = learn_class(label, agg.examples, bias, params)

    return MultisourceResult(theory=final, mono=mono, aggregated=agg.examples,
                             dropped=agg.dropped, bottoms=bottoms,
                             class_biases=class_biases, warnings=warnings,
                             pairs_built=pairs_built,
                             biases_compiled=biases_compiled)


def deepest_bottom_events(bottoms: Iterable[BottomClause]) -> int:
    """Event count of the deepest bottom clause (head segment + tail)."""
    return max((len(bt.merge) for bt in bottoms), default=0)
