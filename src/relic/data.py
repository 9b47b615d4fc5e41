"""Fact files, interpretations, background-knowledge saturation, datasets.

The file format is block-structured:

    begin(model).
    doublet_3_I.
    p(p7,4905,normal).
    qrs(r7,5026,normal).
    end(model).

Every statement ends with ``.``.  ``%`` starts a comment that runs to end of
line, anywhere, even inside a statement.  Whitespace, newlines included,
may separate tokens and is otherwise ignored, but never joins them:
``fo\\no.`` is a malformed fact, ``p(a,\\n b).`` is ``p(a,b)``.  A malformed
file raises ParseError naming the line of the offending statement's first
non-blank character (the command line prints it and exits 2).  The
identifier line carries ``<class>_<situation>_<source>``.  A fact whose
second argument is an integer is an event (id, timestamp in ms,
attributes), and no two events of a block may share an id; everything
else is kept verbatim, derived facts included.  An event is only its
fact: :attr:`Interpretation.events` finds them among the facts, unless
the parser or :func:`saturate`, which tell them apart already, handed
them over.  One helper, :func:`_timeline`, orders a block's events by
(timestamp, id) and refuses two that share an id; the events property,
the parser and aggregation's merged timeline all go through it.
:func:`write_model_file` writes an interpretation's events, then its
other facts in text order.  It writes every fact, so a saturated one is
written with its derived facts (suc, suci, timing and amplitude
categories, symbolized events) and read back with them.  The
events alone suffice: :func:`saturate` derives the rest, and
saturating a file that already holds them adds nothing.

One grammar reads the format, and the same check that accepts a fact
names why it rejects one.  Event ids restart in every block, so the same
statements recur from block to block.  One :func:`parse_model_file` call
checks each distinct statement once, builds each distinct fact once and
hands the same object to every block that repeats it.  The table doing so
belongs to that call alone: nothing is kept between calls.

Saturation shares the same way.  A :class:`Literal` is a named tuple, so
a fact is its own key: :func:`saturate` checks each derived fact against
the facts the interpretation holds and, when one is missing, takes every
fact of its result from its ``known`` table, which maps each fact to the
one object kept for it (``known.setdefault(f, f)``).  A caller that
saturates many interpretations passes one table for the whole call, as
:func:`relic.synth.generate_dataset` and the command line's loader do, and
equal facts across all of them are one object.  The table changes which
object holds an equal fact, never a result.

An interpretation's facts are a frozenset, except an aggregated
example's: a :class:`FactUnion`, which keeps its views' fact sets as
parts instead of copying them into one merged set.  It equals, and
hashes as, the frozenset of the same facts.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Set
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, pairwise
from typing import TYPE_CHECKING, AbstractSet, Iterable, Sequence

from .errors import ParseError, UsageError
from .logic import Clause, FactIndex, Literal, PredicateSchema

if TYPE_CHECKING:
    from .dlab import ChoiceSpec, DlabTemplate
    from .multisource import BottomClause, InterleavingConstraint

_IDENT_RE = re.compile(r"^(\w+)_(\d+)_([A-Za-z][A-Za-z0-9]*)$")
_FACT_RE = re.compile(r"([a-z][A-Za-z0-9_]*)\s*(?:\(([^()]*)\))?")
_ARG_RE = re.compile(r"[a-z0-9][A-Za-z0-9_]*|\d+")
_COMMENT_RE = re.compile(r"%[^\n]*")
# One statement, from its first to its last non-blank character, with the
# blanks and empty statements in front of it and its terminating '.'.
_STMT_RE = re.compile(r"[\s.]*([^\s.](?:[^.]*[^\s.])?)\s*\.")


class FactUnion(Set):
    """A read-only set of facts kept as the disjoint frozensets it is the
    union of, so the sets it is built from are shared, not copied.

    A part that overlaps an earlier one is cut to the facts the earlier
    ones lack; every other part is kept as the object it was given (a
    frozenset; any other set is copied to one).  It equals, and hashes
    as, the frozenset of the same facts; set operators return frozensets.
    """

    __slots__ = ("parts", "_len")

    def __init__(self, parts: Iterable[AbstractSet[Literal]]):
        kept: list[frozenset[Literal]] = []
        for p in map(frozenset, parts):
            if not all(p.isdisjoint(q) for q in kept):
                p = p.difference(*kept)
            kept.append(p)
        self.parts = tuple(kept)
        self._len = sum(map(len, kept))

    def __contains__(self, fact) -> bool:
        for p in self.parts:
            if fact in p:
                return True
        return False

    def __iter__(self):
        return chain.from_iterable(self.parts)

    def __len__(self) -> int:
        return self._len

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, facts: Iterable[Literal]) -> frozenset[Literal]:
        return frozenset(facts)

    def __repr__(self) -> str:
        return f"FactUnion({self.parts!r})"


@dataclass(frozen=True)
class Interpretation:
    """One labelled example: a situation seen from one source.

    facts is a frozenset, or for an aggregated example a FactUnion of its
    views' fact sets and its cross-source facts.  Its events are the event
    facts among them, found when first read and kept, as its index is;
    parse_model_file and saturate, which know them already, hand them to
    what they build."""

    situation: int
    source: str
    label: str
    facts: AbstractSet[Literal]

    @cached_property
    def index(self) -> FactIndex:
        return FactIndex(self.facts)

    @cached_property
    def events(self) -> tuple[Literal, ...]:
        """The event facts on their timeline (_timeline)."""
        return _timeline((f for f in self.facts if _is_event(f.args)),
                         self.ident)

    @cached_property
    def coverage_memo(self) -> dict[str, tuple[str, ...] | None]:
        """What the learner found on these facts, keyed by clause body
        text: a body's witness when it covers them (the values of a
        grounding, in the order of the body's variables sorted by name),
        None when it does not.  It lives exactly as long as the example."""
        return {}

    @property
    def ident(self) -> str:
        return f"{self.label}_{self.situation}_{self.source}"


def _with_events(interp: Interpretation,
                 events: tuple[Literal, ...]) -> Interpretation:
    """interp, whose events are known already: events, the event facts
    among its facts (the objects its facts hold) on their timeline, fill
    its events slot, so reading them scans no fact."""
    vars(interp)["events"] = events
    return interp


def _timeline(events: Iterable[Literal], where: str) -> tuple[Literal, ...]:
    """Event facts ordered by (timestamp, id), the one order of a block's
    events; raises UsageError naming where they are from when two share
    an id."""
    timeline = sorted((int(e.args[1]), e.args[0], e) for e in events)
    if len({t[1] for t in timeline}) < len(timeline):
        raise UsageError(f"duplicate event ids in {where}")
    return tuple(t[2] for t in timeline)


def _is_event(args: tuple[str, ...]) -> bool:
    """Whether ground arguments are an event record's: (id, integer
    timestamp, attributes...)."""
    return len(args) >= 2 and args[1].isdecimal() and not args[0].isdecimal()


def _line(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def _fact(stmt: str, words: dict[str, str]) -> Literal | str:
    """A fact statement's ground fact, or why it is not a fact.  Its
    predicate and argument strings are the ones words holds for them
    (words.setdefault(a, a))."""
    m = _FACT_RE.fullmatch(stmt)
    if m is None:
        return f"malformed fact {stmt!r}"
    pred, argtext = m.groups()
    pred = words.setdefault(pred, pred)
    if argtext is None:
        return Literal(pred)
    args = [a.strip() for a in argtext.split(",")]
    for a in args:
        if not a:
            return f"empty argument in {stmt!r}"
        if not _ARG_RE.fullmatch(a):
            return f"non-ground or malformed argument {a!r} in fact {stmt!r}"
    return Literal(pred, tuple(map(words.setdefault, args, args)))


def parse_model_file(text: str) -> list[Interpretation]:
    """Parse every begin(model)/end(model) block of text.

    One loose regular expression splits the text into statements, and one
    loop reads each one outside a block, as a block's identifier or among
    its facts, telling begin(model) and end(model) apart first.  A table,
    kept for this call only, maps each accepted fact's text and its
    blank-free spelling to the fact built for it and whether it is an
    event: :func:`_fact` checks each distinct statement once, and equal
    facts are one shared object.  A second such table does the same for
    the facts' predicate and argument strings.  A block's facts are
    gathered in a set, so its frozenset is sized once, and its event
    statements, put on their timeline (_timeline), are its events; a
    block whose events repeat an id, even in one repeated statement,
    raises UsageError.  Lines are only counted for a rejection."""
    if "%" in text:
        text = _COMMENT_RE.sub("", text)
    known: dict[str, tuple[Literal, bool]] = {}
    words: dict[str, str] = {}
    out: list[Interpretation] = []
    opened = None  # where the open block's begin(model) starts
    ident = None  # the open block's identifier, once read
    for m in _STMT_RE.finditer(text):
        stmt = m[1]
        if stmt == "begin(model)":
            if opened is not None:
                raise ParseError("begin(model) inside an open block",
                                 line=_line(text, m.start(1)))
            opened = m.start(1)
        elif stmt == "end(model)":
            if ident is None:
                raise ParseError("end(model) without identified block",
                                 line=_line(text, m.start(1)))
            interp = Interpretation(int(ident[2]), ident[3], ident[1],
                                    frozenset(facts))
            out.append(_with_events(interp, _timeline(events, interp.ident)))
            opened = ident = None
        elif ident is not None:
            built = known.get(stmt)
            if built is None:
                fact = _fact(stmt, words)
                if isinstance(fact, str):
                    raise ParseError(fact, line=_line(text, m.start(1)))
                # the same fact spelt with other blanks shares too
                canon = str(fact)
                built = known.get(canon) or (fact, _is_event(fact.args))
                known[stmt] = known[canon] = built
            fact, is_event = built
            facts.add(fact)
            if is_event:
                events.append(fact)
        elif opened is not None:
            ident = _IDENT_RE.match(stmt)
            if ident is None:
                raise ParseError(f"block identifier {stmt!r} does not match "
                                 "<class>_<situation>_<source>",
                                 line=_line(text, m.start(1)))
            facts: set[Literal] = set()
            events: list[Literal] = []
        else:
            raise ParseError(f"statement outside begin(model) block: {stmt!r}",
                             line=_line(text, m.start(1)))
    cut = text.rfind(".") + 1  # what follows the last '.' is no statement
    tail = text[cut:]
    if trailing := tail.strip():
        raise ParseError("trailing text without terminating '.': "
                         f"{trailing!r}",
                         line=_line(text, cut + len(tail) - len(tail.lstrip())))
    if opened is not None:
        raise ParseError("missing end(model).", line=_line(text, opened))
    return out


def write_model_file(interpretations: Sequence[Interpretation]) -> str:
    """Inverse of parse_model_file (structural round-trip identity): per
    block, its events, then the other facts in text order.  An
    interpretation whose events share an id raises UsageError, as reading
    it back would."""
    statements: list[str] = []
    for interp in interpretations:
        events = interp.events
        statements.append("begin(model)")
        statements.append(interp.ident)
        statements.extend(map(str, events))
        statements.extend(sorted(map(str, interp.facts - frozenset(events))))
        statements.append("end(model)")
    return ".\n".join(statements) + ".\n" if statements else ""


# --------------------------------------------------------------------------
# symbolization / saturation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolizationConfig:
    """Thresholds turning millisecond delays and mmHg values into categories.

    Boundaries are inclusive on the middle category: v < lo maps to the
    first name, lo <= v <= hi to the second, v > hi to the third.
    """

    beat_ms: tuple[int, int] = (600, 1000)        # rr1 / pp1 / ss1
    wave_ms: tuple[int, int] = (120, 200)         # pr1 / ds1
    amp_mmhg: tuple[int, int] = (70, 110)         # dias / sys amplitude
    variation_mmhg: tuple[int, int] = (30, 60)    # cycle_abp pressure change
    cycle_window_ms: int = 1000

    def __post_init__(self):
        for name in ("beat_ms", "wave_ms", "amp_mmhg", "variation_mmhg"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise UsageError(f"{name} thresholds must be increasing")

    def beat(self, ms: int) -> str:
        return _cat(ms, self.beat_ms, ("short", "normal", "long"))

    def wave(self, ms: int) -> str:
        return _cat(ms, self.wave_ms, ("short", "normal", "long"))

    def amp(self, mmhg: int) -> str:
        return _cat(mmhg, self.amp_mmhg, ("low", "normal", "high"))

    def variation(self, mmhg: int) -> str:
        return _cat(mmhg, self.variation_mmhg, ("low", "normal", "high"))


def _cat(value: int, bounds: tuple[int, int], names: tuple[str, str, str]) -> str:
    lo, hi = bounds
    if value < lo:
        return names[0]
    if value <= hi:
        return names[1]
    return names[2]


# Derived facts are built with tuple.__new__(Literal, (pred, args)): the
# same value as Literal(pred, args), without the named tuple's Python-level
# __new__, which costs about four times as much per fact.  An event fact's
# args are (id, timestamp, attributes...).

def _symbolize_event(e: Literal, cfg: SymbolizationConfig) -> Literal:
    return tuple.__new__(Literal, (e.pred, (e.args[0], *(
        cfg.amp(int(a)) if a.isdecimal() else a for a in e.args[2:]))))


def _amp_of(e: Literal) -> int | None:
    for a in e.args[2:]:
        if a.isdecimal():
            return int(a)
    return None


SUC_WINDOW = 8  # suc relates events at most this many positions apart


def succession_facts(eids: Sequence[str],
                     origins: Sequence[str] | None = None) -> list[Literal]:
    """suc(later, earlier) for the ids of time-ordered events at most
    SUC_WINDOW positions apart, and suci(next, previous) for neighbours.
    With origins (each event's source), only pairs from different
    sources."""
    n = len(eids)
    out: list[Literal] = []
    for j, earlier in enumerate(eids):
        for i in range(j + 1, min(j + 1 + SUC_WINDOW, n)):
            if origins is None or origins[i] != origins[j]:
                out.append(tuple.__new__(Literal, ("suc", (eids[i], earlier))))
    for i in range(1, n):
        if origins is None or origins[i] != origins[i - 1]:
            out.append(tuple.__new__(Literal,
                                     ("suci", (eids[i], eids[i - 1]))))
    return out


def saturate(interp: Interpretation, cfg: SymbolizationConfig,
             schema: PredicateSchema, *,
             known: dict[Literal, Literal] | None = None) -> Interpretation:
    """Extend facts with everything the background knowledge derives from
    the interpretation's events (its event facts, in time order).

    Derived facts: timestamp-free event facts with symbolized attributes,
    suc/suci over the interpretation's timeline (succession_facts), the
    schema's timing predicates, and cycle_abp; never an event, so the
    result has the same events.
    Deterministic and idempotent; an event-free interpretation, or one
    that already holds everything derived (a saturated file read back), is
    returned unchanged: the same object, sharing its index and memo.
    Otherwise every fact of the result, held or derived, is the one object
    known holds for it (known.setdefault(f, f)); known gains the ones it
    lacked.  One table passed to every call of a batch makes equal facts
    across the batch one object; None means a fresh table.  No table
    changes a result.
    """
    events = interp.events
    if not events:
        return interp
    eids = [e.args[0] for e in events]
    times = [int(e.args[1]) for e in events]

    derived = [_symbolize_event(e, cfg) for e in events]
    derived.extend(succession_facts(eids))

    # each predicate's events, as ascending positions on the timeline
    by_pred: dict[str, list[int]] = {}
    for i, e in enumerate(events):
        by_pred.setdefault(e.pred, []).append(i)

    for decl in schema.decls:
        if not decl.derive:
            continue
        kind = decl.derive[0]
        if kind == "cycle":
            derived.extend(_derive_cycles(events, times, decl.derive[1],
                                          decl.derive[2], decl.name, cfg))
            continue
        firsts = by_pred.get(decl.derive[1], [])
        if kind == "consecutive":
            pairs = zip(firsts, firsts[1:])
        else:  # "next": each first with the first second after it
            seconds = by_pred.get(decl.derive[2], [])
            pairs = [(a, seconds[j]) for a in firsts
                     if (j := bisect_right(seconds, a)) < len(seconds)]
        timing = cfg.wave if decl.scale == "wave" else cfg.beat
        derived.extend(tuple.__new__(Literal, (decl.name, (
            eids[a], eids[b], timing(times[b] - times[a]))))
            for a, b in pairs)

    missing = [f for f in derived if f not in interp.facts]
    if not missing:
        return interp
    if known is None:
        known = {}
    # a set, not a list: the frozenset copied from it is sized once for
    # all its facts, a smaller table than one grown fact by fact
    facts = {known.setdefault(f, f) for f in interp.facts}
    facts.update(known.setdefault(f, f) for f in missing)
    return _with_events(Interpretation(interp.situation, interp.source,
                                       interp.label, frozenset(facts)),
                        tuple(map(known.__getitem__, events)))


def _derive_cycles(events: Sequence[Literal], times: Sequence[int],
                   dias_pred: str, sys_pred: str, name: str,
                   cfg: SymbolizationConfig) -> list[Literal]:
    """cycle_abp(D, ampsd, S, ampds) for each diastole immediately followed
    by a systole within the cycle window; ampsd relates the previous
    systole to D, ampds relates D to S (undef where an amplitude is
    unknown).  times holds each event's timestamp."""
    out: list[Literal] = []
    p_amp = None  # the last systole's amplitude
    for (e, t), (nxt, t_nxt) in pairwise(zip(events, times)):
        if (e.pred == dias_pred and nxt.pred == sys_pred
                and t_nxt - t <= cfg.cycle_window_ms):
            d_amp = _amp_of(e)
            out.append(tuple.__new__(Literal, (name, (
                e.args[0], _change(cfg, p_amp, d_amp),
                nxt.args[0], _change(cfg, d_amp, _amp_of(nxt))))))
        if e.pred == sys_pred:
            p_amp = _amp_of(e)
    return out


def _change(cfg: SymbolizationConfig, a: int | None, b: int | None) -> str:
    return "undef" if a is None or b is None else cfg.variation(abs(b - a))


# --------------------------------------------------------------------------
# datasets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Interpretations grouped by source and situation, plus the schema.

    Three tables are shared by a dataset and every restriction of it, so
    a dataset family (a cross-validation's folds and its full run) does
    each piece of work once: aggregated keeps multisource.aggregate's
    merges; bottoms keeps the bottom clauses the biased pipeline built for
    each rule pair, keyed by the two rules, the sources and the
    interleaving constraints (as values, never as text); and templates
    keeps each class bias it compiled, keyed by its bottom clauses' DLAB
    blocks in order.  Every restriction keeps self's schema, which the
    bottom clauses also depend on.
    """

    interpretations: tuple[Interpretation, ...]
    schema: PredicateSchema
    classes: tuple[str, ...]
    _by_key: dict[tuple[str, int], Interpretation] = field(
        init=False, repr=False, compare=False)
    aggregated: dict[frozenset[str], dict[int, Interpretation]] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    bottoms: dict[tuple[Clause, Clause, tuple[str, ...],
                        tuple[InterleavingConstraint, ...]],
                  tuple[BottomClause, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    templates: dict[tuple[ChoiceSpec, ...], DlabTemplate] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        by_key: dict[tuple[str, int], Interpretation] = {}
        for i in self.interpretations:
            key = (i.source, i.situation)
            if key in by_key:
                raise UsageError(
                    f"situation {i.situation} appears twice for source {i.source}")
            by_key[key] = i
        object.__setattr__(self, "_by_key", by_key)

    def sources(self) -> list[str]:
        out: dict[str, None] = {}
        for i in self.interpretations:
            out.setdefault(i.source)
        return list(out)

    def situations(self) -> list[int]:
        return sorted({i.situation for i in self.interpretations})

    def by_source(self, source: str) -> list[Interpretation]:
        return [i for i in self.interpretations if i.source == source]

    def get(self, source: str, situation: int) -> Interpretation | None:
        return self._by_key.get((source, situation))

    def restrict(self, situations: Iterable[int]) -> "Dataset":
        keep = set(situations)
        out = Dataset(tuple(i for i in self.interpretations
                            if i.situation in keep), self.schema, self.classes)
        object.__setattr__(out, "aggregated", self.aggregated)
        object.__setattr__(out, "bottoms", self.bottoms)
        object.__setattr__(out, "templates", self.templates)
        return out
