"""First-order kernel: terms, literals, clauses, theta-subsumption, coverage.

Terms are plain strings under the case convention used throughout the fact
files and rule examples: a name starting with an uppercase character is a
variable, anything else (lowercase identifier or integer text) is a constant.
All values here are immutable; the matching procedures are pure functions and
safe to call concurrently (an index's plan cache only ever gains entries
equal to what a fresh plan would give).

grounding, coverage, first-substitution search and theta-subsumption share
one backtracking matcher over a FactIndex.  Each literal is planned once per
example: its argument slots and the rows its constants allow are kept on
the example's FactIndex and reused by every later call, and
FactIndex.plan gathers a body's steps, or finds at once that some literal
has no row.  The matcher then matches the most constrained literal first
(the one with the fewest candidate rows under the current binding) and
fails a search node as soon as any remaining literal has no candidate row,
in the manner of constraint-satisfaction theta-subsumption (Maloberti &
Sebag, "Fast theta-subsumption with constraint satisfaction algorithms",
2004).  grounding may start from bindings already made, such as a
grounding found for a body the literals extend, and returns the grounding
it finds; covers is whether it finds one for a clause's body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .errors import UsageError

Term = str
Substitution = dict[str, Term]
# bindings a search starts from: a mapping or (variable, value) pairs
Start = Mapping[str, Term] | Iterable[tuple[str, Term]]


def is_variable(term: Term) -> bool:
    return term[:1].isupper()


class Literal(NamedTuple):
    """A predicate applied to an ordered tuple of terms.

    A named tuple: a literal equals, and hashes as, its (pred, args) pair,
    so a ground fact is its own lookup key.
    """

    pred: str
    args: tuple[Term, ...] = ()

    @property
    def key(self) -> tuple[str, int]:
        """Predicate identity: name and arity together."""
        return (self.pred, len(self.args))

    def variables(self) -> list[Term]:
        return [a for a in self.args if is_variable(a)]

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(self.args)})"


def lit(pred: str, *args: Term) -> Literal:
    """Shorthand constructor used heavily in tests and generators."""
    return Literal(pred, tuple(args))


@dataclass(frozen=True, slots=True)
class Clause:
    """head :- body, with the head of the form class(label)."""

    head: Literal
    body: tuple[Literal, ...] = ()

    def variables(self) -> list[Term]:
        seen: dict[Term, None] = {}
        for literal in (self.head, *self.body):
            for v in literal.variables():
                seen.setdefault(v)
        return list(seen)

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- " + ", ".join(str(b) for b in self.body) + "."


def clause(label: str, body: Iterable[Literal] = ()) -> Clause:
    return Clause(Literal("class", (label,)), tuple(body))


def body_key(body: Iterable[Literal]) -> tuple[str, ...]:
    """Order-insensitive body fingerprint (multiset of literal texts)."""
    return tuple(sorted(str(b) for b in body))


def canonical_text(c: Clause) -> str:
    """Deterministic text used for dedup and tie-breaking."""
    return f"{c.head} :- " + ", ".join(body_key(c.body))


def apply_substitution(literal: Literal, subst: Mapping[str, Term]) -> Literal:
    """Replace every bound variable argument; constants pass through."""
    if not literal.args:
        return literal
    return Literal(literal.pred, tuple(subst.get(a, a) if is_variable(a) else a
                                       for a in literal.args))


class FactIndex:
    """Ground facts indexed by (predicate, arity) for fast matching.

    Each body literal matched against the index is planned once, on first
    use, and its step is kept with the index: a literal recurs across the
    clauses of a search, its classes and its folds, but what it may match
    depends only on the literal and these facts.
    """

    __slots__ = ("_by_key", "_columns", "_steps")

    def __init__(self, facts: Iterable[Literal]):
        by_key: dict[tuple[str, int], list[tuple[Term, ...]]] = {}
        for f in frozenset(facts):
            by_key.setdefault(f.key, []).append(f.args)
        # sorted so matching order (and thus found substitutions) is stable
        self._by_key = {k: tuple(sorted(v)) for k, v in by_key.items()}
        self._columns: dict[tuple[str, int], list[_Column | None]] = {}
        self._steps: dict[Literal, _Step | None] = {}

    def column(self, key: tuple[str, int], pos: int) -> _Column:
        """The rows of key by their argument at pos, in sorted row order
        (built on first use)."""
        columns = self._columns_of(key)
        column = columns[pos]
        if column is None:
            table: dict[Term, list[tuple[Term, ...]]] = {}
            for args in self._by_key.get(key, ()):
                table.setdefault(args[pos], []).append(args)
            column = columns[pos] = {v: tuple(rows)
                                     for v, rows in table.items()}
        return column

    def _columns_of(self, key: tuple[str, int]) -> list[_Column | None]:
        columns = self._columns.get(key)
        if columns is None:
            columns = self._columns[key] = [None] * key[1]
        return columns

    def step(self, literal: Literal) -> _Step | None:
        """literal's matching step on these facts, planned on first use;
        None when its constants already rule out every row."""
        step = self._steps.get(literal, _UNPLANNED)
        if step is not _UNPLANNED:
            return step
        key = literal.key
        rows = self._by_key.get(key, ())
        slots = []
        for pos, a in enumerate(literal.args):
            is_var = is_variable(a)
            slots.append((pos, a, is_var))
            if not is_var and rows:
                found = self.column(key, pos).get(a, ())
                if len(found) < len(rows):
                    rows = found
        step = None
        if rows:
            step = _Step(key, rows, tuple(slots), self._columns_of(key))
        self._steps[literal] = step
        return step

    def plan(self, literals: Iterable[Literal]) -> tuple[_Step, ...] | None:
        """Each literal's step, in order; None as soon as one has none, so
        no grounding of the literals lies inside these facts."""
        plan = []
        for literal in literals:
            step = self.step(literal)
            if step is None:
                return None
            plan.append(step)
        return tuple(plan)


_Column = dict[Term, tuple[tuple[Term, ...], ...]]


class _Step:
    """One literal's step on one FactIndex: the rows its constants allow,
    its (pos, term, is_var) slots, its (pos, variable) pairs, and its
    key's columns by position, shared with every step of that key and
    built on the first bound lookup (FactIndex.column)."""

    __slots__ = ("key", "rows", "slots", "variables", "columns")

    def __init__(self, key: tuple[str, int],
                 rows: tuple[tuple[Term, ...], ...],
                 slots: tuple[tuple[int, Term, bool], ...],
                 columns: list[_Column | None]):
        self.key = key
        self.rows = rows
        self.slots = slots
        self.variables = tuple((pos, term) for pos, term, is_var in slots
                               if is_var)
        self.columns = columns


_UNPLANNED = object()


def _as_index(facts: Iterable[Literal] | FactIndex) -> FactIndex:
    return facts if isinstance(facts, FactIndex) else FactIndex(facts)


def _match(plan: tuple[_Step, ...] | None, index: FactIndex, dynamic: bool,
           start: Start = ()) -> Substitution | None:
    """The one backtracking search behind grounding, covers,
    find_covering_substitution and theta_subsumes: a grounding of every
    planned literal inside index that extends start, or None (at once when
    plan is, as FactIndex.plan gives it for a literal with no row).

    Each literal is tried against the rows for its most selective bound
    position only: its constants are weighed once per index, in its step,
    and its variables as they become bound.  Those rows keep the sorted
    row order.  With dynamic set, every search node first counts those rows
    for each remaining literal: a literal with none fails the node at once
    (forward checking), otherwise the literal with the fewest rows is
    matched next, ties going to the earlier literal.  Without it the
    literals are matched left to right, so the first grounding found is
    the first in sorted-row order.
    """
    if plan is None:
        return None
    binding: Substitution = dict(start)
    column = index.column

    def rows(step: _Step) -> tuple[tuple[Term, ...], ...]:
        best = step.rows
        columns = step.columns
        for pos, var in step.variables:
            value = binding.get(var)
            if value is not None:
                # a built column is never empty: a step's key has rows
                by_value = columns[pos] or column(step.key, pos)
                found = by_value.get(value, ())
                if len(found) < len(best):
                    best = found
                    if not found:
                        break
        return best

    def solve(remaining: tuple[_Step, ...]) -> bool:
        if not remaining:
            return True
        pick = 0
        if dynamic:
            fewest = None
            for i, step in enumerate(remaining):
                found = rows(step)
                if not found:
                    return False
                if fewest is None or len(found) < len(fewest):
                    pick, fewest = i, found
        else:
            fewest = rows(remaining[0])
        slots = remaining[pick].slots
        rest = remaining[:pick] + remaining[pick + 1:]
        for args in fewest:
            trail: list[Term] = []
            for pos, term, is_var in slots:
                value = args[pos]
                if is_var:
                    bound = binding.get(term)
                    if bound is None:
                        binding[term] = value
                        trail.append(term)
                        continue
                    term = bound
                if term != value:
                    break
            else:
                if solve(rest):
                    return True
            for v in trail:
                del binding[v]
        return False

    found = solve(plan)
    del solve  # its closure refers to itself: break the cycle for refcounting
    return binding if found else None


def grounding(plan: tuple[_Step, ...] | None, index: FactIndex,
              start: Start = ()) -> Substitution | None:
    """A grounding inside index of the literals FactIndex.plan planned
    there that extends start, or None (at once for a None plan).

    start binds some of their variables, as a mapping or (variable, value)
    pairs, say to a grounding already found for a body they extend; the
    result is a new dict that holds start's bindings too.  The literals are
    matched most constrained first: at each step the one with the fewest
    candidate rows under the current binding, failing as soon as any has
    none.  Whether a grounding exists does not depend on that order, but
    which one is found does.
    """
    return _match(plan, index, True, start)


def covers(c: Clause, facts: Iterable[Literal] | FactIndex) -> bool:
    """True iff some grounding of the body lies entirely inside facts.

    An empty body is vacuously covered.  The body is planned on facts'
    index and matched by grounding; see find_covering_substitution for the
    left-to-right variant.
    """
    index = _as_index(facts)
    return grounding(index.plan(c.body), index) is not None


def find_covering_substitution(
        c: Clause, facts: Iterable[Literal] | FactIndex) -> Substitution | None:
    """First grounding found matching strictly left to right through the
    body (candidate facts in sorted order), or None."""
    index = _as_index(facts)
    return _match(index.plan(c.body), index, dynamic=False)


def theory_covers(clauses: Iterable[Clause],
                  facts: Iterable[Literal] | FactIndex) -> bool:
    """Disjunctive reading of a class theory: any clause covering suffices."""
    index = _as_index(facts)
    return any(covers(c, index) for c in clauses)


def theta_subsumes(c: Clause, d: Clause) -> bool:
    """True iff some substitution maps every literal of c into d.

    Both heads and bodies participate: each literal of c, after the
    substitution, must occur among d's head and body literals.  d's
    variables are matched as if they were constants.
    """
    index = FactIndex((d.head, *d.body))
    return grounding(index.plan((c.head, *c.body)), index) is not None


def standardize_apart(c1: Clause, c2: Clause) -> tuple[Clause, Clause]:
    """Rename c2's variables away from c1's; c1 is returned unchanged.

    Renaming is deterministic: a colliding variable V becomes V_2, with an
    ordinal appended (V_2_3, ...) until the name is fresh in both clauses.
    """
    used = set(c1.variables()) | set(c2.variables())
    collisions = [v for v in c2.variables() if v in set(c1.variables())]
    mapping: Substitution = {}
    for v in collisions:
        candidate = f"{v}_2"
        ordinal = 2
        while candidate in used:
            ordinal += 1
            candidate = f"{v}_2_{ordinal}"
        mapping[v] = candidate
        used.add(candidate)
    if not mapping:
        return c1, c2
    renamed = Clause(apply_substitution(c2.head, mapping),
                     tuple(apply_substitution(b, mapping) for b in c2.body))
    return c1, renamed


ROLES = ("event", "relational", "global")


@dataclass(frozen=True, slots=True)
class PredicateDecl:
    """Declared shape of one predicate within a problem."""

    name: str
    role: str
    source: str = "shared"
    # value domains, in order, of an event's attributes (after its id and
    # timestamp) or of a relation's "cat" positions
    domains: tuple[tuple[str, ...], ...] = ()
    # for relational predicates: what each argument position holds
    # ("a"/"b" = earlier/later event id, "cat" = enumerated category,
    # "var" = free variable)
    argspec: tuple[str, ...] = ()
    # how saturation derives this predicate's facts, e.g.
    # ("consecutive", "qrs") or ("next", "p", "qrs") or ("cycle", "dias", "sys")
    derive: tuple[str, ...] = ()
    # threshold family for the derived category ("beat" or "wave")
    scale: str = "beat"

    def __post_init__(self):
        if self.role not in ROLES:
            raise UsageError(f"unknown predicate role {self.role!r}")
        if self.derive and self.derive[0] not in ("consecutive", "next",
                                                  "cycle"):
            raise UsageError(f"unknown derivation kind {self.derive[0]!r}")
        if self.scale not in ("beat", "wave"):
            raise UsageError(f"unknown timing scale {self.scale!r}")


@dataclass(frozen=True)
class PredicateSchema:
    """All predicates of one problem, each declared exactly once."""

    decls: tuple[PredicateDecl, ...]
    _by_name: dict[str, PredicateDecl] = field(init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        by_name: dict[str, PredicateDecl] = {}
        for d in self.decls:
            if d.name in by_name:
                raise UsageError(f"predicate {d.name} declared twice")
            by_name[d.name] = d
        object.__setattr__(self, "_by_name", by_name)

    def get(self, name: str) -> PredicateDecl | None:
        return self._by_name.get(name)

    def is_event(self, name: str) -> bool:
        d = self._by_name.get(name)
        return d is not None and d.role == "event"

    def event_preds(self) -> list[PredicateDecl]:
        return [d for d in self.decls if d.role == "event"]

    def relational_preds(self) -> list[PredicateDecl]:
        return [d for d in self.decls if d.role in ("relational", "global")]

    def sources(self) -> list[str]:
        out: dict[str, None] = {}
        for d in self.decls:
            if d.source != "shared":
                out.setdefault(d.source)
        return list(out)
