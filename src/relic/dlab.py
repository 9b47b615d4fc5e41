"""DLAB declarative bias: parsing, counting, enumeration, membership, refinement.

A grammar is a tree of choice nodes ``MIN-MAX:[...]`` over terminals whose
arguments may themselves contain inline choices over constants, e.g.::

    len-len:[ p(P1,1-1:[normal,abnormal]), suc(P1,R0) ]

``len`` in a bound position resolves to the number of immediate children.
An inline choice with MIN < MAX generates literals of varying arity: the
chosen elements are spliced into the argument list in order, so
``p(2-len:[e1,e2,e3])`` generates p(e1,e2), p(e1,e3), p(e2,e3), p(e1,e2,e3).

A Selection records, per choice node, which children were chosen; the
search operates on selections, not clauses, since distinct selections can
induce the same clause.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from math import comb, prod
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import BiasError, ParseError, UsageError
from .logic import Clause, Literal, Term, body_key, clause, is_variable

# --------------------------------------------------------------------------
# build specs (programmatic construction) and compiled node table
# --------------------------------------------------------------------------

Bound = Union[int, str]  # int or "len"


# Specs are slotted: each bottom clause keeps its block's specs for as long
# as the pipeline's result lives.
@dataclass(frozen=True, slots=True)
class InlineSpec:
    low: Bound
    high: Bound
    elements: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class LiteralSpec:
    pred: str
    args: tuple[Union[Term, InlineSpec], ...]


@dataclass(frozen=True, slots=True)
class ChoiceSpec:
    low: Bound
    high: Bound
    children: tuple[Union["ChoiceSpec", LiteralSpec], ...]


def inline(low: Bound, high: Bound, *elements: Term) -> InlineSpec:
    return InlineSpec(low, high, tuple(elements))


def literal(pred: str, *args: Union[Term, InlineSpec]) -> LiteralSpec:
    return LiteralSpec(pred, tuple(args))


def choice(low: Bound, high: Bound,
           *children: Union[ChoiceSpec, LiteralSpec]) -> ChoiceSpec:
    return ChoiceSpec(low, high, tuple(children))


def nested(levels: Sequence[Sequence[Union[ChoiceSpec, LiteralSpec]]]
           ) -> list[ChoiceSpec]:
    """Each level as an optional block that holds all of its parts and
    the next level's block: [0-1:[len-len:[*parts, 0-1:[...]]]], or []
    for no levels.  A level opens only inside the one before it."""
    deeper: list[ChoiceSpec] = []
    for parts in reversed(levels):
        deeper = [choice(0, 1, choice("len", "len", *parts, *deeper))]
    return deeper


@dataclass(frozen=True)
class ChoiceNode:
    nid: int
    low: int
    high: int
    children: tuple[int, ...]


@dataclass(frozen=True)
class InlineNode:
    nid: int
    low: int
    high: int
    elements: tuple[Term, ...]


@dataclass(frozen=True)
class TerminalNode:
    nid: int
    pred: str
    # ("t", term) for a fixed term, ("c", nid) for an inline choice
    items: tuple[tuple[str, object], ...]

    @property
    def inline_ids(self) -> tuple[int, ...]:
        return tuple(v for k, v in self.items if k == "c")  # type: ignore


Node = Union[ChoiceNode, InlineNode, TerminalNode]


@dataclass(frozen=True, eq=False)
class DlabTemplate:
    root: int
    nodes: tuple[Node, ...]
    # memos that live and die with the template: refine's sorted children
    # per selection, and one shared object per literal any induced body
    # holds
    _children: dict[Selection, tuple[Refinement, ...]] = field(
        init=False, default_factory=dict, repr=False)
    _literals: dict[Literal, Literal] = field(init=False, default_factory=dict,
                                              repr=False)

    def node(self, nid: int) -> Node:
        return self.nodes[nid]


def _bounds(s: Union[ChoiceSpec, InlineSpec], n: int,
            pred: str | None = None) -> tuple[int, int]:
    """s's min and max over its n children or elements: len resolved to
    n, max capped at n, min > max refused.  pred names the terminal an
    inline choice sits in, and is None for a choice node."""
    what = "choice" if pred is None else f"{pred} inline choice"
    for b in (s.low, s.high):
        if b != "len" and (not isinstance(b, int) or b < 0):
            raise BiasError(f"bad bound {b!r} in {what}")
    low, high = (n if b == "len" else b for b in (s.low, s.high))
    high = min(high, n)
    if low > high:
        name = (f"choice {s.low}-{s.high}" if pred is None
                else f"inline choice {s.low}-{s.high} in {pred}")
        raise BiasError(f"{name} has min > max")
    return low, high


def compile_template(spec: Union[ChoiceSpec, LiteralSpec]) -> DlabTemplate:
    """Assign node ids in preorder and validate all bounds."""
    nodes: list[Node] = []

    def build(s) -> int:
        nid = len(nodes)
        nodes.append(None)  # type: ignore  # reserve preorder slot
        if isinstance(s, LiteralSpec):
            items: list[tuple[str, object]] = []
            for a in s.args:
                if isinstance(a, InlineSpec):
                    cid = len(nodes)
                    low, high = _bounds(a, len(a.elements), s.pred)
                    nodes.append(InlineNode(cid, low, high, a.elements))
                    items.append(("c", cid))
                else:
                    items.append(("t", a))
            nodes[nid] = TerminalNode(nid, s.pred, tuple(items))
        else:
            low, high = _bounds(s, len(s.children))
            child_ids = tuple(build(c) for c in s.children)
            nodes[nid] = ChoiceNode(nid, low, high, child_ids)
        return nid

    root = build(spec)
    return DlabTemplate(root=root, nodes=tuple(nodes))


# --------------------------------------------------------------------------
# text format
# --------------------------------------------------------------------------

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+")
# a comment, a blank (group 1), or a token (group 2): a word or one character
_TOKEN_RE = re.compile(rf"%[^\n]*|(\s+)|({_WORD_RE.pattern}|.)")

# choices nested deeper than this are refused: the parser and every walk
# of a template recurse once per level
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, int]]:
    toks: list[tuple[str, int]] = []
    line = 1
    for m in _TOKEN_RE.finditer(text):
        blank, tok = m.groups()
        if blank:
            line += blank.count("\n")
        elif tok:
            toks.append((tok, line))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0  # choices open around the next token

    def peek(self, ahead: int = 0) -> str | None:
        j = self.i + ahead
        return self.toks[j][0] if j < len(self.toks) else None

    def line(self) -> int:
        return self.toks[self.i][1] if self.i < len(self.toks) else \
            (self.toks[-1][1] if self.toks else 1)

    def take(self, expected: str | None = None) -> str:
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of grammar", line=self.line())
        tok, line = self.toks[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", line=line)
        self.i += 1
        return tok

    def bound(self) -> Bound:
        line = self.line()
        tok = self.take()
        if tok == "len":
            return "len"
        if tok.isdigit():
            return int(tok)
        raise ParseError(f"expected bound, found {tok!r}", line=line)

    def at_choice(self) -> bool:
        t = self.peek()
        return (t is not None and (t.isdigit() or t == "len")
                and self.peek(1) == "-")

    def items(self, item) -> tuple:
        """One or more items separated by commas."""
        out = [item()]
        while self.peek() == ",":
            self.take(",")
            out.append(item())
        return tuple(out)

    def choice(self, item) -> tuple[Bound, Bound, tuple]:
        """MIN-MAX:[item, ...] as (min, max, items)."""
        low = self.bound()
        self.take("-")
        high = self.bound()
        self.take(":")
        line = self.line()
        self.take("[")
        if self.depth == MAX_NESTING:
            raise ParseError(f"choices nest deeper than {MAX_NESTING} levels",
                             line=line)
        self.depth += 1
        elems = self.items(item)
        self.depth -= 1
        self.take("]")
        return low, high, elems

    def node(self) -> Union[ChoiceSpec, LiteralSpec]:
        if self.at_choice():
            return ChoiceSpec(*self.choice(self.node))
        line = self.line()
        name = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ParseError(f"expected literal, found {name!r}", line=line)
        if self.peek() != "(":
            return LiteralSpec(name, ())
        self.take("(")
        args = self.items(self.argitem)
        self.take(")")
        return LiteralSpec(name, args)

    def argitem(self) -> Union[Term, InlineSpec]:
        if self.at_choice():
            return InlineSpec(*self.choice(self.term))
        return self.term()

    def term(self) -> Term:
        line = self.line()
        tok = self.take()
        if not _WORD_RE.fullmatch(tok):
            raise ParseError(f"expected term, found {tok!r}", line=line)
        return tok


def parse_dlab(text: str) -> DlabTemplate:
    """Parse grammar text into a compiled template; choices nested deeper
    than MAX_NESTING levels are refused."""
    p = _Parser(text)
    spec = p.node()
    if p.i != len(p.toks):
        raise ParseError(f"trailing tokens after grammar: {p.peek()!r}",
                         line=p.line())
    return compile_template(spec)


def template_text(t: DlabTemplate) -> str:
    """Render a template back to parseable grammar text."""

    def render(nid: int) -> str:
        node = t.node(nid)
        if isinstance(node, TerminalNode):
            if not node.items:
                return node.pred
            parts = []
            for kind, v in node.items:
                if kind == "t":
                    parts.append(str(v))
                else:
                    ic = t.node(v)
                    parts.append(f"{ic.low}-{ic.high}:[{','.join(ic.elements)}]")
            return f"{node.pred}({','.join(parts)})"
        inner = ", ".join(render(c) for c in node.children)
        return f"{node.low}-{node.high}:[{inner}]"

    return render(t.root)


# --------------------------------------------------------------------------
# selections
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Selection:
    """Chosen child indices per choice/inline node (empty entries omitted)."""

    picks: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def merged(self, extra: Mapping[int, tuple[int, ...]]) -> "Selection":
        """This selection plus extra's picks; entries extra leaves alone
        keep their (nid, picks) pair objects."""
        d = {pair[0]: pair for pair in self.picks}
        for k, v in extra.items():
            if v:
                old = d[k][1] if k in d else ()
                d[k] = (k, tuple(sorted((*old, *v))))
        return Selection(tuple(d[k] for k in sorted(d)))


def start_selection(t: DlabTemplate) -> Selection:
    return Selection(())


def _terminal_literal(t: DlabTemplate, node: TerminalNode,
                      picks: Mapping[int, tuple[int, ...]]) -> Literal:
    """node's literal with the picked elements of each of its inline
    choices spliced in, in order."""
    args: list[Term] = []
    for kind, v in node.items:
        if kind == "t":
            args.append(v)  # type: ignore
        else:
            elements = t.node(v).elements  # type: ignore
            for idx in picks.get(v, ()):
                args.append(elements[idx])
    return Literal(node.pred, tuple(args))


def _walk(t: DlabTemplate, nid: int,
          picks: Mapping[int, tuple[int, ...]]) -> list[tuple[int, Literal]]:
    """The terminals the subtree at nid reaches under picks, in tree order,
    each as (its nid, its literal).  Ids are preorder, so tree order is
    ascending nid and a subtree's terminals are one run of nids.  The
    literals are interned on the template, so equal literals of any two
    bodies are one object."""
    interned = t._literals
    out: list[tuple[int, Literal]] = []

    def walk(nid: int):
        node = t.node(nid)
        if isinstance(node, TerminalNode):
            made = _terminal_literal(t, node, picks)
            out.append((nid, interned.setdefault(made, made)))
        else:
            for idx in picks.get(nid, ()):
                walk(node.children[idx])

    walk(nid)
    return out


def induce_body(t: DlabTemplate, sel: Selection) -> tuple[Literal, ...]:
    """The clause body a selection stands for, in tree order, its literals
    interned on the template (_walk)."""
    return tuple(lit for _, lit in _walk(t, t.root, dict(sel.picks)))


def clause_of(t: DlabTemplate, sel: Selection, label: str) -> Clause:
    return clause(label, induce_body(t, sel))


# --------------------------------------------------------------------------
# counting and enumeration
# --------------------------------------------------------------------------

def count_space(t: DlabTemplate) -> int:
    """Exact number of distinct valid selections.

    count(terminal) is the product of its inline-choice counts; a choice
    contributes a sum over subset sizes of products of child counts,
    computed through the generating polynomial of its children.  Each call
    visits every node of the tree once, so nothing is kept between calls.
    """

    def count(nid: int) -> int:
        node = t.node(nid)
        if isinstance(node, InlineNode):
            n = len(node.elements)
            return sum(comb(n, k) for k in range(node.low, node.high + 1))
        if isinstance(node, TerminalNode):
            return prod(count(cid) for cid in node.inline_ids)
        poly = [1]
        for c in node.children:
            cc = count(c)
            nxt = [0] * (len(poly) + 1)
            for i, coeff in enumerate(poly):
                nxt[i] += coeff
                nxt[i + 1] += coeff * cc
            poly = nxt
        return sum(poly[k] for k in range(node.low,
                                          min(node.high, len(poly) - 1) + 1))

    return count(t.root)


def _subsets(n: int, low: int, high: int) -> Iterator[tuple[int, ...]]:
    for k in range(low, high + 1):
        yield from itertools.combinations(range(n), k)


def _enum_picks(t: DlabTemplate, nid: int,
                minimal: bool = False) -> Iterator[dict[int, tuple[int, ...]]]:
    """Every valid picks of the subtree at nid; with minimal, only those
    choosing each reached node's least number (its low) of children."""
    node = t.node(nid)
    if isinstance(node, TerminalNode):
        inline_ids = node.inline_ids
        options = []
        for cid in inline_ids:
            ic = t.node(cid)
            high = ic.low if minimal else ic.high
            options.append(list(_subsets(len(ic.elements), ic.low, high)))
        for combo in itertools.product(*options):
            yield {cid: sub for cid, sub in zip(inline_ids, combo) if sub}
        return
    high = node.low if minimal else node.high
    for subset in _subsets(len(node.children), node.low, high):
        child_iters = [list(_enum_picks(t, node.children[i], minimal))
                       for i in subset]
        for combo in itertools.product(*child_iters):
            merged: dict[int, tuple[int, ...]] = {nid: subset} if subset else {}
            for d in combo:
                merged.update(d)
            yield merged


def enumerate_selections(t: DlabTemplate, limit: int = 100_000) -> list[Selection]:
    """Every valid selection exactly once, in deterministic order."""
    total = count_space(t)
    if total > limit:
        raise UsageError(f"search space holds {total} clauses, over limit {limit}")
    return [Selection(tuple(sorted(p.items()))) for p in _enum_picks(t, t.root)]


def enumerate_bodies(t: DlabTemplate, limit: int = 100_000) -> list[tuple[Literal, ...]]:
    return [induce_body(t, s) for s in enumerate_selections(t, limit)]


def member(c: Clause, t: DlabTemplate) -> bool:
    """True iff some valid selection induces exactly c's body (as a multiset)."""
    target = Counter(c.body)

    def match(nid: int, avail: Counter) -> Iterator[Counter]:
        node = t.node(nid)
        if isinstance(node, TerminalNode):
            seen: set[Literal] = set()
            for picks in _enum_picks(t, nid):
                inst = _terminal_literal(t, node, picks)
                if inst in seen:
                    continue
                seen.add(inst)
                if avail[inst] > 0:
                    nxt = avail.copy()
                    nxt[inst] -= 1
                    yield nxt
            return
        for subset in _subsets(len(node.children), node.low, node.high):

            def seq(idx: int, av: Counter) -> Iterator[Counter]:
                if idx == len(subset):
                    yield av
                    return
                for nxt in match(node.children[subset[idx]], av):
                    yield from seq(idx + 1, nxt)

            yield from seq(0, avail)

    return any(not +rem for rem in match(t.root, target))


# --------------------------------------------------------------------------
# refinement
# --------------------------------------------------------------------------

def _reached_nodes(t: DlabTemplate,
                   sel: Selection) -> list[tuple[Node, tuple[int, ...]]] | None:
    """Each choice and inline node reachable under sel's picks, in tree
    order, with its picks; None when sel is invalid: a reached node holds
    fewer than min or more than max picks, or an index twice, out of
    order or outside its children, or a node that is not reached (an
    inline choice of an unreached terminal included) holds a pick."""
    picks = dict(sel.picks)
    out: list[tuple[Node, tuple[int, ...]]] = []

    def reach(node: Union[ChoiceNode, InlineNode],
              size: int) -> tuple[int, ...] | None:
        chosen = picks.get(node.nid, ())
        # in range, no index twice, and in increasing order
        if chosen != tuple(i for i in range(size) if i in chosen) or \
                not node.low <= len(chosen) <= node.high:
            return None
        out.append((node, chosen))
        return chosen

    def walk(nid: int) -> bool:
        node = t.node(nid)
        if isinstance(node, TerminalNode):
            return all(reach(ic, len(ic.elements)) is not None
                       for ic in map(t.node, node.inline_ids))
        chosen = reach(node, len(node.children))
        return chosen is not None and all(walk(node.children[i]) for i in chosen)

    if not walk(t.root):
        return None
    reached = {node.nid for node, _ in out}
    if any(v and k not in reached for k, v in picks.items()):
        return None
    return out


class Refinement(NamedTuple):
    """One child of refine: its selection, the body it induces (in tree
    order), that body's text (the sorted literal texts joined by ", "),
    the body's variables sorted by name, what it adds to its base, and
    whether it is additive: its literal multiset contains the parent
    selection's, so it covers no example the parent does not.  added is
    then the multiset difference, in tree order, and otherwise the whole
    body (its base is the empty body)."""

    sel: Selection
    body: tuple[Literal, ...]
    text: str
    variables: tuple[Term, ...]
    added: tuple[Literal, ...]
    additive: bool


def _variables(body: Sequence[Literal]) -> set[Term]:
    return {a for b in body for a in b.args if is_variable(a)}


def _added(body: Sequence[Literal],
           base: Sequence[Literal]) -> tuple[Literal, ...]:
    """body's literals beyond base, a sub-multiset of them, in body
    order."""
    rest = list(base)
    out = []
    for b in body:
        if b in rest:
            rest.remove(b)
        else:
            out.append(b)
    return tuple(out)


def refine(t: DlabTemplate, sel: Selection) -> list[Refinement]:
    """All minimal valid selections strictly extending sel whose induced
    clause strictly grows, each with the body it induces, its text, its
    variables, the literals it adds to its base (sel's body when it only
    adds literals, the empty body otherwise) and whether it is additive
    (Refinement).

    From an invalid empty selection (a root that needs picks) this yields
    the min-completions of the root (the most general clauses of the
    space); from a valid one it extends each reached node by one child or
    element.  Extensions that leave the clause unchanged (a newly chosen
    subtree contributing no literal) are transparently refined further.
    Children are sorted by the tuple of their sorted literal texts, then by
    picks, so results are deterministic regardless of evaluation order.

    Each child's body is spliced from sel's, which is walked once: node
    ids are preorder, so tree order is ascending terminal nid, and a
    newly chosen subtree's literals go in where its nid falls among sel's
    (_refinements).

    The children of each selection are worked out once and kept on the
    template (t._children), so they live exactly as long as t; every call
    returns a new list, and a caller may change it freely.
    """
    cached = t._children.get(sel)
    if cached is None:
        found = _refinements(t, sel)
        cached = t._children[sel] = tuple(found[k] for k in sorted(found))
    return list(cached)


def _refinements(t: DlabTemplate, sel: Selection) -> dict[tuple, Refinement]:
    """refine's children keyed by (sorted literal texts, picks), found by
    one walk of sel's reached nodes.  sel's body is walked once into
    (terminal nid, literal) pairs, ascending in nid, and each child's body
    is spliced from it: a newly chosen subtree's literals go in where its
    nid falls among those nids, and a new inline element rebuilds only
    the literal of the terminal that owns it (the terminal right before
    it in preorder).  Only the completions of an empty selection are
    walked from the root."""
    reached = _reached_nodes(t, sel)
    if reached is None and sel.picks:
        raise UsageError("refine requires a valid or empty start selection")
    pairs = _walk(t, t.root, dict(sel.picks))
    nids = [nid for nid, _ in pairs]
    base = tuple(lit for _, lit in pairs)
    base_key, base_vars = body_key(base), _variables(base)
    results: dict[tuple, Refinement] = {}

    def consider(candidate: Selection, body: tuple[Literal, ...],
                 additive: bool):
        # additive follows from the kind of extension: a choice child (or a
        # completion of a choice root) adds the literals of a subtree no
        # pick reached before and keeps every literal sel induces, while an
        # inline element (or a completion of a terminal root) rewrites one
        # of sel's literals to a greater arity, so sel's literal is lost
        key = body_key(body)
        if key == base_key:
            # same multiset as sel, so additive means the same for both
            for k, deeper in _refinements(t, candidate).items():
                results.setdefault(k, deeper)
        elif (key, candidate.picks) not in results:
            added = _added(body, base) if additive else body
            variables = (base_vars if additive else set()) | _variables(added)
            results[key, candidate.picks] = Refinement(
                candidate, body, ", ".join(key), tuple(sorted(variables)),
                added, additive)

    if reached is None:
        adds = not isinstance(t.node(t.root), TerminalNode)
        for completion in _enum_picks(t, t.root, minimal=True):
            candidate = sel.merged(completion)
            consider(candidate, induce_body(t, candidate), adds)
        return results
    for node, chosen in reached:
        if len(chosen) >= node.high:
            continue
        if isinstance(node, InlineNode):
            at = bisect_right(nids, node.nid) - 1  # node's terminal
            for idx in range(len(node.elements)):
                if idx not in chosen:
                    candidate = sel.merged({node.nid: (idx,)})
                    [(_, made)] = _walk(t, nids[at], dict(candidate.picks))
                    consider(candidate, (*base[:at], made, *base[at + 1:]),
                             False)
        else:
            for idx in range(len(node.children)):
                if idx in chosen:
                    continue
                sub = node.children[idx]
                at = bisect_left(nids, sub)
                for completion in _enum_picks(t, sub, minimal=True):
                    new = [lit for _, lit in _walk(t, sub, completion)]
                    consider(sel.merged({node.nid: (idx,), **completion}),
                             (*base[:at], *new, *base[at:]), True)
    return results
