"""Brute-force reference implementations the fast code is checked against.

These enumerate substitutions exhaustively, read text with plain string
methods, or search the plain way, and never share code with the package's
matching routines, its fact-file scanner or the learner's shortcuts.
"""

from itertools import combinations, permutations, product
from string import ascii_letters, ascii_lowercase, digits

from relic.data import Interpretation
from relic.dlab import parse_dlab, refine, start_selection, template_text
from relic.errors import ParseError, UsageError
from relic.logic import Clause, Literal, clause, is_variable
from relic.multisource import aggregate


def brute_covers(c: Clause, facts) -> bool:
    """Try every assignment of body variables to constants in the facts."""
    return any(True for _ in brute_groundings(c, facts))


def brute_groundings(c: Clause, facts):
    """Every assignment of the body's variables to constants in the facts
    that grounds the whole body inside them, in sorted order; one empty
    assignment for a ground body the facts hold."""
    facts = set(facts)
    constants = sorted({a for f in facts for a in f.args})
    variables = sorted({a for b in c.body for a in b.args if is_variable(a)})
    for combo in product(constants, repeat=len(variables)):
        theta = dict(zip(variables, combo))
        grounded = [Literal(b.pred, tuple(theta.get(a, a) for a in b.args))
                    for b in c.body]
        if all(g in facts for g in grounded):
            yield theta


def brute_subsumes(c: Clause, d: Clause) -> bool:
    """Try every mapping of c's variables to terms occurring in d."""
    targets = {d.head, *d.body}
    terms = sorted({a for t in targets for a in t.args})
    variables = sorted({a for lit in (c.head, *c.body) for a in lit.args
                        if is_variable(a)})
    literals = (c.head, *c.body)
    if not variables:
        return all(lit in targets for lit in literals)
    if not terms:
        return False
    for combo in product(terms, repeat=len(variables)):
        theta = dict(zip(variables, combo))
        mapped = [Literal(lit.pred, tuple(theta.get(a, a) for a in lit.args))
                  for lit in literals]
        if all(m in targets for m in mapped):
            return True
    return False


def brute_first_substitution(c: Clause, facts):
    """The first grounding of the body, scanning it left to right over the
    full sorted rows of each literal's predicate.

    Depth-first left-to-right search finds the lexicographically first
    consistent choice of one row per body literal, which is the first
    consistent choice that product() yields over the sorted rows."""
    rows = {}
    for f in set(facts):
        rows.setdefault((f.pred, len(f.args)), []).append(f.args)
    choices = [sorted(rows.get((b.pred, len(b.args)), ())) for b in c.body]
    for combo in product(*choices):
        theta = _consistent(c.body, combo)
        if theta is not None:
            return theta
    return None


def _consistent(body, combo):
    """The substitution mapping each body literal's args onto its chosen
    row, or None when no single one does."""
    theta = {}
    for b, args in zip(body, combo):
        for a, g in zip(b.args, args):
            if is_variable(a):
                if theta.setdefault(a, g) != g:
                    return None
            elif a != g:
                return None
    return theta


def reference_learn_class(label, examples, bias, params, covers):
    """learn_class the plain way, as (clauses, nodes, complete).

    The bias is compiled afresh, and every child is tested with
    covers(clause, example) on every remaining positive and every negative.
    Children with equal body text (sorted literal texts) are pooled, the
    first one giving the clause; each round expands the beam's selections
    not expanded before in the search, stops at the candidates with fp = 0
    and tp >= 1 (best accuracy, then fewest literals, then text), and
    otherwise keeps the beam_width best candidates covering a positive (by
    accuracy, then text).  The covering loop accepts one clause per search.
    """
    t = parse_dlab(template_text(bias))
    pos = [e for e in examples if e.label == label]
    neg = [e for e in examples if e.label != label]
    remaining, accepted, nodes = list(range(len(pos))), [], 0
    while remaining and len(accepted) < params.max_clauses_per_class:
        beam, expanded, best = [[start_selection(t)]], set(), None
        while beam and best is None:
            pooled = {}
            for sel in (sel for sels in beam for sel in sels):
                if sel in expanded:
                    continue
                expanded.add(sel)
                children = refine(t, sel)
                nodes += len(children)
                for child in children:
                    text = ", ".join(sorted(str(b) for b in child.body))
                    sels, _ = pooled.setdefault(text, ([], child.body))
                    if child.sel not in sels:
                        sels.append(child.sel)
            scored = []
            for text, (sels, body) in pooled.items():
                c = clause(label, body)
                tp = [i for i in remaining if covers(c, pos[i])]
                fp = sum(1 for e in neg if covers(c, e))
                acc = ((len(tp) + len(neg) - fp)
                       / (len(remaining) + len(neg)))
                scored.append((-acc, len(body), text, sels, c, tp, fp))
            done = [s for s in scored if s[6] == 0 and s[5]]
            if done:
                best = min(done, key=lambda s: s[:3])
            live = sorted((s for s in scored if s[5]),
                          key=lambda s: (s[0], s[2]))
            beam = [s[3] for s in live[:params.beam_width]]
        if best is None:
            break
        accepted.append(best[4])
        remaining = [i for i in remaining if i not in best[5]]
    return tuple(accepted), nodes, not remaining


def reference_pipeline(dataset, biases, constraints, params, covers,
                       class_biases):
    """biased_multisource_learn the plain way, as (mono, bottoms, agg).

    mono maps each source to {label: reference_learn_class(...)} for every
    class with a view there, under that source's bias.  bottoms maps each
    class the second pass learns to the body keys of its bottom clauses:
    every pair of its monosource rules, one per source (the empty clause
    standing in for a source with none), interleaved by reference_merges.
    A class no aggregated example holds, or with no rule on either source,
    gets none.  agg maps each of those classes to reference_learn_class on
    the aggregated examples (multisource.aggregate's) under
    class_biases[label], the bias the pipeline synthesized for it."""
    sources = dataset.sources()
    mono = {}
    for s in sources:
        views = dataset.by_source(s)
        mono[s] = {label: reference_learn_class(label, views, biases[s],
                                                params, covers)
                   for label in sorted({e.label for e in views})}
    examples = aggregate(dataset).examples
    aggregated = {e.label for e in examples}
    bottoms, agg = {}, {}
    for label in sorted({i.label for i in dataset.interpretations}):
        rules = [mono[s][label][0] if label in mono[s] else ()
                 for s in sources]
        if label not in aggregated or not any(rules):
            continue
        pairs = product(*(r or (clause(label),) for r in rules))
        bottoms[label] = {
            tuple(sorted(map(str, body))) for h1, h2 in pairs
            for body in reference_bottom_bodies(
                h1, h2, dataset.schema, sources, constraints)}
        agg[label] = reference_learn_class(label, examples,
                                           class_biases[label], params, covers)
    return mono, bottoms, agg


def reference_bottom_bodies(h1, h2, schema, sources, constraints):
    """The body of every bottom clause of h1 (a rule on sources[0]) and h2
    (on sources[1]): h2's variables renamed apart from h1's, then for every
    merge of reference_merges, both rules' literals plus suci(later,
    earlier) for each neighbour pair of the merge from two sources."""
    h2 = _renamed_apart(h1, h2)
    out = []
    for merge in reference_merges(h1, h2, schema, sources, constraints):
        links = [Literal("suci", (b[1], a[1]))
                 for a, b in zip(merge, merge[1:]) if a[0] != b[0]]
        out.append((*h1.body, *h2.body, *links))
    return out


def reference_merges(h1, h2, schema, sources, constraints):
    """Every permutation of the two rules' events, as (source, variable,
    predicate) triples, that keeps each rule's own event order and that
    no constraint forbids: for no two events of the constraint's source
    with none of that source between them, the first of predicate before
    and the second of predicate after, does an event of the other source
    fall between."""
    sequences = [[(s, v, p) for v, p in _event_sequence(h, schema)]
                 for h, s in zip((h1, h2), sources)]
    out = []
    for merge in permutations(sequences[0] + sequences[1]):
        if any([m for m in merge if m[0] == s] != seq
               for s, seq in zip(sources, sequences)):
            continue
        if not any(_forbidden(merge, con) for con in constraints):
            out.append(merge)
    return out


def _forbidden(merge, con):
    for i, j in combinations(range(len(merge)), 2):
        between = merge[i + 1:j]
        if (merge[i][0] == merge[j][0] == con.source
                and (merge[i][2], merge[j][2]) == (con.before, con.after)
                and between and all(m[0] != con.source for m in between)):
            return True
    return False


def _event_sequence(h, schema):
    """h's events, (variable, predicate) for the first event literal of
    each variable, in the one order that puts every suc/suci(later,
    earlier) link between two of them later after earlier."""
    events = {}
    for b in h.body:
        if schema.is_event(b.pred) and b.args and is_variable(b.args[0]):
            events.setdefault(b.args[0], b.pred)
    links = [b.args for b in h.body
             if b.pred in ("suc", "suci") and len(b.args) == 2
             and set(b.args) <= events.keys()]
    [order] = [p for p in permutations(events)
               if all(p.index(later) > p.index(earlier)
                      for later, earlier in links)]
    return [(v, events[v]) for v in order]


def _renamed_apart(h1, h2):
    """h2 with each variable it shares with h1 renamed V_2 (V_2_3, V_2_4,
    ... while that name is taken in either clause)."""
    def names(c):
        return {a for lit in (c.head, *c.body) for a in lit.args
                if is_variable(a)}

    used = names(h1) | names(h2)
    theta = {}
    for v in sorted(names(h1) & names(h2)):
        fresh, k = f"{v}_2", 2
        while fresh in used:
            k += 1
            fresh = f"{v}_2_{k}"
        theta[v] = fresh
        used.add(fresh)
    return Clause(h2.head, tuple(
        Literal(b.pred, tuple(theta.get(a, a) for a in b.args))
        for b in h2.body))


def brute_parse_model_file(text):
    """Fact files read the plain way: drop each line's comment, split the
    text at every '.', strip each piece and check it with string methods.
    An error names the line of the statement's first non-blank character;
    a block whose events repeat an id raises UsageError at its end(model)."""
    text = "\n".join(line.split("%", 1)[0] for line in text.split("\n"))
    pieces = text.split(".")
    out = []
    block = None  # [line of begin, identifier or None, facts, event ids]
    offset = 0
    for k, piece in enumerate(pieces):
        stmt = piece.strip()
        first = offset + len(piece) - len(piece.lstrip())
        line = text[:first].count("\n") + 1
        offset += len(piece) + 1
        if not stmt:
            continue
        if k == len(pieces) - 1:
            raise ParseError(
                f"trailing text without terminating '.': {stmt!r}", line=line)
        if stmt == "begin(model)":
            if block is not None:
                raise ParseError("begin(model) inside an open block", line=line)
            block = [line, None, [], []]
        elif stmt == "end(model)":
            if block is None or block[1] is None:
                raise ParseError("end(model) without identified block",
                                 line=line)
            (label, situation, source), facts, ids = block[1:]
            if len(set(ids)) < len(ids):
                raise UsageError(f"duplicate event ids in "
                                 f"{label}_{situation}_{source}")
            out.append(Interpretation(situation=situation, source=source,
                                      label=label, facts=frozenset(facts)))
            block = None
        elif block is None:
            raise ParseError(f"statement outside begin(model) block: {stmt!r}",
                             line=line)
        elif block[1] is None:
            block[1] = _brute_identifier(stmt, line)
        else:
            fact = _brute_fact(stmt, line)
            block[2].append(fact)
            a = fact.args
            if len(a) >= 2 and a[1].isdecimal() and not a[0].isdecimal():
                block[3].append(a[0])
    if block is not None:
        raise ParseError("missing end(model).", line=block[0])
    return out


_NAME_CHARS = ascii_letters + digits + "_"


def _brute_identifier(stmt, line):
    parts = stmt.rsplit("_", 2)
    if (len(parts) == 3 and parts[0]
            and all(c.isalnum() or c == "_" for c in parts[0])
            and parts[1].isdecimal()
            and parts[2] and parts[2][0] in ascii_letters
            and all(c in ascii_letters + digits for c in parts[2])):
        return parts[0], int(parts[1]), parts[2]
    raise ParseError(f"block identifier {stmt!r} does not match "
                     "<class>_<situation>_<source>", line=line)


def _brute_fact(stmt, line):
    n = 1 if stmt[0] in ascii_lowercase else 0
    while n and n < len(stmt) and stmt[n] in _NAME_CHARS:
        n += 1
    rest = stmt[n:].lstrip()
    if n and not rest:
        return Literal(stmt[:n])
    inner = rest[1:-1]
    if (not n or rest[:1] != "(" or rest[-1:] != ")"
            or "(" in inner or ")" in inner):
        raise ParseError(f"malformed fact {stmt!r}", line=line)
    args = tuple(a.strip() for a in inner.split(","))
    for a in args:
        if not a:
            raise ParseError(f"empty argument in {stmt!r}", line=line)
        if not (a.isdecimal() or (a[0] in ascii_lowercase + digits
                                  and all(c in _NAME_CHARS for c in a[1:]))):
            raise ParseError(f"non-ground or malformed argument {a!r} in fact "
                             f"{stmt!r}", line=line)
    return Literal(stmt[:n], args)
