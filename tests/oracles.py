"""Brute-force reference implementations the fast code is checked against.

These enumerate substitutions exhaustively and never share code with the
package's matching routines.
"""

from itertools import product

from relic.logic import Clause, Literal, is_variable


def brute_covers(c: Clause, facts) -> bool:
    """Try every assignment of body variables to constants in the facts."""
    facts = set(facts)
    constants = sorted({a for f in facts for a in f.args})
    variables = sorted({a for b in c.body for a in b.args if is_variable(a)})
    if not variables:
        return all(b in facts for b in c.body)
    for combo in product(constants, repeat=len(variables)):
        theta = dict(zip(variables, combo))
        grounded = [Literal(b.pred, tuple(theta.get(a, a) for a in b.args))
                    for b in c.body]
        if all(g in facts for g in grounded):
            return True
    return False


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
