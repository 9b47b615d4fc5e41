"""The DLAB bias language: counting, enumerating, membership, refinement.

A grammar describes one cardiac beat with an optional second beat; the
script measures the space it spans and walks the refinement lattice the
learner searches.
"""

from relic import (clause, count_space, enumerate_bodies, lit, member,
                   parse_dlab, refine, start_selection)

GRAMMAR = """
len-len:[
  p(P1,1-1:[normal,abnormal]),
  suc(P1,R0),
  qrs(R1,1-1:[normal,abnormal]),
  suc(R1,P1),
  0-len:[rr(R0,R1,1-1:[short,normal,long]),
         pr(P1,R1,1-1:[short,normal,long])],
  0-len:[
    len-len:[qrs(R2,1-1:[normal,abnormal]),
             suc(R2,R1),
             0-1:[rr(R1,R2,1-1:[short,normal,long])]]
  ]
]
"""

bias = parse_dlab(GRAMMAR)
print("search space size:", count_space(bias))

# Enumeration agrees with the count and yields each clause body once.
bodies = enumerate_bodies(bias)
print("enumerated:", len(bodies))
print("most general body:", ", ".join(map(str, bodies[0])))

# Variable-arity inline choices: picking 2 or 3 of the listed elements.
tiny = parse_dlab("p(2-len:[el1,el2,el3])")
print("p(2-len:[el1,el2,el3]) generates:",
      [str(b[0]) for b in enumerate_bodies(tiny)])

# Membership asks whether a clause is expressible inside the grammar.
inside = clause("x", (lit("p", "P1", "normal"), lit("suc", "P1", "R0"),
                      lit("qrs", "R1", "abnormal"), lit("suc", "R1", "P1"),
                      lit("pr", "P1", "R1", "short")))
outside = clause("x", (lit("qrs", "R1", "weird"),))
print("two-beat clause in space:", member(inside, bias))
print("unknown attribute in space:", member(outside, bias))

# The refinement operator adds the fewest choices that reach the next
# valid selection; the learner's beam walks these levels top down.  Each
# child carries its selection, the body it induces and that body's text.
level = [start_selection(bias)]
for depth in range(1, 4):
    nxt = [child for sel in level for child in refine(bias, sel)]
    print(f"depth {depth}: {len(nxt)} refinements, e.g.",
          clause("x", nxt[0].body))
    level = [child.sel for child in nxt[:3]]
