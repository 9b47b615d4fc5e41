"""relic: relational event rule learning from interleaved channels.

A symbolic rule learner for multisource event data: a first-order kernel
(theta-subsumption, interpretation coverage), the DLAB declarative bias
language, top-down beam-search induction, and a biased multisource pipeline
that synthesizes a compact aggregated-data bias from per-source rules.
"""

from .data import (Dataset, Interpretation, SymbolizationConfig,
                   parse_model_file, saturate, write_model_file)
from .dlab import (DlabTemplate, Selection, choice, clause_of,
                   compile_template, count_space, enumerate_bodies,
                   enumerate_selections, inline, literal, member, parse_dlab,
                   refine, start_selection, template_text)
from .errors import (BiasError, InternalError, ParseError, RelicError,
                     UsageError)
from .learner import (ClassResult, LearnerParams, SearchStats, Theory,
                      accuracy, learn_class, learn_theory, train_accuracy)
from .logic import (Clause, FactIndex, Literal, PredicateDecl,
                    PredicateSchema, apply_substitution, canonical_text,
                    clause, covers, lit, standardize_apart, theory_covers,
                    theta_subsumes)
from .multisource import (AggregationResult, BottomClause,
                          InterleavingConstraint, Merge, MultisourceResult,
                          aggregate, biased_multisource_learn,
                          bottom_clauses_for_pair, deepest_bottom_events,
                          filter_constraints, interleavings,
                          make_bottom_clause, naive_bias, parse_constraints,
                          synthesize_bias)
from .evaluate import (EvaluationReport, comp_metric, cross_validate,
                       emit_report, make_folds)
from .synth import (CLASSES, GeneratorConfig, cardiac_schema,
                    generate_dataset, generate_example, monosource_biases,
                    target_rules)

__version__ = "0.1.0"
