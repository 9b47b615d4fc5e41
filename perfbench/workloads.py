"""The benchmark's four workloads.

Each workload has a set-up that builds its inputs from a seed, one operation
(the timed call into relic), and an outcome that turns the operation's result
into a canonical record.  The SHA of that record is the workload's output
fingerprint.  Every function takes ``m``, the namespace of freshly imported
relic modules, and calls relic through module attributes so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from typing import Callable

CONSTRAINTS = "forbid_between ABP dias sys"

# Input sizes: "full" is what the benchmark measures, "smoke" is the warm-up
# operation and the smoke test.
SIZES = {
    "biased-full": {"full": {"per_class": 10}, "smoke": {"per_class": 2}},
    "crossval-biased": {"full": {"per_class": 3, "folds": 5},
                        "smoke": {"per_class": 2, "folds": 2}},
    "naive-agg": {"full": {"per_class": 10, "depth": 9},
                  "smoke": {"per_class": 2, "depth": 3}},
    "ingest-score": {"full": {"per_class": 30, "cycles": 24},
                     "smoke": {"per_class": 2, "cycles": 6}},
}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable        # (m, seed, size) -> inputs
    run: Callable          # (m, inputs) -> result; the timed operation
    outcome: Callable      # (m, inputs, result) -> (record, problems)
    spaces: Callable       # (m, inputs, result) -> (synth, naive)


def fingerprint(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _r(x: float) -> float:
    return round(x, 9)


def _generate(m, seed: int, **kw):
    return m.synth.generate_dataset(m.synth.GeneratorConfig(seed=seed, **kw))


def _clauses(m, theory) -> dict[str, list[str]]:
    return {label: [m.logic.canonical_text(c) for c in res.clauses]
            for label, res in theory.per_class.items()}


def _passes(result) -> dict:
    """The theory of every pass of a biased pipeline result."""
    passes = {f"mono.{s}": t for s, t in result.mono.items()}
    passes["agg"] = result.theory
    return passes


def _pass_clauses(m, result) -> dict[str, dict[str, list[str]]]:
    return {p: _clauses(m, t) for p, t in _passes(result).items()}


def _tracc_mean(m, theory, examples) -> float:
    labels = sorted({e.label for e in examples})
    return statistics.fmean(
        m.learner.train_accuracy(theory.clauses_for(label), label, examples)
        for label in labels)


def _space_of(m, templates) -> float:
    return float(sum(m.dlab.count_space(t) for t in templates))


def _pipeline_spaces(m, schema, result) -> tuple[float, float]:
    """Synthesized space (summed over classes) and the naive space at the
    depth of the deepest bottom clause."""
    depth = max(m.multisource.deepest_bottom_events(b)
                for b in result.bottoms.values())
    naive = m.multisource.naive_bias(schema, depth)
    return _space_of(m, result.class_biases.values()), _space_of(m, [naive])


# -- biased-full ---------------------------------------------------------------

def _biased_setup(m, seed, size):
    return {"ds": _generate(m, seed, per_class=size["per_class"], mode="full"),
            "biases": m.synth.monosource_biases("full"),
            "constraints": m.multisource.parse_constraints(CONSTRAINTS)}


def _biased_run(m, inp):
    return m.multisource.biased_multisource_learn(inp["ds"], inp["biases"],
                                                  inp["constraints"])


def _biased_outcome(m, inp, result):
    return {"clauses": _pass_clauses(m, result),
            "nodes": {p: t.total_nodes()
                      for p, t in _passes(result).items()},
            "tracc_mean": _r(_tracc_mean(m, result.theory,
                                         result.aggregated))}, []


def _biased_spaces(m, inp, result):
    return _pipeline_spaces(m, inp["ds"].schema, result)


# -- crossval-biased -------------------------------------------------------------

def _cv_setup(m, seed, size):
    inp = _biased_setup(m, seed, size)
    inp["folds"] = size["folds"]
    return inp


def _cv_run(m, inp):
    """cross_validate, keeping the (training set, result) of each pipeline
    it runs: the report alone does not hold the learned clauses."""
    runs = []
    learn = m.evaluate.biased_multisource_learn

    def keep(train, *args, **kwargs):
        result = learn(train, *args, **kwargs)
        runs.append((train, result))
        return result

    m.evaluate.biased_multisource_learn = keep
    try:
        report = m.evaluate.cross_validate(inp["ds"], "biased", inp["folds"],
                                           biases=inp["biases"],
                                           constraints=inp["constraints"])
    finally:
        m.evaluate.biased_multisource_learn = learn
    return {"report": report, "runs": runs}


def _cv_full_and_folds(inp, out):
    """The full run's result, and the folds' results ordered by training
    set, whatever order (or threads) cross_validate ran them in."""
    full = [r for train, r in out["runs"] if train is inp["ds"]]
    folds = sorted(((train.situations(), r) for train, r in out["runs"]
                    if train is not inp["ds"]), key=lambda fold: fold[0])
    return full, [r for _, r in folds]


def _cv_outcome(m, inp, out):
    report = out["report"]
    full, folds = _cv_full_and_folds(inp, out)
    problems = []
    if len(full) != 1 or len(folds) != inp["folds"]:
        problems.append(f"cross_validate ran {len(full)} full and "
                        f"{len(folds)} fold pipelines, expected 1 and "
                        f"{inp['folds']}")
    rows = [[r.label, _r(r.tracc), _r(r.acc), r.comp, r.nodes]
            for r in report.rows]
    nodes = {"agg": sum(r.nodes for r in report.rows)}
    for key, value in report.meta.items():
        if key.startswith("mono_nodes_"):
            nodes["mono." + key[len("mono_nodes_"):]] = int(value)
    return {"rows": rows, "nodes": nodes, "warnings": report.warnings,
            "clauses": {"full": [_pass_clauses(m, r) for r in full],
                        "folds": [_pass_clauses(m, r) for r in folds]},
            "tracc_mean": _r(statistics.fmean(r.tracc for r in report.rows)),
            "acc_mean": _r(statistics.fmean(r.acc for r in report.rows))
            }, problems


def _cv_spaces(m, inp, out):
    full, _ = _cv_full_and_folds(inp, out)
    return _pipeline_spaces(m, inp["ds"].schema, full[0])


# -- naive-agg -------------------------------------------------------------------

def _naive_setup(m, seed, size):
    ds = _generate(m, seed, per_class=size["per_class"], mode="full")
    return {"examples": m.multisource.aggregate(ds).examples,
            "bias": m.multisource.naive_bias(ds.schema, size["depth"])}


def _naive_run(m, inp):
    return m.learner.learn_theory(inp["examples"], inp["bias"])


def _naive_outcome(m, inp, theory):
    return {"clauses": {"agg": _clauses(m, theory)},
            "nodes": {"agg": theory.total_nodes()},
            "tracc_mean": _r(_tracc_mean(m, theory, inp["examples"]))}, []


def _naive_spaces(m, inp, theory):
    return 0.0, _space_of(m, [inp["bias"]])


# -- ingest-score ----------------------------------------------------------------

def _ingest_setup(m, seed, size):
    cfg = m.synth.GeneratorConfig(seed=seed, per_class=size["per_class"],
                                  cycles=size["cycles"], mode="full")
    return {"ds": m.synth.generate_dataset(cfg), "cfg": cfg.symbolization,
            "targets": m.synth.target_rules()}


def _ingest_run(m, inp):
    ds = inp["ds"]
    texts = {s: m.data.write_model_file(ds.by_source(s))
             for s in ds.sources()}
    interps = [m.data.saturate(it, inp["cfg"], ds.schema)
               for text in texts.values()
               for it in m.data.parse_model_file(text)]
    parsed = m.data.Dataset(tuple(interps), ds.schema, ds.classes)
    agg = m.multisource.aggregate(parsed)
    scores = {f"{s}/{label}": m.learner.train_accuracy(
                  [c], label, parsed.by_source(s))
              for s, rules in inp["targets"].items()
              for label, c in rules.items()}
    return {"texts": texts, "parsed": parsed, "agg": agg, "scores": scores}


def _ingest_outcome(m, inp, out):
    ds, parsed = inp["ds"], out["parsed"]
    problems = []
    if len(parsed.interpretations) != len(ds.interpretations):
        problems.append("parsed interpretation count differs from generated")
    for it in ds.interpretations:
        back = parsed.get(it.source, it.situation)
        if back is None or back.facts != it.facts or back.label != it.label:
            problems.append(f"parsed and saturated facts differ from the "
                            f"generated ones for {it.ident}")
            break
    text_sha = hashlib.sha256("".join(
        out["texts"][s] for s in sorted(out["texts"])).encode()).hexdigest()
    return {"text_sha": text_sha,
            "facts": sum(len(i.facts) for i in parsed.interpretations),
            "aggregated": len(out["agg"].examples),
            "dropped": len(out["agg"].dropped),
            "scores": {k: _r(v) for k, v in out["scores"].items()},
            "tracc_mean": _r(statistics.fmean(out["scores"].values()))}, problems


def _ingest_spaces(m, inp, out):
    return 0.0, 0.0


WORKLOADS = {w.name: w for w in (
    Workload("biased-full", _biased_setup, _biased_run, _biased_outcome,
             _biased_spaces),
    Workload("crossval-biased", _cv_setup, _cv_run, _cv_outcome, _cv_spaces),
    Workload("naive-agg", _naive_setup, _naive_run, _naive_outcome,
             _naive_spaces),
    Workload("ingest-score", _ingest_setup, _ingest_run, _ingest_outcome,
             _ingest_spaces),
)}
