"""Command-line surface tying the pipeline together.

Subcommands: synth, learn, learn-naive, learn-biased, crossval, count-space,
report.  Exit codes: 0 on success, 2 on usage errors (including an input file
that is missing or does not parse), 1 on internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import (Dataset, SymbolizationConfig, parse_model_file,
                   saturate, write_model_file)
from .dlab import count_space, parse_dlab, template_text
from .errors import BiasError, ParseError, RelicError, UsageError
from .evaluate import MODES as EVAL_MODES
from .evaluate import (FORMATS, ClassReport, EvaluationReport,
                       cross_validate, emit_report)
from .learner import LearnerParams, learn_theory
from .multisource import (aggregate, biased_multisource_learn, naive_bias,
                          parse_constraints)
from .synth import MODES as DATA_MODES
from .synth import GeneratorConfig, cardiac_schema, generate_dataset


def _load(path: str, parse):
    """parse(text) of one user file; a file that cannot be read, does not
    parse or breaks a rule of what it holds is the user's mistake, reported
    as a usage error naming the file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"cannot read {path}: not text ({exc.reason})") from exc
    try:
        return parse(text)
    except (ParseError, BiasError, UsageError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _write(path: Path, text: str, mode: str = "w") -> None:
    """Write (or append to) one output file, making its directory; a path
    that cannot be written is the user's mistake, reported as a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open(mode) as out:
            out.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(path: Path) -> None:
    """Fail fast where _write would fail, leaving no new file behind."""
    existed = path.exists()
    _write(path, "", "a")
    if not existed:
        path.unlink()


def _parse_report(text: str) -> EvaluationReport:
    try:
        payload = json.loads(text)
        report = EvaluationReport(
            mode=payload["mode"],
            rows=[ClassReport(**r) for r in payload["rows"]],
            meta=payload.get("meta", {}))
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"not a report written by crossval "
                         f"({type(exc).__name__}: {exc})") from exc
    for row in report.rows:
        numbers = (row.tracc, row.acc, row.nodes, row.time_ms)
        if not (isinstance(row.label, str) and isinstance(row.comp, str)
                and all(isinstance(v, (int, float)) for v in numbers)):
            raise ParseError(f"not a report written by crossval (row "
                             f"{row.label!r} has a value of the wrong type)")
    return report


def _load_dataset(paths: list[str], mode: str) -> Dataset:
    """Every interpretation in paths, saturated.  Each parse shares equal
    facts within its file; one table kept for this call shares, across all
    the files, the facts of every interpretation saturate rebuilds (one
    that lacks derived facts, as an event-only file's do)."""
    schema = cardiac_schema(mode)
    cfg = SymbolizationConfig()
    known = {}
    interps = []
    labels = set()
    for path in paths:
        for interp in _load(path, parse_model_file):
            interps.append(saturate(interp, cfg, schema, known=known))
            labels.add(interp.label)
    if not interps:
        raise UsageError("no interpretations found in the given files")
    return Dataset(tuple(interps), schema, tuple(sorted(labels)))


def _load_biases(pairs: list[str]) -> dict[str, object]:
    biases = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--bias expects SOURCE=FILE, got {pair!r}")
        source, path = pair.split("=", 1)
        if source in biases:
            raise UsageError(f"--bias given twice for source {source}")
        biases[source] = _load(path, parse_dlab)
    return biases


def _params(args) -> LearnerParams:
    return LearnerParams(beam_width=args.beam_width,
                         max_clauses_per_class=args.max_clauses)


def _theory_text(theory) -> str:
    lines = []
    for label, result in theory.per_class.items():
        flag = "" if result.complete else "  %% incomplete"
        lines.append(f"%% class {label}: {len(result.clauses)} clause(s), "
                     f"{result.stats.nodes} nodes, "
                     f"{result.stats.time_ms:.0f} ms{flag}")
        lines.extend(str(c) for c in result.clauses)
    return "".join(line + "\n" for line in lines)


def cmd_synth(args) -> int:
    cfg = GeneratorConfig(seed=args.seed, per_class=args.per_class,
                          cycles=args.cycles, mode=args.mode)
    dataset = generate_dataset(cfg)
    for source in dataset.sources():
        path = Path(args.out) / f"{source}.facts"
        _write(path, write_model_file(dataset.by_source(source)))
        print(f"wrote {path}")
    return 0


def cmd_learn(args) -> int:
    dataset = _load_dataset(args.data, args.data_mode)
    bias = _load(args.bias, parse_dlab)
    pool = dataset.by_source(args.source)
    if not pool:
        raise UsageError(f"no interpretations for source {args.source}")
    theory = learn_theory(pool, bias, _params(args))
    print(_theory_text(theory), end="")
    return 0


def cmd_learn_naive(args) -> int:
    dataset = _load_dataset(args.data, args.data_mode)
    agg = aggregate(dataset).examples
    bias = naive_bias(dataset.schema, args.max_events)
    theory = learn_theory(agg, bias, _params(args))
    print(_theory_text(theory), end="")
    return 0


def cmd_learn_biased(args) -> int:
    dataset = _load_dataset(args.data, args.data_mode)
    if args.artifacts:
        for source in dataset.sources():
            _check_writable(Path(args.artifacts) / f"mono_{source}.rules")
    biases = _load_biases(args.bias)
    constraints = (_load(args.constraints, parse_constraints)
                   if args.constraints else [])
    result = biased_multisource_learn(dataset, biases, constraints,
                                      _params(args))
    for w in result.warnings:
        print(f"%% warning: {w}", file=sys.stderr)
    print(_theory_text(result.theory), end="")
    if args.artifacts:
        art = Path(args.artifacts)
        for source, theory in result.mono.items():
            _write(art / f"mono_{source}.rules", _theory_text(theory))
        for label, bottoms in result.bottoms.items():
            _write(art / f"bottoms_{label}.rules",
                   "".join(f"{bt.clause}\n" for bt in bottoms))
        for label, bias in result.class_biases.items():
            _write(art / f"bias_{label}.dlab", template_text(bias) + "\n")
        print(f"artifacts written under {art}")
    return 0


def cmd_crossval(args) -> int:
    try:
        folds = None if args.folds == "loo" else int(args.folds)
    except ValueError:
        raise UsageError(f"--folds must be a fold count or 'loo', "
                         f"got {args.folds!r}") from None
    dataset = _load_dataset(args.data, args.data_mode)
    if folds is None:
        folds = len(dataset.situations())
    if args.json:
        _check_writable(Path(args.json))
    biases = _load_biases(args.bias) if args.bias else None
    constraints = (_load(args.constraints, parse_constraints)
                   if args.constraints else [])
    report = cross_validate(dataset, args.cv_mode, folds, biases=biases,
                            constraints=constraints, params=_params(args),
                            source=args.source,
                            naive_max_events=args.max_events)
    for w in report.warnings:
        print(f"%% warning: {w}", file=sys.stderr)
    if args.json:
        payload = {"mode": report.mode, "meta": report.meta,
                   "rows": [vars(r) for r in report.rows]}
        _write(Path(args.json), json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    print(emit_report(report, args.format), end="")
    return 0


def cmd_count_space(args) -> int:
    template = _load(args.bias, parse_dlab)
    print(count_space(template))
    return 0


def cmd_report(args) -> int:
    report = _load(args.json, _parse_report)
    print(emit_report(report, args.format), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="relic",
        description="biased multisource rule learning over symbolic event data")
    sub = top.add_subparsers(dest="command", required=True)

    def common_learning(p):
        p.add_argument("--data-mode", dest="data_mode", default="full",
                       choices=DATA_MODES, help="schema the fact files follow")
        p.add_argument("--beam-width", type=int, default=10)
        p.add_argument("--max-clauses", type=int, default=8)
        p.add_argument("data", nargs="+", help="fact files")

    p = sub.add_parser("synth", help="generate fact files")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--per-class", type=int, default=10)
    p.add_argument("--cycles", type=int, default=6)
    p.add_argument("--mode", default="full", choices=DATA_MODES)
    p.add_argument("--out", default="synth_out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("learn", help="monosource learning")
    p.add_argument("--source", required=True)
    p.add_argument("--bias", required=True, help="DLAB grammar file")
    common_learning(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("learn-naive", help="naive multisource learning")
    p.add_argument("--max-events", type=int, required=True)
    common_learning(p)
    p.set_defaults(func=cmd_learn_naive)

    p = sub.add_parser("learn-biased", help="biased multisource learning")
    p.add_argument("--bias", action="append", default=[],
                   metavar="SOURCE=FILE", help="per-source DLAB grammar")
    p.add_argument("--constraints", help="interleaving constraints file")
    p.add_argument("--artifacts", help="directory for intermediate artifacts")
    common_learning(p)
    p.set_defaults(func=cmd_learn_biased)

    p = sub.add_parser("crossval", help="cross-validated evaluation")
    p.add_argument("--folds", required=True, help="fold count or 'loo'")
    p.add_argument("--mode", required=True, dest="cv_mode",
                   choices=EVAL_MODES, help="evaluation mode")
    p.add_argument("--source", help="source id (mono mode)")
    p.add_argument("--bias", action="append", default=[],
                   metavar="SOURCE=FILE")
    p.add_argument("--constraints")
    p.add_argument("--max-events", type=int, default=4,
                   help="naive bias depth (naive mode)")
    p.add_argument("--format", default="markdown", choices=FORMATS)
    p.add_argument("--json", help="also save the report as JSON")
    common_learning(p)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("count-space", help="size of a DLAB search space")
    p.add_argument("--bias", required=True)
    p.set_defaults(func=cmd_count_space)

    p = sub.add_parser("report", help="render a saved JSON report")
    p.add_argument("--format", default="markdown", choices=FORMATS)
    p.add_argument("json", help="report JSON written by crossval")
    p.set_defaults(func=cmd_report)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RelicError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
