"""Seeded generator of aligned two-source rhythm examples.

Seven classes are produced over an ECG-like event stream (p/qrs with a
normal/abnormal shape) and a pressure-like stream (dias/sys with an mmHg
amplitude).  The beat patterns are design artifacts reverse-engineered so
that every class carries a separating rule in the published bias spaces:

  sr       regular conducted beats, rr/pp normal
  ves      isolated premature ventricular beat: short coupling, long pause
  bige     ventricular bigeminy: every other beat ectopic, no long pause
  doublet  a pair of adjacent ectopics closed by a long pause
           (ves, bige and doublet each repeat one beat motif)
  vt       a run of ectopics at short rr, no p waves
  svt      conducted tachycardia: short pp and rr (some examples end in a
           deterministic pause, which keeps single-source views partial)
  af       fibrillatory: abnormal rapid p-like waves, irregular rr,
           alternating high/normal pressure amplitude

Modes: "full" (ECG + ABP), "reduced" (qrs without shape + sys only),
"split" (P-wave-only vs QRS-only virtual sources, shapes stripped) and
"redundant" (the ECG plus a copy, source ECG2, whose predicates, event ids
and bias variables are renamed: qrs becomes qrs_b).  Output is fully
determined by the seed; timestamps use integer arithmetic only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from .data import Dataset, Interpretation, SymbolizationConfig, saturate
from .dlab import (DlabTemplate, InlineSpec, choice, compile_template, inline,
                   literal, nested)
from .errors import UsageError
from .logic import Clause, Literal, PredicateDecl, PredicateSchema, clause, lit

CLASSES = ("sr", "ves", "bige", "doublet", "vt", "svt", "af")
MODES = ("full", "reduced", "split", "redundant")

_SHAPES = ("normal", "abnormal")
_AMPS = ("low", "normal", "high")
_CATS = ("short", "normal", "long")
_TIMING_JITTER_MS = 10  # +- on every interval and offset of a recording
_AMP_JITTER = 4         # +- mmHg on every pressure amplitude


# the ECG's declarations, shared by the full and the redundant mode
_ECG = (
    PredicateDecl("p", "event", "ECG", (_SHAPES,)),
    PredicateDecl("qrs", "event", "ECG", (_SHAPES,)),
    PredicateDecl("rr1", "relational", "ECG", (_CATS,), ("a", "b", "cat"),
                  derive=("consecutive", "qrs")),
    PredicateDecl("pr1", "relational", "ECG", (_CATS,), ("a", "b", "cat"),
                  derive=("next", "p", "qrs"), scale="wave"),
    PredicateDecl("pp1", "relational", "ECG", (_CATS,), ("a", "b", "cat"),
                  derive=("consecutive", "p")),
)


def _twin(d: PredicateDecl) -> PredicateDecl:
    """An ECG declaration as the redundant mode's ECG2 copy: every
    predicate name, its own and those it derives from, gains _b."""
    return replace(d, name=f"{d.name}_b", source="ECG2",
                   derive=(*d.derive[:1], *(f"{q}_b" for q in d.derive[1:])))


def cardiac_schema(mode: str = "full") -> PredicateSchema:
    """Predicate declarations (with derivation rules) for one dataset mode."""
    if mode not in MODES:
        raise UsageError(f"unknown mode {mode!r}")
    g = (PredicateDecl("suc", "global", argspec=("b", "a")),
         PredicateDecl("suci", "global", argspec=("b", "a")))
    if mode == "full":
        return PredicateSchema((
            *_ECG,
            PredicateDecl("dias", "event", "ABP", (_AMPS,)),
            PredicateDecl("sys", "event", "ABP", (_AMPS,)),
            PredicateDecl("ss1", "relational", "ABP", (_CATS,),
                          ("a", "b", "cat"), derive=("consecutive", "sys")),
            PredicateDecl("ds1", "relational", "ABP", (_CATS,),
                          ("a", "b", "cat"), derive=("next", "dias", "sys"),
                          scale="wave"),
            PredicateDecl("cycle_abp", "relational", "ABP", (),
                          ("a", "var", "b", "var"),
                          derive=("cycle", "dias", "sys")),
            *g))
    if mode == "reduced":
        return PredicateSchema((
            PredicateDecl("qrs", "event", "ECG"),
            PredicateDecl("sys", "event", "ABP", (_AMPS,)),
            PredicateDecl("rr1", "relational", "ECG", (_CATS,),
                          ("a", "b", "cat"), derive=("consecutive", "qrs")),
            PredicateDecl("ss1", "relational", "ABP", (_CATS,),
                          ("a", "b", "cat"), derive=("consecutive", "sys")),
            *g))
    if mode == "split":
        return PredicateSchema((
            PredicateDecl("p", "event", "P"),
            PredicateDecl("qrs", "event", "QRS"),
            PredicateDecl("pp1", "relational", "P", (_CATS,),
                          ("a", "b", "cat"), derive=("consecutive", "p")),
            PredicateDecl("rr1", "relational", "QRS", (_CATS,),
                          ("a", "b", "cat"), derive=("consecutive", "qrs")),
            *g))
    # redundant: the ECG plus a renamed copy of itself
    return PredicateSchema((*_ECG, *map(_twin, _ECG), *g))


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 1
    per_class: int = 10
    cycles: int = 6                 # beat budget per example
    mode: str = "full"
    symbolization: SymbolizationConfig = field(default_factory=SymbolizationConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.cycles < 4:
            raise UsageError("need a budget of at least 4 beats")
        if self.per_class < 0:
            raise UsageError("per_class must be >= 0")


@dataclass(frozen=True)
class RhythmTemplate:
    """Beat kinds plus the base interval (ms) after each beat."""

    label: str
    beats: tuple[str, ...]               # "N" conducted, "V" ectopic
    intervals: tuple[int, ...]           # len == len(beats) - 1
    pr_ms: int = 160                     # p-to-qrs lead time for N beats
    conducted_p: bool = True             # emit a p before each N beat
    fibrillatory: bool = False           # dense abnormal p-like waves
    sys_amp: tuple[int, ...] = ()        # per-beat systolic base amplitude
    dias_amp: int = 80


def _repeat(label: str, motif: str, inner: tuple[int, ...], join: int,
            reps: int) -> RhythmTemplate:
    """reps copies of a beat motif, inner the intervals within one copy and
    join the interval between copies; ectopic beats are weaker."""
    beats = tuple(motif) * reps
    return RhythmTemplate(label, beats, ((*inner, join) * reps)[:-1],
                          sys_amp=tuple(55 if b == "V" else 100
                                        for b in beats))


def rhythm_template(label: str, cycles: int, pause: bool) -> RhythmTemplate:
    """The deterministic beat plan for one example of one class."""
    if label == "sr":
        beats = ("N",) * cycles
        return RhythmTemplate(label, beats, (800,) * (cycles - 1),
                              sys_amp=(100,) * cycles)
    if label == "svt":
        iv = [450] * (cycles - 1)
        if pause:
            iv[-1] = 800
        beats = ("N",) * cycles
        return RhythmTemplate(label, beats, tuple(iv), pr_ms=140,
                              sys_amp=(100,) * cycles)
    if label == "vt":
        beats = ("V",) * cycles
        return RhythmTemplate(label, beats, (400,) * (cycles - 1),
                              conducted_p=False, sys_amp=(60,) * cycles,
                              dias_amp=60)
    if label == "af":
        iv = tuple(460 if i % 2 == 0 else 1080 for i in range(cycles - 1))
        amps = tuple(118 if i % 2 == 0 else 100 for i in range(cycles))
        return RhythmTemplate(label, ("N",) * cycles, iv, conducted_p=False,
                              fibrillatory=True, sys_amp=amps)
    if label == "ves":
        return _repeat(label, "NVN", (350, 1050), 800, max(1, cycles // 3))
    if label == "bige":
        return _repeat(label, "NV", (350,), 730, max(2, cycles // 2))
    if label == "doublet":
        return _repeat(label, "NVVN", (350, 380, 1100), 1100,
                       max(1, cycles // 4))
    raise UsageError(f"unknown class {label!r}")


def _event(words: dict[str, str], pred: str, *args: str) -> Literal:
    """The event fact pred(args), each string the one words holds for it."""
    return Literal(words.setdefault(pred, pred),
                   tuple(map(words.setdefault, args, args)))


def _master_events(label: str, situation: int, cfg: GeneratorConfig,
                   words: dict[str, str]) -> tuple[list[Literal], list[Literal]]:
    """The underlying recording as event facts, (id, timestamp,
    attributes...): (ecg_events, abp_events), unjittered order.  Each id,
    timestamp and amplitude string is the one words holds for it."""
    rng = random.Random(f"{cfg.seed}:{label}:{situation}")
    jit = _TIMING_JITTER_MS

    def j(base: int) -> int:
        return base + rng.randint(-jit, jit)

    pause = label == "svt" and situation % 3 == 0
    tpl = rhythm_template(label, cfg.cycles, pause)

    qrs_times: list[int] = [1000]
    for iv in tpl.intervals:
        qrs_times.append(qrs_times[-1] + j(iv))

    ecg: list[Literal] = []
    for i, (kind, t) in enumerate(zip(tpl.beats, qrs_times)):
        shape = "abnormal" if kind == "V" else "normal"
        ecg.append(_event(words, "qrs", f"r{i}", str(t), shape))
        if tpl.conducted_p and kind == "N":
            ecg.append(_event(words, "p", f"p{i}", str(t - j(tpl.pr_ms)),
                              "normal"))
    if tpl.fibrillatory:
        k = 0
        for a, b in zip(qrs_times, qrs_times[1:]):
            t = a + 150
            while t < b - 120:
                ecg.append(_event(words, "p", f"f{k}", str(t), "abnormal"))
                k += 1
                t += 280 + rng.randint(-jit, jit)

    abp: list[Literal] = []
    for i, t in enumerate(qrs_times):
        d_t = t + 100 + rng.randint(-jit, jit)
        s_t = d_t + 150 + rng.randint(-jit, jit)
        d_amp = tpl.dias_amp + rng.randint(-_AMP_JITTER, _AMP_JITTER)
        s_amp = tpl.sys_amp[i] + rng.randint(-_AMP_JITTER, _AMP_JITTER)
        abp.append(_event(words, "dias", f"d{i}", str(d_t), str(d_amp)))
        abp.append(_event(words, "sys", f"s{i}", str(s_t), str(s_amp)))
    return ecg, abp


def generate_example(label: str, situation: int, cfg: GeneratorConfig
                     ) -> tuple[Interpretation, ...]:
    """Aligned unsaturated interpretations for one situation, one per source."""
    return _views(label, situation, cfg, {})


def _views(label: str, situation: int, cfg: GeneratorConfig,
           words: dict[str, str]) -> tuple[Interpretation, ...]:
    """generate_example, with the strings words holds."""
    if label not in CLASSES:
        raise UsageError(f"unknown class {label!r}")
    ecg, abp = _master_events(label, situation, cfg, words)
    if cfg.mode == "full":
        views = {"ECG": ecg, "ABP": abp}
    elif cfg.mode == "reduced":
        views = {"ECG": [Literal("qrs", e.args[:2]) for e in ecg
                         if e.pred == "qrs"],
                 "ABP": [e for e in abp if e.pred == "sys"]}
    elif cfg.mode == "split":
        views = {s: [Literal(pred, e.args[:2]) for e in ecg if e.pred == pred]
                 for s, pred in (("P", "p"), ("QRS", "qrs"))}
    else:
        views = {"ECG": ecg, "ECG2": [
            _event(words, f"{e.pred}_b", f"{e.args[0]}b", *e.args[1:])
            for e in ecg]}
    return tuple(Interpretation(situation, source, label, frozenset(events))
                 for source, events in views.items())


def generate_dataset(cfg: GeneratorConfig) -> Dataset:
    """per_class aligned examples for each of the seven classes, saturated.

    One table, kept for this call only, is passed to every saturate call,
    so each distinct fact is one object across the whole dataset; a second
    does the same for the events' id, timestamp and amplitude strings."""
    schema = cardiac_schema(cfg.mode)
    known: dict[Literal, Literal] = {}
    words: dict[str, str] = {}
    interps: list[Interpretation] = []
    situation = 0
    for label in CLASSES:
        for _ in range(cfg.per_class):
            for view in _views(label, situation, cfg, words):
                interps.append(saturate(view, cfg.symbolization, schema,
                                        known=known))
            situation += 1
    return Dataset(tuple(interps), schema, CLASSES)


# --------------------------------------------------------------------------
# ground-truth rules the generator is built to satisfy (full mode)
# --------------------------------------------------------------------------

def target_rules() -> dict[str, dict[str, Clause]]:
    """Hand-written separating rules per source for the full-mode dataset."""
    ecg = {
        "sr": clause("sr", (
            lit("qrs", "R0", "normal"), lit("p", "P1", "normal"),
            lit("suc", "P1", "R0"), lit("qrs", "R1", "normal"),
            lit("suc", "R1", "P1"), lit("rr1", "R0", "R1", "normal"),
            lit("p", "P2", "normal"), lit("suc", "P2", "R1"),
            lit("qrs", "R2", "normal"), lit("suc", "R2", "P2"),
            lit("rr1", "R1", "R2", "normal"))),
        "ves": clause("ves", (
            lit("qrs", "R0", "normal"), lit("qrs", "R1", "abnormal"),
            lit("suci", "R1", "R0"), lit("rr1", "R0", "R1", "short"),
            lit("qrs", "R2", "normal"), lit("suc", "R2", "R1"),
            lit("rr1", "R1", "R2", "long"))),
        "bige": clause("bige", (
            lit("qrs", "R0", "normal"), lit("qrs", "R1", "abnormal"),
            lit("suci", "R1", "R0"), lit("rr1", "R0", "R1", "short"),
            lit("qrs", "R2", "normal"), lit("suc", "R2", "R1"),
            lit("rr1", "R1", "R2", "normal"), lit("qrs", "R3", "abnormal"),
            lit("suci", "R3", "R2"), lit("rr1", "R2", "R3", "short"))),
        "doublet": clause("doublet", (
            lit("qrs", "R0", "abnormal"), lit("qrs", "R1", "abnormal"),
            lit("suci", "R1", "R0"), lit("rr1", "R0", "R1", "short"),
            lit("qrs", "R2", "normal"), lit("suc", "R2", "R1"),
            lit("rr1", "R1", "R2", "long"))),
        "vt": clause("vt", (
            lit("qrs", "R0", "abnormal"), lit("qrs", "R1", "abnormal"),
            lit("suci", "R1", "R0"), lit("rr1", "R0", "R1", "short"),
            lit("qrs", "R2", "abnormal"), lit("suci", "R2", "R1"),
            lit("rr1", "R1", "R2", "short"))),
        "svt": clause("svt", (
            lit("qrs", "R0", "normal"), lit("p", "P1", "normal"),
            lit("suc", "P1", "R0"), lit("qrs", "R1", "normal"),
            lit("suc", "R1", "P1"), lit("rr1", "R0", "R1", "short"),
            lit("p", "P2", "normal"), lit("suc", "P2", "R1"),
            lit("qrs", "R2", "normal"), lit("suc", "R2", "P2"),
            lit("rr1", "R1", "R2", "short"))),
        "af": clause("af", (
            lit("qrs", "R0", "normal"), lit("p", "P1", "abnormal"),
            lit("suc", "P1", "R0"), lit("qrs", "R1", "normal"),
            lit("suc", "R1", "P1"))),
    }
    abp = {
        "sr": clause("sr", (
            lit("sys", "S0", "normal"), lit("sys", "S1", "normal"),
            lit("ss1", "S0", "S1", "normal"), lit("sys", "S2", "normal"),
            lit("ss1", "S1", "S2", "normal"))),
        "ves": clause("ves", (
            lit("sys", "S0", "normal"), lit("sys", "S1", "low"),
            lit("ss1", "S0", "S1", "short"), lit("sys", "S2", "normal"),
            lit("ss1", "S1", "S2", "long"))),
        "bige": clause("bige", (
            lit("sys", "S0", "normal"), lit("sys", "S1", "low"),
            lit("ss1", "S0", "S1", "short"), lit("sys", "S2", "normal"),
            lit("ss1", "S1", "S2", "normal"), lit("sys", "S3", "low"),
            lit("ss1", "S2", "S3", "short"))),
        "doublet": clause("doublet", (
            lit("sys", "S0", "low"), lit("sys", "S1", "low"),
            lit("ss1", "S0", "S1", "short"), lit("sys", "S2", "normal"),
            lit("ss1", "S1", "S2", "long"))),
        "vt": clause("vt", (
            lit("sys", "S0", "low"), lit("sys", "S1", "low"),
            lit("ss1", "S0", "S1", "short"), lit("sys", "S2", "low"),
            lit("ss1", "S1", "S2", "short"))),
        "svt": clause("svt", (
            lit("cycle_abp", "D1", "VA", "S1", "VB"), lit("suc", "D1", "S0"),
            lit("sys", "S0", "normal"), lit("sys", "S1", "normal"),
            lit("ss1", "S0", "S1", "short"), lit("sys", "S2", "normal"),
            lit("ss1", "S1", "S2", "short"))),
        "af": clause("af", (
            lit("sys", "S0", "high"), lit("sys", "S1", "normal"),
            lit("ss1", "S0", "S1", "short"))),
    }
    return {"ECG": ecg, "ABP": abp}


# --------------------------------------------------------------------------
# authored monosource biases per mode
# --------------------------------------------------------------------------

def _shape_arg():
    return inline(1, 1, "normal", "abnormal")


def _cat_arg():
    return inline(1, 1, "short", "normal", "long")


def _amp_arg():
    return inline(1, 1, "low", "normal", "high")


def _ecg_bias(suffix: str = "", prefix: str = "R", p_prefix: str = "P"
              ) -> DlabTemplate:
    """Beat-sequence grammar over qrs, p, rr1 and pr1, each name ending in
    suffix: a mandatory first qrs, then up to three further qrs blocks, each
    with its ordering literal, optional rr timing, and an optional
    conducted p in between."""
    qrs, p, rr, pr = (f"{n}{suffix}" for n in ("qrs", "p", "rr1", "pr1"))

    def unit(i: int):
        r, r0, pw = f"{prefix}{i}", f"{prefix}{i-1}", f"{p_prefix}{i}"
        return [literal(qrs, r, _shape_arg()),
                choice(1, 2, literal("suc", r, r0), literal("suci", r, r0)),
                choice(0, 1, literal(rr, r0, r, _cat_arg())),
                choice(0, 1, choice(
                    "len", "len",
                    literal(p, pw, _shape_arg()),
                    literal("suc", pw, r0),
                    literal("suc", r, pw),
                    choice(0, 1, literal(pr, pw, r, _cat_arg()))))]

    return compile_template(choice(
        "len", "len", literal(qrs, f"{prefix}0", _shape_arg()),
        *nested([unit(i) for i in range(1, 4)])))


def _abp_bias() -> DlabTemplate:
    def beat(i: int):
        return [literal("dias", f"D{i}", _amp_arg()),
                literal("suc", f"D{i}", f"S{i-1}"),
                literal("sys", f"S{i}", _amp_arg()),
                literal("suc", f"S{i}", f"D{i}"),
                choice(0, "len",
                       literal("ss1", f"S{i-1}", f"S{i}", _cat_arg()),
                       literal("ds1", f"D{i}", f"S{i}", _cat_arg()),
                       literal("cycle_abp", f"D{i}", f"VA{i}", f"S{i}", f"VB{i}"),
                       literal("suci", f"D{i}", f"S{i-1}"))]

    return compile_template(choice(
        "len", "len",
        literal("dias", "D0", _amp_arg()),
        literal("sys", "S0", _amp_arg()),
        literal("suc", "S0", "D0"),
        choice(0, "len",
               literal("ds1", "D0", "S0", _cat_arg()),
               literal("cycle_abp", "D0", "VA0", "S0", "VB0")),
        *nested([beat(i) for i in range(1, 4)])))


def _chain_bias(pred: str, timing: str, var: str, units: int,
                *attrs: InlineSpec) -> DlabTemplate:
    """Event chain with suc mandatory, suci/timing optional, attrs on events."""

    def unit(i: int):
        return [literal(pred, f"{var}{i}", *attrs),
                literal("suc", f"{var}{i}", f"{var}{i-1}"),
                choice(0, "len",
                       literal("suci", f"{var}{i}", f"{var}{i-1}"),
                       literal(timing, f"{var}{i-1}", f"{var}{i}", _cat_arg()))]

    first = literal(pred, f"{var}0", *attrs)
    return compile_template(choice(
        "len", "len", first, *nested([unit(i) for i in range(1, units)])))


def monosource_biases(mode: str = "full") -> dict[str, DlabTemplate]:
    """The per-source bias each monosource learning step runs under."""
    if mode == "full":
        return {"ECG": _ecg_bias(), "ABP": _abp_bias()}
    if mode == "reduced":
        return {"ECG": _chain_bias("qrs", "rr1", "R", 5),
                "ABP": _chain_bias("sys", "ss1", "S", 4, _amp_arg())}
    if mode == "split":
        return {"P": _chain_bias("p", "pp1", "PA", 4),
                "QRS": _chain_bias("qrs", "rr1", "QB", 5)}
    if mode == "redundant":
        return {"ECG": _ecg_bias(),
                "ECG2": _ecg_bias("_b", prefix="T", p_prefix="Q")}
    raise UsageError(f"unknown mode {mode!r}")
