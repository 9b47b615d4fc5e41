"""relic benchmark: four closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py                      # every workload, seed 1
    python3 perfbench/run.py --workload crossval-biased --seed 1 --seconds 40
    python3 perfbench/run.py --workload naive-agg --trace 1   # layer metrics

A single-workload run sets up its inputs several times, each time with a
fresh import of relic, some before the operations and some after them, and
reports the median as ``setup_s``.  It runs one warm-up operation on a small
input, then runs operations on freshly built inputs until ``--seconds`` have
passed and at least two have run, and reports the median operation time as
``wall_s``.  Every operation's output is fingerprinted and compared with the
reference recorded at the seed commit (``reference.json``); any mismatch or
exception makes ``correct`` false and the exit code 1.  With ``--trace 1``
the run times operations untraced and then traced, for half of
``--seconds`` each, and prints the per-layer metrics instead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNT_METRICS, LAYER_METRICS, Tracer, median_metrics, span_rows  # noqa: E402
from workloads import SIZES, WORKLOADS, fingerprint  # noqa: E402

MODULES = ("logic", "data", "dlab", "learner", "multisource", "evaluate",
           "synth")
# Set-ups timed before and after the operations: spread over the run, they
# see the same host as the operations do.  Fixed counts keep peak_rss_mb
# independent of the host's speed (each fresh import keeps a little memory).
SETUPS_BEFORE, SETUPS_AFTER = 5, 4
# Operations an untraced run times at least, whatever --seconds says.  A
# cross-validation takes 20-35 s; timed once, a single slow stretch of the
# host would set its wall_s.
MIN_OPS = 2

# Counts the seed commit produced on seed 1 at full size (ROADMAP baseline);
# a traced run prints how it compares.  Node counts are also in the reference
# fingerprint; covers calls may legitimately fall with a memo.
BASELINE_COUNTS = {
    "biased-full": {"logic.covers.calls": 67534, "learner.mono.ECG.nodes": 560,
                    "learner.mono.ABP.nodes": 1198, "learner.agg.nodes": 227},
    "naive-agg": {"logic.covers.calls": 150980, "learner.nodes": 4315},
}


def load_relic() -> SimpleNamespace:
    """Import relic afresh, dropping any copy already imported."""
    for name in [n for n in sys.modules if n == "relic" or n.startswith("relic.")]:
        del sys.modules[name]
    importlib.import_module("relic")
    return SimpleNamespace(**{name: importlib.import_module(f"relic.{name}")
                              for name in MODULES})


def git_commit() -> str:
    """HEAD of the repository the benchmark sits in, read from .git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload, one seed, one size: operations and their checks."""

    def __init__(self, workload: str, seed: int, size: str, reference: dict):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.size = size
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.records: dict[str, dict] = {}     # first record per size

    def setup(self, m, size=None):
        size = size or self.size
        return self.w.setup(m, self.seed, SIZES[self.w.name][size])

    def check(self, m, inputs, result, size: str) -> list[str]:
        """Problems with one operation's output; empty when correct."""
        record, problems = self.w.outcome(m, inputs, result)
        sha = fingerprint(record)
        ref = self.reference.get(f"{self.w.name}/{size}/{self.seed}")
        if ref is not None and ref["sha"] != sha:
            problems.append(f"fingerprint {sha[:12]} differs from the "
                            f"reference {ref['sha'][:12]}")
        first = fingerprint(self.records.setdefault(size, record))
        if sha != first:
            problems.append(f"fingerprint {sha[:12]} differs from this run's "
                            f"first operation {first[:12]}")
        if problems:
            print(f"record: {json.dumps(record, sort_keys=True)}",
                  file=sys.stderr)
        return problems

    def op(self, m, inputs, size: str, tracer: Tracer | None = None):
        """Run, time and check one operation; returns (wall, ok, result)."""
        self.attempted += 1
        gc.collect()    # every operation starts from the same heap state
        try:
            if tracer is None:
                t0 = perf_counter()
                result = self.w.run(m, inputs)
                wall = perf_counter() - t0
            else:
                with tracer.installed(m), tracer.root("op") as rec:
                    result = self.w.run(m, inputs)
                wall = rec[2] - rec[1]
            problems = self.check(m, inputs, result, size)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, False, None
        for p in problems:
            print(f"MISMATCH {self.w.name} seed {self.seed}: {p}",
                  file=sys.stderr)
        self.failed += bool(problems)
        return wall, not problems, result


def timed_setups(run: Run, count: int):
    """Import relic afresh and set up, `count` times; returns the last
    modules and the times."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        m = load_relic()
        run.setup(m)
        times.append(perf_counter() - t0)
    return m, times


def measure(run: Run, m, seconds: float, traced: bool, min_ops: int = 1):
    """Operations on fresh inputs until `seconds` have passed and at least
    `min_ops` have run.  Returns the walls of the operations and, if traced,
    their layer metrics."""
    walls, layers, ops = [], [], 0
    start = perf_counter()
    while True:
        setup_tracer = Tracer() if traced else None
        with setup_tracer.installed(m) if traced else nullcontext():
            inputs = run.setup(m)
        tracer = Tracer() if traced else None
        wall, ok, result = run.op(m, inputs, run.size, tracer)
        if wall is not None:
            walls.append(wall)
        if traced and ok:
            layer = tracer.metrics()
            layer["synth.generate.s"] = setup_tracer.total_s("synth.generate")
            synth, naive = run.w.spaces(m, inputs, result)
            layer["dlab.space.synth"], layer["dlab.space.naive"] = synth, naive
            layers.append((layer, tracer, setup_tracer))
        # drop this operation's data before the next set-up, so peak memory
        # does not depend on how many operations fit in the run
        inputs = result = None
        ops += 1
        if ops >= min_ops and perf_counter() - start >= seconds:
            return walls, layers


def single(args) -> int:
    os.environ.pop("RELIC_THREADS", None)
    if not (ROOT / "src" / "relic" / "__init__.py").is_file():
        print(f"error: relic sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    reference = json.loads(Path(args.reference).read_text())
    run = Run(args.workload, args.seed, args.size, reference)
    env = {"workload": args.workload, "seed": args.seed, "size": args.size,
           "trace": args.trace, "seconds": args.seconds,
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": git_commit()}
    print("env " + json.dumps(env))
    key = f"{args.workload}/{args.size}/{args.seed}"
    if key not in reference:
        print(f"reference: none stored for {key}; operations are checked "
              "against each other only")

    m, setups = timed_setups(run, SETUPS_BEFORE)
    run.op(m, run.setup(m, "smoke"), "smoke")      # warm-up, not timed
    layers = []
    if args.trace:
        # untraced walls serve only as the base of trace.overhead_frac
        walls, _ = measure(run, m, args.seconds / 2, traced=False)
        _, layers = measure(run, m, args.seconds / 2, traced=True)
    else:
        walls, _ = measure(run, m, args.seconds, traced=False,
                           min_ops=MIN_OPS)
    setups += timed_setups(run, SETUPS_AFTER)[1]

    if not walls:
        metrics = {}
    elif args.trace:
        metrics = layer_metrics(run, args, walls, layers)
    else:
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
    print(f"operations {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls)
          + " s")
    record = run.records.get(args.size, {})
    extras = {"fail_frac": (run.failed / run.attempted, "ratio"),
              "tracc_mean": (record.get("tracc_mean"), "ratio"),
              "acc_mean": (record.get("acc_mean"), "ratio")}
    for name, (value, unit) in {**metrics, **extras}.items():
        if value is not None:
            print(f"{name} {value} {unit}")
    if record:
        print(f"fingerprint {fingerprint(record)}")

    out = {"env": env, "metrics": {k: v for k, (v, _) in metrics.items()},
           "extras": {k: v for k, (v, _) in extras.items()},
           "setups_s": setups, "walls_s": walls}
    if layers:
        _, tracer, setup_tracer = layers[-1]
        out["spans"] = {"setup": span_rows(setup_tracer),
                        "op": span_rows(tracer)}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(out))

    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def layer_metrics(run: Run, args, walls, layers) -> dict:
    """Median per-layer metrics of the traced operations, after checking
    that their counts agree and that refine's children are the nodes."""
    if not layers:
        return {}
    layer = median_metrics([entry[0] for entry in layers])
    for name in COUNT_METRICS:
        values = {entry[0][name] for entry in layers}
        if len(values) != 1:
            print(f"MISMATCH count {name} differs between traced operations: "
                  f"{sorted(values)}", file=sys.stderr)
            run.failed += 1
    if layer["dlab.refine.children"] != layer["learner.nodes"]:
        print("MISMATCH refine children != learner nodes", file=sys.stderr)
        run.failed += 1
    traced = [entry[1].spans[0] for entry in layers]
    layer["trace.overhead_frac"] = (statistics.median(e - s for _, s, e, _ in traced)
                                    / statistics.median(walls) - 1.0)
    baseline = BASELINE_COUNTS.get(args.workload)
    if baseline and args.seed == 1 and args.size == "full":
        for name, want in baseline.items():
            got = layer[name]
            print(f"baseline {name}: {got} (seed commit {want}) "
                  + ("same" if got == want else "DIFFERENT"))
    return {n: (layer[n], unit) for n, unit in LAYER_METRICS}


def every_workload(args) -> int:
    """Each workload in a fresh process; a table of every metric."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--reference", args.reference]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            continue
        for metric, v in result["metrics"].items():
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "fail_frac", result["failed"] / result["attempted"],
                     "ratio"))
        for line in lines:
            key, *rest = line.split()
            if key in ("tracc_mean", "acc_mean"):
                rows.append((name, key, float(rest[0]), rest[1]))
    print("== summary")
    for name, metric, value, unit in rows:
        print(f"{name:16} {metric:32} {value:>14.6g} {unit}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--reference", default=str(HERE / "reference.json"),
                   help="stored fingerprints to compare against")
    args = p.parse_args(argv)
    if args.workload == "all":
        return every_workload(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
