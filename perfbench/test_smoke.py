"""Smoke test of the benchmark, every workload at its small size.

    python3 -m pytest perfbench/test_smoke.py          # about three minutes

It checks that each workload emits exactly the metrics BENCHMARK.json names,
with their units, untraced and traced; that a tampered reference fingerprint
or a missing relic source tree makes the run fail; that folds run in
evaluate's thread pool trace the same as folds run one after another; and
that a traced seed-1 run at full size reproduces the counts of the seed
commit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  every workload, listed or not


def bench(*args: str, script: Path = HERE / "run.py"):
    """Run the benchmark; returns (exit code, stdout lines)."""
    proc = subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=900,
                          cwd=script.parent.parent)
    return proc.returncode, proc.stdout.strip().splitlines()


def small(workload: str, *extra: str):
    return bench("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--size", "smoke", *extra)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_emitted(workload, trace):
    code, lines = small(workload, "--trace", str(trace))
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3          # warm-up plus two measured
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0] for line in lines}
    extras = {"fail_frac", "tracc_mean", "fingerprint"}
    if workload == "crossval-biased":
        extras.add("acc_mean")
    assert extras <= printed


def test_tampered_reference_fails(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["ingest-score/smoke/1"]["sha"] = "0" * 64
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference))
    code, lines = small("ingest-score", "--reference", str(tampered))
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_fails_without_relic_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, lines = bench("--workload", "naive-agg", "--size", "smoke",
                        script=tmp_path / HERE.name / "run.py")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.mark.parametrize("workload", ["biased-full", "naive-agg"])
def test_seed1_counts_match_seed_commit(workload):
    """Wrappers count each call once: seed 1 reproduces the ROADMAP
    baseline's covers calls and node counts.  A change that removes calls
    into covers (a memo in front of it) moves the covers figure."""
    code, lines = bench("--workload", workload, "--seed", "1", "--seconds",
                        "0", "--trace", "1")
    assert code == 0
    baseline = [line for line in lines if line.startswith("baseline ")]
    assert baseline and all(line.endswith(" same") for line in baseline)


def test_tracer_with_fold_pool(monkeypatch):
    """Folds run by a 2-worker pool give the same output, the same counts
    and the same fold structure as folds run one after another."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from run import load_relic
    from tracer import COUNT_METRICS, Tracer
    from workloads import SIZES, WORKLOADS, fingerprint

    workload = WORKLOADS["crossval-biased"]
    size = SIZES[workload.name]["smoke"]
    traced = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("RELIC_THREADS", threads)
        m = load_relic()
        inputs = workload.setup(m, 1, size)
        tracer = Tracer()
        with tracer.installed(m), tracer.root("op"):
            out = workload.run(m, inputs)
        record, problems = workload.outcome(m, inputs, out)
        assert not problems
        traced[threads] = fingerprint(record), tracer.metrics()
    (serial_sha, serial), (pooled_sha, pooled) = traced["1"], traced["2"]
    assert pooled_sha == serial_sha
    assert {n: pooled[n] for n in COUNT_METRICS} == {
        n: serial[n] for n in COUNT_METRICS}
    assert pooled["evaluate.folds"] == size["folds"]
    assert 0 < pooled["evaluate.fold.s_max"] < pooled["evaluate.fold.s_sum"]
    assert pooled["evaluate.full.s"] > 0
