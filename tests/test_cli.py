import argparse
import json
import re

import pytest

from relic import evaluate, synth
from relic.cli import _load_dataset, build_parser, main
from relic.dlab import MAX_NESTING, template_text
from relic.synth import monosource_biases


@pytest.fixture(scope="module")
def fact_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("facts")
    rc = main(["synth", "--seed", "1", "--per-class", "2", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def bias_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("biases")
    for source, bias in monosource_biases("full").items():
        (out / f"{source}.dlab").write_text(template_text(bias) + "\n")
    return out


def test_synth_writes_parseable_files(fact_dir):
    from relic import parse_model_file

    ecg = (fact_dir / "ECG.facts").read_text()
    abp = (fact_dir / "ABP.facts").read_text()
    assert len(parse_model_file(ecg)) == 14
    assert len(parse_model_file(abp)) == 14


# the lines of a written fact file that its event-only copy keeps: block
# delimiters, identifiers and event records (an integer second argument)
EVENT_ONLY = re.compile(
    r"(begin|end)\(model\)\.|[^(]*\.|[a-z]\w*\([^,()]+,\d+[,)].*")


def test_load_dataset_saturates_event_only_files_sharing_each_fact(
        fact_dir, tmp_path):
    saturated = [fact_dir / f"{s}.facts" for s in ("ECG", "ABP")]
    bare = [tmp_path / path.name for path in saturated]
    for path, copy in zip(saturated, bare):
        copy.write_text("".join(line + "\n"
                                for line in path.read_text().splitlines()
                                if EVENT_ONLY.fullmatch(line)))
    loaded = _load_dataset(list(map(str, bare)), "full")
    facts = [f for i in loaded.interpretations for f in i.facts]
    assert len({id(f) for f in facts}) == len(set(facts))
    assert loaded == _load_dataset(list(map(str, saturated)), "full")
    assert not any("suc(" in copy.read_text() for copy in bare)


def test_mode_choices_come_from_their_modules():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def choices(command, dest):
        return next(tuple(a.choices) for a in commands[command]._actions
                    if a.dest == dest)

    for command in ("learn", "learn-naive", "learn-biased", "crossval"):
        assert choices(command, "data_mode") == synth.MODES
    assert choices("synth", "mode") == synth.MODES
    assert choices("crossval", "cv_mode") == evaluate.MODES
    for command in ("crossval", "report"):
        assert choices(command, "format") == evaluate.FORMATS


def test_count_space(bias_dir, capsys):
    rc = main(["count-space", "--bias", str(bias_dir / "ECG.dlab")])
    assert rc == 0
    assert int(capsys.readouterr().out.strip()) > 0


def test_learn_mono(fact_dir, bias_dir, capsys):
    rc = main(["learn", "--source", "ECG", "--bias",
               str(bias_dir / "ECG.dlab"),
               str(fact_dir / "ECG.facts"), str(fact_dir / "ABP.facts")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "class(vt)" in out and "class(sr)" in out


def test_learn_biased_with_artifacts(fact_dir, bias_dir, tmp_path, capsys):
    constraints = tmp_path / "constraints.txt"
    constraints.write_text("forbid_between ABP dias sys\n")
    art = tmp_path / "artifacts"
    rc = main(["learn-biased",
               "--bias", f"ECG={bias_dir / 'ECG.dlab'}",
               "--bias", f"ABP={bias_dir / 'ABP.dlab'}",
               "--constraints", str(constraints),
               "--artifacts", str(art),
               str(fact_dir / "ECG.facts"), str(fact_dir / "ABP.facts")])
    assert rc == 0
    assert (art / "mono_ECG.rules").exists()
    assert list(art.glob("bias_*.dlab"))
    assert list(art.glob("bottoms_*.rules"))
    assert "class(" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["learn-biased"], ["crossval", "--mode", "biased", "--folds", "2"]])
def test_misspelt_constraint_usage_error(fact_dir, bias_dir, tmp_path, capsys,
                                         command):
    constraints = tmp_path / "constraints.txt"
    constraints.write_text("forbid_between abp dias sys\n")
    rc = main(command + [
        "--bias", f"ECG={bias_dir / 'ECG.dlab'}",
        "--bias", f"ABP={bias_dir / 'ABP.dlab'}",
        "--constraints", str(constraints),
        str(fact_dir / "ECG.facts"), str(fact_dir / "ABP.facts")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: constraint 'forbid_between abp dias sys': unknown "
                   "source 'abp' (sources: ECG, ABP)\n")


def test_crossval_and_report_round_trip(fact_dir, bias_dir, tmp_path, capsys):
    report_json = tmp_path / "report.json"
    rc = main(["crossval", "--folds", "2", "--mode", "mono",
               "--source", "ECG", "--bias", f"ECG={bias_dir / 'ECG.dlab'}",
               "--format", "csv", "--json", str(report_json),
               str(fact_dir / "ECG.facts"), str(fact_dir / "ABP.facts")])
    assert rc == 0
    csv_out = capsys.readouterr().out
    assert "class,nodes,time_ms,tracc,acc,comp" in csv_out
    payload = json.loads(report_json.read_text())
    assert len(payload["rows"]) == 7

    rc = main(["report", "--format", "markdown", str(report_json)])
    assert rc == 0
    assert "tracc" in capsys.readouterr().out


def test_usage_error_exit_code(fact_dir, bias_dir):
    # fold count 1 is invalid
    rc = main(["crossval", "--folds", "1", "--mode", "mono",
               "--source", "ECG", "--bias", f"ECG={bias_dir / 'ECG.dlab'}",
               str(fact_dir / "ECG.facts")])
    assert rc == 2


def test_non_numeric_folds_usage_error(fact_dir, bias_dir, capsys):
    rc = main(["crossval", "--folds", "abc", "--mode", "mono",
               "--source", "ECG", "--bias", f"ECG={bias_dir / 'ECG.dlab'}",
               str(fact_dir / "ECG.facts")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --folds must be")


def test_bad_bias_pair_exit_code(fact_dir):
    rc = main(["learn-biased", "--bias", "nodelimiter",
               str(fact_dir / "ECG.facts")])
    assert rc == 2


@pytest.mark.parametrize("command", [
    ["learn-biased"], ["crossval", "--folds", "2", "--mode", "biased"]],
    ids=["learn-biased", "crossval"])
def test_repeated_bias_source_usage_error(fact_dir, bias_dir, capsys,
                                          command):
    ecg = bias_dir / "ECG.dlab"
    rc = main([*command, "--bias", f"ECG={ecg}", "--bias", f"ECG={ecg}",
               "--bias", f"ABP={bias_dir / 'ABP.dlab'}",
               str(fact_dir / "ECG.facts"), str(fact_dir / "ABP.facts")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: --bias given twice for source ECG\n"


def test_empty_data_usage_error(tmp_path, bias_dir):
    empty = tmp_path / "empty.facts"
    empty.write_text("")
    rc = main(["learn", "--source", "ECG", "--bias",
               str(bias_dir / "ECG.dlab"), str(empty)])
    assert rc == 2


def test_missing_report_usage_error(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "missing.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_synth_unwritable_out_usage_error(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    rc = main(["synth", "--per-class", "1", "--out", str(blocker)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {blocker / 'ECG.facts'}: ")


def test_synth_negative_per_class_usage_error(tmp_path, capsys):
    rc = main(["synth", "--per-class", "-1", "--out", str(tmp_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: per_class must be >= 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["learn-naive"],
                                     ["crossval", "--folds", "2",
                                      "--mode", "naive"]])
def test_naive_too_many_events_usage_error(fact_dir, capsys, command):
    # 300 events would nest the naive grammar past MAX_NESTING
    rc = main([*command, "--max-events", "300",
               str(fact_dir / "ECG.facts"), str(fact_dir / "ABP.facts")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: max_events must be between 1 and "
                   f"{(MAX_NESTING - 1) // 2}\n")


def test_crossval_unwritable_json_usage_error(fact_dir, bias_dir, tmp_path,
                                               capsys):
    # checked before any fold runs: no fold warning, no report, no file
    rc = main(["crossval", "--folds", "2", "--mode", "mono",
               "--source", "ECG", "--bias", f"ECG={bias_dir / 'ECG.dlab'}",
               "--json", str(tmp_path),
               str(fact_dir / "ECG.facts"), str(fact_dir / "ABP.facts")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {tmp_path}: Is a directory\n"
    assert list(tmp_path.iterdir()) == []


def test_learn_biased_unwritable_artifacts_usage_error(fact_dir, bias_dir,
                                                        tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    rc = main(["learn-biased",
               "--bias", f"ECG={bias_dir / 'ECG.dlab'}",
               "--bias", f"ABP={bias_dir / 'ABP.dlab'}",
               "--artifacts", str(blocker),
               str(fact_dir / "ECG.facts"), str(fact_dir / "ABP.facts")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: cannot write {blocker / 'mono_ECG.rules'}: "
                   "File exists\n")
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == ""


def test_crossval_output_check_leaves_no_file(fact_dir, bias_dir, tmp_path,
                                              capsys):
    # the writability check passes, then a usage error stops the run
    report_json = tmp_path / "out" / "report.json"
    rc = main(["crossval", "--folds", "1", "--mode", "mono",
               "--source", "ECG", "--bias", f"ECG={bias_dir / 'ECG.dlab'}",
               "--json", str(report_json), str(fact_dir / "ECG.facts")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: fold count 1")
    assert not report_json.exists()


ROW = {"label": "vt", "tracc": 1.0, "acc": 0.5, "comp": "2", "nodes": 3,
       "time_ms": 4.0}


@pytest.mark.parametrize("text", [
    json.dumps({"mode": "mono", "rows": [{"label": "vt", "bogus": 1}]}),
    json.dumps({"mode": "mono", "rows": [{**ROW, "tracc": "high"}]}),
    json.dumps({"rows": [ROW]}),
    "{not json",
])
def test_report_malformed_usage_error(tmp_path, capsys, text):
    bad = tmp_path / "report.json"
    bad.write_text(text)
    rc = main(["report", str(bad)])
    assert rc == 2
    assert "not a report written by crossval" in capsys.readouterr().err


def test_malformed_fact_file_usage_error(tmp_path, bias_dir, capsys):
    bad = tmp_path / "bad.facts"
    bad.write_text("begin(model).\ndoublet_1_ECG.\nqrs(r1,\nend(model).\n")
    rc = main(["learn", "--source", "ECG", "--bias",
               str(bias_dir / "ECG.dlab"), str(bad)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line ")


def test_repeated_event_id_names_the_file(tmp_path, bias_dir, capsys):
    bad = tmp_path / "dup.facts"
    bad.write_text("begin(model).\nsr_1_ECG.\nqrs(r1,100,normal).\n"
                   "qrs(r1,900,normal).\nend(model).\n")
    rc = main(["learn", "--source", "ECG", "--bias",
               str(bias_dir / "ECG.dlab"), str(bad)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: duplicate event ids in sr_1_ECG\n")


def test_malformed_grammar_usage_error(tmp_path, fact_dir, capsys):
    bad = tmp_path / "bad.dlab"
    bad.write_text("1-1:[qrs(R0,\n")
    rc = main(["learn", "--source", "ECG", "--bias", str(bad),
               str(fact_dir / "ECG.facts")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line ")


def test_grammar_with_a_bad_inline_element_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.dlab"
    bad.write_text("1-1:[p(1-1:[a,(\n])]")
    rc = main(["count-space", "--bias", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line 1: expected term, found '('\n")


def test_binary_grammar_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.dlab"
    bad.write_bytes(b"1-1:[\xff\xfe]")
    rc = main(["count-space", "--bias", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}")


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_grammar_nested_too_deeply_usage_error(tmp_path, capsys, depth):
    bad = tmp_path / "deep.dlab"
    bad.write_text("1-1:[\n" * depth + "a" + "]" * depth)
    rc = main(["count-space", "--bias", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line {MAX_NESTING + 1}: choices nest deeper than "
        f"{MAX_NESTING} levels\n")
