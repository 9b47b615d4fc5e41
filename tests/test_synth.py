import hashlib

import pytest

from relic import (CLASSES, GeneratorConfig, UsageError, covers,
                   generate_dataset, generate_example, target_rules,
                   write_model_file)
from relic.dlab import count_space, template_text
from relic.synth import cardiac_schema, monosource_biases, rhythm_template


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = generate_dataset(GeneratorConfig(seed=1, per_class=3))
        b = generate_dataset(GeneratorConfig(seed=1, per_class=3))
        for source in ("ECG", "ABP"):
            assert write_model_file(a.by_source(source)) \
                == write_model_file(b.by_source(source))

    def test_other_seed_differs(self):
        a = generate_dataset(GeneratorConfig(seed=1, per_class=3))
        b = generate_dataset(GeneratorConfig(seed=2, per_class=3))
        assert write_model_file(a.by_source("ECG")) \
            != write_model_file(b.by_source("ECG"))


class TestShape:
    def test_default_sizes(self, reference_dataset):
        assert len(reference_dataset.situations()) == 70
        assert len(reference_dataset.interpretations) == 140

    def test_zero_per_class(self):
        ds = generate_dataset(GeneratorConfig(seed=1, per_class=0))
        assert ds.interpretations == ()

    def test_unknown_class_rejected(self):
        with pytest.raises(UsageError):
            generate_example("flutter", 0, GeneratorConfig())

    def test_mode_sources(self):
        assert generate_dataset(GeneratorConfig(per_class=1)).sources() \
            == ["ECG", "ABP"]
        assert generate_dataset(
            GeneratorConfig(per_class=1, mode="split")).sources() == ["P", "QRS"]
        assert generate_dataset(
            GeneratorConfig(per_class=1, mode="redundant")).sources() \
            == ["ECG", "ECG2"]
        reduced = generate_dataset(GeneratorConfig(per_class=1, mode="reduced"))
        preds = {f.pred for i in reduced.interpretations for f in i.facts}
        assert "p" not in preds and "dias" not in preds

    def test_labels_cover_all_classes(self, reference_dataset):
        assert {i.label for i in reference_dataset.interpretations} \
            == set(CLASSES)


class TestSeparability:
    def test_target_rules_exact(self, reference_dataset):
        targets = target_rules()
        for source in ("ECG", "ABP"):
            for label, rule in targets[source].items():
                for e in reference_dataset.by_source(source):
                    assert covers(rule, e.index) == (e.label == label), \
                        f"{source} rule for {label} vs {e.ident}"

    def test_targets_inside_monosource_bias_attrs(self, reference_dataset):
        # every attribute constant the targets use is available in the bias
        schema = reference_dataset.schema
        for source, rules in target_rules().items():
            for rule in rules.values():
                for b in rule.body:
                    decl = schema.get(b.pred)
                    assert decl is not None, b.pred


class TestTemplates:
    def test_every_class_has_template(self):
        for label in CLASSES:
            tpl = rhythm_template(label, 6, pause=False)
            assert len(tpl.intervals) == len(tpl.beats) - 1

    def test_minimum_cycles_enforced(self):
        with pytest.raises(UsageError):
            GeneratorConfig(cycles=3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(UsageError):
            GeneratorConfig(mode="sideways")


def test_biases_exist_per_mode():
    for mode in ("full", "reduced", "split", "redundant"):
        biases = monosource_biases(mode)
        ds_sources = generate_dataset(
            GeneratorConfig(per_class=1, mode=mode)).sources()
        assert sorted(biases) == sorted(ds_sources)
        schema = cardiac_schema(mode)
        assert schema.sources() == ds_sources


# count_space and the SHA-256 of template_text of every authored bias; the
# grammars are built in code, so any change to their text shows here
AUTHORED = {
    ("full", "ECG"): (20_249_138, "4ced37e8d43aa350388c52d7e2b60c55"
                                  "3625a8f4a8bcf564860e7c2889ab10b4"),
    ("full", "ABP"): (13_783_343_688, "dfd668299093aca2f93e89d37c2bc457"
                                      "73136f37fee5f26a8a633804e34dab01"),
    ("reduced", "ECG"): (4_681, "d9c128255aa98a7802ab10bbb8d7c027"
                                "f09f50e75884fdf23205db1fe6821335"),
    ("reduced", "ABP"): (43_275, "9bed3b7f5c34d6901c6317572f31f821"
                                 "010b7d28796993837643508245f61e7a"),
    ("split", "P"): (585, "f8ea550be7d6363df47fd1ad44cc47c3"
                         "0bfb855d4647dbef0e6ac406e8807b6e"),
    ("split", "QRS"): (4_681, "1ef53096488fe7c9d6571728701ba778"
                              "1e584d60b071b9e4bd962ff0be773ef0"),
    ("redundant", "ECG"): (20_249_138, "4ced37e8d43aa350388c52d7e2b60c55"
                                       "3625a8f4a8bcf564860e7c2889ab10b4"),
    ("redundant", "ECG2"): (20_249_138, "f63993a58a11cefdf462e3ee0dc6aa00"
                                        "454a471a313fff9e65cb079fdabbf55c"),
}


def test_authored_biases_pinned():
    got = {}
    for mode in ("full", "reduced", "split", "redundant"):
        for source, t in monosource_biases(mode).items():
            digest = hashlib.sha256(template_text(t).encode()).hexdigest()
            got[mode, source] = (count_space(t), digest)
    assert got == AUTHORED
