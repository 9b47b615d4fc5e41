import hashlib

import pytest

from relic import (CLASSES, GeneratorConfig, UsageError, covers,
                   generate_dataset, generate_example, target_rules,
                   write_model_file)
from relic.dlab import count_space, template_text
from relic.synth import (MODES, cardiac_schema, monosource_biases,
                         rhythm_template)


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

    def test_negative_per_class_rejected(self):
        with pytest.raises(UsageError):
            GeneratorConfig(per_class=-1)

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


# SHA-256 of write_model_file per (mode, cycles, source) at seed 1 and
# per_class 2, of each mode's declarations (sorted by name, so their order
# does not count) and each mode's sources() order; any change to the
# generated bytes or the schemas shows here
GENERATED = {
    ("full", 4, "ECG"): "36d46060022769e928e6a2e7f91bf61f"
                        "009268125de7f074c5b4b22e16dc8c92",
    ("full", 4, "ABP"): "7035baf9db112ab6980e81159c287df4"
                        "231685e4f900bbb9e8d5a7a768bb2b76",
    ("full", 13, "ECG"): "91b5c3ab3bde93535640a12eb4658041"
                         "c977e3067c308f345df6f0e1a2346d8e",
    ("full", 13, "ABP"): "3c438748f71985731075211e4d15813d"
                         "0663686cb8f549e7043951234ea6fb2a",
    ("reduced", 4, "ECG"): "dc29808a468f44479492fd951f7a65bb"
                           "aaaf63c56b9a554da9cf8d5e6268571d",
    ("reduced", 4, "ABP"): "4dd7043f0b0bcba1c03a5060c0086086"
                           "18139e250c4849a7e11422b709b9bfa7",
    ("reduced", 13, "ECG"): "b899ac95d30f41ebe92ed85ce093b229"
                            "70a0cab5a40c99ae98f643eba8c4b3ff",
    ("reduced", 13, "ABP"): "4b26a2ff725efcb59fabd5683b7d0fef"
                            "d439fbab1266b047703499c16ea715b9",
    ("split", 4, "P"): "259e7b7c57a893956f4b5e9a3b58935d"
                       "8cd35fe56274382e170427d35a12f8f5",
    ("split", 4, "QRS"): "13982e700aeb956e7131b9399bfa3c71"
                         "f54de240dabd69c0d18c4cc663664773",
    ("split", 13, "P"): "a32d8ce6b2510878042ad5cc7f1fe2ff"
                        "b9cb56ed8fc0eec430f5e7534d2710f1",
    ("split", 13, "QRS"): "ba253d02c9c7dd9e24497b97e27094e6"
                          "085a79e35faee86c3e28aedbd4189055",
    ("redundant", 4, "ECG"): "36d46060022769e928e6a2e7f91bf61f"
                             "009268125de7f074c5b4b22e16dc8c92",
    ("redundant", 4, "ECG2"): "80fe1d0d76a3485be6ce30b110be2ad4"
                              "0b360b37fb4d4e063e85bfb69ef21235",
    ("redundant", 13, "ECG"): "91b5c3ab3bde93535640a12eb4658041"
                              "c977e3067c308f345df6f0e1a2346d8e",
    ("redundant", 13, "ECG2"): "1bc8176bd1df0ff7f500c463033d46de"
                               "a99081e84a4fb3c4054c62b58935b14a",
}
SCHEMAS = {
    "full": (["ECG", "ABP"], "4dde214668d373e9e0032c32dd9be45c"
                             "e85e0cdab4aca1e44773297694a8178f"),
    "reduced": (["ECG", "ABP"], "41820c6860f10077edf0d2d03dbb34a9"
                                "f3b732af3f4ee44f11f58c88a1f2e29f"),
    "split": (["P", "QRS"], "c61be736a91b1f4b10e263565721dc51"
                            "269bc8cc8e9983d6a9595deea26b6dce"),
    "redundant": (["ECG", "ECG2"], "f4288aff7e4d9d83a69e4afecc9b6ad2"
                                   "a4050119ed3ede31b706b9bbcd953cb3"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_generated_data_pinned():
    got = {}
    for mode in MODES:
        for cycles in (4, 13):
            ds = generate_dataset(GeneratorConfig(seed=1, per_class=2,
                                                  cycles=cycles, mode=mode))
            for source in ds.sources():
                got[mode, cycles, source] = _sha(
                    write_model_file(ds.by_source(source)))
    assert got == GENERATED


def test_schemas_pinned():
    got = {}
    for mode in MODES:
        schema = cardiac_schema(mode)
        decls = sorted((d.name, d.role, d.source, d.domains, d.argspec,
                        d.derive, d.scale) for d in schema.decls)
        got[mode] = (schema.sources(), _sha(repr(decls)))
    assert got == SCHEMAS
