import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import fdl.cli
import fdl.kb
from fdl.cli import main
from fdl.fixtures import edge_pair, fan_model, fold_pair, hub_pair, twin_islands
from fdl.interp import dump_interpretation, load_interpretation
from fdl.bisim import dump_relation, load_relation
from fdl.relations import FuzzyRelation
from fdl.syntax import MODES
from fdl.godel import degree, format_degree
from helpers import counting_hub_pair, doubled_hub_pair, matrix_table_oracle


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, model in {
        "fan": fan_model(),
        "hub_a": hub_pair()[0],
        "hub_b": hub_pair()[1],
        "fold_a": fold_pair()[0],
        "fold_b": fold_pair()[1],
        "islands": twin_islands(),
        "edge_a": edge_pair()[0],
        "edge_b": edge_pair()[1],
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dump_interpretation(model)))
        paths[name] = str(path)
    return paths


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def without_entry_lists(monkeypatch):
    """``fdl.cli.dump_relation`` raises: the relation commands write their
    documents and tables straight from the relation, with no entry list."""
    def refuse(*_args):
        raise AssertionError("entry list built")

    monkeypatch.setattr(fdl.cli, "dump_relation", refuse)


class TestEval:
    def test_table(self, files):
        code, out, _ = run_cli(["eval", "-m", files["fan"], "-c", "forall r . A"])
        assert code == 0
        assert "u   0.5" in out

    def test_single_element_json(self, files):
        code, out, _ = run_cli(
            ["--json", "eval", "-m", files["fan"], "-c", "exists r . A", "-e", "u"]
        )
        assert code == 0
        assert json.loads(out) == {"concept": "exists r . A", "values": {"u": "0.8"}}

    def test_json_formats_each_distinct_degree_once(self, files, monkeypatch):
        calls = []

        def counting(value):
            calls.append(value)
            return format_degree(value)

        monkeypatch.setattr(fdl.cli, "format_degree", counting)
        code, out, _ = run_cli(["--json", "eval", "-m", files["fan"], "-c", "forall r . A"])
        assert code == 0
        assert json.loads(out)["values"] == {"u": "0.5", "v1": "1", "v2": "1", "v3": "1"}
        assert sorted(calls) == [F(1, 2), F(1)]

    def test_unknown_element(self, files):
        code, _, err = run_cli(["eval", "-m", files["fan"], "-c", "A", "-e", "zz"])
        assert code == 2 and "zz" in err

    def test_feature_flag_restricts_syntax(self, files):
        code, _, err = run_cli(
            ["eval", "-m", files["fan"], "-c", "exists U . A", "--features", ""]
        )
        assert code == 2 and "universal" in err


class TestBisim:
    @pytest.mark.usefixtures("without_entry_lists")
    def test_matrix_contains_hub_value(self, files):
        code, out, _ = run_cli(
            ["bisim", "-l", files["hub_a"], "-r", files["hub_b"], "--features", "", "--mode", "fuzzy"]
        )
        assert code == 0
        assert out == "   u'   v'   w'\nu  0.8  0    0\nv  0    1    0.8\nw  0    0.8  1\n"

    @pytest.mark.parametrize("features, table", [
        # the column of u' is as wide as its name, the others as their cells
        ("", "    u'  v1'  v2'\n"
             "u   1   0    0\n"
             "v1  0   1    0.7\n"
             "v2  0   0.7  1\n"
             "v3  0   0.7  1\n"),
        # a listed cell widens the column of u'
        ("I,U", "    u'   v1'  v2'\n"
                "u   0.3  0    0\n"
                "v1  0    0.3  0.3\n"
                "v2  0    0.3  0.3\n"
                "v3  0    0.3  0.3\n"),
    ])
    def test_table_of_unequal_widths_pinned(self, files, features, table):
        code, out, _ = run_cli(["bisim", "-l", files["fold_a"], "-r", files["fold_b"],
                                "--features", features, "--mode", "fuzzy"])
        assert (code, out) == (0, table)

    @pytest.mark.parametrize("mode", MODES)
    def test_individual_in_one_model_under_nominals(self, files, tmp_path, mode):
        # hub_b names no individual; FB5 needs every name in both models
        named = tmp_path / "named.json"
        named.write_text(json.dumps(dump_interpretation(twin_islands())))
        code, out, err = run_cli(["bisim", "-l", str(named), "-r", files["hub_b"],
                                  "--features", "O", "--mode", mode])
        assert (code, out) == (2, "")
        assert err == "error: individual 'a' is not interpreted in both models\n"

    def test_json_reparses_into_relation_document(self, files):
        code, out, _ = run_cli(
            ["--json", "bisim", "-l", files["hub_a"], "-r", files["hub_b"], "--features", "", "--mode", "fuzzy"]
        )
        assert code == 0
        doc = json.loads(out)
        relation = load_relation(
            doc, hub_pair()[0].domain, hub_pair()[1].domain
        )
        assert relation.at("u", "u'") == load_relation(doc, hub_pair()[0].domain, hub_pair()[1].domain).at("u", "u'")
        assert doc["mode"] == "fuzzy"

    @pytest.mark.usefixtures("without_entry_lists")
    def test_output_file(self, files, tmp_path):
        target = tmp_path / "rel.json"
        code, out, _ = run_cli(
            ["bisim", "-l", files["hub_a"], "-r", files["hub_b"], "--features", "",
             "--mode", "crisp", "-o", str(target)]
        )
        assert code == 0
        assert out == "   u'  v'  w'\nu  0   0   0\nv  0   1   0\nw  0   0   1\n"
        assert target.read_bytes() == (json.dumps(
            {"mode": "crisp", "entries": [["v", "v'", "1"], ["w", "w'", "1"]]}, indent=2
        ) + "\n").encode()

    def test_unwritable_output_file(self, files, tmp_path):
        for target in (tmp_path / "missing" / "rel.json", tmp_path):
            code, out, err = run_cli(
                ["bisim", "-l", files["hub_a"], "-r", files["hub_b"], "--features", "",
                 "-o", str(target)]
            )
            assert code == 2 and out == ""
            assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


HUB_ENTRIES = [
    ["u", "u'", "0.8"], ["v", "v'", "1"], ["v", "w'", "0.8"], ["w", "v'", "0.8"], ["w", "w'", "1"],
]
FOLD_CRISP_ENTRIES = [["u", "u'", "1"], ["v1", "v1'", "1"], ["v2", "v2'", "1"], ["v3", "v2'", "1"]]


@pytest.mark.usefixtures("without_entry_lists")
class TestRelationOutputPinned:
    """The exact ``--json`` bytes of ``bisim`` and ``bisimilar``."""

    @staticmethod
    def pair(files, name):
        return ["-l", files[f"{name}_a"], "-r", files[f"{name}_b"]]

    @pytest.mark.parametrize("name, features, mode, entries", [
        ("hub", "", "fuzzy", HUB_ENTRIES),
        ("fold", "", "crisp", FOLD_CRISP_ENTRIES),
        # the U cap, 0.7, lowers the entries of 0.8 and 1
        ("hub", "I,U", "fuzzy", [[x, y, "0.7"] for x, y, _d in HUB_ENTRIES]),
    ])
    def test_bisim_json(self, files, name, features, mode, entries):
        code, out, _ = run_cli(["--json", "bisim", *self.pair(files, name),
                                "--features", features, "--mode", mode])
        assert code == 0
        assert out == json.dumps({"mode": mode, "entries": entries}, indent=2) + "\n"

    @pytest.mark.parametrize("features, mode, expected", [
        ("O,U,Self,N2", "crisp", (0, True, None, FOLD_CRISP_ENTRIES)),
        # every entry capped at 0.3, the individual's too
        ("I,U", "fuzzy", (1, False, "a", [
            ["u", "u'", "0.3"], ["v1", "v1'", "0.3"], ["v1", "v2'", "0.3"], ["v2", "v1'", "0.3"],
            ["v2", "v2'", "0.3"], ["v3", "v1'", "0.3"], ["v3", "v2'", "0.3"],
        ])),
    ])
    def test_bisimilar_json(self, files, features, mode, expected):
        exit_code, holds, failing, entries = expected
        code, out, _ = run_cli(["--json", "bisimilar", *self.pair(files, "fold"),
                                "--features", features, "--mode", mode])
        assert code == exit_code
        assert out == json.dumps({
            "bisimilar": holds, "mode": mode, "failing_individual": failing,
            "witness": {"mode": mode, "entries": entries},
        }, indent=2) + "\n"


class TestLazyHumanText:
    """The human text is built only when it is printed."""

    def test_json_builds_no_matrix_table(self, files, monkeypatch):
        def refuse(*_args):
            raise AssertionError("matrix table built")

        monkeypatch.setattr(fdl.cli, "_matrix_table", refuse)
        pair = ["-l", files["hub_a"], "-r", files["hub_b"], "--features", ""]
        for argv in (["bisim", *pair, "--mode", "fuzzy"],
                     ["hm", *pair, "--fragment", "prime", "--depth", "1"]):
            assert run_cli(["--json", *argv])[0] == 0
            with pytest.raises(AssertionError, match="matrix table built"):
                run_cli(argv)


# names that JSON escapes, or writes as they are
NAMES = ["u", "", 'q"uote', "back\\slash", "new\nline", "\u00e9", "\u6f22", "\U0001f642", "x y"]
# "0.5" and "1/2" read as distinct objects of one value
DEGREES = [degree("1"), degree("0.5"), degree("1/2"), degree("1/3"), degree("0.25")]


def random_relation(rng):
    """A relation of up to five rows and columns named from NAMES, some
    rows without pairs, each pair's degree drawn from DEGREES."""
    rows = rng.sample(NAMES, rng.randint(0, 5))
    cols = rng.sample(NAMES, rng.randint(0, 5))
    density = rng.choice([0.0, 0.3, 1.0])
    lines = []
    for _x in rows:
        js = [j for j in range(len(cols)) if rng.random() < density]
        lines.append((js, [rng.choice(DEGREES) for _j in js]))
    return FuzzyRelation(rows, cols, lines)


class TestRelationWriter:
    """The relation documents and tables written from a relation's lines
    agree with those written from ``dump_relation``'s entry list."""

    RELATIONS = [FuzzyRelation([], [], []), FuzzyRelation(["u"], ["v"], [([], [])])] + [
        random_relation(random.Random(f"relation writer {k}")) for k in range(300)
    ]

    @pytest.mark.parametrize("mode", MODES)
    def test_document_at_top_level(self, mode):
        for rel in self.RELATIONS:
            expected = json.dumps(dump_relation(rel, mode), indent=2)
            assert "".join(fdl.cli._relation_chunks(rel, mode)) == expected

    @pytest.mark.parametrize("mode", MODES)
    def test_document_as_witness(self, mode):
        for rel in self.RELATIONS:
            fields = {"bisimilar": False, "mode": mode, "failing_individual": "a"}
            expected = json.dumps({**fields, "witness": dump_relation(rel, mode)}, indent=2)
            written = fdl.cli._object_chunks({**fields, "witness": rel}, mode)
            assert "".join(written) == expected
            assert ("".join(fdl.cli._relation_chunks(rel, mode, "\n  "))
                    == fdl.cli._indented(dump_relation(rel, mode), "\n  "))

    def test_table(self):
        for rel in self.RELATIONS:
            entries = dump_relation(rel, "fuzzy")["entries"]
            assert (list(fdl.cli._matrix_table(rel))
                    == list(matrix_table_oracle(rel.rows, rel.cols, entries)))


class TestCheck:
    def test_violations_and_exit_code(self, files, tmp_path):
        rel = tmp_path / "z.json"
        rel.write_text(json.dumps({"mode": "fuzzy", "entries": [["u", "u'", "0.9"]]}))
        code, out, _ = run_cli(
            ["check", "-l", files["hub_a"], "-r", files["hub_b"], "-z", str(rel), "--features", ""]
        )
        assert code == 1
        assert "FB4" in out

    def test_json_degrees_outside_both_models(self, files, tmp_path):
        rel = tmp_path / "z.json"
        rel.write_text(json.dumps({"mode": "fuzzy", "entries": [
            ["u", "u'", "0.9"], ["v", "v'", "1"], ["w", "w'", "37/100"],
        ]}))
        code, out, _ = run_cli(
            ["--json", "check", "-l", files["hub_a"], "-r", files["hub_b"],
             "-z", str(rel), "--features", ""]
        )
        assert code == 1
        payload = json.loads(out)
        assert not payload["satisfied"]
        assert [
            (v["condition"], v["witness"], v["lhs"], v["rhs"])
            for v in payload["violations"]
        ] == [
            ("FB3", ["w"], "0.9", "0.37"),
            ("FB4", ["v'"], "0.9", "0.7"),
            ("FB4", ["w'"], "0.9", "0.37"),
        ]

    # the report order of every condition code, on two hand-built pairs
    GRADED = (
        {"domain": ["u", "v", "w"], "individuals": {"a": "u"},
         "concepts": {"A": {"u": "1", "v": "0.5"}},
         "roles": {"r": [["u", "v", "1"], ["u", "w", "0.5"], ["v", "v", "0.5"]]}},
        {"domain": ["u'", "v'", "w'"], "individuals": {"a": "v'"},
         "concepts": {"A": {"u'": "1", "v'": "0.3"}},
         "roles": {"r": [["u'", "v'", "0.8"], ["w'", "w'", "1"]]}},
        [["u", "u'", "1"], ["v", "v'", "1"], ["w", "w'", "0.5"]],
    )
    HUBS = (
        {"domain": ["h", "x", "y", "z"],
         "roles": {"r": [["h", "x", "1"], ["h", "y", "1"], ["h", "z", "0.5"]]}},
        {"domain": ["h'", "x'", "y'"], "roles": {"r": [["h'", "x'", "1"], ["h'", "y'", "0.5"]]}},
        [["h", "h'", "1"], ["x", "x'", "1"], ["y", "x'", "1"], ["z", "y'", "1"]],
    )

    @pytest.mark.parametrize("pair, features, expected", [
        ("GRADED", "O,U,Self,N1", [
            ("FB5", "u", "u'", None, "a", None, "1", "0"),
            ("FB3", "u", "u'", "r", None, ["v"], "1", "0.8"),
            ("FB3", "u", "u'", "r", None, ["w"], "0.5", "0"),
            ("FB8", "u", "u'", None, None, ["w"], "1", "0.5"),
            ("FB9", "u", "u'", None, None, ["w'"], "1", "0.5"),
            ("FB6n(1)", "u", "u'", "r", None, None, "1", "0.8"),
            ("FB2", "v", "v'", None, "A", None, "1", "0.3"),
            ("FB5", "v", "v'", None, "a", None, "1", "0"),
            ("FB10", "v", "v'", None, "r", None, "1", "0"),
            ("FB3", "v", "v'", "r", None, ["v"], "0.5", "0"),
            ("FB8", "v", "v'", None, None, ["w"], "1", "0.5"),
            ("FB9", "v", "v'", None, None, ["w'"], "1", "0.5"),
            ("FB6n(1)", "v", "v'", "r", None, None, "0.5", "0"),
            ("FB10", "w", "w'", None, "r", None, "0.5", "0"),
            ("FB4", "w", "w'", "r", None, ["w'"], "0.5", "0"),
            ("FB7n(1)", "w", "w'", "r", None, None, "0.5", "0"),
        ]),
        ("GRADED", "I,Self", [
            ("FB3", "u", "u'", "r", None, ["v"], "1", "0.8"),
            ("FB3", "u", "u'", "r", None, ["w"], "0.5", "0"),
            ("FB2", "v", "v'", None, "A", None, "1", "0.3"),
            ("FB10", "v", "v'", None, "r", None, "1", "0"),
            ("FB3", "v", "v'", "r", None, ["v"], "0.5", "0"),
            ("FB3", "v", "v'", "r-", None, ["u"], "1", "0.8"),
            ("FB3", "v", "v'", "r-", None, ["v"], "0.5", "0"),
            ("FB10", "w", "w'", None, "r", None, "0.5", "0"),
            ("FB4", "w", "w'", "r", None, ["w'"], "0.5", "0"),
            ("FB3", "w", "w'", "r-", None, ["u"], "0.5", "0"),
            ("FB4", "w", "w'", "r-", None, ["w'"], "0.5", "0"),
        ]),
        # Q* decides FB6 by matching, Q2 by enumerating the 2-subsets
        ("HUBS", "Q*", [("FB6(2)", "h", "h'", "r", None, ["x", "y"], "1", "0")]),
        ("HUBS", "Q2", [("FB6(2)", "h", "h'", "r", None, ["x", "y"], "1", "0")]),
        ("HUBS", "I,N2", [("FB6n(2)", "h", "h'", "r", None, None, "1", "0.5")]),
    ])
    def test_json_report_order(self, tmp_path, pair, features, expected):
        paths = []
        for name, doc in zip("abz", getattr(self, pair)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc if name != "z" else {"entries": doc}))
        code, out, _ = run_cli(["--json", "check", "-l", str(paths[0]), "-r", str(paths[1]),
                                "-z", str(paths[2]), "--features", features])
        assert code == 1
        keys = ("condition", "x", "x_prime", "role", "name", "witness", "lhs", "rhs")
        assert json.loads(out)["violations"] == [dict(zip(keys, row)) for row in expected]

    def test_satisfied(self, files, tmp_path):
        rel = tmp_path / "z.json"
        rel.write_text(
            json.dumps(
                {
                    "mode": "fuzzy",
                    "entries": [
                        ["u", "u'", "0.8"],
                        ["v", "v'", "1"],
                        ["w", "w'", "1"],
                        ["v", "w'", "0.8"],
                        ["w", "v'", "0.8"],
                    ],
                }
            )
        )
        code, out, _ = run_cli(
            ["check", "-l", files["hub_a"], "-r", files["hub_b"], "-z", str(rel), "--features", ""]
        )
        assert code == 0 and "satisfied" in out


class TestBisimilar:
    def test_holds(self, files):
        code, out, _ = run_cli(
            ["bisimilar", "-l", files["fold_a"], "-r", files["fold_b"],
             "--features", "O,U,Self,N2", "--mode", "crisp"]
        )
        assert code == 0 and "bisimilar" in out

    @pytest.mark.usefixtures("without_entry_lists")
    @pytest.mark.parametrize("features, code, line", [
        ("O,U,Self,N2", 0, "bisimilar (crisp)"),
        ("I", 1, "not bisimilar (crisp); individual 'a' falls below 1"),
    ])
    def test_human_line_pinned(self, files, features, code, line):
        assert run_cli(["bisimilar", "-l", files["fold_a"], "-r", files["fold_b"],
                        "--features", features, "--mode", "crisp"]) == (code, line + "\n", "")

    def test_fails_with_individual(self, files):
        code, out, _ = run_cli(
            ["--json", "bisimilar", "-l", files["fold_a"], "-r", files["fold_b"],
             "--features", "I", "--mode", "crisp"]
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["bisimilar"] is False and doc["failing_individual"] == "a"

    def test_unbounded_counting_features(self, files):
        # "Q*" is what FeatureSet.format writes for unbounded counting
        code, out, _ = run_cli(
            ["--json", "bisimilar", "-l", files["fold_a"], "-r", files["fold_b"],
             "--features", "I,Q*", "--mode", "crisp"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["failing_individual"] == "a"
        code, out, _ = run_cli(
            ["eval", "-m", files["fan"], "-c", ">= 5 r- . A", "--features", "I,Q*"]
        )
        assert code == 0

    @staticmethod
    def wide_hub_files(tmp_path, pair=counting_hub_pair):
        paths = []
        for k, model in enumerate(pair(16)):
            path = tmp_path / f"hub{k}.json"
            path.write_text(json.dumps(dump_interpretation(model)))
            paths.append(str(path))
        return paths

    def test_counting_budget_stops_wide_hub(self, tmp_path):
        # Q2..Q16 leaves out size 1: the hubs with successors in 2 blocks
        # are decided; with successors in 16 blocks, one apart, the least
        # sets of target blocks need too many subsets
        features = ",".join(f"Q{n}" for n in range(2, 17))
        paths = self.wide_hub_files(tmp_path)
        for mode in MODES:
            code, out, _ = run_cli(
                ["--json", "bisimilar", "-l", paths[0], "-r", paths[1], "--features", features,
                 "--mode", mode]
            )
            assert code == 0 and ["h0", "g0", "1"] in json.loads(out)["witness"]["entries"]
        paths = self.wide_hub_files(tmp_path, doubled_hub_pair)
        for mode in MODES:
            start = time.perf_counter()
            code, _, err = run_cli(
                ["bisimilar", "-l", paths[0], "-r", paths[1], "--features", features,
                 "--mode", mode]
            )
            assert time.perf_counter() - start < 1.0
            assert code == 2 and "budget" in err

    def test_covering_counting_bounds_decide_wide_hub(self, tmp_path):
        paths = self.wide_hub_files(tmp_path)
        for features in (",".join(f"Q{n}" for n in range(1, 17)), "Q*"):
            start = time.perf_counter()
            code, out, _ = run_cli(
                ["bisimilar", "-l", paths[0], "-r", paths[1], "--features", features]
            )
            assert time.perf_counter() - start < 1.0
            assert code == 0 and "bisimilar" in out


class TestMinimizePrune:
    def test_minimize_document_roundtrips(self, files):
        code, out, _ = run_cli(["minimize", "-m", files["islands"], "--features", "O"])
        assert code == 0
        model = load_interpretation(json.loads(out))
        assert len(model.domain) == 4

    def test_minimize_with_prune(self, files):
        code, out, _ = run_cli(
            ["minimize", "-m", files["islands"], "--features", "", "--prune"]
        )
        assert code == 0
        model = load_interpretation(json.loads(out))
        assert len(model.domain) == 3

    def test_prune(self, files):
        code, out, _ = run_cli(["prune", "-m", files["islands"], "--features", ""])
        assert code == 0
        assert load_interpretation(json.loads(out)).domain == ("u", "v1", "v2", "v3")

    def test_feature_error_is_usage_error(self, files):
        code, _, err = run_cli(["minimize", "-m", files["islands"], "--features", "Q2"])
        assert code == 2 and "quotient" in err


    def test_minimize_names_with_commas(self, tmp_path):
        path = tmp_path / "commas.json"
        path.write_text(json.dumps(
            {"domain": ["a", "b", "a,b"], "concepts": {"A": {"a,b": "1"}}}
        ))
        code, out, err = run_cli(["minimize", "-m", str(path), "--features", ""])
        assert code == 0, err
        assert json.loads(out)["domain"] == ["{a,b}", '{"a,b"}']


class TestValidate:
    def test_valid_and_invalid(self, files, tmp_path):
        box = tmp_path / "box.json"
        box.write_text(
            json.dumps(
                {"abox": [{"kind": "concept", "c": "exists r . A", "a": "a", "cmp": ">=", "p": "0.1"}]}
            )
        )
        code, out, _ = run_cli(["validate", "-m", files["edge_a"], "--abox", str(box)])
        assert code == 0 and "validated" in out
        strict = tmp_path / "strict.json"
        strict.write_text(
            json.dumps({"tbox": [{"lhs": "1", "rhs": "A", "rel": ">=", "p": "1"}]})
        )
        code, out, _ = run_cli(["validate", "-m", files["edge_a"], "--tbox", str(strict)])
        assert code == 1 and "not validated" in out

    def test_witness_named_by_the_empty_string(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(
            {"domain": ["", "u"], "concepts": {"A": {"u": "1"}}, "roles": {}}
        ))
        box = tmp_path / "box.json"
        box.write_text(json.dumps({"tbox": [{"lhs": "1", "rhs": "A", "rel": ">=", "p": "1"}]}))
        argv = ["validate", "-m", str(model), "--tbox", str(box)]
        code, out, _ = run_cli(argv)
        assert code == 1
        assert out == "not validated: (1 included-in A) >= 1 (at element )\n"
        code, out, _ = run_cli(["--json"] + argv)
        assert code == 1 and json.loads(out)["element"] == ""


class TestHm:
    def test_fuzzy_matrix(self, files):
        code, out, _ = run_cli(
            ["hm", "-l", files["hub_a"], "-r", files["hub_b"], "--features", "",
             "--fragment", "prime", "--depth", "2"]
        )
        assert code == 0
        assert "0.8" in out

    @pytest.mark.usefixtures("without_entry_lists")
    def test_human_table_and_separators_pinned(self, files):
        code, out, _ = run_cli(
            ["hm", "-l", files["fold_a"], "-r", files["fold_b"], "--features", "",
             "--fragment", "prime", "--depth", "1"]
        )
        assert code == 0
        assert out == (
            "    u'  v1'  v2'\nu   1   0    0\nv1  0   1    0.7\nv2  0   0.7  1\nv3  0   0.7  1\n"
            + "".join(f"separator {pair}: A\n" for pair in (
                "u|v1'", "u|v2'", "v1|u'", "v1|v2'", "v2|u'", "v2|v1'", "v3|u'", "v3|v1'"))
        )

    def test_separator_keys_of_names_holding_a_bar_stay_distinct(self, tmp_path):
        left, right = tmp_path / "left.json", tmp_path / "right.json"
        left.write_text(json.dumps(
            {"domain": ["a|b", "a"], "concepts": {"A": {"a|b": "1"}}, "roles": {}}
        ))
        right.write_text(json.dumps(
            {"domain": ["c", "b|c"], "concepts": {"A": {"b|c": "1"}}, "roles": {}}
        ))
        argv = ["hm", "-l", str(left), "-r", str(right), "--features", "",
                "--fragment", "prime", "--depth", "1"]
        code, out, _ = run_cli(["--json"] + argv)
        assert code == 0
        assert json.loads(out)["separators"] == {'"a|b"|c': "A", 'a|"b|c"': "A"}
        code, out, _ = run_cli(argv)
        assert code == 0
        assert out.splitlines()[-2:] == ['separator "a|b"|c: A', 'separator a|"b|c": A']

    def test_delta_separator_listed(self, files):
        code, out, _ = run_cli(
            ["--json", "hm", "-l", files["edge_a"], "-r", files["edge_b"], "--features", "",
             "--fragment", "delta", "--depth", "2"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"]["mode"] == "crisp"
        assert any("delta" in text for text in doc["separators"].values())


    @pytest.mark.usefixtures("without_entry_lists")
    def test_json_output_pinned(self, files):
        code, out, _ = run_cli(
            ["--json", "hm", "-l", files["hub_a"], "-r", files["hub_b"], "--features", "",
             "--fragment", "prime", "--depth", "1"]
        )
        assert code == 0
        expected = {
            "matrix": {
                "mode": "fuzzy",
                "entries": [
                    ["u", "u'", "1"],
                    ["v", "v'", "1"],
                    ["v", "w'", "0.8"],
                    ["w", "v'", "0.8"],
                    ["w", "w'", "1"],
                ],
            },
            "separators": {
                "u|v'": "A", "u|w'": "A", "v|u'": "A", "v|w'": "A", "w|u'": "A", "w|v'": "A",
            },
            "concepts_used": 62,
        }
        assert out == json.dumps(expected, indent=2) + "\n"


class TestHarness:
    def test_deterministic_output(self, files):
        argv = ["--json", "bisim", "-l", files["hub_a"], "-r", files["hub_b"], "--features", "", "--mode", "fuzzy"]
        assert run_cli(argv) == run_cli(argv)

    def test_missing_file_is_usage_error(self):
        code, _, err = run_cli(["eval", "-m", "/nonexistent.json", "-c", "A"])
        assert code == 2 and "cannot read" in err

    def test_bad_arguments(self):
        assert main(["bogus"]) == 2

    def test_console_entry_point(self, files):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "fdl", "eval", "-m", files["fan"], "-c", "A", "-e", "v2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "0.9" in proc.stdout

    def test_selftest_reports_each_fixture(self):
        code, out, _ = run_cli(["selftest"])
        lines = [l for l in out.splitlines() if l]
        assert code == 0, out
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines), out

    @pytest.mark.parametrize(
        "script", ["bisimulation_walkthrough.py", "minimization_walkthrough.py"]
    )
    def test_demo_scripts_run(self, script):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(root / "demos" / script)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()


# Each subcommand's options as ``--help`` shows them: option -> (every
# option string, required, choices, default).  The top level is "".
SURFACE = {
    "": {
        "-h": (("-h", "--help"), False, None, None),
        "--json": (("--json",), False, None, None),
    },
    "eval": {
        "-h": (("-h", "--help"), False, None, None),
        "-m": (("-m", "--model"), True, None, None),
        "-c": (("-c", "--concept"), True, None, None),
        "-e": (("-e", "--element"), False, None, None),
        "--features": (("--features",), False, None, None),
    },
    "bisim": {
        "-h": (("-h", "--help"), False, None, None),
        "-l": (("-l", "--left"), True, None, None),
        "-r": (("-r", "--right"), True, None, None),
        "--features": (("--features",), True, None, None),
        "--mode": (("--mode",), False, ("fuzzy", "crisp"), None),
        "-o": (("-o", "--output"), False, None, None),
    },
    "check": {
        "-h": (("-h", "--help"), False, None, None),
        "-l": (("-l", "--left"), True, None, None),
        "-r": (("-r", "--right"), True, None, None),
        "-z": (("-z", "--relation"), True, None, None),
        "--features": (("--features",), True, None, None),
    },
    "bisimilar": {
        "-h": (("-h", "--help"), False, None, None),
        "-l": (("-l", "--left"), True, None, None),
        "-r": (("-r", "--right"), True, None, None),
        "--features": (("--features",), True, None, None),
        "--mode": (("--mode",), False, ("fuzzy", "crisp"), None),
    },
    "minimize": {
        "-h": (("-h", "--help"), False, None, None),
        "-m": (("-m", "--model"), True, None, None),
        "--features": (("--features",), True, None, None),
        "--prune": (("--prune",), False, None, None),
    },
    "prune": {
        "-h": (("-h", "--help"), False, None, None),
        "-m": (("-m", "--model"), True, None, None),
        "--features": (("--features",), True, None, None),
    },
    "validate": {
        "-h": (("-h", "--help"), False, None, None),
        "-m": (("-m", "--model"), True, None, None),
        # one of the two is required
        "--tbox": (("--tbox",), "one of --tbox --abox", None, None),
        "--abox": (("--abox",), "one of --tbox --abox", None, None),
        "--features": (("--features",), False, None, None),
    },
    "hm": {
        "-h": (("-h", "--help"), False, None, None),
        "-l": (("-l", "--left"), True, None, None),
        "-r": (("-r", "--right"), True, None, None),
        "--features": (("--features",), True, None, None),
        "--fragment": (("--fragment",), True, ("prime", "delta"), None),
        "--depth": (("--depth",), True, None, None),
        "--budget": (("--budget",), False, None, "20000"),
    },
    "selftest": {
        "-h": (("-h", "--help"), False, None, None),
    },
}


def _help_surface(text):
    """Options of one ``--help`` text, in the shape of ``SURFACE``."""
    usage, _, rest = text.partition("\n\n")
    usage = " ".join(usage.split())
    groups = re.findall(r"\(([^)]*)\)", usage)
    optional = " ".join(re.findall(r"\[([^\]]*)\]", usage))
    surface = {}
    for line in rest.split("\n\n")[-1].splitlines()[1:]:
        if not line.lstrip().startswith("-"):
            continue  # a help text continued on its own line
        spec, _, help_text = line.strip().partition("  ")
        strings = tuple(part.split()[0] for part in spec.split(", "))
        first = strings[0]
        choices = re.search(r"\{([^}]*)\}", spec)
        default = re.search(r"\(default (\S+)\)", help_text)
        group = next((g for g in groups if re.search(rf"{first}\b", g)), None)
        if group is not None:
            required = "one of " + " ".join(re.findall(r"--?\w+", group))
        else:
            required = not re.search(rf"(^|\s|\[){re.escape(first)}\b", optional)
        surface[first] = (
            strings,
            required,
            tuple(choices.group(1).split(",")) if choices else None,
            default.group(1) if default else None,
        )
    return surface


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("fdl_bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracedHarness:
    """The benchmark's tracer wraps ``fdl`` functions by module and name."""

    def test_every_wrapped_name_resolves(self):
        spans = _load_spans()
        for module, attr, _span in spans.WRAPPED:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    def test_uninstall_restores_the_originals(self):
        spans = _load_spans()
        targets = [(module, attr) for module, attr, _span in spans.WRAPPED]
        targets.append((fdl.kb, "ConceptEvaluator"))
        before = [getattr(module, attr) for module, attr in targets]
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert all(
                getattr(module, attr) is not original
                for (module, attr), original in zip(targets, before)
            )
        finally:
            tracer.uninstall()
        assert all(
            getattr(module, attr) is original
            for (module, attr), original in zip(targets, before)
        )


class TestSurface:
    @pytest.mark.parametrize("command", list(SURFACE))
    def test_options_pinned(self, command, capsys):
        argv = [command, "--help"] if command else ["--help"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert _help_surface(captured.out) == SURFACE[command]

    def test_budget_help_text(self, capsys):
        assert main(["hm", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--budget BUDGET cap on enumerated concepts (default 20000)" in help_text

    def test_help_goes_to_out(self, capsys):
        out = io.StringIO()
        assert main(["eval", "--help"], out=out) == 0
        assert "--concept" in out.getvalue()
        assert capsys.readouterr() == ("", "")

    def test_subcommands_pinned(self, capsys):
        assert main(["--help"]) == 0
        listed = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
        assert listed.split(",") == [c for c in SURFACE if c]

    def test_defaults(self, files):
        # --mode is fuzzy, and eval/validate accept every feature by default
        code, out, _ = run_cli(
            ["--json", "bisim", "-l", files["hub_a"], "-r", files["hub_b"], "--features", ""]
        )
        assert code == 0 and json.loads(out)["mode"] == "fuzzy"
        code, out, _ = run_cli(
            ["--json", "bisimilar", "-l", files["fold_a"], "-r", files["fold_b"], "--features", "I"]
        )
        assert code == 0 and json.loads(out)["mode"] == "fuzzy"
        code, out, _ = run_cli(["eval", "-m", files["fan"], "-c", "exists U . A"])
        assert code == 0


GOOD_MODEL = {"domain": ["u", "v"], "individuals": {"a": "u"},
              "concepts": {"A": {"v": "0.5"}}, "roles": {"r": [["u", "v", "0.9"]]}}
PAIR = ["-l", "{model}", "-r", "{model}", "--features", ""]
EVAL_DOC = ["eval", "-m", "{doc}", "-c", "A"]
CHECK_DOC = ["check", *PAIR, "-z", "{doc}"]
BOX_DOC = ["validate", "-m", "{model}", "--abox", "{doc}"]

# The most digits int() converts, or 0 where the interpreter sets no limit;
# LONG has one digit more.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * ((DIGIT_LIMIT or 4300) + 1)

# name -> (argv with {model}/{doc} placeholders, the JSON written to {doc},
# or the bytes written as they are)
MALFORMED = {
    "unknown command": (["bogus"], None),
    "missing option": (["eval", "-c", "A"], None),
    "bad choice": (["bisim", *PAIR, "--mode", "sharp"], None),
    "bad integer": (["hm", *PAIR, "--fragment", "prime", "--depth", "two"], None),
    "negative budget": (["hm", *PAIR, "--fragment", "prime", "--depth", "1", "--budget", "-5"], None),
    "both boxes": (["validate", "-m", "{model}", "--tbox", "{model}", "--abox", "{model}"], None),
    "superscript bound": (["minimize", "-m", "{model}", "--features", "Q²"], None),
    "circled bound": (["eval", "-m", "{model}", "-c", "A", "--features", "N①"], None),
    "edge of two": (EVAL_DOC, {**GOOD_MODEL, "roles": {"r": [["u", "u"]]}}),
    "role as object": (EVAL_DOC, {**GOOD_MODEL, "roles": {"r": {"u": "1"}}}),
    "valuation as list": (EVAL_DOC, {**GOOD_MODEL, "concepts": {"A": ["u"]}}),
    "arabic-indic degree": (EVAL_DOC, {**GOOD_MODEL, "concepts": {"A": {"v": "\u0660.\u0665"}}}),
    "individuals as list": (EVAL_DOC, {**GOOD_MODEL, "individuals": ["a"]}),
    "concepts as null": (EVAL_DOC, {**GOOD_MODEL, "concepts": None}),
    "numeric domain": (EVAL_DOC, {"domain": [1, 2]}),
    "domain as text": (EVAL_DOC, {"domain": "uv"}),
    "relation key": (CHECK_DOC, {"mode": "fuzzy", "entries": [], "rows": []}),
    "relation float": (CHECK_DOC, {"entries": [["u", "u", 0.5]]}),
    "relation entry": (CHECK_DOC, {"entries": [[["u"], "u", "1"]]}),
    "relation pair twice": (CHECK_DOC, {"entries": [["u", "v", "1"], ["u", "v", "0.5"]]}),
    "box missing key": (
        ["validate", "-m", "{model}", "--abox", "{doc}"],
        {"abox": [{"kind": "concept", "c": "A", "p": "0.5"}]},
    ),
    "box unknown key": (
        ["validate", "-m", "{model}", "--abox", "{doc}"],
        {"abox": [{"kind": "same", "a": "a", "b": "a", "c": "A"}]},
    ),
    "box entry not object": (["validate", "-m", "{model}", "--abox", "{doc}"], {"abox": ["a = a"]}),
    "tbox not list": (
        ["validate", "-m", "{model}", "--tbox", "{doc}"],
        {"tbox": {"lhs": "A", "rhs": "A", "p": "1"}},
    ),
    "abox not list": (["validate", "-m", "{model}", "--abox", "{doc}"], {"abox": "same"}),
    "box float threshold": (
        ["validate", "-m", "{model}", "--tbox", "{doc}"],
        {"tbox": [{"lhs": "A", "rhs": "A", "p": 0.5}]},
    ),
    "box concept not text": (
        ["validate", "-m", "{model}", "--abox", "{doc}"],
        {"abox": [{"kind": "concept", "c": 1, "a": "a", "p": "1"}]},
    ),
    "box unknown kind": (
        ["validate", "-m", "{model}", "--abox", "{doc}"],
        {"abox": [{"kind": ["same"], "a": "a", "b": "a"}]},
    ),
    "model not JSON": (EVAL_DOC, b"{"),
    "model not UTF-8": (EVAL_DOC, b'{"domain": ["\xff"]}'),
    "model as list": (EVAL_DOC, []),
    "model unknown key": (EVAL_DOC, {**GOOD_MODEL, "rules": []}),
    "model without domain": (EVAL_DOC, {"concepts": {}}),
    "element twice": (EVAL_DOC, {"domain": ["u", "u"]}),
    "valuation of unknown element": (EVAL_DOC, {**GOOD_MODEL, "concepts": {"A": {"w": "0.5"}}}),
    "relation as list": (CHECK_DOC, []),
    "box as list": (BOX_DOC, []),
    "box document key": (BOX_DOC, {"abox": [], "rbox": []}),
    "box comparison": (BOX_DOC, {"abox": [{"kind": "concept", "c": "A", "a": "a", "p": "1",
                                           "cmp": "=="}]}),
    "box inclusion relation": (
        ["validate", "-m", "{model}", "--tbox", "{doc}"],
        {"tbox": [{"lhs": "A", "rhs": "A", "p": "1", "rel": "<"}]},
    ),
    "role chain in a count": (["eval", "-m", "{model}", "-c", ">= 2 (r ; s) . A"], None),
    "open parenthesis": (["eval", "-m", "{model}", "-c", "exists ( . A"], None),
    "zero denominator": (["eval", "-m", "{model}", "-c", "0/0"], None),
    "bound not enabled": (
        ["eval", "-m", "{model}", "-c", ">= 2 r . A", "--features", "Q1"], None,
    ),
    "individual in one model": (
        ["bisim", "-l", "{model}", "-r", "{doc}", "--features", "O"],
        {"domain": ["u"], "individuals": {"b": "u"}},
    ),
    # parsed, loaded or evaluated by recursion
    "deep parentheses": (["eval", "-m", "{model}", "-c", "(" * 200 + "A" + ")" * 200], None),
    "deep negation": (["eval", "-m", "{model}", "-c", "not " * 600 + "A"], None),
    "deep JSON": (EVAL_DOC, b"[" * 100_000 + b"]" * 100_000),
    "deep concept in a box": (BOX_DOC, {"abox": [{"kind": "concept", "a": "a", "p": "1",
                                                  "c": "(" * 200 + "A" + ")" * 200}]}),
    # bad values, which the message spells as the document does (JSON_SPELLED)
    "degree as true": (EVAL_DOC, {**GOOD_MODEL, "concepts": {"A": {"v": True}}}),
    "edge degree as null": (EVAL_DOC, {**GOOD_MODEL, "roles": {"r": [["u", "v", None]]}}),
    "relation mode as null": (CHECK_DOC, {"mode": None, "entries": []}),
    "box concept as list": (BOX_DOC, {"abox": [{"kind": "concept", "c": ["A"], "a": "a",
                                                "p": "1"}]}),
    "box comparison as null": (BOX_DOC, {"abox": [{"kind": "concept", "c": "A", "a": "a",
                                                   "p": "1", "cmp": None}]}),
    "box threshold as true": (
        ["validate", "-m", "{model}", "--tbox", "{doc}"],
        {"tbox": [{"lhs": "A", "rhs": "A", "p": True}]},
    ),
    # numerals longer than int() converts (LONG_NAMED)
    "long model degree": (EVAL_DOC, {**GOOD_MODEL, "concepts": {"A": {"v": "0." + LONG}}}),
    "long constant": (["eval", "-m", "{model}", "-c", "0." + LONG], None),
    "long bound": (["eval", "-m", "{model}", "-c", f">= {LONG} r . A"], None),
    "long JSON integer": (EVAL_DOC, b'{"domain": ["u"], "concepts": {"A": {"u": %s}}}'
                          % LONG.encode()),
    "long feature bound": (["eval", "-m", "{model}", "-c", "A", "--features", "Q" + LONG], None),
    "long relation degree": (CHECK_DOC, {"entries": [["u", "u", "0." + LONG]]}),
    "long box threshold": (
        ["validate", "-m", "{model}", "--tbox", "{doc}"],
        {"tbox": [{"lhs": "A", "rhs": "A", "p": "0." + LONG}]},
    ),
    "long depth": (["hm", *PAIR, "--fragment", "prime", "--depth", LONG], None),
    "long budget": (["hm", *PAIR, "--fragment", "prime", "--depth", "1", "--budget", LONG], None),
}

# MALFORMED cases of a numeral past the digit limit: their whole error output,
# which names the numeral by its first characters and its length
_DEGREE_NAMED = f"error: degree 0.1111111111... of {len(LONG) + 2} characters has too many digits"
LONG_NAMED = {
    "long model degree": _DEGREE_NAMED + "\n",
    "long constant": _DEGREE_NAMED + " (at position 0)\n",
    "long bound": f"error: number-restriction bound {LONG[:12]}... of {len(LONG)} characters "
                  "has too many digits (at position 3)\n",
    "long JSON integer": "error: {doc}: invalid JSON: an integer has too many digits\n",
    "long feature bound": f"error: feature token Q{LONG[:11]}... of {len(LONG) + 1} characters "
                          "has too many digits\n",
    "long relation degree": _DEGREE_NAMED + "\n",
    "long box threshold": _DEGREE_NAMED + "\n",
    "long depth": f"error: --depth {LONG[:12]}... of {len(LONG)} characters has too many digits\n",
    "long budget": f"error: --budget {LONG[:12]}... of {len(LONG)} characters "
                   "has too many digits\n",
}
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="int() converts any numeral here")

# MALFORMED cases whose message names a bad JSON value: the text it must hold
JSON_SPELLED = {
    "degree as true": "error: not a degree: true\n",
    "edge degree as null": "error: not a degree: null\n",
    "relation mode as null": "got null\n",
    "box concept as list": 'must be a string, got ["A"]\n',
    "box comparison as null": '"cmp": null}\n',
    "box threshold as true": "error: not a degree: true\n",
    "box unknown kind": 'unknown assertion kind ["same"]\n',
}


class TestErrors:
    @staticmethod
    def run_malformed(case, tmp_path):
        """Exit code, stdout and stderr of a MALFORMED case."""
        template, document = MALFORMED[case]
        paths = {"model": tmp_path / "model.json", "doc": tmp_path / "doc.json"}
        paths["model"].write_text(json.dumps(GOOD_MODEL))
        if isinstance(document, bytes):
            paths["doc"].write_bytes(document)
        else:
            paths["doc"].write_text(json.dumps(document))
        argv = [arg.format(**paths) for arg in template]
        out, err = io.StringIO(), io.StringIO()
        return main(argv, out=out, err=err), out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("case", [
        pytest.param(case, marks=needs_digit_limit) if case in LONG_NAMED else case
        for case in MALFORMED
    ])
    def test_malformed_input_exits_2(self, case, tmp_path, capsys):
        code, out, err = self.run_malformed(case, tmp_path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("case", list(JSON_SPELLED))
    def test_bad_values_spelled_as_json(self, case, tmp_path):
        code, _out, err = self.run_malformed(case, tmp_path)
        assert code == 2
        assert err.endswith(JSON_SPELLED[case]), err

    @needs_digit_limit
    @pytest.mark.parametrize("case", list(LONG_NAMED))
    def test_long_numerals_named_briefly(self, case, tmp_path):
        code, _out, err = self.run_malformed(case, tmp_path)
        assert code == 2
        assert err == LONG_NAMED[case].format(doc=tmp_path / "doc.json")

    @pytest.mark.parametrize("features", ["7" * 5000, "I," + "x" * 5000])
    def test_long_feature_tokens_named_briefly(self, features, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(GOOD_MODEL))
        code, out, err = run_cli(["eval", "-m", str(model), "-c", "A", "--features", features])
        token = features.split(",")[-1]
        assert (code, out) == (2, "")
        assert err == (f"error: unknown feature token {token[:12]!r}... of 5000 characters; "
                       "expected I, O, U, Self, Q<n>, N<n>, Q* or N*\n")

    def test_long_text_that_is_no_numeral_keeps_the_parser_message(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(GOOD_MODEL))
        pair = ["-l", str(model), "-r", str(model), "--features", ""]
        code, out, err = run_cli(["hm", *pair, "--fragment", "prime", "--depth", LONG + "x"])
        assert (code, out) == (2, "")
        assert err == f"error: fdl hm: argument --depth: invalid int value: {LONG + 'x'!r}\n"

    def test_recursion_past_the_input_keeps_its_traceback(self, files, monkeypatch):
        # only parsing, loading and evaluating input map RecursionError to
        # "input nests too deeply"
        def deep(*_args):
            raise RecursionError("in the refinement")

        monkeypatch.setattr(fdl.cli, "greatest_bisim", deep)
        with pytest.raises(RecursionError, match="in the refinement"):
            main(["bisim", "-l", files["hub_a"], "-r", files["hub_b"], "--features", ""])

    def test_parser_built_once(self, files, monkeypatch):
        built = []
        original = fdl.cli.argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self))
            original(self, *args, **kwargs)

        monkeypatch.setattr(fdl.cli.argparse.ArgumentParser, "__init__", counting)
        assert run_cli(["eval", "-m", files["fan"], "-c", "A"])[0] == 0
        assert run_cli(["prune", "-m", files["islands"], "--features", ""])[0] == 0
        assert built == []


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(_JSON_VALUES)
@example({"q\"uote": ["back\\slash", "new\nline", "\u00e9\u6f22\U0001f642"], "": [[], {}, [{}]],
          "none": None, "flags": [True, False], "ints": [0, -3, 10 ** 20]})
def test_indented_writes_what_json_dumps_writes(value):
    assert fdl.cli._indented(value) == json.dumps(value, indent=2)
