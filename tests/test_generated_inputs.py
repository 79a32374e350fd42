"""No traceback reaches a user: every command, run through ``fdl.cli.main``
on seeded mutations of valid documents, concept texts and ``--features``
text, exits 0, 1 or 2, and exit 2 comes with one ``error:`` line and no
output."""

import io
import json
import random
import time
from collections import Counter

import pytest

from fdl.cli import main

# valid inputs: two models over the same names, a candidate relation, a
# TBox that the first model validates and an ABox that it does not
MODELS = [
    {"domain": ["u", "v", "w"], "individuals": {"a": "u", "b": "w"},
     "concepts": {"A": {"v": "0.5", "w": "1"}, "B": {"u": "0.25"}},
     "roles": {"r": [["u", "v", "0.9"], ["v", "w", "1/3"]], "s": [["w", "u", "1"]]}},
    {"domain": ["x", "y", "z"], "individuals": {"a": "x", "b": "z"},
     "concepts": {"A": {"y": "0.5", "z": "1"}, "B": {"x": "0.25"}},
     "roles": {"r": [["x", "y", "0.9"], ["y", "z", "1/3"]], "s": [["z", "x", "0.5"]]}},
]
RELATION = {"mode": "fuzzy", "entries": [["u", "x", "1"], ["v", "y", "1"], ["w", "z", "0.5"]]}
TBOX = {"tbox": [{"lhs": "B", "rhs": "exists r . A", "p": "0.5"},
                 {"lhs": "A", "rhs": "A or B", "rel": ">", "p": "1/2"}]}
ABOX = {"abox": [{"kind": "concept", "c": "exists r . B", "a": "a", "cmp": ">=", "p": "0.25"},
                 {"kind": "role", "r": "r", "a": "a", "b": "b", "p": "0"},
                 {"kind": "same", "a": "a", "b": "a"}, {"kind": "distinct", "a": "a", "b": "b"}]}
CONCEPTS = ["A", "exists r . A", "A and not B", "forall s . (A -> B)", "A or {a}",
            ">= 2 r . A", "exists r- . top", "0.5 -> A", "delta (A and B)", "exists s . self",
            ">= 2 r"]
FEATURES = ["", "I", "O", "I,O", "Q2", "N1", "I,O,Q2,N2", "U", "Self", "Q*"]

# replacements: another JSON type, empty values, a numeral past int's digit
# limit (as a number and as text), non-ASCII text and deep nesting (written
# in place of a marker, since json.dumps itself refuses deep nesting)
LONG_NUMERAL = "7" * 5000
MARKERS = {"<long numeral>": LONG_NUMERAL, "<nested 60>": "[" * 60 + "]" * 60,
           "<nested 5000>": "[" * 5000 + "]" * 5000}
VALUES = [None, True, False, 0, 1, -3, 0.5, 1e308, "", [], {}, "x", "é", "漢字", "\U0001f642",
          "0.5", "2", "-1", "1/0", LONG_NUMERAL, "0." + LONG_NUMERAL, ["u"], ["u", "v", "0.5"],
          {"u": "1"}, *MARKERS]
TEXTS = ["", " ", "é", "∀ r . A", "A and", "(A", "exists", ">= r . A", LONG_NUMERAL,
         ">= " + LONG_NUMERAL + " r . A", "0." + LONG_NUMERAL + " -> A",
         "(" * 3000 + "A" + ")" * 3000, "not " * 3000 + "A", "exists r . " * 3000 + "A",
         "Q" + LONG_NUMERAL, "N" + LONG_NUMERAL, "Q0", "QQ", "-I", "A\x00"]


def paths(node, path=()):
    """Every path into a JSON value, the value itself included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from paths(value, path + (k,))


def replaced(node, path, make):
    """A copy of ``node`` with the value at ``path`` replaced by
    ``make(old value)``."""
    if not path:
        return make(node)
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = replaced(node[path[0]], path[1:], make)
    return copy


def mutate_document(rng, document):
    path = rng.choice(list(paths(document)))
    kind = rng.randrange(4)
    if kind == 0:  # a value of another type, an empty one, a huge one
        return replaced(document, path, lambda _old: rng.choice(VALUES))
    if kind == 1:  # a key deleted, or an element of a list
        if not path:
            return {}
        return replaced(document, path[:-1], lambda parent: (
            {k: v for k, v in parent.items() if k != path[-1]} if isinstance(parent, dict)
            else parent[:path[-1]] + parent[path[-1] + 1:]))
    if kind == 2:  # an unknown key, or a list entry more
        return replaced(document, path, lambda old: (
            dict(old, **{rng.choice(["extra", "é", ""]): rng.choice(VALUES)})
            if isinstance(old, dict) else old + [rng.choice(VALUES)]
            if isinstance(old, list) else old))
    # a string changed in place: text of the grammar or a degree
    return replaced(document, path, lambda old: (
        mutate_text(rng, old) if isinstance(old, str) else rng.choice(VALUES)))


def mutate_text(rng, text):
    if rng.random() < 0.5:
        return rng.choice(TEXTS)
    k = rng.randrange(len(text) + 1)
    return text[:k] + rng.choice(["", "(", ")", "-", ".", "é", " ", "9", "/"]) + text[k + 1:]


def write(path, document):
    text = json.dumps(document)
    for marker, raw in MARKERS.items():
        text = text.replace(json.dumps(marker), raw)
    path.write_text(text, encoding="utf-8")


def case(rng):
    """A command line, and the documents it reads; about one in four
    inputs is left valid."""
    command = rng.choice(["eval", "bisim", "check", "bisimilar", "minimize", "prune",
                          "validate", "hm"])
    documents = {"left": MODELS[0], "right": rng.choice(MODELS)}
    texts = {"features": rng.choice(FEATURES), "concept": rng.choice(CONCEPTS)}
    if command == "check":
        documents["right"] = MODELS[1]
        documents["relation"] = RELATION
    elif command == "validate":
        documents["box"] = rng.choice([TBOX, ABOX])
    if rng.random() < 0.75:
        mutable = [name for name in documents if not (name == "right" and command in (
            "eval", "minimize", "prune", "validate"))]
        if command == "eval" or rng.random() < 0.7:
            name = rng.choice(mutable + ["features"] + ["concept"] * (command == "eval"))
        else:
            name = "features"
        if name in documents:
            documents[name] = mutate_document(rng, documents[name])
        else:
            texts[name] = mutate_text(rng, texts[name])
    return command, documents, texts


def argv_of(rng, command, files, texts):
    pair = ["-l", files["left"], "-r", files["right"], "--features", texts["features"]]
    mode = ["--mode", rng.choice(["fuzzy", "crisp"])]
    if command == "eval":
        element = ["-e", rng.choice(["u", "v", "q", "é"])] if rng.random() < 0.3 else []
        features = ["--features", texts["features"]] if rng.random() < 0.5 else []
        return ["eval", "-m", files["left"], "-c", texts["concept"], *element, *features]
    if command in ("bisim", "bisimilar"):
        return [command, *pair, *mode]
    if command == "check":
        return ["check", *pair, "-z", files["relation"]]
    if command in ("minimize", "prune"):
        prune = ["--prune"] if command == "minimize" and rng.random() < 0.5 else []
        return [command, "-m", files["left"], "--features", texts["features"], *prune]
    if command == "validate":
        box = rng.choice(["--tbox", "--abox"])
        features = ["--features", texts["features"]] if rng.random() < 0.5 else []
        return ["validate", "-m", files["left"], box, files["box"], *features]
    return ["hm", *pair, "--fragment", rng.choice(["prime", "delta"]),
            "--depth", rng.choice(["0", "1"]), "--budget", rng.choice(["0", "60", "600"])]


@pytest.mark.parametrize("seed", range(3))
def test_no_traceback_reaches_a_user(seed, tmp_path):
    rng = random.Random(seed)
    exits = Counter()
    for k in range(300):
        command, documents, texts = case(rng)
        files = {}
        for name, document in documents.items():
            path = tmp_path / f"{k}-{name}.json"
            write(path, document)
            files[name] = str(path)
        argv = argv_of(rng, command, files, texts)
        for flag in ([], ["--json"]):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                code = main(flag + argv, out=out, err=err)
            except Exception as exc:  # one that escapes main
                raise AssertionError(f"case {k} of seed {seed}: {flag + argv}") from exc
            elapsed = time.perf_counter() - start
            where = f"case {k} of seed {seed}: {flag + argv}: {err.getvalue()[:300]!r}"
            assert elapsed < 10, where
            assert code in (0, 1, 2), where
            if code == 2:
                assert out.getvalue() == "", where
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, where
            else:
                assert err.getvalue() == "", where
            exits[code] += 1
    # the valid inputs keep every outcome in play
    assert all(exits[code] >= 20 for code in (0, 1, 2)), exits
