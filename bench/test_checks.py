"""Each answer check accepts fdl's answer and rejects a wrong one.

Small instances of every input family go through ``fdl.cli.main``; the
answer must pass, and an altered answer must be refused.
"""

import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fdl.cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from reference import Evaluator, Model  # noqa: E402


def run(op):
    out = io.StringIO()
    rc = fdl.cli.main(op["argv"], out=out, err=io.StringIO())
    return rc, out.getvalue()


def accepted_then(op, alter):
    """Check the real answer, then the answer changed by ``alter``, which
    may return a new exit code."""
    rc, text = run(op)
    assert checks.Checker().check(op, rc, text) is None
    doc = json.loads(text)
    new_rc = alter(doc)
    rc = rc if new_rc is None else new_rc
    return checks.Checker().check(op, rc, json.dumps(doc))


@pytest.fixture
def writer(tmp_path):
    return inputs.Writer(str(tmp_path))


def test_chain_closed_form(writer):
    pair = inputs.chain_pair(random.Random(1), 5)
    op = inputs.pair_op(writer, "c", "chain", *pair, "bisim", "I,O", "fuzzy")
    # the empty relation is a bisimulation, but not the greatest one
    assert "closed form" in accepted_then(op, lambda d: d["entries"].clear())
    crisp = inputs.pair_op(writer, "c", "chain", *pair, "bisimilar", "", "crisp")

    def claim_bisimilar(doc):
        doc["bisimilar"] = True
        return 0  # exit code that matches the claim

    assert "bisimilar" in accepted_then(crisp, claim_bisimilar)


def test_sparse_renaming_and_probes(writer, monkeypatch):
    pair = inputs.sparse_pair(random.Random(2), 8)
    op = inputs.pair_op(writer, "s", "sparse", *pair, "bisim", "I", "fuzzy")
    assert "renaming" in accepted_then(op, lambda d: d["entries"].clear())
    # with check_bisim out of the way, the probe concepts still catch a
    # relation that puts every pair at 1
    rc, text = run(op)
    doc = json.loads(text)
    left, right = (Model(json.loads(Path(op["check"][side]).read_text())) for side in ("left", "right"))
    doc["entries"] = [[x, y, "1"] for x in left.domain for y in right.domain]
    monkeypatch.setattr(checks, "check_bisim", lambda *a: SimpleNamespace(satisfied=True, violations=()))
    assert "probe" in checks.Checker().check(op, rc, json.dumps(doc))


def test_hub_verdicts(writer):
    same = inputs.pair_op(writer, "h", "hub", *inputs.hub_pair(random.Random(3), 4, False),
                          "bisimilar", "Q1,Q2,Q3,Q4", "fuzzy")

    def deny(doc):
        doc["bisimilar"] = False
        return 1

    assert "permuted" in accepted_then(same, deny)
    perturbed = inputs.pair_op(writer, "g", "hub", *inputs.hub_pair(random.Random(3), 4, True),
                               "bisimilar", "N1,N2,N3,N4", "fuzzy")

    def admit(doc):
        doc["bisimilar"] = True
        return 0

    assert "perturbed" in accepted_then(perturbed, admit)
    # the separator search itself fails on two equal hubs
    fake = dict(same, check=dict(same["check"], perturbed=True))
    rc, text = run(same)
    doc = json.loads(text)
    doc["bisimilar"], doc["failing_individual"] = False, "a"
    assert "separates" in checks.Checker().check(fake, 1, json.dumps(doc))


def test_eval_against_reference(writer):
    model = inputs.sparse_model(random.Random(4), 20, "e", True)
    path = writer.put("m.json", model)
    concept = inputs.BIG_CONCEPTS[-1]
    op = inputs.eval_op("eval-big", path, concept)
    expected = Evaluator(Model(model)).concept(concept)

    def bump(doc):
        x = "e3"
        doc["values"][x] = str(Fraction(1, 7) if expected[3] != Fraction(1, 7) else Fraction(2, 7))

    assert "reference" in accepted_then(op, bump)
    assert "every element" in accepted_then(op, lambda d: d["values"].pop("e0") and None)


def test_validate_against_reference(writer):
    rng = random.Random(5)
    big, small = inputs.sparse_model(rng, 20, "e", True), inputs.sparse_model(rng, 12, "f", False)
    tbox = inputs.validate_op(writer, writer.put("big.json", big), "t",
                              inputs._tbox(Evaluator(Model(big))))
    abox = inputs.validate_op(writer, writer.put("small.json", small), "a",
                              inputs._abox(Evaluator(Model(small))))

    def flip(doc):
        doc["valid"] = not doc["valid"]
        return 0 if doc["valid"] else 1

    assert "reference" in accepted_then(tbox, flip)
    assert "reference" in accepted_then(abox, flip)
    assert "witness" in accepted_then(abox, lambda d: d.update(element="f1"))


def test_minimize_partition(writer):
    model, base = inputs.copies_model(random.Random(6), 4, 3, 2)
    op = inputs.minimize_op(writer, "q", model, base, "I,O", True)
    first = base["edges"][0]

    def relabel(doc):
        doc["individuals"]["a"] = doc["domain"][-1] if doc["domain"][-1] != "{root}" else doc["domain"][0]

    def lower(doc):
        for edge in doc["roles"][first[0]]:
            edge[2] = "1/1000"

    def merge(doc):
        doc["domain"] = doc["domain"][:-1]

    assert "root" in accepted_then(op, relabel)
    assert "differs" in accepted_then(op, lower)
    assert "blocks" in accepted_then(op, merge)


def test_exit_codes_and_shape(writer):
    op = inputs.pair_op(writer, "c", "chain", *inputs.chain_pair(random.Random(7), 4),
                        "bisim", "", "fuzzy")
    rc, text = run(op)
    checker = checks.Checker()
    assert checker.check(op, 2, text) == "exit code 2"
    assert "not JSON" in checker.check(op, rc, "garbage")
    assert "malformed" in checker.check(op, rc, "{}")
