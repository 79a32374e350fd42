"""Answer checks for every benchmark operation.

Each check recomputes what it needs from the generated inputs: the closed
form of a chain pair, the renaming behind a permuted copy, the reference
evaluator in ``reference.py``, or the partition a minimize input has by
construction.  None compares against a stored copy of ``fdl`` output.
``check_bisim`` from ``fdl`` is the one program function used: every
printed relation must pass it.

Checks run between operations, outside the timed region.  A verdict is
kept per (operation, exit code, output), so an operation that prints the
same text every round is checked once per run.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Optional

from fdl.bisim import check_bisim, load_relation
from fdl.errors import FdlError
from fdl.interp import load_interpretation
from fdl.syntax import FeatureSet

from inputs import load_expr
from reference import ONE, Evaluator, Model, box_verdict, iff


class WrongAnswer(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def _degrees(entries) -> Dict[tuple, Fraction]:
    return {(x, y): Fraction(v) for x, y, v in entries if Fraction(v) != 0}


R = ("role", "r")
S = ("role", "s")
A, B = ("atom", "A"), ("atom", "B")


def sparse_probes(features: FeatureSet):
    """Concepts without involutive negation in the language of
    ``features``; every bisimulation degree is below their equivalence."""
    probes = [A, B, ("exists", R, A), ("exists", S, B), ("forall", R, A),
              ("exists", R, ("exists", S, A)), ("forall", S, ("exists", R, B))]
    if features.inverse:
        probes += [("exists", ("invr", R), A), ("forall", ("invr", S), ("exists", R, B))]
    if features.nominals:
        probes += [("exists", R, ("nom", "a")), ("exists", S, ("nom", "b"))]
    return probes


class Checker:
    def __init__(self):
        self._verdicts: Dict[tuple, Optional[str]] = {}
        self._documents: Dict[str, dict] = {}
        self._evaluators: Dict[str, Evaluator] = {}

    def check(self, op: dict, rc: int, output: str) -> Optional[str]:
        """None when the answer is right, else what is wrong with it."""
        key = (tuple(op["argv"]), rc, output)
        if key not in self._verdicts:
            try:
                self._check(op, rc, output)
                self._verdicts[key] = None
            except WrongAnswer as exc:
                self._verdicts[key] = str(exc)
            except (LookupError, TypeError, ValueError, FdlError) as exc:
                # output that does not have the documented shape
                self._verdicts[key] = f"malformed output: {exc!r}"
        return self._verdicts[key]

    # -- inputs --------------------------------------------------------

    def document(self, path: str) -> dict:
        if path not in self._documents:
            with open(path, "r", encoding="utf-8") as handle:
                self._documents[path] = json.load(handle)
        return self._documents[path]

    def evaluator(self, path: str) -> Evaluator:
        if path not in self._evaluators:
            self._evaluators[path] = Evaluator(Model(self.document(path)))
        return self._evaluators[path]

    # -- dispatch ------------------------------------------------------

    def _check(self, op: dict, rc: int, output: str) -> None:
        _require(rc in (0, 1), f"exit code {rc}")
        try:
            doc = json.loads(output)
        except json.JSONDecodeError as exc:
            raise WrongAnswer(f"output is not JSON: {exc}") from None
        command = next(a for a in op["argv"] if not a.startswith("-"))
        if command in ("bisim", "bisimilar"):
            self._pair(op, command, rc, doc)
        elif command == "eval":
            self._eval(op, rc, doc)
        elif command == "validate":
            self._validate(op, rc, doc)
        elif command == "minimize":
            self._minimize(op, rc, doc)
        else:
            raise WrongAnswer(f"no check for command {command!r}")

    # -- bisim, bisimilar ----------------------------------------------

    def _pair(self, op: dict, command: str, rc: int, doc: dict) -> None:
        c = op["check"]
        left = load_interpretation(self.document(c["left"]))
        right = load_interpretation(self.document(c["right"]))
        features = FeatureSet.parse(c["features"])
        if command == "bisim":
            _require(rc == 0, f"bisim exited {rc}")
            relation, holds = doc, None
        else:
            holds = doc["bisimilar"]
            _require(rc == (0 if holds else 1), f"bisimilar said {holds} but exited {rc}")
            relation = doc["witness"]
        _require(relation["mode"] == c["mode"], "relation printed in the wrong mode")
        z = load_relation(relation, left.domain, right.domain)
        report = check_bisim(left, right, z, features)
        _require(report.satisfied, "printed relation is not a bisimulation: "
                 + (report.violations[0].describe() if report.violations else ""))
        entries = _degrees(relation["entries"])

        if op["kind"] == "chain":
            # closed form: p on the diagonal in fuzzy mode, empty in crisp mode
            n, p = c["n"], Fraction(c["p"])
            expected = {(f"a{i}", f"b{i}"): p for i in range(n)} if c["mode"] == "fuzzy" else {}
            _require(entries == expected, "chain relation differs from its closed form")
            if holds is not None:
                _require(not holds and doc["failing_individual"] == "a",
                         "chain pair reported bisimilar")
        elif op["kind"] == "sparse":
            image = c["image"]
            _require(all(entries.get((x, y)) == ONE for x, y in image.items()),
                     "a pair of the renaming is below 1")
            ev_l, ev_r = self.evaluator(c["left"]), self.evaluator(c["right"])
            for probe in sparse_probes(features):
                vl, vr = ev_l.concept(probe), ev_r.concept(probe)
                for (x, y), v in entries.items():
                    _require(v <= iff(vl[ev_l.m.index[x]], vr[ev_r.m.index[y]]),
                             f"({x}, {y}) at {v} exceeds a probe concept's equivalence")
            if holds is not None:
                _require(holds, "a renamed copy reported not bisimilar")
        elif op["kind"] == "hub":
            if not c["perturbed"]:
                _require(holds is True, "a permuted hub reported not bisimilar")
                _require(all(entries.get((x, y)) == ONE for x, y in c["image"].items()),
                         "a pair of the permutation is below 1")
            else:
                _require(holds is False and doc["failing_individual"] == "a",
                         "a perturbed hub reported bisimilar")
                self._hub_separator(c, features)
        else:
            raise WrongAnswer(f"unknown pair kind {op['kind']!r}")

    def _hub_separator(self, c: dict, features: FeatureSet) -> None:
        """A counting concept in the feature language grades the hubs apart."""
        ev_l, ev_r = self.evaluator(c["left"]), self.evaluator(c["right"])
        for k in range(1, c["d"] + 1):
            if features.allows_qualified(k):
                concept = ("atleast", k, R, ("const", ONE))
            elif features.allows_unqualified(k):
                concept = ("atleastu", k, R)
            else:
                continue
            if ev_l.concept(concept)[0] != ev_r.concept(concept)[0]:
                return
        raise WrongAnswer("no counting concept separates the perturbed hubs")

    # -- eval, validate ------------------------------------------------

    def _eval(self, op: dict, rc: int, doc: dict) -> None:
        _require(rc == 0, f"eval exited {rc}")
        ev = self.evaluator(op["check"]["model"])
        expected = ev.concept(load_expr(op["check"]["concept"]))
        values = doc["values"]
        _require(set(values) == set(ev.m.domain), "eval did not grade every element")
        for x, v in values.items():
            _require(Fraction(v) == expected[ev.m.index[x]],
                     f"{x}: got {v}, reference {expected[ev.m.index[x]]}")

    def _validate(self, op: dict, rc: int, doc: dict) -> None:
        box = {
            key: [{k: load_expr(v) if k.endswith("_expr") else v for k, v in item.items()}
                  for item in items]
            for key, items in op["check"]["box"].items()
        }
        valid, element = box_verdict(self.evaluator(op["check"]["model"]), box)
        _require(doc["valid"] == valid, f"validate said {doc['valid']}, reference {valid}")
        _require(rc == (0 if valid else 1), f"validate exited {rc}")
        _require(doc["element"] == element, f"witness {doc['element']}, reference {element}")

    # -- minimize ------------------------------------------------------

    def _minimize(self, op: dict, rc: int, doc: dict) -> None:
        _require(rc == 0, f"minimize exited {rc}")
        base = op["check"]["base"]
        position = {x: i for i, x in enumerate(self.document(op["check"]["model"])["domain"])}

        def block(i: int) -> str:
            members = sorted((f"x{i}_{c}" for c in range(base["copies"])), key=position.get)
            return "{" + ",".join(members) + "}"

        blocks = [block(i) for i in range(base["size"])]
        _require(sorted(doc["domain"]) == sorted(blocks + ["{root}"]),
                 "quotient blocks differ from the copy sets")
        _require(doc["individuals"] == {"a": "{root}"}, "root individual misplaced")
        atoms = {x: Fraction(v) for x, v in doc["concepts"].get("A", {}).items()}
        _require(atoms == {blocks[i]: Fraction(v) for i, v in enumerate(base["levels"])},
                 "quotient atom degrees differ from the base model's")
        expected = {"r": {("{root}", blocks[0]): Fraction(base["hang"])}, "s": {}}
        for role, i, j, v in base["edges"]:
            expected[role][blocks[i], blocks[j]] = Fraction(v)
        for role, edges in expected.items():
            _require(_degrees(doc["roles"].get(role, [])) == edges,
                     f"quotient role {role} differs from the base model's")
        load_interpretation(doc)  # a malformed document raises ModelError
