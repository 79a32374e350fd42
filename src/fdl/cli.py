"""Command-line interface.

Exit codes: 0 on success (and for properties that hold), 1 when a checked
property fails (not bisimilar, conditions violated, box not validated,
selftest failures), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .bisim import (
    CandidateRelation,
    bisimilar,
    check_bisim,
    dump_relation,
    greatest_bisim,
    load_relation,
)
from .errors import FdlError, InputError
from .fixtures import run_selftest
from .godel import format_degree
from .interp import dump_interpretation, eval_concept, load_interpretation
from .kb import hm_matrix, load_kb, validates
from .minimize import prune_unreachable, quotient
from .parsing import parse_concept
from .syntax import FeatureSet, Sublanguage, to_text


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def _load_model(path: str):
    return load_interpretation(_read_json(path))


def _features(text: str) -> FeatureSet:
    return FeatureSet.parse(text)


def _matrix_table(rel) -> str:
    headers = [""] + list(rel.cols)
    rows = [headers]
    for x in rel.rows:
        rows.append([x] + [format_degree(rel.at(x, y)) for y in rel.cols])
    widths = [max(len(r[c]) for r in rows) for c in range(len(headers))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _emit(out, payload: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=False), file=out)
    else:
        print(human, file=out)


def main(argv: Optional[List[str]] = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = argparse.ArgumentParser(
        prog="fdl",
        description=(
            "Evaluate graded concepts, compute fuzzy/crisp bisimulations, "
            "validate graded TBoxes/ABoxes, and minimize finite fuzzy models "
            "under the Goedel semantics."
        ),
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a concept on a model")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-c", "--concept", required=True)
    p.add_argument("-e", "--element")
    p.add_argument("--features", default=None, help="restrict the accepted syntax")

    p = sub.add_parser("bisim", help="greatest fuzzy or crisp bisimulation")
    p.add_argument("-l", "--left", required=True)
    p.add_argument("-r", "--right", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=("fuzzy", "crisp"), default="fuzzy")
    p.add_argument("-o", "--output", help="also write the relation document here")

    p = sub.add_parser("check", help="check a candidate relation")
    p.add_argument("-l", "--left", required=True)
    p.add_argument("-r", "--right", required=True)
    p.add_argument("-z", "--relation", required=True)
    p.add_argument("--features", required=True)

    p = sub.add_parser("bisimilar", help="decide (strong) bisimilarity")
    p.add_argument("-l", "--left", required=True)
    p.add_argument("-r", "--right", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=("fuzzy", "crisp"), default="fuzzy")

    p = sub.add_parser("minimize", help="quotient a model by strong bisimilarity")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--prune", action="store_true", help="drop unreachable elements first")

    p = sub.add_parser("prune", help="drop elements unreachable from named individuals")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--features", required=True)

    p = sub.add_parser("validate", help="check a TBox/ABox against a model")
    p.add_argument("-m", "--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tbox")
    group.add_argument("--abox")
    p.add_argument("--features", default=None)

    p = sub.add_parser("hm", help="logical-indistinguishability matrix")
    p.add_argument("-l", "--left", required=True)
    p.add_argument("-r", "--right", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--fragment", choices=("prime", "delta"), required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=20_000,
                   help="cap on enumerated concepts (default 20000)")

    sub.add_parser("selftest", help="run the embedded fixture checks")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own message; normalize usage errors to 2
        return 0 if exc.code == 0 else 2

    try:
        return _dispatch(args, out, err)
    except FdlError as exc:
        print(f"error: {exc}", file=err)
        return 2


def _dispatch(args, out, err) -> int:
    if args.command == "eval":
        model = _load_model(args.model)
        features = _features(args.features) if args.features is not None else None
        concept = parse_concept(args.concept, features)
        values = eval_concept(model, concept)
        if args.element is not None:
            if args.element not in model.domain:
                raise InputError(f"unknown element {args.element!r}")
            pairs = [(args.element, values.at(args.element))]
        else:
            pairs = list(values)
        payload = {
            "concept": to_text(concept),
            "values": {x: format_degree(v) for x, v in pairs},
        }
        width = max(len(x) for x, _ in pairs)
        human = "\n".join(f"{x.ljust(width)}  {format_degree(v)}" for x, v in pairs)
        _emit(out, payload, args.json, human)
        return 0

    if args.command == "bisim":
        left, right = _load_model(args.left), _load_model(args.right)
        result = greatest_bisim(left, right, _features(args.features), args.mode)
        document = dump_relation(result)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2)
                handle.write("\n")
        _emit(out, document, args.json, _matrix_table(result.relation))
        return 0

    if args.command == "check":
        left, right = _load_model(args.left), _load_model(args.right)
        candidate = load_relation(_read_json(args.relation), left.domain, right.domain)
        report = check_bisim(left, right, candidate, _features(args.features))
        payload = {
            "satisfied": report.satisfied,
            "violations": [
                {
                    "condition": v.condition,
                    "x": v.x,
                    "x_prime": v.x_prime,
                    "role": v.role,
                    "name": v.symbol,
                    "witness": list(v.witness) if v.witness else None,
                    "lhs": format_degree(v.lhs),
                    "rhs": format_degree(v.rhs),
                }
                for v in report.violations
            ],
        }
        human = (
            "satisfied"
            if report.satisfied
            else "\n".join(v.describe() for v in report.violations)
        )
        _emit(out, payload, args.json, human)
        return 0 if report.satisfied else 1

    if args.command == "bisimilar":
        left, right = _load_model(args.left), _load_model(args.right)
        result = bisimilar(left, right, _features(args.features), args.mode)
        payload = {
            "bisimilar": result.holds,
            "mode": args.mode,
            "failing_individual": result.failing_individual,
            "witness": dump_relation(result.witness),
        }
        human = (
            f"bisimilar ({args.mode})"
            if result.holds
            else f"not bisimilar ({args.mode}); individual {result.failing_individual!r} "
            f"falls below 1"
        )
        _emit(out, payload, args.json, human)
        return 0 if result.holds else 1

    if args.command == "minimize":
        model = _load_model(args.model)
        features = _features(args.features)
        if args.prune:
            model = prune_unreachable(model, features)
        document = dump_interpretation(quotient(model, features))
        print(json.dumps(document, indent=None if args.json else 2), file=out)
        return 0

    if args.command == "prune":
        model = _load_model(args.model)
        document = dump_interpretation(prune_unreachable(model, _features(args.features)))
        print(json.dumps(document, indent=None if args.json else 2), file=out)
        return 0

    if args.command == "validate":
        model = _load_model(args.model)
        features = _features(args.features) if args.features is not None else None
        path = args.tbox or args.abox
        kb = load_kb(_read_json(path), features)
        result = validates(model, kb.items())
        payload = {
            "valid": result.valid,
            "failed": result.failed_item.describe() if result.failed_item else None,
            "element": result.witness_element,
        }
        if result.valid:
            human = "validated"
        else:
            human = f"not validated: {result.failed_item.describe()}"
            if result.witness_element:
                human += f" (at element {result.witness_element})"
        _emit(out, payload, args.json, human)
        return 0 if result.valid else 1

    if args.command == "hm":
        left, right = _load_model(args.left), _load_model(args.right)
        fragment = (
            Sublanguage.CORE_EXISTENTIAL
            if args.fragment == "prime"
            else Sublanguage.DELTA_EXISTENTIAL
        )
        result = hm_matrix(
            left, right, _features(args.features), fragment, args.depth,
            max_concepts=args.budget,
        )
        separators = {
            f"{x}|{y}": to_text(c)
            for (x, y), c in result.separators.items()
            if c is not None
        }
        mode = "crisp" if fragment is Sublanguage.DELTA_EXISTENTIAL else "fuzzy"
        payload = {
            "matrix": dump_relation(CandidateRelation(result.matrix, mode)),
            "separators": separators,
            "concepts_used": result.concepts_used,
        }
        human = _matrix_table(result.matrix)
        if separators:
            human += "\n" + "\n".join(
                f"separator {pair}: {text}" for pair, text in sorted(separators.items())
            )
        _emit(out, payload, args.json, human)
        return 0

    if args.command == "selftest":
        ok = run_selftest(lambda line: print(line, file=out))
        return 0 if ok else 1

    raise InputError(f"unknown command {args.command!r}")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
