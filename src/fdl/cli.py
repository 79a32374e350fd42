"""Command-line interface.

Exit codes: 0 on success (and for properties that hold), 1 when a checked
property fails (not bisimilar, conditions violated, box not validated,
selftest failures), 2 on usage or input errors.  The parser is built once,
at import; each subcommand is one handler ``(args, out) -> int``.

Importing this module loads only what the parser needs (``fdl.errors``,
``fdl.godel`` and ``fdl.syntax``).  A handler's other functions, all of
them exported by :mod:`fdl`, load on first use, by the module
``__getattr__`` below, and are kept in this module's globals; handlers
read them there, so a function replaced on this module is the one that
runs.

The handlers of ``eval``, ``bisim``, ``check``, ``bisimilar``,
``validate`` and ``hm`` each print their result through one ``_emit``
call: the human lines, or JSON with the bytes of ``json.dumps(...,
indent=2)``.  A relation document (``bisim`` and its ``-o`` file, the
``witness`` of ``bisimilar``, the ``matrix`` of ``hm``) is written one row
at a time, straight from the relation's lines, by ``_relation_chunks``; no
``[x, y, degree]`` entry list is built, and the human table reads the lines
too.  Other values are written whole by ``_indented``.  ``minimize`` and
``prune`` print their model document compact under ``--json`` and
indented otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _string
from itertools import chain
from typing import Callable, Iterable, Iterator, List, Optional

from .errors import FdlError, InputError, too_many_digits
from .godel import format_degree
from .syntax import DEFAULT_BUDGET, MODES, FeatureSet, to_text


def __getattr__(name: str):
    """A name that :mod:`fdl` exports, loaded through ``fdl``'s own table
    and kept in this module's globals.  Other names, dunders included, are
    not looked up there."""
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


def _use(*names: str) -> None:
    """Load the named functions into this module's globals, unless they are
    there already (loaded, or replaced by a caller)."""
    for name in names:
        if name not in globals():
            __getattr__(name)


@contextlib.contextmanager
def _nesting():
    """Input nested deeper than Python's recursion limit, while it is
    parsed, loaded or evaluated, is an input error."""
    try:
        yield
    except RecursionError as exc:
        raise InputError("input nests too deeply") from exc


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle, _nesting():
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except ValueError as exc:  # an integer with more digits than int reads
        raise InputError(f"{path}: invalid JSON: an integer has too many digits") from exc


def _load_model(path: str):
    _use("load_interpretation")
    return load_interpretation(_read_json(path))


def _matrix_table(relation) -> Iterator[str]:
    """A relation as a table, one line at a time: its pairs of nonzero
    degree fill their cells, and every other cell reads 0.  The widths come
    from the header, the row names and the listed degrees, none narrower
    than 0; each degree object is formatted once."""
    rows, cols, lines = relation.rows, relation.cols, relation.lines
    texts: dict = {}
    widths = [max(len(y), 1 if rows else 0) for y in cols]
    for ys, ds in lines:
        for j, v in zip(ys, ds):
            text = texts.get(id(v))
            if text is None:
                text = texts[id(v)] = format_degree(v)
            if len(text) > widths[j]:
                widths[j] = len(text)
    first = max(map(len, rows), default=0)
    yield "  ".join(map(str.ljust, ["", *cols], [first, *widths])).rstrip()
    zeros = ["0".ljust(w) for w in widths]
    for x, (ys, ds) in zip(rows, lines):
        cells = zeros.copy()
        for j, v in zip(ys, ds):
            cells[j] = texts[id(v)].ljust(widths[j])
        yield "  ".join([x.ljust(first), *cells]).rstrip()


def _indented(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, written out here: with an indent,
    ``json`` leaves its C encoder for a pure-Python one.  Strings go to
    the C string encoder, other scalars and non-string keys to
    ``json.dumps``."""
    if isinstance(value, str):
        return _string(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        opening, closing = "{", "}"
        items = [_string(k if isinstance(k, str) else json.dumps(k)) + ": " + _indented(v, inner)
                 for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        opening, closing = "[", "]"
        items = [_indented(v, inner) for v in value]
    else:
        return json.dumps(value)
    return opening + inner + ("," + inner).join(items) + indent + closing


def _relation_chunks(relation, mode: str, indent: str = "\n") -> Iterator[str]:
    """``_indented(dump_relation(relation, mode), indent)``, one chunk per
    row, written straight from the relation's lines: each row and column
    name is encoded once, and so is each degree object, keyed by ``id`` as
    in ``dump_relation``."""
    l1, l2, l3 = indent + "  ", indent + "    ", indent + "      "
    yield "{" + l1 + '"mode": ' + _string(mode) + "," + l1 + '"entries": ['
    # an entry is l2 [ l3 x , l3 y , l3 degree l2 ]: its parts after x by
    # column, and after y by degree object
    cols = ["," + l3 + _string(y) + "," + l3 for y in relation.cols]
    close = l2 + "]"
    texts: dict = {}
    comma = ""
    for x, (ys, ds) in zip(relation.rows, relation.lines):
        if not ys:
            continue
        opening = l2 + "[" + l3 + _string(x)
        parts = []
        for j, v in zip(ys, ds):
            text = texts.get(id(v))
            if text is None:
                text = texts[id(v)] = _string(format_degree(v)) + close
            parts.append(opening + cols[j] + text)
        yield comma + ",".join(parts)
        comma = ","
    yield (l1 + "]" if comma else "]") + indent + "}"


def _object_chunks(fields: dict, mode: str) -> Iterator[str]:
    """``_indented(fields)`` one chunk at a time, for an object whose
    :class:`FuzzyRelation` values are written as their relation documents
    in ``mode`` by :func:`_relation_chunks`."""
    _use("FuzzyRelation")
    opening = "{"
    for key, value in fields.items():
        yield opening + "\n  " + _string(key) + ": "
        if isinstance(value, FuzzyRelation):
            yield from _relation_chunks(value, mode, "\n  ")
        else:
            yield _indented(value, "\n  ")
        opening = ","
    yield "\n}"


def _write(out, chunks: Iterable[str]) -> None:
    """Write a JSON document chunk by chunk, and end its line."""
    out.writelines(chunks)
    out.write("\n")


def _emit(out, payload, as_json: bool, human: Callable[[], Iterable[str]],
          mode: str = "") -> None:
    """Print the payload as JSON, or the lines of the human text, built only
    here and printed as they come.  A dict payload is written by
    :func:`_object_chunks`, a :class:`FuzzyRelation` by
    :func:`_relation_chunks`, both in ``mode``."""
    if not as_json:
        for line in human():
            print(line, file=out)
    elif isinstance(payload, dict):
        _write(out, _object_chunks(payload, mode))
    else:
        _write(out, _relation_chunks(payload, mode))


# ---------------------------------------------------------------------------
# handlers


def _eval(args, out) -> int:
    _use("parse_concept", "eval_concept")
    model = _load_model(args.model)
    with _nesting():
        concept = parse_concept(args.concept, args.features)
        values = eval_concept(model, concept)
        concept_text = to_text(concept)
    if args.element is not None:
        pairs = [(args.element, values.at(args.element))]
    else:
        pairs = list(values)
    # each distinct degree object is formatted once
    texts = {id(v): v for _x, v in pairs}
    texts = {key: format_degree(v) for key, v in texts.items()}
    shown = {x: texts[id(v)] for x, v in pairs}
    payload = {"concept": concept_text, "values": shown}
    width = max(map(len, shown))
    _emit(out, payload, args.json,
          lambda: ["\n".join(f"{x.ljust(width)}  {text}" for x, text in shown.items())])
    return 0


def _bisim(args, out) -> int:
    _use("greatest_bisim")
    left, right = _load_model(args.left), _load_model(args.right)
    result = greatest_bisim(left, right, args.features, args.mode)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as file:
                _write(file, _relation_chunks(result, args.mode))
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    _emit(out, result, args.json, lambda: _matrix_table(result), args.mode)
    return 0


def _check(args, out) -> int:
    _use("load_relation", "check_bisim")
    left, right = _load_model(args.left), _load_model(args.right)
    candidate = load_relation(_read_json(args.relation), left.domain, right.domain)
    report = check_bisim(left, right, candidate, args.features)
    payload = {
        "satisfied": report.satisfied,
        "violations": [
            {"condition": v.condition, "x": v.x, "x_prime": v.x_prime, "role": v.role,
             "name": v.symbol, "witness": list(v.witness) if v.witness else None,
             "lhs": format_degree(v.lhs), "rhs": format_degree(v.rhs)}
            for v in report.violations
        ],
    }
    _emit(out, payload, args.json,
          lambda: [v.describe() for v in report.violations] or ["satisfied"])
    return 0 if report.satisfied else 1


def _bisimilar(args, out) -> int:
    _use("bisimilar")
    left, right = _load_model(args.left), _load_model(args.right)
    result = bisimilar(left, right, args.features, args.mode)
    payload = {
        "bisimilar": result.holds,
        "mode": args.mode,
        "failing_individual": result.failing_individual,
        "witness": result.witness,
    }
    human = f"bisimilar ({args.mode})" if result.holds else (
        f"not bisimilar ({args.mode}); individual {result.failing_individual!r} falls below 1")
    _emit(out, payload, args.json, lambda: [human], args.mode)
    return 0 if result.holds else 1


def _minimize(args, out) -> int:
    """``minimize`` (pruning first under ``--prune``) and ``prune``."""
    _use("prune_unreachable", "quotient", "dump_interpretation")
    model = _load_model(args.model)
    if args.prune:
        model = prune_unreachable(model, args.features)
    if args.command == "minimize":
        model = quotient(model, args.features)
    document = dump_interpretation(model)
    print(json.dumps(document) if args.json else _indented(document), file=out)
    return 0


def _validate(args, out) -> int:
    _use("load_kb", "validates")
    model = _load_model(args.model)
    box = _read_json(args.tbox or args.abox)
    with _nesting():
        result = validates(model, load_kb(box, args.features).items())
    payload = {
        "valid": result.valid,
        "failed": result.failed_item.describe() if result.failed_item else None,
        "element": result.witness_element,
    }
    human = "validated" if result.valid else f"not validated: {payload['failed']}"
    if result.witness_element is not None:
        human += f" (at element {result.witness_element})"
    _emit(out, payload, args.json, lambda: [human])
    return 0 if result.valid else 1


def _pair_part(name: str) -> str:
    """A name in a separator's ``x|y`` key, written as a JSON string if it
    holds ``|`` or ``"``, so that distinct pairs get distinct keys."""
    return json.dumps(name, ensure_ascii=False) if "|" in name or '"' in name else name


def _hm(args, out) -> int:
    _use("hm_matrix")
    left, right = _load_model(args.left), _load_model(args.right)
    mode = "crisp" if args.fragment == "delta" else "fuzzy"
    result = hm_matrix(left, right, args.features, mode, args.depth, max_concepts=args.budget)
    separators = {
        f"{_pair_part(x)}|{_pair_part(y)}": to_text(c)
        for (x, y), c in result.separators.items()
        if c is not None
    }
    payload = {
        "matrix": result.matrix,
        "separators": separators,
        "concepts_used": result.concepts_used,
    }
    _emit(out, payload, args.json, lambda: chain(
        _matrix_table(result.matrix),
        [f"separator {pair}: {text}" for pair, text in sorted(separators.items())],
    ), mode)
    return 0


def _selftest(args, out) -> int:
    from .fixtures import run_selftest

    return 0 if run_selftest(lambda line: print(line, file=out)) else 1


# ---------------------------------------------------------------------------
# the parser


def _whole(option: str) -> Callable[[str], int]:
    """The type of an integer option: ``int``, but a numeral with more
    digits than ``int`` converts is named by its first characters and its
    length, not by all of them."""
    def read(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text):
                raise InputError(too_many_digits(option, text)) from None
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return read


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`InputError` instead of exiting."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _parser() -> _Parser:
    # arguments that several subcommands share, as parent parsers
    pair = _Parser(add_help=False)
    pair.add_argument("-l", "--left", required=True)
    pair.add_argument("-r", "--right", required=True)
    model = _Parser(add_help=False)
    model.add_argument("-m", "--model", required=True)
    features = _Parser(add_help=False)
    features.add_argument("--features", required=True, type=FeatureSet.parse)
    syntax = _Parser(add_help=False)
    syntax.add_argument("--features", type=FeatureSet.parse, help="restrict the accepted syntax")
    mode = _Parser(add_help=False)
    mode.add_argument("--mode", choices=MODES, default="fuzzy")

    parser = _Parser(
        prog="fdl",
        description=(
            "Evaluate graded concepts, compute fuzzy/crisp bisimulations, "
            "validate graded TBoxes/ABoxes, and minimize finite fuzzy models "
            "under the Goedel semantics."
        ),
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, *parents) -> _Parser:
        p = commands.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(handler=handler)
        return p

    p = command("eval", _eval, "evaluate a concept on a model", model, syntax)
    p.add_argument("-c", "--concept", required=True)
    p.add_argument("-e", "--element")
    p = command("bisim", _bisim, "greatest fuzzy or crisp bisimulation", pair, features, mode)
    p.add_argument("-o", "--output", help="also write the relation document here")
    p = command("check", _check, "check a candidate relation", pair, features)
    p.add_argument("-z", "--relation", required=True)
    command("bisimilar", _bisimilar, "decide (strong) bisimilarity", pair, features, mode)
    p = command("minimize", _minimize, "quotient a model by strong bisimilarity", model, features)
    p.add_argument("--prune", action="store_true", help="drop unreachable elements first")
    p = command("prune", _minimize, "drop elements unreachable from named individuals",
                model, features)
    p.set_defaults(prune=True)
    p = command("validate", _validate, "check a TBox/ABox against a model", model, syntax)
    box = p.add_mutually_exclusive_group(required=True)
    box.add_argument("--tbox")
    box.add_argument("--abox")
    p = command("hm", _hm, "logical-indistinguishability matrix", pair, features)
    p.add_argument("--fragment", choices=("prime", "delta"), required=True)
    p.add_argument("--depth", type=_whole("--depth"), required=True)
    p.add_argument("--budget", type=_whole("--budget"), default=DEFAULT_BUDGET,
                   help="cap on enumerated concepts (default %(default)s)")
    command("selftest", _selftest, "run the embedded fixture checks")
    return parser


_PARSER = _parser()


def main(argv: Optional[List[str]] = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out):  # --help prints the help text
            args = _PARSER.parse_args(argv)
        return args.handler(args, out)
    except FdlError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except SystemExit:  # after --help
        return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
