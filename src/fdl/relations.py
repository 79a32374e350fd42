"""Fuzzy relations between two ordered element sequences, stored one line
per row.

:class:`FuzzyRelation` is the one relation type: a candidate Z for
``check``, a greatest bisimulation (which :mod:`fdl.refinement` fills line
by line from its nested partitions), a brute-force result, and an
indistinguishability matrix.  A role is never built as one: the evaluator
grades it only through concepts (:mod:`fdl.interp`).  A row's line
lists the columns of its pairs of nonzero degree, ascending, and their
degrees: ``nonzero`` walks the lines, ``at`` bisects one, and ``==``
compares them.  :func:`read_triples` reads candidates and the roles of a
model from lists of ``[x, y, degree]`` in one pass, straight into such
lines of ``(column, degree)`` pairs: a model stores them as its successor
lists and :meth:`FuzzyRelation.from_entries` splits them into columns and
degrees.  A relation is an immutable value: it offers lookup, its nonzero
entries, a crispness test and equality, and no operations of its own.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from .errors import InputError, json_text
from .godel import ZERO, DegreeTexts, degree


def read_triples(
    items, rows: Mapping[str, int], cols: Mapping[str, int], what: str, error: type,
    texts: DegreeTexts, found: Dict[int, Fraction],
) -> List[List[Tuple[int, Fraction]]]:
    """Read a list of ``[x, y, degree]`` in one pass into one line per
    row: that row's ``(column, degree)`` pairs of nonzero degree, in
    ascending column order.

    ``rows`` and ``cols`` give each element's position.  A graded binary
    relation is written this way in both of its documents: the roles of a
    model and a candidate bisimulation.  Each entry is unpacked and its
    elements looked up once; only an entry that fails there is examined
    for its message.  A list that is not of triples, an unknown element or
    a pair listed twice (at any degree, 0 too) raises ``error`` with
    ``what`` naming the list; a bad degree raises :class:`InputError`.
    The first faulty entry decides.  Degree texts are read through
    ``texts``, the document's table, and any other degree by
    :func:`degree`, and then added to ``found`` by ``id``; a zero degree
    reads as ``ZERO``.
    """
    if not isinstance(items, (list, tuple)):
        raise error(f"{what} must be a list of [x, y, degree] triples")
    lines: List[List[Tuple[int, Fraction]]] = [[] for _ in rows]
    width, seen = len(cols), set()
    for item in items:
        try:
            # a 3-key dict or a 3-character string would unpack too
            x, y, d = item if isinstance(item, (list, tuple)) else ()
            i, j = rows[x], cols[y]
        except (KeyError, TypeError, ValueError):
            raise error(_entry_fault(item, what)) from None
        pair = i * width + j
        if pair in seen:
            raise error(f"{what} lists the pair ({x}, {y}) twice")
        seen.add(pair)
        if type(d) is str:
            d = texts[d]
        else:
            d = degree(d) or ZERO
            found[id(d)] = d
        if d is not ZERO:
            lines[i].append((j, d))
    for line in lines:
        line.sort()  # the columns are distinct, so no degree is compared
    return lines


def _entry_fault(item, what: str) -> str:
    """Why an entry failed to unpack into two known elements: its shape,
    tested first, or else an unknown element."""
    if not (isinstance(item, (list, tuple)) and len(item) == 3
            and isinstance(item[0], str) and isinstance(item[1], str)):
        return f"{what}: an entry must be [x, y, degree], got {json_text(item)}"
    return f"{what} uses an unknown element in ({item[0]}, {item[1]})"


class FuzzyRelation:
    """A map (row element, col element) -> degree, stored one line per row:
    ``lines[i]`` is ``(column indices, degrees)`` of row i's pairs of
    nonzero degree, in ascending column order.  Unlisted pairs have degree
    0.  The lines are read, never changed."""

    __slots__ = ("rows", "cols", "lines", "_ri", "_ci")

    def __init__(self, rows: Sequence[str], cols: Sequence[str],
                 lines: List[Tuple[List[int], List[Fraction]]]):
        self.rows: Tuple[str, ...] = tuple(rows)
        self.cols: Tuple[str, ...] = tuple(cols)
        self._ri = {x: i for i, x in enumerate(self.rows)}
        self._ci = {y: j for j, y in enumerate(self.cols)}
        if len(self._ri) != len(self.rows) or len(self._ci) != len(self.cols):
            raise InputError("duplicate element ids in relation index")
        if len(lines) != len(self.rows):
            raise InputError("a relation needs one line per row")
        self.lines = lines

    @classmethod
    def from_entries(
        cls, rows: Sequence[str], cols: Sequence[str], triples
    ) -> "FuzzyRelation":
        """Build from a list of ``[x, y, degree]``; unlisted pairs get degree 0."""
        ri = {x: i for i, x in enumerate(rows)}
        ci = {y: j for j, y in enumerate(cols)}
        lines = read_triples(triples, ri, ci, "relation", InputError, DegreeTexts(), {})
        return cls(rows, cols, [([j for j, _d in line], [d for _j, d in line]) for line in lines])

    def at(self, x: str, y: str) -> Fraction:
        """The degree of ``(x, y)``, bisected in the line of x."""
        try:
            ys, ds = self.lines[self._ri[x]]
            j = self._ci[y]
        except KeyError as exc:
            raise InputError(f"unknown element {exc.args[0]!r}") from None
        k = bisect_left(ys, j)
        return ds[k] if k < len(ys) and ys[k] == j else ZERO

    def nonzero(self) -> Iterator[Tuple[str, str, Fraction]]:
        """``(x, y, degree)`` for every pair of nonzero degree, row by row
        in document order."""
        cols = self.cols
        for x, (ys, ds) in zip(self.rows, self.lines):
            for j, v in zip(ys, ds):
                yield x, cols[j], v

    def is_crisp(self) -> bool:
        # exact, without Fraction.__eq__: a nonzero degree is 1 exactly when
        # it is a whole number
        return all(v.denominator == 1 for _ys, ds in self.lines for v in ds)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzyRelation):
            return NotImplemented
        return (self.rows, self.cols, self.lines) == (other.rows, other.cols, other.lines)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple([(tuple(ys), tuple(ds)) for ys, ds in self.lines])))

    def __repr__(self):
        return f"FuzzyRelation(rows={self.rows!r}, cols={self.cols!r})"
