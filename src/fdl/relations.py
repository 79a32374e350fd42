"""Dense fuzzy relations between two ordered element sequences.

A relation stores one degree for every (row, col) pair; absence is not a
state.  It holds what is naturally dense: candidate relations Z, which
``check`` tests at every pair, and outputs such as ``eval_role`` and the
indistinguishability matrices.  The greatest bisimulation is not one by
default: :mod:`fdl.refinement` keeps it as nested partitions and builds a
relation from them only when asked.  Roles of an interpretation are stored
sparsely in :mod:`fdl.interp`, and the evaluator never builds a relation
for them.  Roles and candidates are read from lists of ``[x, y, degree]``
by :func:`read_triples`.  Instances are immutable values to read: a
relation offers lookup, a crispness test and equality, and no operations
of its own.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

from .errors import InputError
from .godel import ZERO, degree


def read_triples(
    items, rows: Mapping[str, int], cols: Mapping[str, int], what: str, error: type
) -> Dict[Tuple[int, int], Fraction]:
    """Read a list of ``[x, y, degree]`` into ``{(i, j): degree}``.

    ``rows`` and ``cols`` give each element's position.  A graded binary
    relation is written this way in both of its documents: the roles of a
    model and a candidate bisimulation.  A list that is not of triples, an
    unknown element or a pair listed twice raises ``error`` with ``what``
    naming the list; a bad degree raises :class:`InputError`.  Zero degrees
    are kept.
    """
    if not isinstance(items, (list, tuple)):
        raise error(f"{what} must be a list of [x, y, degree] triples")
    read: Dict[Tuple[int, int], Fraction] = {}
    for item in items:
        if not (isinstance(item, (list, tuple)) and len(item) == 3
                and isinstance(item[0], str) and isinstance(item[1], str)):
            raise error(f"{what}: an entry must be [x, y, degree], got {item!r}")
        x, y, d = item
        if x not in rows or y not in cols:
            raise error(f"{what} uses an unknown element in ({x}, {y})")
        pair = rows[x], cols[y]
        if pair in read:
            raise error(f"{what} lists the pair ({x}, {y}) twice")
        read[pair] = degree(d)
    return read


class FuzzyRelation:
    """A total map (row element, col element) -> degree."""

    __slots__ = ("rows", "cols", "matrix", "_ri", "_ci")

    def __init__(self, rows: Sequence[str], cols: Sequence[str], matrix):
        self.rows: Tuple[str, ...] = tuple(rows)
        self.cols: Tuple[str, ...] = tuple(cols)
        self.matrix: Tuple[Tuple[Fraction, ...], ...] = tuple(
            tuple(row) for row in matrix
        )
        if len(self.matrix) != len(self.rows) or any(
            len(r) != len(self.cols) for r in self.matrix
        ):
            raise InputError("matrix shape does not match row/col sequences")
        if len(set(self.rows)) != len(self.rows) or len(set(self.cols)) != len(self.cols):
            raise InputError("duplicate element ids in relation index")
        self._ri = {x: i for i, x in enumerate(self.rows)}
        self._ci = {y: j for j, y in enumerate(self.cols)}

    @classmethod
    def from_entries(
        cls, rows: Sequence[str], cols: Sequence[str], triples
    ) -> "FuzzyRelation":
        """Build from a list of ``[x, y, degree]``; unlisted pairs get degree 0."""
        matrix = [[ZERO] * len(cols) for _ in rows]
        ri = {x: i for i, x in enumerate(rows)}
        ci = {y: j for j, y in enumerate(cols)}
        for (i, j), d in read_triples(triples, ri, ci, "relation", InputError).items():
            matrix[i][j] = d
        return cls(rows, cols, matrix)

    def at(self, x: str, y: str) -> Fraction:
        try:
            return self.matrix[self._ri[x]][self._ci[y]]
        except KeyError as exc:
            raise InputError(f"unknown element {exc.args[0]!r}") from None

    def is_crisp(self) -> bool:
        # exact, without Fraction.__eq__: a degree is 0 or 1 exactly when it
        # is a whole number, numerator 0 or 1
        return all(v.denominator == 1 and v.numerator in (0, 1) for row in self.matrix for v in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzyRelation):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.matrix))

    def __repr__(self):
        return f"FuzzyRelation(rows={self.rows!r}, cols={self.cols!r})"
