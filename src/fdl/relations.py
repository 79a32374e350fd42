"""Fuzzy relations between two ordered element sequences, stored as their
pairs of nonzero degree.

A relation holds a candidate Z for ``check``, the ``relation`` of a
greatest bisimulation (which :mod:`fdl.refinement` keeps as nested
partitions), or an output such as ``eval_role`` and the
indistinguishability matrices.  :func:`read_triples` reads candidates and
the roles of a model from lists of ``[x, y, degree]``.  A relation is an
immutable value: it offers lookup, its nonzero entries, a crispness test
and equality, and no operations of its own.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, Mapping, Sequence, Tuple

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
    """A map (row element, col element) -> degree, built from
    ``{(row index, col index): degree}``; unlisted pairs and pairs listed
    at degree 0 both have degree 0."""

    __slots__ = ("rows", "cols", "_entries", "_ri", "_ci")

    def __init__(self, rows: Sequence[str], cols: Sequence[str],
                 entries: Mapping[Tuple[int, int], Fraction]):
        self.rows: Tuple[str, ...] = tuple(rows)
        self.cols: Tuple[str, ...] = tuple(cols)
        if len(set(self.rows)) != len(self.rows) or len(set(self.cols)) != len(self.cols):
            raise InputError("duplicate element ids in relation index")
        # row-major order; Fraction.__bool__ reads the numerator
        self._entries = {pair: entries[pair] for pair in sorted(entries) if entries[pair]}
        self._ri = {x: i for i, x in enumerate(self.rows)}
        self._ci = {y: j for j, y in enumerate(self.cols)}

    @classmethod
    def from_entries(
        cls, rows: Sequence[str], cols: Sequence[str], triples
    ) -> "FuzzyRelation":
        """Build from a list of ``[x, y, degree]``; unlisted pairs get degree 0."""
        ri = {x: i for i, x in enumerate(rows)}
        ci = {y: j for j, y in enumerate(cols)}
        return cls(rows, cols, read_triples(triples, ri, ci, "relation", InputError))

    def at(self, x: str, y: str) -> Fraction:
        try:
            return self._entries.get((self._ri[x], self._ci[y]), ZERO)
        except KeyError as exc:
            raise InputError(f"unknown element {exc.args[0]!r}") from None

    def nonzero(self) -> Iterator[Tuple[str, str, Fraction]]:
        """``(x, y, degree)`` for every pair of nonzero degree, row by row
        in document order."""
        rows, cols = self.rows, self.cols
        for (i, j), v in self._entries.items():
            yield rows[i], cols[j], v

    def is_crisp(self) -> bool:
        # exact, without Fraction.__eq__: a nonzero degree is 1 exactly when
        # it is a whole number
        return all(v.denominator == 1 for v in self._entries.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzyRelation):
            return NotImplemented
        return (self.rows, self.cols, self._entries) == (other.rows, other.cols, other._entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self._entries.items())))

    def __repr__(self):
        return f"FuzzyRelation(rows={self.rows!r}, cols={self.cols!r})"
