"""Reference Goedel-semantics evaluator for the benchmark's answer checks.

It shares no code with ``fdl``: concepts are small tuples built by the
input generator, roles are adjacency lists of positive edges, and every
constructor is computed from its definition in exact ``Fraction``s.

Concepts::

    ("const", q)  ("atom", A)  ("nom", a)
    ("not", C)  ("inv", C)  ("delta", C)
    ("and", C, D)  ("or", C, D)  ("imp", C, D)
    ("exists", R, C)  ("forall", R, C)
    ("atleast", n, R, C)  ("less", n, R, C)  ("atleastu", n, R)  ("lessu", n, R)

Roles::

    ("role", r)  ("invr", R)  ("comp", R, S)  ("union", R, S)  ("star", R)  ("test", C)

``text`` renders both in the ``fdl`` concept grammar, fully parenthesized.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List

ZERO, ONE = Fraction(0), Fraction(1)


def degree_text(value: Fraction) -> str:
    """``num/den`` text, which both ``fdl`` and ``Fraction`` parse exactly."""
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# text


def text(expr) -> str:
    tag = expr[0]
    if tag == "const":
        return degree_text(expr[1])
    if tag in ("atom", "role"):
        return expr[1]
    if tag == "nom":
        return "{%s}" % expr[1]
    if tag in ("not", "inv", "delta"):
        return f"{tag} ({text(expr[1])})"
    if tag in ("and", "or"):
        return f"({text(expr[1])} {tag} {text(expr[2])})"
    if tag == "imp":
        return f"({text(expr[1])} -> {text(expr[2])})"
    if tag in ("exists", "forall"):
        return f"({tag} ({text(expr[1])}) . {text(expr[2])})"
    if tag in ("atleast", "less"):
        op = ">=" if tag == "atleast" else "<"
        return f"({op} {expr[1]} {text(expr[2])} . {text(expr[3])})"
    if tag in ("atleastu", "lessu"):
        op = ">=" if tag == "atleastu" else "<"
        return f"({op} {expr[1]} {text(expr[2])})"
    if tag == "invr":
        return f"{text(expr[1])}-"
    if tag == "comp":
        return f"({text(expr[1])} ; {text(expr[2])})"
    if tag == "union":
        return f"({text(expr[1])} | {text(expr[2])})"
    if tag == "star":
        return f"({text(expr[1])})*"
    if tag == "test":
        return f"({text(expr[1])})?"
    raise ValueError(f"unknown expression {expr!r}")


# ---------------------------------------------------------------------------
# models


class Model:
    """A model document read into positional adjacency lists."""

    def __init__(self, document: dict):
        self.domain: List[str] = list(document["domain"])
        self.index = {x: i for i, x in enumerate(self.domain)}
        self.individuals = {a: self.index[x] for a, x in document.get("individuals", {}).items()}
        self.atoms: Dict[str, List[Fraction]] = {}
        for name, values in document.get("concepts", {}).items():
            row = [ZERO] * len(self.domain)
            for x, v in values.items():
                row[self.index[x]] = Fraction(v)
            self.atoms[name] = row
        self.roles: Dict[str, List[Dict[int, Fraction]]] = {}
        for name, edges in document.get("roles", {}).items():
            succ = [dict() for _ in self.domain]
            for x, y, v in edges:
                if Fraction(v) > ZERO:
                    succ[self.index[x]][self.index[y]] = Fraction(v)
            self.roles[name] = succ


class Evaluator:
    """Memoized reference grading of one model."""

    def __init__(self, model: Model):
        self.m = model
        self.n = len(model.domain)
        self._memo: Dict[tuple, object] = {}

    def concept(self, c) -> List[Fraction]:
        if c not in self._memo:
            self._memo[c] = self._concept(c)
        return self._memo[c]

    def role(self, r) -> List[Dict[int, Fraction]]:
        if r not in self._memo:
            self._memo[r] = self._role(r)
        return self._memo[r]

    def _concept(self, c) -> List[Fraction]:
        tag, n = c[0], self.n
        if tag == "const":
            return [c[1]] * n
        if tag == "atom":
            return list(self.m.atoms.get(c[1], [ZERO] * n))
        if tag == "nom":
            target = self.m.individuals[c[1]]
            return [ONE if i == target else ZERO for i in range(n)]
        if tag == "not":
            return [ONE if v == ZERO else ZERO for v in self.concept(c[1])]
        if tag == "inv":
            return [ONE - v for v in self.concept(c[1])]
        if tag == "delta":
            return [ONE if v == ONE else ZERO for v in self.concept(c[1])]
        if tag in ("and", "or", "imp"):
            left, right = self.concept(c[1]), self.concept(c[2])
            if tag == "and":
                return [min(p, q) for p, q in zip(left, right)]
            if tag == "or":
                return [max(p, q) for p, q in zip(left, right)]
            return [ONE if p <= q else q for p, q in zip(left, right)]
        if tag == "exists":
            rel, fill = self.role(c[1]), self.concept(c[2])
            # absent edges have degree 0 and contribute min(0, .) = 0
            return [max((min(d, fill[j]) for j, d in rel[i].items()), default=ZERO) for i in range(n)]
        if tag == "forall":
            rel, fill = self.role(c[1]), self.concept(c[2])
            # absent edges contribute 0 -> C(y) = 1
            return [
                min((ONE if d <= fill[j] else fill[j] for j, d in rel[i].items()), default=ONE)
                for i in range(n)
            ]
        if tag in ("atleast", "less", "atleastu", "lessu"):
            k, rel = c[1], self.role(c[2])
            fill = self.concept(c[3]) if tag in ("atleast", "less") else [ONE] * n
            out = []
            for i in range(n):
                # sup over k-sets of distinct successors of the min over the set
                graded = [min(d, fill[j]) for j, d in rel[i].items()]
                best = max((min(group) for group in combinations(graded, k)), default=ZERO)
                out.append(best)
            if tag in ("less", "lessu"):
                return [ONE if v == ZERO else ZERO for v in out]
            return out
        raise ValueError(f"unknown concept {c!r}")

    def _role(self, r) -> List[Dict[int, Fraction]]:
        tag, n = r[0], self.n
        if tag == "role":
            return self.m.roles.get(r[1], [dict() for _ in range(n)])
        if tag == "invr":
            base = self.role(r[1])
            out = [dict() for _ in range(n)]
            for i, row in enumerate(base):
                for j, d in row.items():
                    out[j][i] = d
            return out
        if tag == "comp":
            left, right = self.role(r[1]), self.role(r[2])
            out = [dict() for _ in range(n)]
            for i in range(n):
                acc = out[i]
                for k, d1 in left[i].items():
                    for j, d2 in right[k].items():
                        v = min(d1, d2)
                        if v > acc.get(j, ZERO):
                            acc[j] = v
            return out
        if tag == "union":
            left, right = self.role(r[1]), self.role(r[2])
            out = []
            for a, b in zip(left, right):
                row = dict(a)
                for j, d in b.items():
                    if d > row.get(j, ZERO):
                        row[j] = d
                out.append(row)
            return out
        if tag == "star":
            # widest (max-min) path from each source; the empty path gives 1
            base = self.role(r[1])
            out = []
            for i in range(n):
                best = {i: ONE}
                todo = [i]
                while todo:
                    k = todo.pop()
                    for j, d in base[k].items():
                        v = min(best[k], d)
                        if v > best.get(j, ZERO):
                            best[j] = v
                            todo.append(j)
                out.append(best)
            return out
        if tag == "test":
            values = self.concept(r[1])
            return [{i: values[i]} if values[i] > ZERO else {} for i in range(n)]
        raise ValueError(f"unknown role {r!r}")

    def edge(self, r, a: int, b: int) -> Fraction:
        return self.role(r)[a].get(b, ZERO)


def implies(p: Fraction, q: Fraction) -> Fraction:
    return ONE if p <= q else q


def iff(p: Fraction, q: Fraction) -> Fraction:
    return min(implies(p, q), implies(q, p))


def holds(cmp: str, value: Fraction, threshold: Fraction) -> bool:
    return {">=": value >= threshold, ">": value > threshold,
            "<=": value <= threshold, "<": value < threshold}[cmp]


def box_verdict(ev: Evaluator, box: dict):
    """First failing item of a TBox/ABox document as ``(valid, element)``.

    ``element`` names the first domain element that breaks a failing
    inclusion, and is None for a failing assertion.
    """
    m = ev.m
    for gci in box.get("tbox", ()):
        lhs, rhs = ev.concept(gci["lhs_expr"]), ev.concept(gci["rhs_expr"])
        p = Fraction(gci["p"])
        for i in range(ev.n):
            if not holds(gci["rel"], implies(lhs[i], rhs[i]), p):
                return False, m.domain[i]
    for item in box.get("abox", ()):
        if item["kind"] == "concept":
            value = ev.concept(item["c_expr"])[m.individuals[item["a"]]]
        else:
            value = ev.edge(item["r_expr"], m.individuals[item["a"]], m.individuals[item["b"]])
        if not holds(item["cmp"], value, Fraction(item["p"])):
            return False, None
    return True, None

