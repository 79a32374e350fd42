"""Deterministic inputs for the benchmark workloads.

``build(workload, seed, out_dir)`` writes the model, box and manifest files
for one workload and returns the manifest.  The same workload and seed give
byte-identical files.  The seed picks degrees, edges, permutations and
element order; the sizes and the list of operations are fixed per
workload, so every seed asks for about the same amount of work.

The manifest lists one round of operations.  Each has an ``id``, a
``kind`` (the input family), the ``argv`` handed to ``fdl.cli.main`` and a
``check`` entry saying what the answer must be; ``checks.py`` reads it.
Concepts are kept as reference expressions (see ``reference.py``) next to
the text given to ``fdl``.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Dict, List

from reference import Evaluator, Model, degree_text, implies, text

WORKLOADS = ("fixpoint", "eval-sparse", "minimize")


def _deg(k: int) -> str:
    """Degree k/100 as text."""
    return degree_text(Fraction(k, 100))


def _model(domain, individuals=None, concepts=None, roles=None) -> dict:
    return {
        "domain": list(domain),
        "individuals": dict(individuals or {}),
        "concepts": concepts or {},
        "roles": roles or {},
    }


def _json_expr(expr):
    """A reference expression as JSON (tuples to lists, constants to text)."""
    if isinstance(expr, tuple):
        if expr[0] == "const":
            return ["const", degree_text(expr[1])]
        return [_json_expr(e) for e in expr]
    return expr


def load_expr(obj):
    """Inverse of :func:`_json_expr`."""
    if isinstance(obj, list):
        if obj[0] == "const":
            return ("const", Fraction(obj[1]))
        return tuple(load_expr(e) for e in obj)
    return obj


class Writer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def put(self, name: str, document: dict) -> str:
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return path


# ---------------------------------------------------------------------------
# fixpoint: chains, sparse random pairs, counting hubs

CHAIN_LENGTHS = (19, 21, 23)
SPARSE_SIZES = (30, 35, 40)
HUB_DEGREES = (11, 10, 10)  # see the counting-budget note in the README


def chain_pair(rng: random.Random, n: int):
    """Two r-chains of n elements with edge degree d and end atoms p < q < d.

    Under "" and "I,O" the greatest fuzzy bisimulation is p on the diagonal
    and 0 elsewhere; the greatest crisp one is empty.
    """
    d = rng.randint(60, 95)
    p, q = sorted(rng.sample(range(10, d), 2))
    models = []
    for prefix, end in (("a", p), ("b", q)):
        dom = [f"{prefix}{i}" for i in range(n)]
        models.append(_model(
            dom, {"a": dom[0]}, {"A": {dom[-1]: _deg(end)}},
            {"r": [[dom[i], dom[i + 1], _deg(d)] for i in range(n - 1)]},
        ))
    return models, {"n": n, "p": _deg(p)}


def sparse_pair(rng: random.Random, n: int):
    """A random graph with roles r and s and a copy of it under a random
    renaming and reordering of its elements.

    Out-degrees (1 and 2 in turn) and the multisets of degrees are the same
    for every seed; the seed draws the edge targets and arranges the
    degrees.
    """
    dom = [f"x{i}" for i in range(n)]
    a_levels = [(25, 50, 75, 100)[i % 4] for i in range(n)]
    b_levels = [(0, 40, 0, 80)[i % 4] for i in range(n)]
    rng.shuffle(a_levels)
    rng.shuffle(b_levels)
    atoms = {
        "A": {x: _deg(v) for x, v in zip(dom, a_levels)},
        "B": {x: _deg(v) for x, v in zip(dom, b_levels) if v},
    }
    roles = {}
    for role in ("r", "s"):
        edges = []
        for i, x in enumerate(dom):
            for y in rng.sample(dom, 1 + i % 2):
                edges.append([x, y, _deg((30, 60, 90)[len(edges) % 3])])
        roles[role] = edges
    left = _model(dom, {"a": dom[0], "b": dom[1]}, atoms, roles)
    perm = list(range(n))
    rng.shuffle(perm)
    image = {x: f"y{perm[i]}" for i, x in enumerate(dom)}
    right = _model(
        sorted(image.values(), key=lambda y: int(y[1:])),
        {a: image[x] for a, x in left["individuals"].items()},
        {c: {image[x]: v for x, v in vals.items()} for c, vals in atoms.items()},
        {r: [[image[x], image[y], v] for x, y, v in edges] for r, edges in roles.items()},
    )
    return [left, right], {"image": image}


def hub_pair(rng: random.Random, d: int, perturb: bool):
    """A hub with d graded r-successors and either a permuted copy or a
    copy with one edge degree changed.

    The successors' (edge, atom) degree pairs are the same for every seed,
    and so is the perturbed pair, so the fixpoint's work barely depends on
    the seed; the seed only orders the successors.
    """
    pairs = [((40, 60, 80, 100)[k % 4], (50, 100)[(k // 4) % 2]) for k in range(d)]
    rng.shuffle(pairs)
    edge_degrees = [e for e, _a in pairs]
    atom_degrees = [a for _e, a in pairs]
    other = list(edge_degrees)
    if perturb:
        k = pairs.index((60, 50))
        other[k] = 80
    models, image = [], {"h0": "g0"}
    for prefix, degrees in (("h", edge_degrees), ("g", other)):
        # successor k of the copy plays successor order[k] of the original
        order = list(range(d))
        if prefix == "g":
            rng.shuffle(order)
        succ = [f"{prefix}{k + 1}" for k in range(d)]
        image.update((f"h{order[k] + 1}", succ[k]) for k in range(d) if prefix == "g")
        models.append(_model(
            [f"{prefix}0"] + succ, {"a": f"{prefix}0"},
            {"A": {succ[k]: _deg(atom_degrees[order[k]]) for k in range(d)}},
            {"r": [[f"{prefix}0", succ[k], _deg(degrees[order[k]])] for k in range(d)]},
        ))
    return models, {"perturbed": perturb, "d": d, "image": image}


def _fixpoint(rng: random.Random, w: Writer) -> List[dict]:
    pairs = {
        "chain": [chain_pair(rng, n) for n in CHAIN_LENGTHS],
        "sparse": [sparse_pair(rng, n) for n in SPARSE_SIZES],
        "hub": [hub_pair(rng, d, perturb) for d, perturb in zip(HUB_DEGREES, (False, True, True))],
    }

    def counting(d: int, letter: str) -> str:
        return ",".join(f"{letter}{k}" for k in range(1, d + 1))

    # (family, instance, command, features, mode); kinds alternate so that a
    # drift in machine speed reaches every kind alike
    plan = [
        ("chain", 0, "bisim", "", "fuzzy"),
        ("sparse", 0, "bisim", "I", "fuzzy"),
        ("hub", 0, "bisimilar", counting(11, "Q"), "fuzzy"),
        ("chain", 1, "bisim", "I,O", "crisp"),
        ("sparse", 1, "bisimilar", "", "crisp"),
        ("hub", 1, "bisimilar", counting(10, "N"), "fuzzy"),
        ("chain", 2, "bisimilar", "I,O", "fuzzy"),
        ("sparse", 2, "bisim", "I,O", "fuzzy"),
        ("hub", 2, "bisimilar", counting(10, "Q"), "fuzzy"),
    ]
    return [pair_op(w, f"{family}{k}", family, *pairs[family][k], command, features, mode)
            for family, k, command, features, mode in plan]


def pair_op(w: Writer, name: str, family: str, models, info: dict,
            command: str, features: str, mode: str) -> dict:
    """``fdl bisim`` or ``fdl bisimilar`` on a generated model pair."""
    left, right = w.put(f"{name}-L.json", models[0]), w.put(f"{name}-R.json", models[1])
    return {
        "kind": family,
        "argv": ["--json", command, "-l", left, "-r", right, "--features", features, "--mode", mode],
        "check": dict(info, left=left, right=right, features=features, mode=mode),
    }


# ---------------------------------------------------------------------------
# eval-sparse: a 200-element sparse model and a 40-element model

BIG_SIZE = 200
SMALL_SIZE = 40


def sparse_model(rng: random.Random, n: int, prefix: str, star_role: bool) -> dict:
    """Roles r and s with two random out-edges per element; with
    ``star_role`` also t, made of disjoint 5-element chains."""
    dom = [f"{prefix}{i}" for i in range(n)]
    atoms = {
        "A": {x: _deg(rng.randint(1, 100)) for x in dom if rng.random() < 0.7},
        "B": {x: _deg(rng.randint(1, 100)) for x in dom if rng.random() < 0.7},
    }
    roles = {}
    for role in ("r", "s"):
        roles[role] = [[x, y, _deg(rng.randint(1, 100))] for x in dom for y in rng.sample(dom, 2)]
    if star_role:
        order = list(dom)
        rng.shuffle(order)
        roles["t"] = [
            [order[i], order[i + 1], _deg(rng.randint(1, 100))]
            for i in range(n - 1) if (i + 1) % 5
        ]
    names = {"a": dom[0], "b": dom[1], "c": dom[2]}
    return _model(dom, names, atoms, roles)


R, S, T = ("role", "r"), ("role", "s"), ("role", "t")
A, B = ("atom", "A"), ("atom", "B")
Ri, Si = ("invr", R), ("invr", S)


def _c(q: str):
    return ("const", Fraction(q))


BIG_CONCEPTS = [
    ("exists", R, ("forall", S, A)),
    ("forall", ("union", R, S), ("exists", Si, ("and", A, B))),
    ("atleast", 2, R, ("exists", S, A)),
    ("or", ("atleastu", 3, Ri), ("less", 2, S, B)),
    ("and", ("forall", ("star", T), ("or", A, ("inv", B))), ("exists", Ri, ("not", A))),
]
SMALL_CONCEPTS = [
    ("exists", ("comp", R, S), A),
    ("forall", ("comp", ("test", B), ("comp", R, Si)), ("imp", _c("1/2"), A)),
]
# inclusions whose sides share subconcepts; the thresholds are set from the
# reference grading so that every inclusion holds
BIG_TBOX = [
    (("exists", R, ("forall", S, A)), ("exists", ("union", R, S), ("forall", S, A))),
    (("atleast", 2, R, ("forall", S, A)), ("exists", R, ("forall", S, A))),
    (("exists", S, ("and", A, B)), ("forall", Ri, ("exists", S, ("and", A, B)))),
]
SMALL_ABOX_CONCEPTS = [
    ("exists", ("comp", R, S), A),
    ("forall", ("comp", R, S), ("or", A, B)),
]
SMALL_ABOX_ROLES = [("comp", R, S)]


def _tbox(ev: Evaluator) -> dict:
    items = []
    for lhs, rhs in BIG_TBOX:
        low = min(implies(p, q) for p, q in zip(ev.concept(lhs), ev.concept(rhs)))
        if low == 0:
            rhs = ("or", rhs, lhs)
            low = Fraction(1)
        items.append({"lhs": text(lhs), "rhs": text(rhs), "rel": ">=", "p": degree_text(low),
                      "lhs_expr": _json_expr(lhs), "rhs_expr": _json_expr(rhs)})
    return {"tbox": items}


def _abox(ev: Evaluator) -> dict:
    """Tight assertions that hold, then one that fails at the last item."""
    m = ev.m
    items = []
    for c, a in zip(SMALL_ABOX_CONCEPTS, ("a", "b")):
        v = ev.concept(c)[m.individuals[a]]
        for cmp in (">=", "<="):
            items.append({"kind": "concept", "c": text(c), "a": a, "cmp": cmp,
                          "p": degree_text(v), "c_expr": _json_expr(c)})
    for r in SMALL_ABOX_ROLES:
        v = ev.edge(r, m.individuals["a"], m.individuals["b"])
        items.append({"kind": "role", "r": text(r), "a": "a", "b": "b", "cmp": "<=",
                      "p": degree_text(v), "r_expr": _json_expr(r)})
    last = SMALL_ABOX_CONCEPTS[-1]
    v = ev.concept(last)[m.individuals["a"]]
    items.append({"kind": "concept", "c": text(last), "a": "a", "cmp": "<",
                  "p": degree_text(v), "c_expr": _json_expr(last)})
    return {"abox": items}


def _strip(box: dict) -> dict:
    """The box document handed to fdl: reference expressions removed."""
    return {
        key: [{k: v for k, v in item.items() if not k.endswith("_expr")} for item in items]
        for key, items in box.items()
    }


def eval_op(kind: str, model_path: str, concept) -> dict:
    """``fdl eval`` of a reference concept on a written model."""
    return {"kind": kind, "argv": ["--json", "eval", "-m", model_path, "-c", text(concept)],
            "check": {"model": model_path, "concept": _json_expr(concept)}}


def validate_op(w: Writer, model_path: str, name: str, box: dict) -> dict:
    """``fdl validate`` of a TBox or ABox with reference expressions."""
    box_path = w.put(f"{name}.json", _strip(box))
    flag = "--tbox" if "tbox" in box else "--abox"
    return {"kind": "validate", "argv": ["--json", "validate", "-m", model_path, flag, box_path],
            "check": {"model": model_path, "box": box}}


def _eval_sparse(rng: random.Random, w: Writer) -> List[dict]:
    big = sparse_model(rng, BIG_SIZE, "e", True)
    small = sparse_model(rng, SMALL_SIZE, "f", False)
    big_path, small_path = w.put("big.json", big), w.put("small.json", small)
    tbox = _tbox(Evaluator(Model(big)))
    abox = _abox(Evaluator(Model(small)))
    # nine operations: with an odd count the median operation time falls
    # inside one operation's cluster, never between two
    ops = [eval_op("eval-big", big_path, c) for c in BIG_CONCEPTS]
    ops.insert(2, eval_op("eval-small", small_path, SMALL_CONCEPTS[0]))
    ops.insert(5, eval_op("eval-small", small_path, SMALL_CONCEPTS[1]))
    ops.insert(4, validate_op(w, big_path, "big-tbox", tbox))
    ops.append(validate_op(w, small_path, "small-abox", abox))
    return ops


# ---------------------------------------------------------------------------
# minimize: copies of a reduced base model under one named root

def copies_model(rng: random.Random, base_size: int, copies: int, junk: int):
    """``copies`` disjoint copies of a random base model, each hung under
    the named root ``root`` by an r-edge, plus ``junk`` elements that no
    edge connects to the rest.  Every base element has its own degree of A,
    so the base is reduced and strong bisimilarity groups exactly the
    copies of each base element."""
    levels = rng.sample(range(5, 100), base_size)
    base_edges = []
    for i in range(1, base_size):  # a random tree keeps every element reachable
        base_edges.append(("r", rng.randrange(i), i, rng.choice((30, 60, 90))))
    for i in range(base_size):
        base_edges.append((rng.choice("rs"), i, rng.randrange(base_size), rng.choice((30, 60, 90))))
    base_edges = list({(role, i, j): v for role, i, j, v in base_edges}.items())
    hang = rng.choice((50, 100))
    dom = ["root"] + [f"x{i}_{c}" for c in range(copies) for i in range(base_size)]
    dom += [f"j{i}" for i in range(junk)]
    rng.shuffle(dom)
    atoms = {f"x{i}_{c}": _deg(levels[i]) for c in range(copies) for i in range(base_size)}
    roles: Dict[str, list] = {"r": [], "s": []}
    for c in range(copies):
        roles["r"].append(["root", f"x0_{c}", _deg(hang)])
        for (role, i, j), v in base_edges:
            roles[role].append([f"x{i}_{c}", f"x{j}_{c}", _deg(v)])
    for i in range(junk):
        atoms[f"j{i}"] = _deg(rng.choice(levels))
        roles["s"].append([f"j{i}", f"j{rng.randrange(junk)}", _deg(60)])
    model = _model(dom, {"a": "root"}, {"A": atoms}, roles)
    base = {
        "size": base_size, "copies": copies, "levels": [_deg(v) for v in levels],
        "edges": [[role, i, j, _deg(v)] for (role, i, j), v in base_edges],
        "hang": _deg(hang),
    }
    return model, base


def _minimize(rng: random.Random, w: Writer) -> List[dict]:
    # (base size, copies, junk, features, prune); U makes each pair's
    # ceiling cost O(n^2), so the U model is smaller
    plan = [
        (10, 6, 0, "", False),
        (10, 6, 12, "I", True),
        (10, 5, 0, "I,O", False),
        (8, 4, 10, "I,O,U", True),
        (10, 5, 0, "I", False),
    ]
    return [minimize_op(w, f"copies{k}", *copies_model(rng, size, copies, junk), features, prune)
            for k, (size, copies, junk, features, prune) in enumerate(plan)]


def minimize_op(w: Writer, name: str, model: dict, base: dict, features: str, prune: bool) -> dict:
    """``fdl minimize`` of a copies model; without ``--json`` the output is
    indented."""
    path = w.put(f"{name}.json", model)
    return {"kind": "prune" if prune else "plain",
            "argv": ["minimize", "-m", path, "--features", features] + (["--prune"] if prune else []),
            "check": {"model": path, "base": base}}


def build(workload: str, seed: int, out_dir: str) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    w = Writer(out_dir)
    make = {"fixpoint": _fixpoint, "eval-sparse": _eval_sparse, "minimize": _minimize}[workload]
    ops = make(rng, w)
    for k, op in enumerate(ops):
        op["id"] = k
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    w.put("manifest.json", manifest)
    return manifest
