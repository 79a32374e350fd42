"""Seeded random generators and oracles shared by the test modules."""

from enum import Enum
from fractions import Fraction as F
from itertools import combinations

from fdl import (
    And,
    AtLeast,
    AtLeastUnq,
    Compose,
    Concept,
    ConceptAssertion,
    ConceptEvaluator,
    Constant,
    ConceptName,
    Delta,
    Exists,
    FeatureSet,
    Forall,
    FuzzyRelation,
    Gci,
    Implies,
    Interpretation,
    InvNeg,
    Inverse,
    Less,
    LessUnq,
    Nominal,
    Not,
    Or,
    Role,
    RoleName,
    RoleUnion,
    SelfLoop,
    Star,
    Test,
    Universal,
    bisimilar,
    dump_interpretation,
    load_interpretation,
    reachability,
    validates,
)
from fdl.bisim import (
    _Context, _candidate_context, _ceiling, _relational_rows, _rows, _static_rows,
    _universal_rows,
)
from fdl.errors import json_text
from fdl.godel import ONE, ZERO, degree
from fdl.syntax import children

# equal degrees under several spellings, zeros among them
SPELLINGS = ("0", "0.0", F(0), 0, "0.5", "1/2", "2/4", F(1, 2), "0.25", "1/4", "3/4", "0.75",
             "1", "1.0", F(1), 1)
POOL3 = (F(0), F(1, 2), F(1))
POOL4 = (F(0), F(1, 3), F(2, 3), F(1))


def random_model(
    rng,
    prefix,
    size,
    pool=POOL3,
    concept_names=("A",),
    role_names=("r",),
    individual_names=(),
    density=0.6,
):
    domain = [f"{prefix}{i}" for i in range(size)]
    concepts = {
        name: {x: rng.choice(pool) for x in domain} for name in concept_names
    }
    roles = {}
    for name in role_names:
        edges = []
        for x in domain:
            for y in domain:
                if rng.random() < density:
                    value = rng.choice(pool)
                    if value:
                        edges.append((x, y, value))
        roles[name] = edges
    individuals = {a: rng.choice(domain) for a in individual_names}
    return Interpretation(domain, individuals, concepts, roles)


def rename_model(interp, mapping):
    """A copy of ``interp`` with elements renamed by ``mapping``."""
    domain = [mapping[x] for x in interp.domain]
    individuals = {a: mapping[x] for a, x in interp.individuals.items()}
    concepts = {
        name: {mapping[x]: v for x, v in zip(interp.domain, row) if v}
        for name, row in interp.concepts.items()
    }
    roles = {
        name: [(mapping[x], mapping[y], v) for x, y, v in interp.edges(name)]
        for name in interp.roles
    }
    return Interpretation(domain, individuals, concepts, roles)


def shuffled_copy(rng, interp, prefix):
    """An isomorphic copy of ``interp``: its elements renamed to ``prefix``
    and a number, at random, and listed in a random order."""
    names = [f"{prefix}{k}" for k in range(len(interp.domain))]
    rng.shuffle(names)
    renamed = rename_model(interp, dict(zip(interp.domain, names)))
    domain = list(renamed.domain)
    rng.shuffle(domain)
    return Interpretation(
        domain, renamed.individuals,
        {name: dict(zip(renamed.domain, row)) for name, row in renamed.concepts.items()},
        {name: list(renamed.edges(name)) for name in renamed.roles},
    )


def random_features(rng, with_bounds=True):
    q = frozenset(rng.sample([1, 2], rng.randint(0, 1))) if with_bounds else frozenset()
    n = frozenset(rng.sample([1, 2], rng.randint(0, 1))) if with_bounds else frozenset()
    return FeatureSet(
        inverse=rng.random() < 0.4,
        nominals=rng.random() < 0.4,
        universal=rng.random() < 0.3,
        self_loops=rng.random() < 0.3,
        q_bounds=q,
        n_bounds=n,
    )


def with_features(features, **changes):
    """A :class:`FeatureSet` with the fields of ``features``, but those
    named in ``changes`` set as given."""
    fields = ("inverse", "nominals", "universal", "self_loops", "q_bounds", "n_bounds")
    return FeatureSet(**{**{name: getattr(features, name) for name in fields}, **changes})


def random_role(rng, features, role_names, depth, concept_maker):
    choices = ["name"]
    if features.inverse:
        choices.append("inverse")
    if features.universal:
        choices.append("universal")
    if depth > 0:
        choices += ["compose", "union", "star", "test"]
    kind = rng.choice(choices)
    if kind == "name":
        return RoleName(rng.choice(role_names))
    if kind == "inverse":
        return Inverse(random_role(rng, features, role_names, depth - 1, concept_maker))
    if kind == "universal":
        return Universal()
    if kind == "compose":
        return Compose(
            random_role(rng, features, role_names, depth - 1, concept_maker),
            random_role(rng, features, role_names, depth - 1, concept_maker),
        )
    if kind == "union":
        return RoleUnion(
            random_role(rng, features, role_names, depth - 1, concept_maker),
            random_role(rng, features, role_names, depth - 1, concept_maker),
        )
    if kind == "star":
        return Star(random_role(rng, features, role_names, depth - 1, concept_maker))
    return Test(concept_maker(rng, depth - 1))


def random_basic_role(rng, features, role_names):
    name = RoleName(rng.choice(role_names))
    if features.inverse and rng.random() < 0.4:
        return Inverse(name)
    return name


def random_concept(
    rng,
    features,
    depth,
    pool=POOL3,
    concept_names=("A",),
    role_names=("r",),
    individual_names=(),
    extended=False,
):
    """A well-formed random concept; with ``extended`` the involutive
    negation and projection constructors are allowed too."""

    def make(rng, d):
        return random_concept(
            rng, features, d, pool, concept_names, role_names, individual_names, extended
        )

    leaves = ["constant", "name"]
    if features.nominals and individual_names:
        leaves.append("nominal")
    if features.self_loops:
        leaves.append("selfloop")
    if depth <= 0:
        kind = rng.choice(leaves)
    else:
        choices = leaves + ["not", "and", "or", "implies", "exists", "forall"]
        if extended:
            choices += ["invneg", "delta"]
        if features.q_bounds:
            choices += ["atleast", "less"]
        if features.n_bounds:
            choices += ["atleastunq", "lessunq"]
        kind = rng.choice(choices)
    if kind == "constant":
        return Constant(rng.choice(pool))
    if kind == "name":
        return ConceptName(rng.choice(concept_names))
    if kind == "nominal":
        return Nominal(rng.choice(individual_names))
    if kind == "selfloop":
        return SelfLoop(rng.choice(role_names))
    if kind == "not":
        return Not(make(rng, depth - 1))
    if kind == "invneg":
        return InvNeg(make(rng, depth - 1))
    if kind == "delta":
        return Delta(make(rng, depth - 1))
    if kind == "and":
        return And(make(rng, depth - 1), make(rng, depth - 1))
    if kind == "or":
        return Or(make(rng, depth - 1), make(rng, depth - 1))
    if kind == "implies":
        return Implies(make(rng, depth - 1), make(rng, depth - 1))
    if kind == "exists":
        return Exists(
            random_role(rng, features, role_names, depth - 1, make), make(rng, depth - 1)
        )
    if kind == "forall":
        return Forall(
            random_role(rng, features, role_names, depth - 1, make), make(rng, depth - 1)
        )
    if kind == "atleast":
        return AtLeast(
            rng.choice(sorted(features.q_bounds)),
            random_basic_role(rng, features, role_names),
            make(rng, depth - 1),
        )
    if kind == "less":
        return Less(
            rng.choice(sorted(features.q_bounds)),
            random_basic_role(rng, features, role_names),
            make(rng, depth - 1),
        )
    if kind == "atleastunq":
        return AtLeastUnq(
            rng.choice(sorted(features.n_bounds)),
            random_basic_role(rng, features, role_names),
        )
    return LessUnq(
        rng.choice(sorted(features.n_bounds)),
        random_basic_role(rng, features, role_names),
    )


def counting_hub_pair(d):
    """A hub with d graded r-successors and a copy with the successors in
    reverse order; the two hubs are isomorphic, so bisimilar."""
    models = []
    for prefix, order in (("h", range(d)), ("g", range(d - 1, -1, -1))):
        models.append(Interpretation(
            [f"{prefix}0"] + [f"{prefix}{k + 1}" for k in range(d)],
            {"a": f"{prefix}0"},
            {"A": {f"{prefix}{k + 1}": F(1 + o % 2, 2) for k, o in enumerate(order)}},
            {"r": [(f"{prefix}0", f"{prefix}{k + 1}", F(1 + o % 4, 4))
                   for k, o in enumerate(order)]},
        ))
    return models[0], models[1]


def spread_hub_pair(d):
    """A hub with d r-successors of degree 1 and distinct A degrees, and a
    copy; each hub's successors lie in d distinct blocks."""
    models = []
    for prefix in "hg":
        succ = [f"{prefix}{k}" for k in range(1, d + 1)]
        models.append(Interpretation(
            [f"{prefix}0"] + succ,
            {"a": f"{prefix}0"},
            {"A": {y: F(k, d) for k, y in enumerate(succ, 1)}},
            {"r": [(f"{prefix}0", y, F(1)) for y in succ]},
        ))
    return models[0], models[1]


def doubled_hub_pair(d, graded=False):
    """A hub whose k-th of d r-successors is the one element of concept Ak,
    and a copy whose hub has its last successor twice; the k-th edge has
    degree 1 (``graded``: k/d).  The hubs reach the same d blocks from the
    start, one successor apart, so under gapped Q bounds only their least
    sets tell them apart."""
    models = []
    for prefix, twice in (("h", 0), ("g", 1)):
        succ = range(1, d + 1 + twice)
        models.append(Interpretation(
            [f"{prefix}{k}" for k in range(d + 1 + twice)],
            {"a": f"{prefix}0"},
            {f"A{k}": {f"{prefix}{j}": F(1) for j in succ if min(j, d) == k}
             for k in range(1, d + 1)},
            {"r": [(f"{prefix}0", f"{prefix}{j}", F(min(j, d), d) if graded else F(1))
                   for j in succ]},
        ))
    return models[0], models[1]


def disjoint_union(ia, ib):
    """One model holding the elements, concepts and roles of two models with
    distinct element names, without individuals."""
    return Interpretation(
        ia.domain + ib.domain, {},
        {name: {**dict(zip(ia.domain, ia.concept_row(name))),
                **dict(zip(ib.domain, ib.concept_row(name)))}
         for name in {*ia.concepts, *ib.concepts}},
        {name: [*ia.edges(name), *ib.edges(name)] for name in {*ia.roles, *ib.roles}},
    )


def chain_pair(n, d, p, q):
    """Two r-chains of n elements with edge degree d; the last element of
    the first has A = p, that of the second A = q."""
    models = []
    for prefix, end in (("a", p), ("b", q)):
        dom = [f"{prefix}{i}" for i in range(n)]
        models.append(Interpretation(
            dom, {"a": dom[0]}, {"A": {dom[-1]: end}},
            {"r": [(dom[i], dom[i + 1], d) for i in range(n - 1)]},
        ))
    return models[0], models[1]


def shuffled_hub_pair(rng, d, perturb):
    """A hub with d r-successors, edge degrees cycling through 2/5, 3/5,
    4/5, 1 and A through 1/2, 1 every four, like the counting hubs of the
    fixpoint benchmark, and a copy with its successors shuffled; with
    ``perturb`` one edge of degree 3/5 and A = 1/2 has degree 4/5 in the copy."""
    pairs = [(F((2, 3, 4, 5)[k % 4], 5), F(1 + (k // 4) % 2, 2)) for k in range(d)]
    rng.shuffle(pairs)
    other = [edge for edge, _a in pairs]
    if perturb:
        other[pairs.index((F(3, 5), F(1, 2)))] = F(4, 5)
    order = list(range(d))
    rng.shuffle(order)
    models = []
    for prefix, edges, place in (("h", [e for e, _a in pairs], range(d)), ("g", other, order)):
        succ = [f"{prefix}{k + 1}" for k in range(d)]
        models.append(Interpretation(
            [f"{prefix}0"] + succ,
            {"a": f"{prefix}0"},
            {"A": {succ[k]: pairs[place[k]][1] for k in range(d)}},
            {"r": [(f"{prefix}0", succ[k], edges[place[k]]) for k in range(d)]},
        ))
    return models[0], models[1]


def _successor_degrees(interp, name, inverse):
    succ = {x: {} for x in interp.domain}
    for x, y, v in interp.edges(name):
        if inverse:
            x, y = y, x
        succ[x][y] = v
    return succ


def counting_subsets(ia, ib, z, features):
    """FB6(n)/FB7(n) read literally, by enumerating every n-subset S of a
    side's positive successors: yields ``(x, x', role, code, S, strength,
    rhs)`` for every pair, basic role, bound n and subset, where strength
    is the least degree in S and rhs is the n-th largest, over the other
    side's successors w, of the best min(Z, degree of w) that a member of S
    gives w (0 if w has fewer than n)."""
    cap = max(len(ia.domain), len(ib.domain))
    bounds = range(1, cap + 1) if features.q_bounds is None else sorted(features.q_bounds)
    directions = (False, True) if features.inverse else (False,)
    for name in sorted(set(ia.roles) | set(ib.roles)):
        for inverse in directions:
            label = name + "-" if inverse else name
            succ_a = _successor_degrees(ia, name, inverse)
            succ_b = _successor_degrees(ib, name, inverse)
            for x in ia.domain:
                for x2 in ib.domain:
                    sa, sb = succ_a[x], succ_b[x2]
                    sides = (
                        ("FB6", sa, sb, lambda y, w: z.at(y, w)),
                        ("FB7", sb, sa, lambda y, w: z.at(w, y)),
                    )
                    for code, mine, other, z_at in sides:
                        for n in bounds:
                            for subset in combinations(mine, n):
                                scores = sorted(
                                    (max(min(z_at(y, w), other[w]) for y in subset)
                                     for w in other),
                                    reverse=True,
                                )
                                yield (
                                    x, x2, label, f"{code}({n})", subset,
                                    min(mine[y] for y in subset),
                                    scores[n - 1] if len(scores) >= n else F(0),
                                )


def fixpoint_greatest(ia, ib, features, mode="fuzzy"):
    """The greatest bisimulation by the pairwise residuated fixpoint: start
    from each pair's static ceiling and lower every entry to its ceiling
    over the condition table, sweep after sweep, until nothing changes
    (Knaster-Tarski on the finite lattice of degree-universe matrices).
    In crisp mode a pair drops to 0 as soon as any row fails."""
    ctx = _Context(ia, ib, features)
    crisp = mode == "crisp"
    z = []  # per row, a dict from column index to rank
    for i in range(ctx.na):
        row = {j: _ceiling(_static_rows(ctx, i, j), ctx.top) for j in range(ctx.nb)}
        z.append({j: 0 if v < ctx.top else ctx.top for j, v in row.items()} if crisp else row)
    changed = True
    while changed:
        changed = False
        # Z only falls during a sweep, so these maxima can only be too
        # high; the last sweep changes nothing, so there they are exact
        universal = _universal_rows(ctx, z)
        for i in range(ctx.na):
            for j in range(ctx.nb):
                current = z[i][j]
                if current == 0:
                    continue
                rows = _relational_rows(ctx, z, i, j, universal)
                if crisp:
                    new = current if next(rows, None) is None else 0
                else:
                    new = _ceiling(rows, current)
                if new != current:
                    z[i][j] = new
                    changed = True
    return ctx.relation(z)


def condition_bound(ia, ib, z, features, x, x_prime):
    """The largest degree v such that Z(x, x') = v, every other entry of
    candidate ``z`` fixed, satisfies every condition at (x, x')."""
    ctx, ranks = _candidate_context(ia, ib, features, z)
    rows = _rows(ctx, ranks, ia.index(x), ib.index(x_prime), _universal_rows(ctx, ranks))
    return ctx.universe[_ceiling(rows, ctx.top)]


# ---------------------------------------------------------------------------
# the listing of least sets of target blocks, kept as the oracle of
# fdl.refinement._LeastSets


def least_sets_oracle(found, gapped):
    """``(role, n, T, f)`` for each basic role, gapped bound n and least set
    T of target blocks, where f is the n-th strongest degree of the
    successors in T and every proper subset of T has a weaker one;
    ``found`` maps (role, block) to the degrees of the successors there,
    strongest first."""
    least = []
    for label in {role for role, _b in found}:
        blocks = [(ds, b) for (role, b), ds in found.items() if role == label]
        for n in gapped:
            # a least set has at most n blocks
            for s in range(1, min(n, len(blocks)) + 1):
                for subset in combinations(blocks, s):
                    degrees = sorted([d for ds, _b in subset for d in ds], reverse=True)
                    if len(degrees) >= n:
                        f = degrees[n - 1]
                        # dropping the block with fewest successors of degree
                        # >= f loses the fewest
                        held = [sum([d >= f for d in ds]) for ds, _b in subset]
                        if sum(held) - min(held) < n:
                            least.append((label, n, frozenset([b for _ds, b in subset]), f))
    return frozenset(least)


# ---------------------------------------------------------------------------
# the dict-based reader of [x, y, degree] lists, kept as the oracle of
# fdl.relations.read_triples


def read_triples_oracle(items, rows, cols, what, error):
    """``{(i, j): degree}`` of a list of ``[x, y, degree]``, zero degrees
    kept, with the checks, their order and their messages of
    :func:`fdl.relations.read_triples`."""
    if not isinstance(items, (list, tuple)):
        raise error(f"{what} must be a list of [x, y, degree] triples")
    read = {}
    for item in items:
        if not (isinstance(item, (list, tuple)) and len(item) == 3
                and isinstance(item[0], str) and isinstance(item[1], str)):
            raise error(f"{what}: an entry must be [x, y, degree], got {json_text(item)}")
        x, y, d = item
        if x not in rows or y not in cols:
            raise error(f"{what} uses an unknown element in ({x}, {y})")
        pair = rows[x], cols[y]
        if pair in read:
            raise error(f"{what} lists the pair ({x}, {y}) twice")
        read[pair] = degree(d)
    return read


def oracle_lines(read, n_rows):
    """Each row's ``(column, degree)`` pairs of nonzero degree in
    ascending column order, from the oracle's dict."""
    lines = [[] for _ in range(n_rows)]
    for (i, j), d in sorted(read.items()):  # the pairs are distinct
        if d:
            lines[i].append((j, d))
    return lines


# ---------------------------------------------------------------------------
# the walk over every concept cell and edge, kept as the oracle of
# fdl.interp.degree_objects


def degree_objects_oracle(*interps):
    """Every degree object in the concept rows and role edges of the given
    interpretations, plus 0 and 1, by ``id``."""
    found = {id(ZERO): ZERO, id(ONE): ONE}
    for interp in interps:
        for row in interp.concepts.values():
            for d in row:
                found[id(d)] = d
        for succ in interp.roles.values():
            for row in succ:
                for _j, d in row:
                    found[id(d)] = d
    return found


def degree_ranks_oracle(*interps):
    """The distinct degrees of :func:`degree_objects_oracle` in increasing
    order, compared as Fractions, and each object's place among them by
    ``id``."""
    found = degree_objects_oracle(*interps)
    values = sorted(set(found.values()))
    return tuple(values), {key: values.index(d) for key, d in found.items()}


# ---------------------------------------------------------------------------
# the entries-based table of fdl.cli, kept as the oracle of fdl.cli._matrix_table


def matrix_table_oracle(rows, cols, entries):
    """A relation as a table, one line at a time: its ``[x, y, text]``
    entries fill their cells, and every other cell reads 0.  The widths come
    from the header, the row names and the entries, none narrower than 0."""
    place = {y: k for k, y in enumerate(cols)}
    listed = {x: [] for x in rows}
    widths = [max(len(y), 1 if rows else 0) for y in cols]
    for x, y, text in entries:
        k = place[y]
        listed[x].append((k, text))
        widths[k] = max(widths[k], len(text))
    first = max(map(len, rows), default=0)
    yield "  ".join(map(str.ljust, ["", *cols], [first, *widths])).rstrip()
    zeros = ["0".ljust(w) for w in widths]
    for x in rows:
        cells = zeros.copy()
        for k, text in listed[x]:
            cells[k] = text.ljust(widths[k])
        yield "  ".join([x.ljust(first), *cells]).rstrip()


# ---------------------------------------------------------------------------
# the relation algebra: bisimulations are closed under inverse, composition,
# sup and a cap by a constant.  The oracles work on dense matrices.


def dense(rel):
    """The n_a x n_b matrix of degrees of a relation with ``rows``,
    ``cols`` and ``nonzero()``."""
    place = {y: j for j, y in enumerate(rel.cols)}
    matrix = {x: [F(0)] * len(rel.cols) for x in rel.rows}
    for x, y, v in rel.nonzero():
        matrix[x][place[y]] = v
    return list(matrix.values())


def from_matrix(rows, cols, matrix):
    """The :class:`FuzzyRelation` of a matrix of degrees."""
    lines = []
    for row in matrix:
        row = [F(v) for v in row]
        ys = [j for j, v in enumerate(row) if v]
        lines.append((ys, [row[j] for j in ys]))
    return FuzzyRelation(rows, cols, lines)


def role_relation(interp, role):
    """The relation that ``role`` denotes on ``interp``: R(a, b) is the
    value of ``exists R . {b}`` at a, graded on a copy of ``interp`` in
    which each element is also an individual of its own name."""
    document = dump_interpretation(interp)
    for x in interp.domain:
        assert document["individuals"].setdefault(x, x) == x, f"{x!r} names another element"
    evaluator = ConceptEvaluator(load_interpretation(document))
    columns = [evaluator.concept_values(Exists(role, Nominal(b))) for b in interp.domain]
    return from_matrix(interp.domain, interp.domain, zip(*columns))


def identity(elements):
    return from_matrix(elements, elements, [[int(x == y) for y in elements] for x in elements])


def constant(rows, cols, value):
    return from_matrix(rows, cols, [[value] * len(cols) for _ in rows])


def cells(rel):
    """``(x, y, degree)`` for every pair of ``rel``, row by row."""
    return [(x, y, v) for x, row in zip(rel.rows, dense(rel)) for y, v in zip(rel.cols, row)]


def inverse(rel):
    return from_matrix(rel.cols, rel.rows, zip(*dense(rel)))


def compose(left, right):
    """The max-min product; the columns of ``left`` are the rows of ``right``."""
    columns = list(zip(*dense(right)))
    return from_matrix(left.rows, right.cols, [
        [max(map(min, row, column)) for column in columns] for row in dense(left)
    ])


def rel_sup(relations):
    """The pointwise max of a nonempty list of relations over the same elements."""
    return from_matrix(relations[0].rows, relations[0].cols, [
        [max(values) for values in zip(*rows)] for rows in zip(*map(dense, relations))
    ])


def cap(rel, bound):
    """The pointwise min with a constant degree."""
    return from_matrix(rel.rows, rel.cols, [[min(v, bound) for v in row] for row in dense(rel)])


def pointwise_leq(smaller, larger):
    return all(a <= b for r, s in zip(dense(smaller), dense(larger)) for a, b in zip(r, s))


# ---------------------------------------------------------------------------
# the sublanguages and the rewrites between them


class Sublanguage(Enum):
    """The five nested grammars the tests distinguish.

    CORE                no involutive negation at all
    CORE_EXISTENTIAL    CORE minus composite roles, Goedel negation,
                        disjunction, value restrictions and "< n" forms;
                        implication only against constants unless a Q bound
                        is enabled; ``fdl hm --fragment prime`` enumerates it
    EXTENDED            everything, involutive negation included
    DELTA               EXTENDED, but involutive negation only inside the
                        Baaz projection
    DELTA_EXISTENTIAL   the existential restriction of DELTA; implication
                        only against constants, negations only as the Baaz
                        projection; ``fdl hm --fragment delta`` enumerates it
    """

    CORE = "core"
    CORE_EXISTENTIAL = "core-existential"
    EXTENDED = "extended"
    DELTA = "delta"
    DELTA_EXISTENTIAL = "delta-existential"


def rewrite_definable(c):
    """``c`` with Goedel negation and disjunction written through
    implication, bottom-up: ``not C`` is ``C -> 0`` and ``C or D`` is
    ``((C -> D) -> D) and ((D -> C) -> C)``; the Baaz projection unfolds to
    ``not inv C`` first, and involutive negation stays."""
    if isinstance(c, Delta):
        return rewrite_definable(Not(InvNeg(c.concept)))
    if isinstance(c, Not):
        return Implies(rewrite_definable(c.concept), Constant(F(0)))
    if isinstance(c, Or):
        left, right = rewrite_definable(c.left), rewrite_definable(c.right)
        return And(Implies(Implies(left, right), right), Implies(Implies(right, left), left))
    return type(c)(*[
        rewrite_definable(getattr(c, name)) if name in c._children else getattr(c, name)
        for name in c._fields
    ])


def _usage(expr, found):
    """Add to ``found`` the constructs of ``expr`` that sublanguages restrict."""
    if isinstance(expr, Not) and isinstance(expr.concept, InvNeg):
        # the Baaz shape: this pair of negations is sanctioned
        found |= {"invneg", "not"}
        _usage(expr.concept.concept, found)
        return
    if isinstance(expr, Delta):
        found.add("invneg")
    elif isinstance(expr, Not):
        found |= {"not", "loose not"}
    elif isinstance(expr, InvNeg):
        found |= {"invneg", "loose invneg"}
    elif isinstance(expr, Implies):
        if not isinstance(expr.left, Constant) and not isinstance(expr.right, Constant):
            found.add("free implies")
    elif isinstance(expr, (Or, Forall, Less, LessUnq, Compose, RoleUnion, Star, Test)) or (
        isinstance(expr, Inverse) and not isinstance(expr.role, RoleName)
    ):
        found.add("not existential")
    for child in children(expr):
        _usage(child, found)


def classify_sublanguage(c, features):
    """The set of sublanguages whose grammar admits concept ``c``."""
    found = set()
    _usage(c, found)
    tags = {Sublanguage.EXTENDED}
    if "invneg" not in found:
        tags.add(Sublanguage.CORE)
    if "loose invneg" not in found:
        tags.add(Sublanguage.DELTA)
    if "not existential" not in found:
        if not found & {"invneg", "not"} and (
            features.has_qualified() or "free implies" not in found
        ):
            tags.add(Sublanguage.CORE_EXISTENTIAL)
        if not found & {"loose invneg", "loose not", "free implies"}:
            tags.add(Sublanguage.DELTA_EXISTENTIAL)
    return frozenset(tags)


# ---------------------------------------------------------------------------
# preservation of boxes under bisimilarity


def _involutive(expr):
    return isinstance(expr, (InvNeg, Delta)) or any(map(_involutive, children(expr)))


def theorem_applies(ia, ib, features, mode, items):
    """Whether the paper's preservation theorem covers ``items`` on two
    models: they are bisimilar in ``mode``; in fuzzy mode no concept uses
    involutive negation; inclusions need U, or crisp mode and connected
    models; assertions need O, or concept assertions only."""
    if not bisimilar(ia, ib, features, mode).holds:
        return False
    if mode == "fuzzy" and any(
        _involutive(part) for item in items
        for part in (getattr(item, name, None) for name in ("concept", "role", "lhs", "rhs"))
        if isinstance(part, (Concept, Role))
    ):
        return False
    if any(isinstance(item, Gci) for item in items) and not (
        features.universal
        or mode == "crisp" and reachability(ia, features)[1] and reachability(ib, features)[1]
    ):
        return False
    return features.nominals or all(
        isinstance(item, (Gci, ConceptAssertion)) for item in items
    )


def same_verdicts(ia, ib, items):
    """Does each item hold on both models or on neither?"""
    return all(validates(ia, [item]).valid == validates(ib, [item]).valid for item in items)
