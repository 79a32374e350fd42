import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from fdl import (
    BudgetError,
    FeatureSet,
    FuzzyRelation,
    InputError,
    Interpretation,
    ModelError,
    bisimilar,
    brute_force_greatest,
    check_bisim,
    degree_universe,
    dump_relation,
    greatest_bisim,
    load_relation,
)
from fdl.fixtures import (
    ALL_BUT_UNIVERSAL,
    ALL_FEATURES,
    HUB_PAIR_GREATEST,
    LEAF_TRIPLE_GREATEST,
    edge_pair,
    fold_pair,
    hub_pair,
    leaf_triple_pair,
    point_pair,
)
from fdl.bisim import _Context
from fdl.syntax import MODES
from fdl.godel import ONE, ZERO, format_degree
from fdl.interp import degree_objects, degree_ranks, dump_interpretation, load_interpretation
from fdl.minimize import strong_partition
from helpers import (
    POOL3, POOL4, cap, cells, chain_pair, compose, condition_bound, constant,
    counting_hub_pair, counting_subsets, dense, disjoint_union, doubled_hub_pair,
    fixpoint_greatest, from_matrix, identity, inverse, random_features, random_model, rel_sup,
    rename_model, shuffled_copy, shuffled_hub_pair, spread_hub_pair, with_features,
)

NO_FEATURES = FeatureSet.none()


# check_bisim's full report on fold_pair() under I,O,U,Self,Q1,Q2,N2 with Z = 1,
# except 1/2 on the row of v3 and the column of v2': (condition, x, x', role,
# name, witness, lhs, rhs) in report order.  FB6 over u's three successors
# enumerates subsets; FB7 over u''s two comes from a matching.
FOLD_REPORT = [
    ('FB3', 'u', "u'", 'r', None, ('v2',), '0.6', '0.5'),
    ('FB4', 'u', "u'", 'r', None, ("v2'",), '0.6', '0.5'),
    ('FB8', 'u', "u'", None, None, ('v3',), '1', '0.5'),
    ('FB9', 'u', "u'", None, None, ("v2'",), '1', '0.5'),
    ('FB7(1)', 'u', "u'", 'r', None, ("v2'",), '0.6', '0.5'),
    ('FB6(1)', 'u', "u'", 'r', None, ('v2',), '0.6', '0.5'),
    ('FB2', 'u', "v1'", None, 'A', None, '1', '0'),
    ('FB5', 'u', "v1'", None, 'a', None, '1', '0'),
    ('FB3', 'u', "v1'", 'r', None, ('v1',), '0.5', '0'),
    ('FB3', 'u', "v1'", 'r', None, ('v2',), '0.6', '0'),
    ('FB3', 'u', "v1'", 'r', None, ('v3',), '0.3', '0'),
    ('FB4', 'u', "v1'", 'r-', None, ("u'",), '0.5', '0'),
    ('FB8', 'u', "v1'", None, None, ('v3',), '1', '0.5'),
    ('FB9', 'u', "v1'", None, None, ("v2'",), '1', '0.5'),
    ('FB7(1)', 'u', "v1'", 'r-', None, ("u'",), '0.5', '0'),
    ('FB6(1)', 'u', "v1'", 'r', None, ('v1',), '0.5', '0'),
    ('FB6(1)', 'u', "v1'", 'r', None, ('v2',), '0.6', '0'),
    ('FB6(1)', 'u', "v1'", 'r', None, ('v3',), '0.3', '0'),
    ('FB6(2)', 'u', "v1'", 'r', None, ('v1', 'v2'), '0.5', '0'),
    ('FB6(2)', 'u', "v1'", 'r', None, ('v1', 'v3'), '0.3', '0'),
    ('FB6(2)', 'u', "v1'", 'r', None, ('v2', 'v3'), '0.3', '0'),
    ('FB6n(2)', 'u', "v1'", 'r', None, None, '0.5', '0'),
    ('FB2', 'u', "v2'", None, 'A', None, '0.5', '0'),
    ('FB5', 'u', "v2'", None, 'a', None, '0.5', '0'),
    ('FB3', 'u', "v2'", 'r', None, ('v1',), '0.5', '0'),
    ('FB3', 'u', "v2'", 'r', None, ('v2',), '0.5', '0'),
    ('FB3', 'u', "v2'", 'r', None, ('v3',), '0.3', '0'),
    ('FB4', 'u', "v2'", 'r-', None, ("u'",), '0.5', '0'),
    ('FB7(1)', 'u', "v2'", 'r-', None, ("u'",), '0.5', '0'),
    ('FB6(1)', 'u', "v2'", 'r', None, ('v1',), '0.5', '0'),
    ('FB6(1)', 'u', "v2'", 'r', None, ('v2',), '0.5', '0'),
    ('FB6(1)', 'u', "v2'", 'r', None, ('v3',), '0.3', '0'),
    ('FB6(2)', 'u', "v2'", 'r', None, ('v1', 'v2'), '0.5', '0'),
    ('FB6(2)', 'u', "v2'", 'r', None, ('v1', 'v3'), '0.3', '0'),
    ('FB6(2)', 'u', "v2'", 'r', None, ('v2', 'v3'), '0.3', '0'),
    ('FB6n(2)', 'u', "v2'", 'r', None, None, '0.5', '0'),
    ('FB2', 'v1', "u'", None, 'A', None, '1', '0'),
    ('FB5', 'v1', "u'", None, 'a', None, '1', '0'),
    ('FB4', 'v1', "u'", 'r', None, ("v1'",), '0.5', '0'),
    ('FB4', 'v1', "u'", 'r', None, ("v2'",), '0.6', '0'),
    ('FB3', 'v1', "u'", 'r-', None, ('u',), '0.5', '0'),
    ('FB8', 'v1', "u'", None, None, ('v3',), '1', '0.5'),
    ('FB9', 'v1', "u'", None, None, ("v2'",), '1', '0.5'),
    ('FB7(1)', 'v1', "u'", 'r', None, ("v1'",), '0.5', '0'),
    ('FB6(1)', 'v1', "u'", 'r-', None, ('u',), '0.5', '0'),
    ('FB7n(2)', 'v1', "u'", 'r', None, None, '0.5', '0'),
    ('FB8', 'v1', "v1'", None, None, ('v3',), '1', '0.5'),
    ('FB9', 'v1', "v1'", None, None, ("v2'",), '1', '0.5'),
    ('FB2', 'v2', "u'", None, 'A', None, '1', '0'),
    ('FB5', 'v2', "u'", None, 'a', None, '1', '0'),
    ('FB4', 'v2', "u'", 'r', None, ("v1'",), '0.5', '0'),
    ('FB4', 'v2', "u'", 'r', None, ("v2'",), '0.6', '0'),
    ('FB3', 'v2', "u'", 'r-', None, ('u',), '0.6', '0'),
    ('FB8', 'v2', "u'", None, None, ('v3',), '1', '0.5'),
    ('FB9', 'v2', "u'", None, None, ("v2'",), '1', '0.5'),
    ('FB7(1)', 'v2', "u'", 'r', None, ("v1'",), '0.5', '0'),
    ('FB6(1)', 'v2', "u'", 'r-', None, ('u',), '0.6', '0'),
    ('FB7n(2)', 'v2', "u'", 'r', None, None, '0.5', '0'),
    ('FB2', 'v2', "v1'", None, 'A', None, '1', '0.7'),
    ('FB3', 'v2', "v1'", 'r-', None, ('u',), '0.6', '0.5'),
    ('FB8', 'v2', "v1'", None, None, ('v3',), '1', '0.5'),
    ('FB9', 'v2', "v1'", None, None, ("v2'",), '1', '0.5'),
    ('FB6(1)', 'v2', "v1'", 'r-', None, ('u',), '0.6', '0.5'),
    ('FB2', 'v3', "u'", None, 'A', None, '0.5', '0'),
    ('FB5', 'v3', "u'", None, 'a', None, '0.5', '0'),
    ('FB4', 'v3', "u'", 'r', None, ("v1'",), '0.5', '0'),
    ('FB4', 'v3', "u'", 'r', None, ("v2'",), '0.5', '0'),
    ('FB3', 'v3', "u'", 'r-', None, ('u',), '0.3', '0'),
    ('FB7(1)', 'v3', "u'", 'r', None, ("v1'",), '0.5', '0'),
    ('FB6(1)', 'v3', "u'", 'r-', None, ('u',), '0.3', '0'),
    ('FB7n(2)', 'v3', "u'", 'r', None, None, '0.5', '0'),
    ('FB4', 'v3', "v1'", 'r-', None, ("u'",), '0.5', '0.3'),
    ('FB7(1)', 'v3', "v1'", 'r-', None, ("u'",), '0.5', '0.3'),
    ('FB4', 'v3', "v2'", 'r-', None, ("u'",), '0.5', '0.3'),
    ('FB7(1)', 'v3', "v2'", 'r-', None, ("u'",), '0.5', '0.3'),
]


def entries(rows, cols, triples):
    return FuzzyRelation.from_entries(rows, cols, triples)


class TestCheckBisim:
    def test_hub_stated_relation_passes(self):
        ia, ib = hub_pair()
        report = check_bisim(ia, ib, HUB_PAIR_GREATEST, NO_FEATURES)
        assert report.satisfied and not report.violations

    def test_hub_raised_entry_fails_back_condition(self):
        ia, ib = hub_pair()
        raised = entries(
            ia.domain,
            ib.domain,
            [
                ("u", "u'", F(9, 10)),
                ("v", "v'", F(1)),
                ("w", "w'", F(1)),
                ("v", "w'", F(4, 5)),
                ("w", "v'", F(4, 5)),
            ],
        )
        report = check_bisim(ia, ib, raised, NO_FEATURES)
        assert not report.satisfied
        v = report.violations[0]
        assert (v.condition, v.x, v.x_prime) == ("FB4", "u", "u'")
        assert v.witness == ("v'",)
        assert (v.lhs, v.rhs) == (F(9, 10), F(4, 5))

    def test_fold_inverse_feature_breaks_stated_relation(self):
        ia, ib = fold_pair()
        stated = entries(
            ia.domain,
            ib.domain,
            [("u", "u'", 1), ("v1", "v1'", 1), ("v2", "v2'", 1), ("v3", "v2'", 1)],
        )
        assert check_bisim(ia, ib, stated, NO_FEATURES).satisfied
        report = check_bisim(ia, ib, stated, FeatureSet(inverse=True))
        assert not report.satisfied
        hit = [v for v in report.violations if (v.x, v.x_prime) == ("v3", "v2'")]
        assert hit and hit[0].role == "r-"
        assert {hit[0].lhs, hit[0].rhs} == {F(3, 5), F(3, 10)}

    def test_counting_condition_reports_bound_and_subset(self):
        ia, ib = fold_pair()
        stated = entries(
            ia.domain,
            ib.domain,
            [("u", "u'", 1), ("v1", "v1'", 1), ("v2", "v2'", 1), ("v3", "v2'", 1)],
        )
        report = check_bisim(ia, ib, stated, FeatureSet(q_bounds=frozenset({2})))
        assert not report.satisfied
        forth = [v for v in report.violations if v.condition == "FB6(2)"]
        assert forth and forth[0].x == "u"
        assert set(forth[0].witness) == {"v2", "v3"}

    def test_candidate_degree_outside_both_models(self):
        # 37/100 occurs in neither model, so the candidate's own values join
        # the degree universe; reported degrees and the bound stay exact
        ia, ib = hub_pair()
        z = entries(
            ia.domain,
            ib.domain,
            [("u", "u'", F(9, 10)), ("v", "v'", 1), ("w", "w'", F(37, 100))],
        )
        report = check_bisim(ia, ib, z, NO_FEATURES)
        got = [
            (v.condition, v.x, v.x_prime, v.role, v.witness, v.lhs, v.rhs)
            for v in report.violations
        ]
        assert got == [
            ("FB3", "u", "u'", "r", ("w",), F(9, 10), F(37, 100)),
            ("FB4", "u", "u'", "r", ("v'",), F(9, 10), F(7, 10)),
            ("FB4", "u", "u'", "r", ("w'",), F(9, 10), F(37, 100)),
        ]
        assert all(type(v.lhs) is F and type(v.rhs) is F for v in report.violations)
        bound = condition_bound(ia, ib, z, NO_FEATURES, "u", "u'")
        assert bound == F(37, 100) and type(bound) is F
        patched = entries(
            ia.domain,
            ib.domain,
            [("u", "u'", bound), ("v", "v'", 1), ("w", "w'", F(37, 100))],
        )
        assert check_bisim(ia, ib, patched, NO_FEATURES).satisfied

    def test_candidate_relation_mode_invariant(self):
        with pytest.raises(InputError):
            load_relation({"mode": "crisp", "entries": [["a", "b", "1/2"]]}, ["a"], ["b"])
        with pytest.raises(InputError):
            load_relation({"mode": "sharp", "entries": [["a", "b", "1"]]}, ["a"], ["b"])

    def test_index_mismatch(self):
        ia, ib = hub_pair()
        with pytest.raises(InputError):
            check_bisim(ia, ib, identity(ia.domain), NO_FEATURES)

    def test_fold_pair_report_pinned(self):
        ia, ib = fold_pair()
        z = from_matrix(ia.domain, ib.domain, [
            [F(1, 2) if x == "v3" or y == "v2'" else F(1) for y in ib.domain]
            for x in ia.domain
        ])
        report = check_bisim(ia, ib, z, FeatureSet.parse("I,O,U,Self,Q1,Q2,N2"))
        assert [
            (v.condition, v.x, v.x_prime, v.role, v.symbol, v.witness,
             format_degree(v.lhs), format_degree(v.rhs))
            for v in report.violations
        ] == FOLD_REPORT


class TestCandidateStorage:
    """The checker reads a candidate's nonzero entries, whether built or
    loaded from its document."""

    def test_every_storage_gets_the_same_report(self):
        rng = random.Random(167)
        failing = 0
        for _ in range(80):
            ia = random_model(rng, "x", rng.randint(1, 4), POOL4, individual_names=("a",))
            ib = random_model(rng, "y", rng.randint(1, 4), POOL4, individual_names=("a",))
            features = random_features(rng)
            greatest = greatest_bisim(ia, ib, features, rng.choice(MODES))
            drawn = from_matrix(ia.domain, ib.domain, [
                [rng.choice(POOL4) for _ in ib.domain] for _ in ia.domain
            ])
            for rel, is_greatest in ((drawn, False), (greatest, True)):
                forms = [rel, load_relation(dump_relation(rel, "fuzzy"), ia.domain, ib.domain)]
                reports = [check_bisim(ia, ib, z, features) for z in forms]
                assert all(report == reports[0] for report in reports[1:])
                assert reports[0].satisfied or not is_greatest
                failing += not reports[0].satisfied
        assert failing >= 40

    def test_check_builds_no_dense_matrix(self):
        # a 1500-element model with out-degree 3 and a renamed copy, related
        # one to one: 1500 entries against 2.25 million pairs, whose rank
        # table alone would take tens of MB
        rng = random.Random(173)
        n = 1500
        domain = [f"x{i}" for i in range(n)]
        ia = Interpretation(
            domain, {}, {"A": {x: F(rng.randint(1, 100), 100) for x in domain}},
            {"r": [(x, y, F(rng.randint(1, 100), 100))
                   for x in domain for y in rng.sample(domain, 3)]},
        )
        ib = rename_model(ia, {x: x + "'" for x in domain})
        z = FuzzyRelation.from_entries(
            ia.domain, ib.domain, [(x, x + "'", "1") for x in domain]
        )
        tracemalloc.start()
        try:
            report = check_bisim(ia, ib, z, FeatureSet.parse("I"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.satisfied
        assert peak < 10 * 2**20, peak


class TestConditionBound:
    def test_hub_bound_after_atomic_initialization(self):
        ia, ib = hub_pair()
        start = entries(
            ia.domain,
            ib.domain,
            [
                ("u", "u'", 1),
                ("v", "v'", 1),
                ("w", "w'", 1),
                ("v", "w'", F(4, 5)),
                ("w", "v'", F(4, 5)),
            ],
        )
        assert condition_bound(ia, ib, start, NO_FEATURES, "u", "u'") == F(4, 5)
        # under the all-ones relation nothing binds yet at this pair
        allones = constant(ia.domain, ib.domain, F(1))
        assert condition_bound(ia, ib, allones, NO_FEATURES, "u", "u'") == 1

    def test_atomic_difference_caps_bound(self):
        ia, ib = hub_pair()
        allones = constant(ia.domain, ib.domain, F(1))
        assert condition_bound(ia, ib, allones, NO_FEATURES, "v", "w'") == F(4, 5)
        assert condition_bound(ia, ib, allones, NO_FEATURES, "u", "w'") == 0

    def test_point_pair_bound(self):
        ia, ib = point_pair()
        allones = constant(ia.domain, ib.domain, F(1))
        assert condition_bound(ia, ib, allones, ALL_FEATURES, "v", "v") == F(1, 2)

    def test_candidate_must_be_indexed_by_the_domains(self):
        ia, ib = hub_pair()  # 3 x 3
        elsewhere = constant(["p", "q"], ["s", "t", "w"], F(1))
        reordered = constant(tuple(reversed(ia.domain)), ib.domain, F(1))
        for z in (elsewhere, reordered):
            with pytest.raises(InputError):
                condition_bound(ia, ib, z, NO_FEATURES, "u", "u'")
            with pytest.raises(InputError):
                check_bisim(ia, ib, z, NO_FEATURES)

    def test_exactness_against_local_violation_oracle(self):
        # the bound is the exact threshold: any universe value above it
        # breaks some condition at the pair, anything at or below breaks none
        rng = random.Random(113)
        for _ in range(25):
            ia = random_model(rng, "x", rng.randint(1, 3), POOL3, individual_names=("a",))
            ib = random_model(rng, "y", rng.randint(1, 3), POOL3, individual_names=("a",))
            features = random_features(rng)
            z = from_matrix(
                ia.domain,
                ib.domain,
                [[rng.choice(POOL3) for _ in ib.domain] for _ in ia.domain],
            )
            x = rng.choice(ia.domain)
            y = rng.choice(ib.domain)
            bound = condition_bound(ia, ib, z, features, x, y)
            for value in degree_universe(ia, ib):
                patched = dense(z)
                patched[ia.domain.index(x)][ib.domain.index(y)] = value
                report = check_bisim(
                    ia, ib, from_matrix(ia.domain, ib.domain, patched), features
                )
                local = [
                    v for v in report.violations if (v.x, v.x_prime) == (x, y)
                ]
                assert bool(local) == (value > bound), (x, y, value, bound)

    def test_unqualified_counting_against_subset_oracle(self):
        # the implementation only inspects the n strongest successors; the
        # oracle enumerates every subset of positives as the condition reads
        from itertools import combinations

        rng = random.Random(127)
        for _ in range(40):
            ia = random_model(rng, "x", rng.randint(1, 3), POOL3, density=0.8)
            ib = random_model(rng, "y", rng.randint(1, 3), POOL3, density=0.8)
            n = rng.randint(1, 3)
            features = FeatureSet(n_bounds=frozenset({n}))
            z = from_matrix(
                ia.domain,
                ib.domain,
                [[rng.choice(POOL3) for _ in ib.domain] for _ in ia.domain],
            )
            report = check_bisim(ia, ib, z, features)
            got = {
                (v.x, v.x_prime, v.role, v.condition)
                for v in report.violations
                if v.condition.startswith(("FB6n", "FB7n"))
            }
            expected = set()
            rel_a, rel_b = (
                FuzzyRelation.from_entries(m.domain, m.domain, list(m.edges("r")))
                for m in (ia, ib)
            )
            for x in ia.domain:
                for y in ib.domain:
                    val = z.at(x, y)
                    if val == 0:
                        continue
                    succ_a = [t for t in ia.domain if rel_a.at(x, t) > 0]
                    for subset in combinations(succ_a, n):
                        tau = min([val] + [rel_a.at(x, t) for t in subset])
                        witnesses = sum(
                            1 for t in ib.domain if rel_b.at(y, t) >= tau
                        )
                        if witnesses < n:
                            expected.add((x, y, "r", f"FB6n({n})"))
                    succ_b = [t for t in ib.domain if rel_b.at(y, t) > 0]
                    for subset in combinations(succ_b, n):
                        tau = min([val] + [rel_b.at(y, t) for t in subset])
                        witnesses = sum(
                            1 for t in ia.domain if rel_a.at(x, t) >= tau
                        )
                        if witnesses < n:
                            expected.add((x, y, "r", f"FB7n({n})"))
            assert got == expected

    def test_qualified_counting_against_witness_search_oracle(self):
        # oracle restates the condition literally: some n-subset of distinct
        # candidates on the other side works, each candidate backed by some
        # member of the given subset
        from itertools import combinations

        rng = random.Random(131)
        for _ in range(40):
            ia = random_model(rng, "x", rng.randint(1, 3), POOL3, density=0.8)
            ib = random_model(rng, "y", rng.randint(1, 3), POOL3, density=0.8)
            n = rng.randint(1, 2)
            features = FeatureSet(q_bounds=frozenset({n}))
            z = from_matrix(
                ia.domain,
                ib.domain,
                [[rng.choice(POOL3) for _ in ib.domain] for _ in ia.domain],
            )
            report = check_bisim(ia, ib, z, features)
            got = {
                (v.x, v.x_prime, v.condition, frozenset(v.witness))
                for v in report.violations
                if v.condition.startswith(("FB6(", "FB7("))
            }
            expected = set()
            rel_a, rel_b = (
                FuzzyRelation.from_entries(m.domain, m.domain, list(m.edges("r")))
                for m in (ia, ib)
            )

            def satisfied(tau, subset, candidates, z_at, rel):
                for witnesses in combinations(candidates, n):
                    if all(
                        any(min(z_at(j, w), rel(w)) >= tau for j in subset)
                        for w in witnesses
                    ):
                        return True
                return False

            for x in ia.domain:
                for y in ib.domain:
                    val = z.at(x, y)
                    if val == 0:
                        continue
                    succ_a = [t for t in ia.domain if rel_a.at(x, t) > 0]
                    for subset in combinations(succ_a, n):
                        tau = min([val] + [rel_a.at(x, t) for t in subset])
                        if not satisfied(
                            tau, subset, ib.domain,
                            lambda j, w: z.at(j, w), lambda w: rel_b.at(y, w),
                        ):
                            expected.add((x, y, f"FB6({n})", frozenset(subset)))
                    succ_b = [t for t in ib.domain if rel_b.at(y, t) > 0]
                    for subset in combinations(succ_b, n):
                        tau = min([val] + [rel_b.at(y, t) for t in subset])
                        if not satisfied(
                            tau, subset, ia.domain,
                            lambda j, w: z.at(w, j), lambda w: rel_a.at(x, w),
                        ):
                            expected.add((x, y, f"FB7({n})", frozenset(subset)))
            assert got == expected

    def test_monotone_in_relation(self):
        rng = random.Random(71)
        for _ in range(40):
            ia = random_model(rng, "x", rng.randint(1, 3), POOL4, individual_names=("a",))
            ib = random_model(rng, "y", rng.randint(1, 3), POOL4, individual_names=("a",))
            features = random_features(rng)
            big = from_matrix(
                ia.domain,
                ib.domain,
                [[rng.choice(POOL4) for _ in ib.domain] for _ in ia.domain],
            )
            small = cap(big, rng.choice(POOL4))
            for x in ia.domain:
                for y in ib.domain:
                    lo = condition_bound(ia, ib, small, features, x, y)
                    hi = condition_bound(ia, ib, big, features, x, y)
                    assert lo <= hi


class TestGreatest:
    def test_hub_matrix(self):
        ia, ib = hub_pair()
        result = greatest_bisim(ia, ib, NO_FEATURES, "fuzzy")
        assert result == HUB_PAIR_GREATEST

    def test_point_pair(self):
        ia, ib = point_pair()
        assert greatest_bisim(ia, ib, ALL_FEATURES, "fuzzy").at("v", "v") == F(1, 2)

    def test_edge_pair(self):
        ia, ib = edge_pair()
        z = greatest_bisim(ia, ib, ALL_BUT_UNIVERSAL, "fuzzy")
        assert z == entries(
            ia.domain, ib.domain, [("u", "u'", 1), ("v", "v'", F(9, 10))]
        )

    def test_leaf_triple(self):
        ia, ib = leaf_triple_pair()
        z = greatest_bisim(ia, ib, ALL_FEATURES, "fuzzy")
        assert z == LEAF_TRIPLE_GREATEST

    def test_sound_and_entries_in_degree_universe(self):
        rng = random.Random(79)
        for _ in range(30):
            ia = random_model(rng, "x", rng.randint(1, 4), POOL4, individual_names=("a",))
            ib = random_model(rng, "y", rng.randint(1, 4), POOL4, individual_names=("a",))
            features = random_features(rng)
            universe = set(degree_universe(ia, ib))
            for mode in ("fuzzy", "crisp"):
                z = greatest_bisim(ia, ib, features, mode)
                assert check_bisim(ia, ib, z, features).satisfied
                assert all(v in universe for _x, _y, v in cells(z))

    def test_matches_brute_force(self):
        rng = random.Random(83)
        for _ in range(10):
            ia = random_model(rng, "x", rng.randint(1, 3), POOL3, individual_names=("a",))
            ib = random_model(rng, "y", rng.randint(1, 3), POOL3, individual_names=("a",))
            features = random_features(rng)
            for mode in ("fuzzy", "crisp"):
                fix = greatest_bisim(ia, ib, features, mode)
                oracle = brute_force_greatest(ia, ib, features, mode)
                assert fix == oracle

    @pytest.mark.parametrize("features", ["", "I,O"])
    def test_chain_closed_form_beyond_brute_force(self, features):
        # deep propagation on 14 x 14 pairs, far past brute_force_greatest:
        # the end atoms differ (p < q < d), and the difference travels the
        # whole chain, so only the diagonal survives, at degree p
        d, p, q = F(4, 5), F(1, 5), F(3, 5)
        ia, ib = chain_pair(14, d, p, q)
        fs = FeatureSet.parse(features)
        diagonal = [(f"a{i}", f"b{i}", p) for i in range(14)]
        fuzzy = greatest_bisim(ia, ib, fs, "fuzzy")
        assert fuzzy == entries(ia.domain, ib.domain, diagonal)
        crisp = greatest_bisim(ia, ib, fs, "crisp")
        assert crisp == entries(ia.domain, ib.domain, [])

    def test_brute_force_budget_guard(self):
        rng = random.Random(89)
        ia = random_model(rng, "x", 5, POOL4)
        ib = random_model(rng, "y", 5, POOL4)
        with pytest.raises(BudgetError):
            brute_force_greatest(ia, ib, NO_FEATURES)

    def test_brute_force_fixtures(self):
        ia, ib = point_pair()
        assert brute_force_greatest(ia, ib, ALL_FEATURES, "fuzzy").at("v", "v") == F(1, 2)
        one = Interpretation(["p"], concepts={"A": {"p": F(1)}})
        two = Interpretation(["q"], concepts={"A": {"q": F(1)}})
        assert brute_force_greatest(one, two, NO_FEATURES, "crisp").at("p", "q") == 1

    def test_invalid_mode_rejected(self):
        ia, ib = point_pair()
        with pytest.raises(InputError):
            greatest_bisim(ia, ib, NO_FEATURES, "sharp")
        with pytest.raises(InputError):
            brute_force_greatest(ia, ib, NO_FEATURES, "sharp")


class TestUniversalRole:
    # the FB8/FB9 row and column maxima of Z are computed once per sweep of
    # the fixpoint and once per call of check_bisim and condition_bound

    @staticmethod
    def ring(n):
        dom = [f"x{i}" for i in range(n)]
        return Interpretation(
            dom, {}, {"A": {x: F(1, 2) for x in dom}},
            {"r": [(dom[i], dom[(i + 1) % n], F(3, 4)) for i in range(n)]},
        )

    def test_uniform_ring_same_under_u(self):
        ring = self.ring(90)
        with_u = greatest_bisim(ring, ring, FeatureSet.parse("I,U"), "crisp")
        without = greatest_bisim(ring, ring, FeatureSet.parse("I"), "crisp")
        assert with_u == without
        assert with_u == constant(ring.domain, ring.domain, 1)

    def test_unmatched_element_empties_relation(self):
        # w has no partner, so its FB9 column maximum is 0 at every pair
        one = Interpretation(["u"], concepts={"A": {"u": 1}})
        two = Interpretation(["v", "w"], concepts={"A": {"v": 1}})
        u = FeatureSet(universal=True)
        for mode in ("fuzzy", "crisp"):
            assert greatest_bisim(one, two, NO_FEATURES, mode).at("u", "v") == 1
            assert greatest_bisim(one, two, u, mode).at("u", "v") == 0
        full = entries(one.domain, two.domain, [("u", "v", 1)])
        report = check_bisim(one, two, full, u)
        assert [(v.condition, v.witness) for v in report.violations] == [("FB9", ("w",))]
        assert condition_bound(one, two, full, u, "u", "v") == 0

    def test_matches_brute_force_under_u(self):
        rng = random.Random(97)
        for _ in range(12):
            ia = random_model(rng, "x", rng.randint(1, 3), POOL3, individual_names=("a",))
            ib = random_model(rng, "y", rng.randint(1, 3), POOL3, individual_names=("a",))
            features = with_features(random_features(rng), universal=True)
            for mode in ("fuzzy", "crisp"):
                fix = greatest_bisim(ia, ib, features, mode)
                assert fix == brute_force_greatest(ia, ib, features, mode)
                assert check_bisim(ia, ib, fix, features).satisfied


class TestCountingBudget:
    # FB6(n)/FB7(n) enumerate n-subsets of a successor set unless the bounds
    # cover every subset size; the count over the enabled bounds is checked
    # before enumerating
    def test_wide_hub_refused_by_checker_and_fixpoint(self):
        # Q2..Q16 leaves out size 1, so the checker enumerates the 65519
        # subsets.  The refinement lists the least sets of target blocks only
        # for hubs in one block with different successor counts: it decides
        # hubs with successors in 2 blocks, and equal hubs with successors in
        # 16, and refuses hubs with successors in 16 blocks, one apart
        ia, ib = counting_hub_pair(16)
        features = FeatureSet(q_bounds=frozenset(range(2, 17)))
        allones = constant(ia.domain, ib.domain, F(1))
        with pytest.raises(BudgetError, match="65519 subsets"):
            check_bisim(ia, ib, allones, features)
        with pytest.raises(BudgetError):
            condition_bound(ia, ib, allones, features, "h0", "g0")
        for mode in ("fuzzy", "crisp"):
            for pair in (ia, ib), spread_hub_pair(16):
                result = bisimilar(*pair, features, mode)
                assert result.holds and result.witness.at("h0", "g0") == 1
            with pytest.raises(BudgetError, match=r"65519 subsets \(budget 16384\)"):
                greatest_bisim(*doubled_hub_pair(16), features, mode)

    def test_wide_hub_decided_under_covering_bounds(self):
        # Q1..Q16 and Q* cover every subset size of 16 successors, so the
        # counting rows come from a matching and no budget applies
        ia, ib = counting_hub_pair(16)
        for features in (FeatureSet(q_bounds=frozenset(range(1, 17))),
                         FeatureSet(q_bounds=None)):
            for mode in ("fuzzy", "crisp"):
                result = bisimilar(ia, ib, features, mode)
                assert result.holds
                assert check_bisim(ia, ib, result.witness, features).satisfied

    def test_budget_counts_enabled_bounds_only(self):
        ia, ib = counting_hub_pair(16)
        assert bisimilar(ia, ib, FeatureSet.parse("Q1,Q2,Q16"), "crisp").holds

    def test_out_degree_eleven_stays_within_budget(self):
        # the largest hubs of the fixpoint benchmark: 2047 subsets
        ia, ib = counting_hub_pair(11)
        features = FeatureSet(q_bounds=frozenset(range(1, 12)))
        assert bisimilar(ia, ib, features, "fuzzy").holds


class TestCountingByMatching:
    # Under bounds that cover every subset size, FB6/FB7 are decided by one
    # Hall check per level; the oracle enumerates every n-subset literally
    def check_against_subsets(self, ia, ib, z, features):
        table, ceiling, violating = {}, {}, set()
        for x, x2, role, code, subset, strength, rhs in counting_subsets(ia, ib, z, features):
            table[x, x2, role, code, frozenset(subset)] = (strength, rhs)
            ceiling[x, x2] = min(ceiling.get((x, x2), F(1)), F(1) if strength <= rhs else rhs)
            if min(z.at(x, x2), strength) > rhs:
                violating.add((x, x2, role, code[:3]))
        uncounted = with_features(features, q_bounds=frozenset())
        for x in ia.domain:
            for x2 in ib.domain:
                assert condition_bound(ia, ib, z, features, x, x2) == min(
                    condition_bound(ia, ib, z, uncounted, x, x2),
                    ceiling.get((x, x2), F(1)),
                ), (x, x2)
        counted = [
            v for v in check_bisim(ia, ib, z, features).violations
            if v.condition.startswith(("FB6(", "FB7("))
        ]
        assert {(v.x, v.x_prime, v.role, v.condition[:3]) for v in counted} == violating
        for v in counted:
            strength, rhs = table[v.x, v.x_prime, v.role, v.condition, frozenset(v.witness)]
            assert (min(z.at(v.x, v.x_prime), strength), rhs) == (v.lhs, v.rhs)
            assert v.lhs > v.rhs

    def test_random_models_against_subset_oracle(self):
        rng = random.Random(157)
        for _ in range(60):
            ia = random_model(rng, "x", rng.randint(1, 4), POOL4, density=0.7)
            ib = random_model(rng, "y", rng.randint(1, 4), POOL4, density=0.7)
            bounds = None if rng.random() < 0.5 else frozenset(range(1, rng.randint(2, 4)))
            features = FeatureSet(inverse=rng.random() < 0.4, q_bounds=bounds)
            z = from_matrix(
                ia.domain, ib.domain,
                [[rng.choice(POOL4) for _ in ib.domain] for _ in ia.domain],
            )
            self.check_against_subsets(ia, ib, z, features)

    def test_benchmark_shaped_hubs_against_subset_oracle(self):
        # the greatest bisimulation with the hubs' entry raised to 1 and a
        # third of the entries between successors redrawn
        rng = random.Random(163)
        for d, perturb in ((4, True), (7, False), (9, True), (11, True), (11, False)):
            ia, ib = shuffled_hub_pair(rng, d, perturb)
            features = FeatureSet(q_bounds=frozenset(range(1, d + 1)))
            matrix = dense(greatest_bisim(ia, ib, features))
            matrix[0][0] = F(1)
            pool = degree_universe(ia, ib)
            for row in matrix[1:]:
                for k in range(1, d + 1):
                    if rng.random() < 0.3:
                        row[k] = rng.choice(pool)
            z = from_matrix(ia.domain, ib.domain, matrix)
            self.check_against_subsets(ia, ib, z, features)


class TestRefinementAgainstFixpoint:
    """The nested-partition refinement against the pairwise fixpoint."""

    FEATURES = [
        "", "I", "O", "U", "Self", "N2", "N*", "Q1,Q2", "Q*", "Q2", "Q1,Q3",
        "I,O,U", "I,Q*", "U,Self,Q2", "I,O,U,Self,Q1,Q2,N2",
    ]

    @staticmethod
    def random_pair(rng):
        """A random model and, half the time, a shuffled copy of it; else a
        shuffled copy with one degree redrawn, or another random model."""
        pool = rng.choice([POOL3, POOL4])
        shape = dict(
            concept_names=rng.choice([(), ("A",), ("A", "B")]),
            role_names=rng.choice([("r",), ("r", "s")]),
            individual_names=rng.choice([("a",), ("a", "b")]),
            density=rng.choice([0.2, 0.4, 0.6]),
        )
        ia = random_model(rng, "x", rng.randint(1, 6), pool, **shape)
        kind = rng.random()
        if kind < 0.5:
            return ia, shuffled_copy(rng, ia, "y")
        if kind < 0.75:
            return ia, random_model(rng, "y", rng.randint(1, 6), pool, **shape)
        concepts = {name: dict(zip(ia.domain, row)) for name, row in ia.concepts.items()}
        roles = {name: {(x, y): d for x, y, d in ia.edges(name)} for name in ia.roles}
        x, y = rng.choice(ia.domain), rng.choice(ia.domain)
        if concepts and rng.random() < 0.5:
            concepts[rng.choice(sorted(concepts))][x] = rng.choice(pool)
        else:
            roles[rng.choice(sorted(roles))][x, y] = rng.choice(pool)
        roles = {name: [(x, y, d) for (x, y), d in edges.items()] for name, edges in roles.items()}
        other = Interpretation(ia.domain, ia.individuals, concepts, roles)
        return ia, shuffled_copy(rng, other, "y")

    @pytest.mark.parametrize("text", FEATURES)
    def test_matches_fixpoint(self, text):
        features = FeatureSet.parse(text)
        rng = random.Random(f"levels/{text}")
        graded = related = 0
        for _ in range(60):
            ia, ib = self.random_pair(rng)
            for mode in ("fuzzy", "crisp"):
                got = greatest_bisim(ia, ib, features, mode)
                assert got == fixpoint_greatest(ia, ib, features, mode)
                values = {v for _x, _y, v in cells(got)}
                graded += mode == "fuzzy" and any(0 < v < 1 for v in values)
                related += mode == "crisp" and 1 in values
        # the pairs exercise both partial degrees and nonempty crisp relations
        assert graded >= 3 and related >= 20


class TestGappedCountingLevels:
    """Q bounds with a gap over many degree levels: the refinement's least
    sets of target blocks against the pairwise fixpoint."""

    POOL = tuple(F(k, 20) for k in range(21))

    @pytest.mark.parametrize("text", ["Q2", "Q1,Q3", "I,Q2"])
    def test_many_levels_match_fixpoint(self, text):
        features = FeatureSet.parse(text)
        rng = random.Random(f"gapped/{text}")
        levels = []
        for _ in range(40):
            # without concepts, many successors share a block
            shape = dict(concept_names=rng.choice([(), ("A",), ("A", "B")]),
                         role_names=rng.choice([("r",), ("r", "s")]),
                         density=rng.choice([0.4, 0.6]))
            ia = random_model(rng, "x", rng.randint(5, 7), self.POOL, **shape)
            roles = {name: list(ia.edges(name)) for name in ia.roles}
            if rng.random() < 0.5 and roles["r"]:
                # a shuffled copy with one r-edge redrawn
                x, y, _d = roles["r"].pop(rng.randrange(len(roles["r"])))
                roles["r"].append((x, y, rng.choice(self.POOL[1:])))
                concepts = {name: dict(zip(ia.domain, row)) for name, row in ia.concepts.items()}
                ib = shuffled_copy(rng, Interpretation(ia.domain, {}, concepts, roles), "y")
            else:
                ib = random_model(rng, "y", rng.randint(5, 7), self.POOL, **shape)
            levels.append(len(degree_universe(ia, ib)))
            for mode in ("fuzzy", "crisp"):
                got = greatest_bisim(ia, ib, features, mode)
                assert got == fixpoint_greatest(ia, ib, features, mode)
        assert sum(levels) / len(levels) >= 17

    def test_crisp_least_sets_at_each_degree(self):
        # x and u each reach one block of two leaves, with a strongest edge
        # of degree 1; under Q2 only x has both at degree 1, so FB6(2)
        # fails in crisp mode, though both have both at degree 1/2
        ia = Interpretation(["x", "y1", "y2"], {}, {}, {"r": [("x", "y1", 1), ("x", "y2", 1)]})
        ib = Interpretation(["u", "v1", "v2"], {}, {}, {"r": [("u", "v1", 1), ("u", "v2", F(1, 2))]})
        for text, crisp in (("", 1), ("Q2", 0)):
            features = FeatureSet.parse(text)
            got = greatest_bisim(ia, ib, features, "crisp")
            assert got.at("x", "u") == crisp
            assert got == fixpoint_greatest(ia, ib, features, "crisp")

    @pytest.mark.parametrize("mode", ["fuzzy", "crisp"])
    def test_hub_beside_an_empty_element(self, mode):
        # the hub shares its first block with z, which has no successors, so
        # their keys differ before the hub's least sets over its successors'
        # 200 blocks would be listed
        hub, _copy = spread_hub_pair(200)
        model = disjoint_union(hub, Interpretation(["z"]))
        got = greatest_bisim(model, model, FeatureSet.parse("Q2"), mode)
        assert got.at("h0", "z") == 0 and got.at("h0", "h0") == 1

    @pytest.mark.parametrize("mode", ["fuzzy", "crisp"])
    def test_graded_hubs_are_listed_once(self, mode):
        # hubs one successor apart, with 180 successors in 180 blocks and
        # 180 edge degrees: their least sets under Q2 are the 16110 pairs of
        # blocks, each with its weaker degree, listed once and not per degree
        start = time.perf_counter()
        got = greatest_bisim(*doubled_hub_pair(180, graded=True), FeatureSet.parse("Q2"), mode)
        assert time.perf_counter() - start < 2
        assert got.at("h0", "g0") == 0 and got.at("h7", "g7") == 1

    def test_lone_hub_is_not_keyed(self):
        # the hub is alone in its block, so the least sets of its 200
        # successors, in 200 blocks, are never enumerated
        hub, _copy = spread_hub_pair(200)
        features = FeatureSet.parse("Q2")
        crisp = greatest_bisim(hub, hub, features, "crisp")
        assert crisp == identity(hub.domain)
        fuzzy = greatest_bisim(hub, hub, features, "fuzzy")
        assert fuzzy.at("h0", "h0") == 1 and fuzzy.at("h0", "h1") == 0
        assert fuzzy.at("h3", "h5") == F(3, 200)


class TestGreatestReadout:
    """The greatest bisimulation read off the nested partitions: ``at`` on
    every pair and the nonzero listing read the same degrees, and those are
    the pairwise fixpoint's."""

    @staticmethod
    def random_pair(rng):
        """A random model of 1-8 elements and the same object, a shuffled
        copy, a shuffled copy with one concept degree redrawn (where a U cap
        lowers entries), or another random model."""
        pool = rng.choice([POOL3, POOL4])
        shape = dict(individual_names=("a",), density=rng.choice([0.2, 0.4]))
        ia = random_model(rng, "x", rng.randint(1, 8), pool, **shape)
        kind = rng.random()
        if kind < 0.15:
            return ia, ia
        if kind < 0.4:
            return ia, shuffled_copy(rng, ia, "y")
        if kind < 0.8:
            concepts = {"A": dict(zip(ia.domain, ia.concepts["A"]))}
            concepts["A"][rng.choice(ia.domain)] = rng.choice(pool)
            roles = {name: list(ia.edges(name)) for name in ia.roles}
            other = Interpretation(ia.domain, ia.individuals, concepts, roles)
            return ia, shuffled_copy(rng, other, "y")
        return ia, random_model(rng, "y", rng.randint(1, 8), pool, **shape)

    def test_readouts_agree_with_fixpoint(self):
        rng = random.Random("partitions")
        capped = graded = 0
        for _ in range(400):
            ia, ib = self.random_pair(rng)
            features = with_features(random_features(rng), universal=rng.random() < 0.5)
            for mode in ("fuzzy", "crisp"):
                got = greatest_bisim(ia, ib, features, mode)
                assert [got.at(x, y) for x in ia.domain for y in ib.domain] == [
                    v for _x, _y, v in cells(got)]
                assert list(got.nonzero()) == [(x, y, v) for x, y, v in cells(got) if v]
                assert got == fixpoint_greatest(ia, ib, features, mode)
                if features.universal and any(v for _x, _y, v in got.nonzero()):
                    without_u = with_features(features, universal=False)
                    uncapped = greatest_bisim(ia, ib, without_u, mode)
                    capped += got != uncapped
                graded += any(0 < v < 1 for _x, _y, v in got.nonzero())
        # the pairs exercise partial degrees and a cap that lowers entries
        # without emptying the relation
        assert graded >= 50 and capped >= 8

    def test_unknown_element_is_an_input_error(self):
        ia, ib = hub_pair()
        got = greatest_bisim(ia, ib, NO_FEATURES)
        for x, y in (("zz", "u'"), ("u", "zz"), ("u'", "u")):
            with pytest.raises(InputError, match="unknown element") as info:
                got.at(x, y)
            assert type(info.value) is InputError


class TestRefinementAtBenchmarkScale:
    """The refinement at the benchmark's sizes: models of 30-40 elements of
    out-degree 3 with 10 degree levels against their shuffled copies, and,
    on pairs of 10-14 elements small enough for it, against the pairwise
    fixpoint."""

    LEVELS = tuple(F(k, 10) for k in range(1, 11))
    FEATURES = ["", "I", "I,O", "I,U"]

    def random_model(self, rng, low, high):
        """``low`` to ``high`` elements: copies of a random core of 3-8
        elements with three r-edges each inside the copy, one degree of
        each copy redrawn, so that elements of different copies differ only
        from some level on."""
        m = rng.randint(3, min(8, low // 2))
        size = m * rng.randint(-(-low // m), high // m)
        domain = [f"x{i}" for i in range(size)]
        a_degrees = [rng.choice(self.LEVELS) for _ in range(m)]
        edges = [(i, j, rng.choice(self.LEVELS)) for i in range(m) for j in rng.sample(range(m), 3)]
        concepts, roles = {"A": {}}, {"r": []}
        for start in range(0, size, m):
            a_copy, e_copy = list(a_degrees), list(edges)
            if rng.random() < 0.5:
                a_copy[rng.randrange(m)] = rng.choice(self.LEVELS)
            else:
                i, j, _d = e_copy.pop(rng.randrange(len(e_copy)))
                e_copy.append((i, j, rng.choice(self.LEVELS)))
            concepts["A"].update((domain[start + i], d) for i, d in enumerate(a_copy))
            roles["r"] += [(domain[start + i], domain[start + j], d) for i, j, d in e_copy]
        return Interpretation(domain, {"a": domain[0]}, concepts, roles)

    @staticmethod
    def copy(rng, ia):
        """A renamed copy of ``ia`` in a random order, and the renaming."""
        names = [f"y{k}" for k in range(len(ia.domain))]
        rng.shuffle(names)
        image = dict(zip(ia.domain, names))
        ib = rename_model(ia, image)
        domain = list(ib.domain)
        rng.shuffle(domain)
        return Interpretation(
            domain, ib.individuals, {name: dict(zip(ib.domain, row)) for name, row in ib.concepts.items()},
            {name: list(ib.edges(name)) for name in ib.roles}), image

    @pytest.mark.parametrize("text", FEATURES)
    def test_copies_relate_at_one(self, text):
        features = FeatureSet.parse(text)
        rng = random.Random(f"scale/{text}")
        graded = 0
        for _ in range(8):
            ia = self.random_model(rng, 30, 40)
            ib, image = self.copy(rng, ia)
            for mode in ("fuzzy", "crisp"):
                got = greatest_bisim(ia, ib, features, mode)
                assert check_bisim(ia, ib, got, features).satisfied
                assert all(got.at(x, image[x]) == 1 for x in ia.domain)
                graded += any(0 < v < 1 for _x, _y, v in got.nonzero())
        assert graded >= 6

    @pytest.mark.parametrize("text", FEATURES)
    def test_matches_fixpoint(self, text):
        features = FeatureSet.parse(text)
        rng = random.Random(f"scale-fixpoint/{text}")
        graded = 0
        for _ in range(8):
            ia = self.random_model(rng, 10, 14)
            ib, image = self.copy(rng, ia)
            # one concept degree redrawn in the copy
            concepts = {name: dict(zip(ib.domain, row)) for name, row in ib.concepts.items()}
            concepts["A"][image[rng.choice(ia.domain)]] = rng.choice((0,) + self.LEVELS)
            ib = Interpretation(ib.domain, ib.individuals, concepts,
                                {name: list(ib.edges(name)) for name in ib.roles})
            for mode in ("fuzzy", "crisp"):
                got = greatest_bisim(ia, ib, features, mode)
                assert got == fixpoint_greatest(ia, ib, features, mode)
                graded += any(0 < v < 1 for _x, _y, v in cells(got))
        assert graded >= 6


class TestDegreeRanks:
    """Degrees are ranked by value, not by the text or object they come
    from: ``"0.5"`` and ``"1/2"``, or ``"1"``, ``"1.0"`` and the constant 1,
    are distinct objects with one rank."""

    @staticmethod
    def model(prefix, half, one, a_at_x=None):
        """x -r-> y -r-> z -r-> x, graded ``half``, ``one``, ``"1/4"``, with
        A at x (``half`` unless given) and y; z has no A, and x an s-loop."""
        x, y, z = (prefix + name for name in "xyz")
        return load_interpretation({
            "domain": [x, y, z], "individuals": {"a": x},
            "concepts": {"A": {x: a_at_x or half, y: one}},
            "roles": {"r": [[x, y, half], [y, z, one], [z, x, "1/4"]], "s": [[x, x, one]]},
        })

    def pairs(self):
        zero_one = load_interpretation({
            "domain": ["p", "q"], "individuals": {"a": "p"},
            "concepts": {"A": {"p": "1", "q": "0"}}, "roles": {"r": [["p", "q", "1.0"]]},
        })
        ia = self.model("", "0.5", "1")
        return [(ia, self.model("b", "1/2", "1.0")), (ia, ia), (zero_one, zero_one),
                (zero_one, ia), (ia, self.model("c", "1/2", "1.0", a_at_x="1"))]

    def test_one_rank_per_value(self):
        (ia, ib), _same, (zero_one, _) = self.pairs()[:3]
        for models, values in (((ia, ib), (0, F(1, 4), F(1, 2), 1)), ((zero_one,), (0, 1))):
            found = degree_objects(*models)
            universe, rank = degree_ranks(*models)
            assert universe == values == degree_universe(*models)
            assert universe[0] is found[id(ZERO)] and universe[-1] is found[id(ONE)]
            assert all(universe[rank[key]] == d for key, d in found.items())
            # two objects of 1/2 and three of 1 (two of 0 and 1 in zero_one)
            assert len(found) > len(universe)

    def test_written_two_ways_is_bisimilar(self):
        ia, ib = self.pairs()[0]
        for mode in MODES:
            result = bisimilar(ia, ib, FeatureSet.parse("I"), mode)
            assert result.holds and result.witness.at("y", "by") == 1

    @pytest.mark.parametrize("text", ["", "I", "I,U"])
    def test_matches_fixpoint(self, text):
        features = FeatureSet.parse(text)
        graded = 0
        for ia, ib in self.pairs():
            for mode in MODES:
                got = greatest_bisim(ia, ib, features, mode)
                assert got == fixpoint_greatest(ia, ib, features, mode)
                graded += any(0 < v < 1 for _x, _y, v in cells(got))
        assert graded


class TestContextTables:
    """The one table builder, ``_Context``, read back against the public
    API of each model: successors, predecessors, self degrees and concept
    rows, ranked through ``degree_ranks``."""

    @pytest.mark.parametrize("text", ["", "I", "Self", "I,O,Self"])
    def test_tables_match_the_models(self, text):
        features = FeatureSet.parse(text)
        rng = random.Random(f"context {text}")
        for trial in range(90):
            shape = dict(concept_names=("A", "B")[:rng.randint(0, 2)],
                         role_names=rng.choice([("r",), ("s",), ("r", "s")]),
                         individual_names=("a",), pool=rng.choice([POOL3, POOL4]))
            ia = random_model(rng, "x", rng.randint(1, 5), density=rng.random(), **shape)
            ib = (ia, shuffled_copy(rng, ia, "y"),
                  random_model(rng, "y", rng.randint(1, 5), **shape))[trial % 3]
            models = (ia,) if ib is ia else (ia, ib)
            ctx = _Context(ia, ib, features)
            universe, rank = degree_ranks(*models)
            assert ctx.universe == universe and ctx.top == len(universe) - 1
            assert len(ctx.edges) == len(ctx.incoming) == ctx.offset + len(ib.domain)
            roles = sorted(set(ia.roles) | set(ib.roles))
            assert ctx.labels == [
                label for name in roles for label in (name, name + "-")[:1 + features.inverse]]
            basic = dict(ctx.basic)
            for m, start in zip((ia, ib), (0, ctx.offset)):
                size = len(m.domain)
                for name, column in ctx.concepts:
                    assert column[start:start + size] == [rank[id(d)] for d in m.concept_row(name)]
                assert [name for name, _column in ctx.self_loops] == (roles if features.self_loops else [])
                for name, column in ctx.self_loops:
                    assert column[start:start + size] == [rank[id(d)] for d in m.self_degrees(name)]
                for k, label in enumerate(ctx.labels):
                    succ = m.successors(label.rstrip("-"))
                    for i in range(size):
                        if label.endswith("-"):
                            expected = [(p, rank[id(d)]) for p, row in enumerate(succ)
                                        for j, d in row if j == i]
                        else:
                            expected = [(j, rank[id(d)]) for j, d in succ[i]]
                        got = sorted((y - start, r) for r, of, y in ctx.edges[start + i] if of == k)
                        assert got == expected == basic[label][start + i]
            for x, row in enumerate(ctx.edges):
                assert row == sorted(row, reverse=True)
                for _r, _label, y in row:
                    assert x in ctx.incoming[y]
            assert sum(map(len, ctx.incoming)) == sum(map(len, ctx.edges))
            names = sorted(ia.individuals) if features.nominals else []
            assert ctx.individual_pairs == [
                (a, ia.index(ia.individuals[a]), ib.index(ib.individuals[a])) for a in names]


class TestClosureLaws:
    def test_handmade_sup_of_bisimulations(self):
        ia, ib = hub_pair()
        z1 = entries(ia.domain, ib.domain, [("v", "v'", 1)])
        z2 = entries(ia.domain, ib.domain, [("w", "w'", 1)])
        assert check_bisim(ia, ib, z1, NO_FEATURES).satisfied
        assert check_bisim(ia, ib, z2, NO_FEATURES).satisfied
        assert check_bisim(ia, ib, rel_sup([z1, z2]), NO_FEATURES).satisfied

    def test_identity_inverse_compose_sup(self):
        rng = random.Random(97)
        checked = 0
        for _ in range(34):
            size = rng.randint(1, 3)
            ia = random_model(rng, "x", size, POOL3, individual_names=("a",))
            ib = random_model(rng, "y", rng.randint(1, 3), POOL3, individual_names=("a",))
            ic = random_model(rng, "z", rng.randint(1, 3), POOL3, individual_names=("a",))
            features = random_features(rng)
            for mode in ("fuzzy", "crisp"):
                assert check_bisim(ia, ia, identity(ia.domain), features).satisfied
                z1 = greatest_bisim(ia, ib, features, mode)
                z2 = greatest_bisim(ib, ic, features, mode)
                assert check_bisim(ib, ia, inverse(z1), features).satisfied
                assert check_bisim(ia, ic, compose(z1, z2), features).satisfied
                family = [z1, compose(z1, compose(z2, inverse(z2)))]
                if mode == "fuzzy":
                    family.append(cap(z1, F(1, 2)))
                assert check_bisim(ia, ib, rel_sup(family), features).satisfied
                checked += 3
        assert checked >= 100


class TestAutoBisimulationIsEquivalence:
    """Under the Goedel semantics the greatest fuzzy auto-bisimulation is a
    fuzzy equivalence (reflexive, symmetric and min-transitive), and the
    greatest crisp one an equivalence whose classes are the blocks of
    ``strong_partition``.  Read off a model against itself and against a
    reloaded equal copy, this checks the read-out's merges and U cap
    without the pairwise fixpoint."""

    def test_greatest_auto_bisimulation_is_an_equivalence(self):
        rng = random.Random("equivalence")
        graded = 0
        for _ in range(120):
            model = random_model(
                rng, "x", rng.randint(1, 10), rng.choice([POOL3, POOL4]),
                concept_names=rng.choice([(), ("A",), ("A", "B")]),
                role_names=rng.choice([("r",), ("r", "s")]),
                individual_names=rng.choice([(), ("a",), ("a", "b")]),
                density=rng.choice([0.1, 0.2, 0.4]),
            )
            copy = load_interpretation(dump_interpretation(model))
            features = with_features(random_features(rng), universal=rng.random() < 0.5)
            n = range(len(model.domain))
            for mode in MODES:
                blocks = {frozenset(block) for block in strong_partition(model, features).blocks}
                for other in (model, copy):
                    z = dense(greatest_bisim(model, other, features, mode))
                    assert all(z[i][i] == 1 for i in n)
                    assert all(z[i][j] == z[j][i] for i in n for j in n)
                    assert all(min(z[i][k], z[k][j]) <= z[i][j] for i in n for j in n for k in n)
                    graded += any(0 < v < 1 for row in z for v in row)
                    if mode == "crisp":
                        classes = {frozenset([model.domain[j] for j in n if z[i][j]]) for i in n}
                        assert classes == blocks
        assert graded >= 40


class TestBisimilar:
    def test_fold_feature_sweep(self):
        ia, ib = fold_pair()
        assert bisimilar(ia, ib, FeatureSet.parse("O,U,Self,N2"), "crisp").holds
        for text in ("I", "Q3", "N3"):
            result = bisimilar(ia, ib, FeatureSet.parse(text), "crisp")
            assert not result.holds
            assert result.failing_individual == "a"

    def test_edge_pair_fuzzy_yes_crisp_no(self):
        ia, ib = edge_pair()
        assert bisimilar(ia, ib, ALL_BUT_UNIVERSAL, "fuzzy").holds
        result = bisimilar(ia, ib, ALL_BUT_UNIVERSAL, "crisp")
        assert not result.holds and result.failing_individual == "a"

    def test_no_individuals_is_an_error(self):
        ia, ib = point_pair()
        with pytest.raises(ModelError):
            bisimilar(ia, ib, NO_FEATURES, "fuzzy")

    def test_partial_individuals_is_an_error(self):
        ia = Interpretation(["u"], {"a": "u"})
        ib = Interpretation(["v"], {"b": "v"})
        with pytest.raises(ModelError):
            bisimilar(ia, ib, NO_FEATURES, "fuzzy")

    @pytest.mark.parametrize("mode", MODES)
    def test_nominals_need_every_individual_in_both(self, mode):
        # under O, FB5 compares a^A with a^B; an individual named in one
        # model only is a model error, not a failed condition
        ia = Interpretation(["u", "v"], {"a": "u", "b": "v"})
        ib = Interpretation(["u'"], {"a": "u'"})
        message = "individual 'b' is not interpreted in both models"
        for features in (FeatureSet.parse("O"), FeatureSet.parse("I,O,U")):
            with pytest.raises(ModelError, match=message):
                greatest_bisim(ia, ib, features, mode)
        assert greatest_bisim(ia, ib, NO_FEATURES, mode).at("u", "u'") == 1


class TestRelationDocuments:
    def test_roundtrip(self):
        ia, ib = hub_pair()
        candidate = greatest_bisim(ia, ib, NO_FEATURES, "fuzzy")
        doc = dump_relation(candidate, "fuzzy")
        again = load_relation(doc, ia.domain, ib.domain)
        assert again == candidate
        assert dump_relation(again, "fuzzy") == doc

    def test_missing_entries_default_zero(self):
        doc = {"mode": "crisp", "entries": [["u", "v", "1"]]}
        rel = load_relation(doc, ["u"], ["v", "w"])
        assert rel.at("u", "w") == 0
        assert dump_relation(rel, "crisp") == doc

    @pytest.mark.parametrize("second", ["0.5", "1", "0"])
    def test_pair_listed_twice_is_refused(self, second):
        # as for the edges of a model, whatever the second degree
        doc = {"entries": [["u", "v", "1"], ["u", "v", second]]}
        with pytest.raises(InputError):
            load_relation(doc, ["u"], ["v"])
