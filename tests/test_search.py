import itertools

import pytest

from _oracles import oracle_min_length
from reachnet import search
from reachnet import (
    BudgetExceededError,
    CapExhaustedError,
    SearchSpec,
    exists_network,
    min_length,
    two_reach_length,
    two_reach_star_length,
    verify_reachability,
)


def test_exists_examples():
    w = exists_network(2, 2, 1)
    assert w is not None and [(t.a, t.b) for t in w.seq] == [(1, 2)]
    assert exists_network(4, 2, 3) is None  # exhaustive: minimum is 4
    w = exists_network(4, 2, 4)
    assert w is not None and verify_reachability(w, 2).ok


def test_exists_below_any_lower_bound():
    assert exists_network(5, 1, 3) is None
    assert exists_network(5, 2, 4) is None
    assert exists_network(4, 2, 3, star_only=True) is None


def test_min_length_general_t2():
    for n, expected in [(2, 1), (3, 3), (4, 4), (5, 6), (6, 7)]:
        r = min_length(SearchSpec(n, 2))
        assert r.min_length == expected == two_reach_length(n)
        assert verify_reachability(r.witness, 2).ok
        assert all(level < expected for level in r.exhausted_levels)
        if n >= 3:
            assert expected - 1 in r.exhausted_levels


def test_min_length_star_t2():
    for n, expected in [(3, 3), (4, 5), (5, 6), (6, 8), (7, 9), (8, 11)]:
        r = min_length(SearchSpec(n, 2, star_only=True))
        assert r.min_length == expected == two_reach_star_length(n)
        assert r.witness.is_star
        assert verify_reachability(r.witness, 2).ok


def test_min_length_t1():
    for n in range(2, 7):
        r = min_length(SearchSpec(n, 1))
        assert r.min_length == n - 1
        assert verify_reachability(r.witness, 1).ok


def test_min_length_permutation_arity():
    # t = n: every permutation reachable; n <= 4 is search-feasible, and
    # there ceil(log2 n!) already meets the recursive construction's
    # length, so these minima are exhaustively settled
    assert min_length(SearchSpec(2, 2)).min_length == 1
    r = min_length(SearchSpec(3, 3))
    assert r.min_length == 3
    assert verify_reachability(r.witness, 3).ok
    r = min_length(SearchSpec(4, 4))
    assert r.min_length == 5
    assert verify_reachability(r.witness, 4).ok


def test_pruning_cross_check():
    # the oracle's prune rules against its search that tries every
    # sequence; the library matches the pruned oracle exactly
    for n in range(1, 5):
        for t in range(1, n + 1):
            for star in (False, True):
                spec = SearchSpec(n, t, star_only=star)
                pruned = oracle_min_length(spec)
                brute = oracle_min_length(spec, prune=False)
                assert pruned.min_length == brute.min_length
                assert pruned.exhausted_levels == brute.exhausted_levels


def test_determinism():
    a = min_length(SearchSpec(5, 2))
    b = min_length(SearchSpec(5, 2))
    assert a.witness == b.witness and a.nodes_explored == b.nodes_explored


def test_budget_is_distinct_from_infeasible():
    with pytest.raises(BudgetExceededError):
        min_length(SearchSpec(5, 2, budget=10))
    with pytest.raises(BudgetExceededError):
        exists_network(5, 2, 6, budget=10)
    # a budget large enough to finish changes nothing
    assert min_length(SearchSpec(4, 2, budget=10**7)).min_length == 4


def test_max_len_cap():
    with pytest.raises(CapExhaustedError):
        min_length(SearchSpec(4, 2, max_len=3))
    assert min_length(SearchSpec(4, 2, max_len=4)).min_length == 4


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(3, 4)
    with pytest.raises(ValueError):
        SearchSpec(3, 0)
    with pytest.raises(ValueError):
        exists_network(3, 2, -1)


def test_witness_can_be_shorter_than_level():
    # exists_network decides "length <= l"; on n=2 the 1-step network is
    # found even when asking for length 3
    w = exists_network(2, 2, 3)
    assert w is not None and len(w) == 1


# Every (n, t, star) with n <= 5, then star t=2 up to n=8.
ORACLE_CASES = [
    (n, t, star) for n in range(1, 6) for t in range(1, n + 1) for star in (False, True)
] + [(n, 2, True) for n in (6, 7, 8)]


def _case_id(case: tuple[int, int, bool]) -> str:
    n, t, star = case
    return f"n{n}-t{t}" + ("-star" if star else "")


def _assert_same_search(got, want):
    assert got.min_length == want.min_length
    assert got.witness == want.witness
    assert got.exhausted_levels == want.exhausted_levels
    assert got.nodes_explored <= want.nodes_explored


@pytest.mark.parametrize("case", ORACLE_CASES, ids=_case_id)
def test_matches_frozenset_oracle(case):
    spec = SearchSpec(*case)
    _assert_same_search(min_length(spec), oracle_min_length(spec))


@pytest.mark.parametrize(
    "case", [(n, t, star) for n in (3, 4) for t in range(1, n + 1) for star in (False, True)],
    ids=_case_id,
)
def test_matches_frozenset_oracle_without_prunes(case):
    # the library always prunes; against a search that tries every
    # sequence it must settle the same minimum over the same levels
    spec = SearchSpec(*case)
    got = min_length(spec)
    want = oracle_min_length(spec, prune=False)
    assert got.min_length == want.min_length
    assert got.exhausted_levels == want.exhausted_levels
    assert got.nodes_explored <= want.nodes_explored
    assert verify_reachability(got.witness, spec.t).ok


def test_permutation_arity_searches_as_one_less():
    # the last point of an injective n-tuple is forced
    for n in range(2, 6):
        for star in (False, True):
            full = min_length(SearchSpec(n, n, star_only=star))
            less = min_length(SearchSpec(n, n - 1, star_only=star))
            assert full.nodes_explored == less.nodes_explored
            assert full.witness == less.witness


def test_memo_cap_changes_no_answer(monkeypatch):
    specs = [SearchSpec(5, 2), SearchSpec(5, 3), SearchSpec(7, 2, star_only=True)]
    free = [min_length(spec) for spec in specs]
    monkeypatch.setattr(search, "_MEMO_CAP", 3)
    for spec, want in zip(specs, free):
        got = min_length(spec)
        assert got.min_length == want.min_length
        assert got.witness == want.witness
        assert got.exhausted_levels == want.exhausted_levels
        assert got.nodes_explored >= want.nodes_explored
    searcher = search._Searcher(5, 3, False, None)
    assert searcher.run(7) is not None
    assert 0 < len(searcher.memo) <= 3


def test_budget_error_leaves_a_sound_memo():
    # a subtree cut short by the budget is never recorded as failed, so
    # the same searcher, given room, finds the answer a fresh one finds
    searcher = search._Searcher(5, 2, False, 200)
    with pytest.raises(BudgetExceededError):
        searcher.run(5)
    assert searcher.memo  # subtrees exhausted before the cut are kept
    searcher.budget = None
    assert searcher.run(5) is None
    assert searcher.run(6) == exists_network(5, 2, 6)


def test_encoding_roundtrip_and_order():
    for n, t in [(3, 2), (5, 3), (2, 1), (4, 4)]:
        tuples = list(itertools.permutations(range(1, n + 1), t))
        codes = [search._encode_tuple(x, n) for x in tuples]
        assert codes == sorted(codes)  # lex order preserved
        assert len(set(codes)) == len(codes)
        every = itertools.product(range(1, n + 1), repeat=t)
        assert sorted(search._encode_tuple(x, n) for x in every) == list(range(n**t))
