import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from reachnet import (
    BudgetExceededError,
    LazyNetwork,
    Network,
    lazy_to_star,
    network_to_star,
    one_reach,
    reach_set,
    tuple_distribution,
    two_reach,
    two_reach_star,
    two_unif_star,
    verify_reachability,
    verify_uniformity,
    waksman_permutation_network,
)
from reachnet import verify
from reachnet.core import closure_arity

from _oracles import (
    naive_lazy_distribution,
    naive_reach_set,
    oracle_reach_set,
    oracle_tuple_distribution,
    oracle_uniformity,
)


def test_reach_set_examples():
    assert reach_set(Network.from_pairs(3, [(1, 2)]), 2) == {(1, 2), (2, 1)}
    assert reach_set(one_reach(5), 1) == {(1,), (2,), (3,), (4,), (5,)}
    assert len(reach_set(two_reach(9), 2)) == 72


def test_three_element_star_chain_reaches_all_pairs():
    # the hand-checkable anchor for the composition convention
    net = Network.from_pairs(3, [(1, 2), (1, 3), (1, 2)])
    assert reach_set(net, 2) == {(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)}


def test_network_to_star_conversion_stays_two_reachable():
    assert verify_reachability(network_to_star(two_reach(6)), 2).ok


def test_verify_reachability_examples():
    assert verify_reachability(two_reach_star(7), 2).ok
    v = verify_reachability(Network.from_pairs(3, [(1, 2)]), 2)
    assert not v.ok and (v.reached, v.required) == (2, 6)
    truncated = Network(8, two_reach(8).seq[:-1])
    assert not verify_reachability(truncated, 2).ok


def test_missing_sample_is_lex_smallest():
    v = verify_reachability(Network.from_pairs(3, [(1, 2)]), 2)
    # reached {(1,2),(2,1)}; lex order of the other four
    assert v.missing_sample == ((1, 3), (2, 3), (3, 1), (3, 2))
    assert "FAIL reached=2 required=6" in v.render()


def test_early_exit_reports_steps():
    # two_reach(6) is complete; appending junk must not change the verdict
    net = two_reach(6)
    padded = Network(6, net.seq + net.seq)
    v = verify_reachability(padded, 2)
    assert v.ok and v.steps_used <= len(net)


def test_reach_set_of_completed_network_is_unchanged_by_padding():
    # the closure stops at completion; the steps it skips add nothing
    for net, t in [(two_reach(5), 2), (one_reach(4), 1), (waksman_permutation_network(3), 3)]:
        padded = Network(net.n, net.seq + net.seq[::-1])
        assert reach_set(padded, t) == naive_reach_set(padded, t)


def test_verify_permutation_network_examples():
    v = verify_reachability(waksman_permutation_network(3), 3)
    assert v.ok and v.required == 6
    assert verify_reachability(Network.from_pairs(2, [(1, 2)]), 2).ok
    v = verify_reachability(Network.from_pairs(3, [(1, 2), (1, 3)]), 3)
    assert not v.ok and v.reached == 4


def test_waksman_is_permutation_network_small():
    for n in range(1, 9):
        assert verify_reachability(waksman_permutation_network(n), n).ok


def _random_network(rng, n, length):
    ps = []
    for _ in range(length):
        a = rng.randint(1, n)
        b = rng.randint(1, n)
        while b == a:
            b = rng.randint(1, n)
        ps.append((a, b))
    return Network.from_pairs(n, ps)


def _random_lazy(rng, n, length):
    ts = []
    for _ in range(length):
        a = rng.randint(1, n)
        b = rng.randint(1, n)
        while b == a:
            b = rng.randint(1, n)
        ts.append((a, b, Fraction(rng.randint(0, 6), 6)))
    return LazyNetwork.from_triples(n, ts)


def test_reach_set_matches_naive_oracle():
    rng = random.Random(2024)
    for _ in range(80):
        n = rng.randint(2, 6)
        t = rng.randint(1, min(3, n))
        net = _random_network(rng, n, rng.randint(0, 12))
        assert reach_set(net, t) == naive_reach_set(net, t)


def test_frontier_monotone_and_at_most_doubles():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 6)
        t = rng.randint(1, min(3, n))
        net = _random_network(rng, n, rng.randint(1, 10))
        sizes = [
            len(reach_set(Network(n, net.seq[:k]), t)) for k in range(len(net) + 1)
        ]
        for prev, cur in zip(sizes, sizes[1:]):
            assert prev <= cur <= 2 * prev


def test_tuple_distribution_examples():
    d = tuple_distribution(LazyNetwork.from_triples(2, [(1, 2, Fraction(1, 2))]), 1)
    assert d == {(1,): Fraction(1, 2), (2,): Fraction(1, 2)}
    d = tuple_distribution(LazyNetwork.from_triples(2, [(1, 2, Fraction(1, 3))]), 1)
    assert d == {(1,): Fraction(2, 3), (2,): Fraction(1, 3)}
    d = tuple_distribution(two_unif_star(4), 2)
    assert len(d) == 12 and set(d.values()) == {Fraction(1, 12)}


def test_tuple_distribution_matches_naive_oracle():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 5)
        t = rng.randint(1, 2)
        net = _random_lazy(rng, n, rng.randint(0, 6))
        mine = tuple_distribution(net, t)
        ref = naive_lazy_distribution(net, t)
        ref = {x: m for x, m in ref.items() if m != 0}
        assert mine == ref


def test_mass_conservation_every_prefix():
    rng = random.Random(123)
    for _ in range(30):
        n = rng.randint(2, 5)
        net = _random_lazy(rng, n, rng.randint(0, 6))
        for k in range(len(net) + 1):
            d = tuple_distribution(LazyNetwork(n, net.seq[:k]), 2)
            assert sum(d.values()) == 1


def _uniformity_cases():
    """two_unif_star(2..40) at t = 2, and random lazy networks at every
    1 <= t <= n <= 9 with p in {0, 1, k/8}; over 5000 tuples, L <= 10
    keeps the dict oracle's support small."""
    rng = random.Random(2718)
    probs = [Fraction(k, 8) for k in range(9)]
    cases = [(two_unif_star(n), 2) for n in range(2, 41)]
    for n in range(1, 10):
        for t in range(1, n + 1):
            small = math.perm(n, t) <= 5000
            for _ in range(4 if small else 1):
                length = rng.randint(0, 30 if small else 10) if n > 1 else 0
                triples = [(*rng.sample(range(1, n + 1), 2), rng.choice(probs)) for _ in range(length)]
                cases.append((LazyNetwork.from_triples(n, triples), t))
    return cases


@pytest.mark.parametrize("chunk", [verify.CHUNK_ROWS, 7], ids=["chunk-default", "chunk-7"])
def test_uniformity_matches_dict_oracle(monkeypatch, chunk):
    # the ranked mass array gives the dict push-forward's distribution, and
    # the verdict its permutations scan gives, deviations in the same order
    # (a pair {x, tau x} may span two chunks)
    cases = _uniformity_cases()
    if chunk != verify.CHUNK_ROWS:
        cases = [(net, t) for net, t in cases if math.perm(net.n, t) <= 120]
    monkeypatch.setattr(verify, "CHUNK_ROWS", chunk)
    verdicts = set()
    for net, t in cases:
        mass = oracle_tuple_distribution(net, t)
        assert tuple_distribution(net, t) == mass, (t, net.seq)
        v, ref = verify_uniformity(net, t), oracle_uniformity(mass, net.n, t)
        assert v == ref and v.render() == ref.render(), (t, net.seq)
        verdicts.add(v.ok)
    assert verdicts == {True, False}


def test_verify_uniformity_examples():
    v = verify_uniformity(two_unif_star(6), 2)
    assert v.ok and v.expected_mass == Fraction(1, 30)
    v = verify_uniformity(LazyNetwork.from_triples(3, [(1, 2, Fraction(1, 2))]), 1)
    assert not v.ok
    assert ((3,), Fraction(0)) in v.deviations


def test_uniformity_implies_reachability():
    nets = [two_unif_star(n) for n in range(2, 9)]
    rng = random.Random(17)
    nets += [_random_lazy(rng, rng.randint(2, 4), rng.randint(1, 6)) for _ in range(40)]
    for lazy in nets:
        if verify_uniformity(lazy, 2).ok:
            assert verify_reachability(lazy.strip(), 2).ok


def test_support_consistency():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 5)
        t = rng.randint(1, 2)
        net = _random_lazy(rng, n, rng.randint(0, 6))
        support = set(tuple_distribution(net, t))
        reach = reach_set(net.strip(), t)
        assert support <= reach
        if all(0 < tau.p < 1 for tau in net.seq):
            assert support == reach


def test_lazy_to_star_preserves_distribution():
    rng = random.Random(404)
    for _ in range(50):
        n = rng.randint(2, 5)
        t = rng.randint(1, 2)
        net = _random_lazy(rng, n, rng.randint(0, 5))
        assert tuple_distribution(net, t) == tuple_distribution(lazy_to_star(net), t)


def test_network_to_star_preserves_reach():
    rng = random.Random(505)
    for _ in range(50):
        n = rng.randint(2, 5)
        t = rng.randint(1, 2)
        net = _random_network(rng, n, rng.randint(0, 6))
        assert reach_set(network_to_star(net), t) >= reach_set(net, t)


def test_budget_and_arity_errors():
    with pytest.raises(BudgetExceededError):
        verify_reachability(two_reach(9), 2, budget=10)
    # 81 dense cells exceed a budget of 72, so the 72 ranked cells are used
    assert verify_reachability(two_reach(9), 2, budget=72).ok
    with pytest.raises(BudgetExceededError):
        verify_reachability(two_reach(9), 2, budget=71)
    with pytest.raises(BudgetExceededError):
        tuple_distribution(two_unif_star(9), 2, budget=10)
    # uniformity holds one cell per injective tuple: perm(9, 2) = 72, and
    # at t = n the perm(n, n-1) = n! cells of arity n-1
    assert len(tuple_distribution(two_unif_star(9), 2, budget=72)) == 72
    with pytest.raises(BudgetExceededError):
        tuple_distribution(two_unif_star(9), 2, budget=71)
    assert sum(tuple_distribution(two_unif_star(5), 5, budget=120).values()) == 1
    with pytest.raises(BudgetExceededError):
        tuple_distribution(two_unif_star(5), 5, budget=119)
    with pytest.raises(ValueError):
        verify_reachability(two_reach(4), 5)
    with pytest.raises(ValueError):
        verify_reachability(two_reach(4), 0)


def _layout_result(layout, net, t):
    """(reached set, count, steps, missing sample) of one closure layout."""
    reached, count, steps = layout(net, t)
    n = net.n
    tuples = verify._as_counter_tuples(verify._tuples(reached, n, t), n, t)
    missing = verify._as_counter_tuples(verify._tuples(reached, n, t, missing=True), n, t)
    return set(tuples), count, steps, tuple(missing)


def _layout_cases():
    rng = random.Random(3141)
    cases = [(Network(1, ()), 1)] + [(one_reach(n), 1) for n in (2, 7, 12)]
    cases += [(two_reach(n), 2) for n in (2, 5, 9, 12)]
    cases += [(two_reach_star(n), 2) for n in (3, 8, 11)]
    for n in range(2, 7):
        net = waksman_permutation_network(n)
        cases += [(net, t) for t in (n - 1, n) if t <= 5]
    for net, t in list(cases):
        if len(net) > 1:  # one transposition fewer: mostly FAIL
            seq = list(net.seq)
            del seq[rng.randrange(len(seq))]
            cases.append((Network(net.n, tuple(seq)), t))
    while len(cases) < 120:
        n = rng.randint(2, 12)
        t = rng.randint(1, min(5, n))
        if math.perm(n, t) <= 12000:
            cases.append((_random_network(rng, n, rng.randint(0, 3 * n)), t))
    return cases


def test_closure_layouts_match_set_oracle():
    verdicts = set()
    arities = set()
    for net, t in _layout_cases():
        n = net.n
        ref = oracle_reach_set(net, t)
        required = math.perm(n, t)
        missing = tuple(
            x for x in itertools.permutations(range(1, n + 1), t) if x not in ref
        )[: verify.MISSING_SAMPLE_CAP]
        dense = _layout_result(verify._dense_closure, net, t)
        ranked = _layout_result(verify._ranked_closure, net, t)
        assert dense == ranked, (n, t, net.seq)
        tuples, count, steps, sample = dense
        assert (tuples, count, sample) == (ref, len(ref), missing)
        ok = count == required
        if ok:  # steps_used is the first prefix whose closure is complete
            assert len(oracle_reach_set(Network(n, net.seq[:steps]), t)) == required
            if steps:
                assert len(oracle_reach_set(Network(n, net.seq[: steps - 1]), t)) < required
        else:
            assert steps == len(net)
        if t == n > 1:  # t = n runs as n-1 with the same counts and steps
            for layout in (verify._dense_closure, verify._ranked_closure):
                assert layout(net, n - 1)[1:] == (count, steps)
        v = verify_reachability(net, t)
        assert (v.ok, v.reached, v.steps_used, v.missing_sample) == (ok, count, steps, missing)
        verdicts.add(ok)
        arities.add(t - n)
    assert verdicts == {True, False} and {-1, 0} <= arities


def _oracle_steps(net, t):
    """steps_used by the set oracle: the first complete prefix, else the length."""
    required = math.perm(net.n, t)
    for k in range(len(net) + 1):
        if len(oracle_reach_set(Network(net.n, net.seq[:k]), t)) == required:
            return k
    return len(net)


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_ranked_closure_chunks_match_set_oracle(monkeypatch, chunk):
    # tau is a bijection, so no two chunks of one step share an image:
    # any chunk size gives the same closure and the same missing sample
    monkeypatch.setattr(verify, "CHUNK_ROWS", chunk)
    verdicts = set()
    for net, t in _layout_cases()[::4]:
        n = net.n
        ref = oracle_reach_set(net, t)
        missing = tuple(
            x for x in itertools.permutations(range(1, n + 1), t) if x not in ref
        )[: verify.MISSING_SAMPLE_CAP]
        got = _layout_result(verify._ranked_closure, net, t)
        assert got == (ref, len(ref), _oracle_steps(net, t), missing), (n, t, net.seq)
        verdicts.add(not missing)
    assert verdicts == {True, False}


# chunk-sized temporaries of the ranked layout, whatever perm(n, t) is
CHUNK_ALLOWANCE = 2 << 20


@pytest.mark.parametrize("drop", [0, 1], ids=["ok", "fail"])
def test_ranked_closure_memory_is_bytes_per_cell_plus_chunk(drop):
    # Waksman t = n = 9 runs ranked at arity 8: one reached byte and one
    # row byte per entry for each of the perm(9, 8) cells; dropping the last
    # transposition takes the FAIL path and its missing-sample scan
    n = 9
    net = waksman_permutation_network(n)
    net = Network(n, net.seq[: len(net) - drop])
    arity = closure_arity(n, n)
    tracemalloc.start()
    try:
        v = verify_reachability(net, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.ok == (not drop)
    assert peak <= (arity + 1) * math.perm(n, arity) + CHUNK_ALLOWANCE
