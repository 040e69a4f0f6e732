import random
from decimal import Decimal
from fractions import Fraction

import pytest

from reachnet import (
    BipartiteSupport,
    Network,
    RandomConstructionParams,
    RetriesExceededError,
    check_expansion,
    default_epsilon,
    iroot,
    lazy_to_star,
    network_to_star,
    one_reach,
    phase_count,
    sample_support,
    t_reach_random_full,
    two_reach,
    two_reach_length,
    two_reach_star,
    two_reach_star_length,
    two_unif_star,
    waksman_length,
    waksman_permutation_network,
)
from reachnet.core import LazyNetwork

from _oracles import oracle_check_expansion


def pairs(net):
    return [(tau.a, tau.b) for tau in net.seq]


def test_one_reach_examples():
    assert pairs(one_reach(2)) == [(1, 2)]
    assert pairs(one_reach(4)) == [(1, 2), (1, 3), (1, 4)]
    assert len(one_reach(10)) == 9
    with pytest.raises(ValueError):
        one_reach(1)


def test_two_reach_examples():
    assert pairs(two_reach(9)) == [
        (1, 2), (1, 3), (1, 5), (1, 7), (1, 9),
        (2, 4), (2, 6), (2, 8),
        (3, 4), (5, 6), (7, 8),
        (1, 2),
    ]
    assert pairs(two_reach(2)) == [(1, 2)]
    assert pairs(two_reach(4)) == [(1, 2), (1, 3), (2, 4), (3, 4)]
    with pytest.raises(ValueError):
        two_reach(1)


def test_two_reach_length_formula():
    for n in range(2, 201):
        assert len(two_reach(n)) == two_reach_length(n) == (3 * n + 1) // 2 - 2


def test_two_reach_star_examples():
    assert pairs(two_reach_star(4)) == [(1, 2), (1, 4), (1, 2), (1, 3), (1, 4)]
    assert pairs(two_reach_star(5)) == [(1, 2), (1, 4), (1, 3), (1, 2), (1, 5), (1, 4)]
    assert pairs(two_reach_star(3)) == [(1, 2), (1, 3), (1, 2)]
    with pytest.raises(ValueError):
        two_reach_star(2)


def test_two_reach_star_length_and_star():
    for n in range(3, 201):
        net = two_reach_star(n)
        assert net.is_star
        assert len(net) == two_reach_star_length(n) == (3 * (n - 1) + 1) // 2


def test_waksman_lengths():
    assert pairs(waksman_permutation_network(2)) == [(1, 2)]
    assert len(waksman_permutation_network(1)) == 0
    assert len(waksman_permutation_network(4)) == 5
    assert len(waksman_permutation_network(8)) == 17
    for n in range(1, 65):
        assert len(waksman_permutation_network(n)) == waksman_length(n)
    with pytest.raises(ValueError):
        waksman_permutation_network(0)


def test_waksman_length_is_sum_of_ceil_log2():
    import math

    for n in range(1, 65):
        assert waksman_length(n) == sum(math.ceil(math.log2(i)) for i in range(1, n + 1))


def test_two_unif_star_examples():
    def triples(net):
        return [(tau.a, tau.b, tau.p) for tau in net.seq]

    h = Fraction(1, 2)
    assert triples(two_unif_star(3)) == [(1, 2, h), (1, 3, Fraction(2, 3)), (1, 2, h)]
    assert triples(two_unif_star(4)) == [
        (1, 2, h), (1, 3, h), (1, 2, h), (1, 4, Fraction(2, 3)), (1, 2, h),
    ]
    assert triples(two_unif_star(2)) == [(1, 2, h)]
    for n in range(2, 17):
        assert len(two_unif_star(n)) == 2 * n - 3
    with pytest.raises(ValueError):
        two_unif_star(1)


def test_network_to_star_examples():
    assert pairs(network_to_star(Network.from_pairs(3, [(2, 3)]))) == [(1, 2), (1, 3), (1, 2)]
    net = Network.from_pairs(4, [(1, 4)])
    assert network_to_star(net) == net
    mixed = Network.from_pairs(5, [(2, 3), (1, 5), (4, 5)])
    star = network_to_star(mixed)
    assert star.is_star
    assert len(star) <= 3 * len(mixed)


def test_lazy_to_star_examples():
    lazy = LazyNetwork.from_triples(3, [(2, 3, Fraction(1, 2))])
    out = lazy_to_star(lazy)
    assert [(t.a, t.b, t.p) for t in out.seq] == [
        (1, 2, Fraction(1)), (1, 3, Fraction(1, 2)), (1, 2, Fraction(1)),
    ]
    stays = LazyNetwork.from_triples(5, [(1, 5, Fraction(1, 3))])
    assert lazy_to_star(stays) == stays


def test_iroot():
    assert iroot(0, 3) == 0
    assert iroot(1, 5) == 1
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(28, 3) == 3
    for base in (2, 3, 10, 97):
        for k in (2, 3, 5, 7):
            x = base**k
            assert iroot(x, k) == base
            assert iroot(x - 1, k) == base - 1
            assert iroot(x + 1, k) == base
    big = (10**30 + 7) ** 4
    assert iroot(big, 4) == 10**30 + 7
    with pytest.raises(ValueError):
        iroot(-1, 2)
    with pytest.raises(ValueError):
        iroot(4, 0)


def test_phase_count_frozen_values():
    # default epsilon for t=3 is 1/5, so L = floor(n^(4/5))
    eps = default_epsilon(3)
    assert eps == Fraction(1, 5)
    for n, expected in [(20, 10), (30, 15), (50, 22)]:
        L = phase_count(n, eps)
        assert L == expected
        assert L**5 <= n**4 < (L + 1) ** 5  # defining inequality
    # coarser exponent 3/4 for comparison
    assert phase_count(30, Fraction(1, 4)) == 12


def test_params_validation():
    with pytest.raises(ValueError):
        RandomConstructionParams(t=2, n=10, seed=0)
    with pytest.raises(ValueError):
        RandomConstructionParams(t=3, n=3, seed=0)
    with pytest.raises(ValueError):
        RandomConstructionParams(t=3, n=10, seed=0, epsilon=Fraction(1, 4))
    with pytest.raises(ValueError):
        RandomConstructionParams(t=3, n=10, seed=0, epsilon=Fraction(0))
    p = RandomConstructionParams(t=3, n=10, seed=0)
    assert 0 < p.epsilon < Fraction(1, 4)
    assert RandomConstructionParams(t=3, n=30, seed=0, epsilon="1/5").epsilon == Fraction(1, 5)


@pytest.mark.parametrize("eps", [0.1, 0.2, Decimal("0.1"), "0.1", "1e-1", "1/0"])
def test_epsilon_must_be_exact(eps):
    with pytest.raises(ValueError):
        RandomConstructionParams(t=3, n=30, seed=0, epsilon=eps)
    with pytest.raises(ValueError):
        phase_count(30, eps)


def test_check_expansion_rejects_shared_singleton():
    # three left vertices, all four edges on one right vertex
    g = BipartiteSupport(t=3, n=6, num_phases=4, phases_of=((1, 1), (1, 1), (1, 1)))
    assert not check_expansion(g, 3)


def test_check_expansion_rejects_bad_pair():
    # two left vertices sharing one single neighbor can never be matched
    g = BipartiteSupport(t=3, n=5, num_phases=4, phases_of=((2, 2), (2, 2)))
    assert not check_expansion(g, 3)


def test_check_expansion_accepts_disjoint_spread():
    g = BipartiteSupport(
        t=3, n=7, num_phases=8, phases_of=((1, 2), (3, 4), (5, 6), (7, 8))
    )
    assert check_expansion(g, 3)


@pytest.mark.parametrize(
    "phases_of, last_pass, fails_at",
    [
        (((1, 1), (1, 1)), 1, 2),  # two loops on one phase
        (((1, 2), (1, 2), (1, 2)), 2, 3),  # three left vertices on one pair
        (((1, 2), (2, 3), (3, 1), (1, 2)), 3, 4),  # two cycles on three phases
    ],
    ids=["two-loops", "three-on-a-pair", "bicyclic"],
)
def test_check_expansion_boundary(phases_of, last_pass, fails_at):
    # extra left vertices on fresh phases change nothing: W never holds them
    pad = tuple((10 + 2 * i, 11 + 2 * i) for i in range(3))
    g = BipartiteSupport(
        t=fails_at, n=fails_at + len(phases_of) + 3, num_phases=16, phases_of=phases_of + pad
    )
    for s in range(2, fails_at + 2):
        want = s <= last_pass
        assert check_expansion(g, s) is want
        assert oracle_check_expansion(g, s) is want


def test_check_expansion_matches_left_side_oracle():
    # >= 2000 supports per t, checked at every scale 2..t; small L makes
    # loops common, and L < t lets W be every phase
    rng = random.Random(2024)
    for t in range(2, 7):
        verdicts = set()
        for _ in range(2000):
            L = rng.randint(1, t + 4)
            m = rng.randint(1, 10)
            pairs = tuple((rng.randint(1, L), rng.randint(1, L)) for _ in range(m))
            g = BipartiteSupport(t=t, n=t + m, num_phases=L, phases_of=pairs)
            for s in range(2, t + 1):
                got = check_expansion(g, s)
                assert got == oracle_check_expansion(g, s), (t, s, g)
                verdicts.add((L < t, got))
        assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def _dumbbell(t):
    """t left vertices on phases 1..t-1: a path with a loop at each end."""
    return [(1, 1)] + [(i, i + 1) for i in range(1, t - 1)] + [(t - 1, t - 1)]


@pytest.mark.parametrize("t", range(3, 8))
def test_check_expansion_dumbbell(t):
    # the whole path holds t left vertices on t-1 phases; a shorter
    # connected set is a sub-path, holding its edges and at most one loop
    g = BipartiteSupport(t=t, n=2 * t, num_phases=t - 1, phases_of=tuple(_dumbbell(t)))
    assert check_expansion(g, t - 1)
    assert not check_expansion(g, t)


@pytest.mark.parametrize("t", range(3, 8))
def test_check_expansion_dumbbell_relabelled_and_padded(t):
    # random labels put the dumbbell's smallest phase anywhere along it, so
    # the check must grow it from there through larger phases only; a
    # triangle and a path on other phases never hold more than their size
    rng = random.Random(t)
    L = 40
    k = t - 1
    pad = [(k + 1, k + 2), (k + 2, k + 3), (k + 3, k + 1), (k + 4, k + 5), (k + 5, k + 6)]
    moved = 0
    for _ in range(20):
        label = [0] + rng.sample(range(1, L + 1), L)
        pairs = [(label[p], label[q]) for p, q in _dumbbell(t) + pad]
        rng.shuffle(pairs)
        g = BipartiteSupport(t=t, n=t + len(pairs), num_phases=L, phases_of=tuple(pairs))
        for s, want in ((t - 1, True), (t, False)):
            assert check_expansion(g, s) is want
            assert oracle_check_expansion(g, s) is want
        moved += min(label[1:t]) != label[1]  # not grown in path order
    assert moved > 0


def test_check_expansion_matches_oracle_on_sparse_supports():
    # up to 40 phases, with the picks drawn from a random window of them:
    # most phase sets are disconnected, unlike the dense test above
    rng = random.Random(4096)
    for t in range(3, 7):
        verdicts = set()
        for _ in range(300):
            L = rng.randint(t + 5, 40)
            m = rng.randint(3, 14)
            width = rng.randint(2, L)
            lo = rng.randint(1, L - width + 1)
            pairs = tuple(
                (rng.randint(lo, lo + width - 1), rng.randint(lo, lo + width - 1))
                for _ in range(m)
            )
            g = BipartiteSupport(t=t, n=t + m, num_phases=L, phases_of=pairs)
            for s in range(2, t + 1):
                got = check_expansion(g, s)
                assert got == oracle_check_expansion(g, s), (t, s, g)
                verdicts.add(got)
        assert verdicts == {False, True}


@pytest.mark.parametrize("t", [3, 4, 5])
def test_t_reach_random_replays_with_oracle(t):
    # the sampler plus the left-side check picks the builder's support and retry count
    outcomes = set()
    for seed in range(20):
        params = RandomConstructionParams(t=t, n=4 * t + seed % 5, seed=seed, max_retries=4)
        rng = random.Random(seed)
        want = None
        for attempt in range(params.max_retries):
            g = sample_support(params, rng)
            if oracle_check_expansion(g, t):
                want = (g, attempt)
                break
        if want is None:
            with pytest.raises(RetriesExceededError):
                t_reach_random_full(params)
        else:
            built = t_reach_random_full(params)
            assert (built.support, built.retries) == want
        outcomes.add("exhausted" if want is None else min(want[1], 1))
    assert outcomes == {0, 1, "exhausted"}  # first-try, retried and exhausted builds


def test_sample_support_shape():
    params = RandomConstructionParams(t=3, n=12, seed=5)
    g = sample_support(params, random.Random(5))
    assert len(g.phases_of) == 9
    assert all(1 <= i <= params.phase_count for pair in g.phases_of for i in pair)


def test_t_reach_random_deterministic():
    params = RandomConstructionParams(t=3, n=20, seed=42)
    assert t_reach_random_full(params).network == t_reach_random_full(params).network
    other = RandomConstructionParams(t=3, n=20, seed=43)
    assert t_reach_random_full(params).network != t_reach_random_full(other).network


def test_t_reach_random_structure():
    params = RandomConstructionParams(t=3, n=20, seed=1)
    built = t_reach_random_full(params)
    net = built.network
    t, n, L = 3, 20, params.phase_count
    tail = network_to_star(waksman_permutation_network(t))
    assert net.is_star
    assert len(net) == (t - 1) * L + 2 * (n - t) + len(tail)
    # each (1,j) with j > t appears exactly twice: both its support edges
    from collections import Counter

    counts = Counter((tau.a, tau.b) for tau in net.seq)
    for j in range(t + 1, n + 1):
        assert counts[(1, j)] == 2
    # the sequence ends with the tail block
    assert net.seq[-len(tail):] == tail.seq


def test_expansion_acceptance_typical_at_coarse_scale():
    # with only L=12 phases for n=30 (the coarsest sensible exponent),
    # rejection is common but acceptance still lands within a handful of
    # samples; the default epsilon uses L=15 where retries are rarer
    rng = random.Random(99)
    accepted = 0
    for _ in range(50):
        pairs = tuple((rng.randint(1, 12), rng.randint(1, 12)) for _ in range(27))
        g = BipartiteSupport(t=3, n=30, num_phases=12, phases_of=pairs)
        accepted += check_expansion(g, 3)
    assert accepted >= 3


def test_t_reach_random_retries_exhausted():
    # scan for a seed whose first sample fails expansion, then cap retries
    base = RandomConstructionParams(t=3, n=20, seed=0)
    bad_seed = None
    for seed in range(2000):
        g = sample_support(base, random.Random(seed))
        if not check_expansion(g, 3):
            bad_seed = seed
            break
    assert bad_seed is not None, "no rejecting support found; loosen the scan"
    params = RandomConstructionParams(t=3, n=20, seed=bad_seed, max_retries=1)
    with pytest.raises(RetriesExceededError):
        t_reach_random_full(params)
