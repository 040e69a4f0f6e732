"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
All checks are exact (integer or rational); no tolerances anywhere.
"""

import random
from collections import Counter
from fractions import Fraction

from reachnet import (
    LazyNetwork,
    Network,
    RandomConstructionParams,
    SearchSpec,
    exists_network,
    lazy_to_star,
    min_length,
    network_to_star,
    reach_set,
    star_occurrence_classes,
    t_reach_random_full,
    tuple_distribution,
    two_reach,
    two_reach_length,
    two_reach_star,
    two_reach_star_length,
    two_unif_star,
    verify_reachability,
    verify_uniformity,
    waksman_length,
    waksman_permutation_network,
)

from _oracles import naive_lazy_distribution, naive_reach_set


def report(cid: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


def _random_plain(rng: random.Random, n: int, length: int, star: bool) -> Network:
    ps = []
    for _ in range(length):
        if star:
            ps.append((1, rng.randint(2, n)))
        else:
            a = rng.randint(1, n)
            b = rng.randint(1, n)
            while b == a:
                b = rng.randint(1, n)
            ps.append((a, b))
    return Network.from_pairs(n, ps)


def test_criterion_01_exact_minimums_general():
    expected = {2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 9}
    failures = []
    for n, value in expected.items():
        r = min_length(SearchSpec(n, 2))
        if r.min_length != value or value != two_reach_length(n):
            failures.append(f"n={n}: got {r.min_length}, want {value}")
        if not verify_reachability(r.witness, 2).ok:
            failures.append(f"n={n}: witness fails independent verification")
        if exists_network(n, 2, value - 1) is not None:
            failures.append(f"n={n}: length {value - 1} unexpectedly feasible")
    report(1, not failures, f"min 2-reachability lengths {list(expected.values())} "
           f"for n=2..7, each with exhaustive infeasibility at length-1"
           + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_02_exact_minimums_star():
    expected = {3: 3, 4: 5, 5: 6, 6: 8, 7: 9}
    failures = []
    for n, value in expected.items():
        r = min_length(SearchSpec(n, 2, star_only=True))
        if r.min_length != value or value != two_reach_star_length(n):
            failures.append(f"n={n}: got {r.min_length}, want {value}")
        if not (r.witness.is_star and verify_reachability(r.witness, 2).ok):
            failures.append(f"n={n}: witness invalid")
        if exists_network(n, 2, value - 1, star_only=True) is not None:
            failures.append(f"n={n}: star length {value - 1} unexpectedly feasible")
    report(2, not failures, "min star 2-reachability lengths [3, 5, 6, 8, 9] for n=3..7"
           + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_03_one_reachability_bound():
    failures = []
    for n in range(2, 7):
        r = min_length(SearchSpec(n, 1))
        if r.min_length != n - 1:
            failures.append(f"n={n}: got {r.min_length}")
        if exists_network(n, 1, n - 2) is not None:
            failures.append(f"n={n}: length {n - 2} unexpectedly feasible")
    report(3, not failures, "min 1-reachability length is n-1 for n=2..6"
           + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_04_constructions_verify_to_40():
    failures = []
    for n in [*range(2, 41), 600]:
        net = two_reach(n)
        if len(net) != two_reach_length(n) or not verify_reachability(net, 2).ok:
            failures.append(f"two_reach({n})")
    for n in [*range(3, 41), 600]:
        net = two_reach_star(n)
        if len(net) != two_reach_star_length(n) or not net.is_star:
            failures.append(f"two_reach_star({n}) shape")
        elif not verify_reachability(net, 2).ok:
            failures.append(f"two_reach_star({n}) reach")
    report(4, not failures,
           "two_reach and two_reach_star (n<=40 and n=600) verify at t=2 with exact lengths"
           + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_05_permutation_networks():
    failures = []
    for n in range(1, 65):
        if len(waksman_permutation_network(n)) != waksman_length(n):
            failures.append(f"length n={n}")
    for n in range(1, 10):
        if not verify_reachability(waksman_permutation_network(n), n).ok:
            failures.append(f"completeness n={n}")
    report(5, not failures,
           "permutation network length = sum(ceil(log2 i)) for n<=64; all n! "
           "permutations reachable for n<=9"
           + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_06_randomized_t_reachability():
    # (t, n values, arity verified); t=5 is verified at t=3 to stay in tier-1 time
    rows = [(3, (20, 30, 50), 3), (4, (20, 30), 4), (5, (30,), 3)]
    failures = []
    for t, ns, vt in rows:
        tail_len = len(network_to_star(waksman_permutation_network(t)))
        for n in ns:
            for seed in range(1, 6):
                params = RandomConstructionParams(t=t, n=n, seed=seed)
                built = t_reach_random_full(params)  # raises if retries exhausted
                L = params.phase_count
                want = (t - 1) * L + 2 * (n - t) + tail_len
                where = f"t={t} n={n} seed={seed}"
                if len(built.network) != want:
                    failures.append(f"{where}: length {len(built.network)} != {want}")
                counts = Counter((tau.a, tau.b) for tau in built.network.seq[:-tail_len])
                if any(counts[(1, j)] != 2 for j in range(t + 1, n + 1)):
                    failures.append(f"{where}: some (1,j) not used exactly twice")
                if not verify_reachability(built.network, vt).ok:
                    failures.append(f"{where}: not {vt}-reachable")
    report(6, not failures,
           "randomized construction: 30/30 builds (t=3, n=20,30,50; t=4, n=20,30; "
           "t=5, n=30; seeds 1-5) have exact length (t-1)L + 2(n-t) + tail, use each "
           "(1,j) twice, and verify at t (t=5 at t=3)"
           + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_07_exact_two_uniformity():
    failures = []
    for n in range(2, 17):
        v = verify_uniformity(two_unif_star(n), 2)
        if not (v.ok and v.expected_mass == Fraction(1, n * (n - 1))):
            failures.append(f"n={n}")
    report(7, not failures,
           "two_unif_star(n) exactly 2-uniform with mass 1/(n(n-1)) for 2<=n<=16"
           + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_08_lower_bounds_as_invariants():
    corpus: list[Network] = [two_reach(n) for n in range(2, 13)]
    corpus += [two_reach_star(n) for n in range(3, 13)]
    corpus += [min_length(SearchSpec(n, 2)).witness for n in range(2, 6)]
    corpus += [min_length(SearchSpec(n, 2, star_only=True)).witness for n in range(3, 6)]
    rng = random.Random(20240831)
    for n in range(2, 9):
        for i in range(1000):
            star = i % 2 == 0
            corpus.append(_random_plain(rng, n, rng.randint(1, 2 * n + 2), star))
    accepted = star_accepted = 0
    failures = []
    for net in corpus:
        if not verify_reachability(net, 2).ok:
            continue
        accepted += 1
        if len(net) < two_reach_length(net.n):
            failures.append(f"general bound broken: n={net.n} len={len(net)}")
        # the star-only bound and red >= black both come with the n >= 3
        # hypothesis; n=2 admits the single-switch network [(1,2)]
        if net.is_star and net.n >= 3:
            star_accepted += 1
            if len(net) < two_reach_star_length(net.n):
                failures.append(f"star bound broken: n={net.n} len={len(net)}")
            occ = star_occurrence_classes(net)
            if occ.red < occ.black:
                failures.append(f"red<black: n={net.n} {net.seq}")
    ok = not failures and accepted >= 500 and star_accepted >= 200
    report(8, ok,
           f"lower bounds hold on every accepted network ({accepted} accepted, "
           f"{star_accepted} star with n>=3, corpus {len(corpus)}); star invariants "
           "asserted for n>=3 per their hypothesis"
           + ("; " + "; ".join(failures[:5]) if failures else ""))


def test_criterion_09_oracle_equivalence():
    rng = random.Random(424242)
    failures = []
    for case in range(500):
        n = rng.randint(2, 6)
        t = rng.randint(1, min(3, n))
        length = rng.randint(0, 15)
        net = _random_plain(rng, n, length, star=False)
        if reach_set(net, t) != naive_reach_set(net, t):
            failures.append(f"case {case}: n={n} t={t} seq={net.seq}")
    report(9, not failures,
           "frontier reach_set equals naive 2^l subsequence enumeration on 500 "
           "random networks (l<=15, n<=6, t<=3)"
           + ("; " + "; ".join(failures[:3]) if failures else ""))


def test_criterion_10_simulation_fidelity():
    rng = random.Random(77)
    failures = []
    for case in range(200):
        n = rng.randint(2, 5)
        t = rng.randint(1, 2)
        length = rng.randint(0, 6)
        triples = []
        for _ in range(length):
            a = rng.randint(1, n)
            b = rng.randint(1, n)
            while b == a:
                b = rng.randint(1, n)
            triples.append((a, b, Fraction(rng.randint(0, 8), 8)))
        lazy = LazyNetwork.from_triples(n, triples)
        star = lazy_to_star(lazy)
        if tuple_distribution(lazy, t) != tuple_distribution(star, t):
            failures.append(f"case {case}: star distribution differs")
            continue
        ref = {x: m for x, m in naive_lazy_distribution(lazy, t).items() if m != 0}
        if tuple_distribution(lazy, t) != ref:
            failures.append(f"case {case}: push-forward differs from fire-pattern oracle")
        plain = lazy.strip()
        plain_star = network_to_star(plain)
        if not reach_set(plain_star, t) >= reach_set(plain, t):
            failures.append(f"case {case}: star reach lost tuples")
        if verify_reachability(plain, t).ok and not verify_reachability(plain_star, t).ok:
            failures.append(f"case {case}: positive reach verdict not preserved")
    report(10, not failures,
           "star simulation preserves exact tuple distributions and reachability "
           "on 200 random lazy networks (n<=5, t<=2, l<=6)"
           + ("; " + "; ".join(failures[:3]) if failures else ""))


def test_criterion_11_exact_minimums_star_three():
    expected = {3: 3, 4: 6, 5: 8, 6: 10, 7: 12}
    failures = []
    for n, value in expected.items():
        r = min_length(SearchSpec(n, 3, star_only=True))
        if r.min_length != value:
            failures.append(f"n={n}: got {r.min_length}, want {value}")
        if r.exhausted_levels != tuple(range(n - 1, value)):
            failures.append(f"n={n}: exhausted levels {r.exhausted_levels}")
        if not (r.witness.is_star and verify_reachability(r.witness, 3).ok):
            failures.append(f"n={n}: witness invalid")
    report(11, not failures, "min star 3-reachability lengths [3, 6, 8, 10, 12] for n=3..7, "
           "every level from n-1 up to the minimum exhausted"
           + ("; " + "; ".join(failures) if failures else ""))
