"""The benchmark's workloads: every job it runs, generated from a seed.

A job is one user action: a pipeline of ``reachnet`` invocations such as
``reachnet gen ... | reachnet verify -t 2``.  The program only ever sees
argv and network text; everything random here is drawn from
``random.Random`` seeded with (workload, seed, pass index), so the same
seed gives the same jobs in both the worker that runs them and the
parent that checks them.  This module imports nothing from ``reachnet``.

Sizes are a fixed list of shapes per pass, each jittered a little by the
seed, so a pass costs about the same on every seed while its inputs
differ.  Shapes and the reason for each are documented next to them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Step:
    """One ``reachnet`` invocation; ``stdin=None`` pipes the previous stdout."""

    argv: tuple[str, ...]
    stdin: str | None = None


@dataclass(frozen=True)
class Job:
    """A pipeline plus what the checker needs to know about its inputs."""

    kind: str
    n: int
    t: int
    steps: tuple[Step, ...]
    info: dict = field(default_factory=dict)
    id: str = ""


# ---------------------------------------------------------------------------
# The benchmark's own copies of the simple families and of the text format.
# They feed mutated inputs to the program and let the checker compare gen
# output line by line; they are short on purpose and share no code with
# reachnet.
# ---------------------------------------------------------------------------


def two_reach_pairs(n: int) -> list[tuple[int, int]]:
    pairs = [(1, 2)] + [(1, x) for x in range(3, n + 1, 2)]
    pairs += [(2, y) for y in range(4, n + 1, 2)] + [(x, x + 1) for x in range(3, n, 2)]
    return pairs + ([(1, 2)] if n % 2 else [])


def two_reach_star_pairs(n: int) -> list[tuple[int, int]]:
    if n % 2 == 0:
        return [(1, 2)] + [(1, k) for k in range(4, n + 1, 2)] + [(1, k) for k in range(2, n + 1)]
    m = (n - 1) // 2
    pairs = [(1, 2)] + [(1, k) for k in range(4, 2 * m + 1, 2)]
    for j in range(1, m + 1):
        pairs += [(1, 2 * j + 1), (1, 2 * j)]
    return pairs


def two_unif_star_triples(n: int) -> list[tuple[int, int, Fraction]]:
    half = Fraction(1, 2)
    out = [(1, 2, half)]
    for k in range(3, n + 1):
        out += [(1, k, Fraction(2, n + 3 - k)), (1, 2, half)]
    return out


FAMILY_PAIRS = {"two-reach": two_reach_pairs, "two-reach-star": two_reach_star_pairs}


def lazy_star_rewrite(triples: list[tuple]) -> list[tuple]:
    """Replace each non-star (a, b, p) by (1, a, 1), (1, b, p), (1, a, 1)."""
    one = Fraction(1)
    out: list[tuple] = []
    for a, b, p in triples:
        out += [(a, b, p)] if a == 1 else [(1, a, one), (1, b, p), (1, a, one)]
    return out


def network_text(n: int, rows: list[tuple], comment: str) -> str:
    lazy = bool(rows) and len(rows[0]) == 3
    lines = ["reachnet 1", f"# {comment}", f"n {n}", f"kind {'lazy' if lazy else 'plain'}"]
    for row in rows:
        if lazy:
            a, b, p = row
            lines.append(f"{a} {b} {p.numerator}/{p.denominator}")
        else:
            lines.append(f"{row[0]} {row[1]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Job builders
# ---------------------------------------------------------------------------


def gen(family: str, n: int, *extra: str) -> Step:
    return Step(("gen", "--family", family, "-n", str(n), *extra))


def verify(t: int, *extra: str) -> Step:
    return Step(("verify", "-t", str(t), *extra))


def family_job(family: str, n: int, t: int) -> Job:
    return Job("family", n, t, (gen(family, n), verify(t)), {"family": family})


def random_job(n: int, t: int, verify_t: int, seed: int) -> Job:
    steps = (gen("t-reach-random", n, "-t", str(t), "--seed", str(seed)), verify(verify_t))
    return Job("random-build", n, verify_t, steps, {"build_t": t, "seed": seed})


def mutated_job(rng: random.Random, family: str, n: int, t: int) -> Job:
    """A length-optimal family network minus one transposition: must FAIL.

    Both families meet the proven 2-reachability lower bounds with
    equality, so dropping any transposition leaves an unreachable tuple.
    """
    pairs = FAMILY_PAIRS[family](n)
    del pairs[rng.randrange(len(pairs))]
    text = network_text(n, pairs, f"{family} {n} minus one transposition")
    return Job("mutated", n, t, (Step(("verify", "-t", str(t)), text),), {"pairs": pairs})


def analyze_job(family: str, n: int, mode: str) -> Job:
    steps = (gen(family, n), Step(("analyze", "--mode", mode)))
    return Job("analyze", n, 2, steps, {"family": family, "mode": mode})


def unif_star_job(n: int) -> Job:
    return Job("unif-star", n, 2, (gen("two-unif-star", n), verify(2, "--uniform")))


PROBS = tuple(Fraction(a, b) for b in (2, 3, 4, 5) for a in range(1, b))


def lazy_job(rng: random.Random, n: int, length: int, t: int, star: bool) -> Job:
    """A random lazy network; exact uniformity fails on these by a wide margin."""
    triples = []
    for _ in range(length):
        a, b = sorted(rng.sample(range(1, n + 1), 2))
        triples.append((a, b, rng.choice(PROBS)))
    text = network_text(n, triples, f"random lazy network, length {length}")
    if star:
        steps = (Step(("convert", "--to-star"), text), verify(t, "--uniform"))
    else:
        steps = (Step(("verify", "-t", str(t), "--uniform"), text),)
    return Job("lazy-star" if star else "lazy", n, t, steps, {"triples": triples})


def search_job(n: int, t: int, star: bool) -> Job:
    argv = ("search", "-n", str(n), "-t", str(t)) + (("--star",) if star else ())
    return Job("search", n, t, (Step(argv),), {"star": star})


def common_jobs(rng: random.Random) -> list[Job]:
    """One small job per subcommand, so every layer runs on every workload.

    This is also the warm-up pass: it loads every code path once.
    """
    return [
        family_job("two-reach", 12, 2),
        random_job(10, 3, 3, rng.randrange(1 << 30)),
        unif_star_job(6),
        lazy_job(rng, 5, 6, 2, star=True),
        analyze_job("two-reach", 8, "edges"),
        search_job(4, 2, star=False),
    ]


def reach_jobs(rng: random.Random) -> list[Job]:
    j = rng.randrange
    return [
        # t=2 families at n in the hundreds: large n, small t
        family_job("two-reach", 64 + j(8), 2),
        family_job("two-reach-star", 110 + j(8), 2),
        family_job("two-reach", 150 + j(8), 2),
        family_job("two-reach-star", 190 + j(8), 2),
        # t=1 at n in the thousands: the closure is a sort per step
        family_job("two-reach", 2000 + j(100), 1),
        family_job("two-reach", 4000 + j(100), 1),
        # t=n permutation networks: n^t far exceeds n!
        family_job("waksman", 7, 7),
        family_job("waksman", 8, 8),
        family_job("waksman", 9, 9),
        # random builds verified at their own t
        random_job(38 + j(2), 3, 3, j(1 << 30)),
        random_job(18 + j(2), 4, 4, j(1 << 30)),
        # random builds at t=5/6 verified at t=3: the expansion check is a
        # large share, and some seeds exhaust their retries (exit 3)
        random_job(32 + j(5), 5, 3, j(1 << 30)),
        random_job(26 + j(5), 6, 3, j(1 << 30)),
        family_job("two-reach-star", 16 + j(4), 2),
        # inputs that must FAIL, so the missing-sample path runs.  The eight
        # alike t=2 ones also put the median job on a plateau of similar,
        # CLI- and parse-bound latencies, which keeps job_p50_s steady.
        *(mutated_job(rng, family, 24, 2) for family in ("two-reach", "two-reach-star") * 4),
        mutated_job(rng, "two-reach", 10 + j(3), 3),
        mutated_job(rng, "two-reach-star", 8 + j(3), 3),
        analyze_job("two-reach", 40 + j(20), "edges"),
        analyze_job("two-reach-star", 40 + j(20), "edges"),
        analyze_job("two-reach-star", 40 + j(20), "occurrences"),
    ]


def uniform_jobs(rng: random.Random) -> list[Job]:
    # Nine jobs faster than the plateau of seven alike t=2 lazy jobs, nine
    # slower: the median job sits mid-plateau and job_p50_s stays steady.
    # The three largest have fixed sizes, so the 90th percentile falls in
    # the middle of the third largest (25 jobs a pass with the common six).
    j = rng.randrange
    return [
        # exactly 2-uniform: must be OK
        unif_star_job(7),
        unif_star_job(24 + j(4)),
        unif_star_job(40 + j(4)),
        unif_star_job(56),
        unif_star_job(64),
        unif_star_job(72),
        # random lazy networks at t=2..4, some through convert --to-star;
        # these FAIL with many deviations
        lazy_job(rng, 5, 8, 2, star=False),
        lazy_job(rng, 5, 8, 2, star=True),
        *(lazy_job(rng, 8, 20, 2, star=False) for _ in range(7)),
        lazy_job(rng, 9, 32, 3, star=False),
        lazy_job(rng, 9, 30, 4, star=False),
        lazy_job(rng, 9, 28, 3, star=True),
        lazy_job(rng, 8, 24, 4, star=True),
    ]


# (n, t, star) search specs; the seed only sets their order.  Star t=3 at
# n=7 (4.4 s) is left out so that a pass takes about a third of a run:
# three passes then fit whether a pass gets 15% faster or slower.
SEARCH_SPECS = (
    (8, 2, True), (9, 2, True), (10, 2, True),   # star t=2
    (5, 3, True), (6, 3, True),                  # star t=3
    (5, 4, False), (5, 5, False), (5, 4, True),  # t close to n
    # small general and star cases
    (4, 2, False), (5, 2, False), (6, 2, False), (4, 3, False), (5, 3, False),
    (6, 1, False), (5, 2, True), (6, 2, True), (7, 2, True),
)

# Run twice a pass: the three specs of 3-4 ms, so the median job sits in
# the middle of a plateau of six, and (5, 3) general, which balances the
# count above the plateau against the eleven jobs below it.
SEARCH_REPEATS = ((5, 3, True), (5, 2, False), (7, 2, True), (5, 3, False))


def search_jobs(rng: random.Random) -> list[Job]:
    return [search_job(n, t, star) for n, t, star in SEARCH_SPECS + SEARCH_REPEATS]


@dataclass(frozen=True)
class Workload:
    jobs: Callable[[random.Random], list[Job]]
    # Latency percentile reported as job_tail_s.  Fixed per workload: the
    # highest of 50/75/90/95/99 that left at least ten jobs beyond it in a
    # run with a quarter fewer jobs than one at the commit that introduced
    # the benchmark.  Being fixed, it never scores a faster program (more
    # jobs per run) on a harsher percentile.
    tail_pct: int
    # Passes run by a traced run; fixed so that its work counts repeat
    # exactly for a given seed.
    trace_passes: int


WORKLOADS = {
    "reach": Workload(reach_jobs, tail_pct=95, trace_passes=3),
    "uniform": Workload(uniform_jobs, tail_pct=90, trace_passes=3),
    "search": Workload(search_jobs, tail_pct=75, trace_passes=1),
}


def make_pass(workload: str, seed: int, index: int) -> list[Job]:
    """The jobs of one pass, in a seed-chosen order, with stable ids."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = WORKLOADS[workload].jobs(rng) + common_jobs(rng)
    rng.shuffle(jobs)
    return [replace(job, id=f"{index}.{i}") for i, job in enumerate(jobs)]


def warmup_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"warmup:{seed}")
    return [replace(job, id=f"w.{i}") for i, job in enumerate(common_jobs(rng))]
