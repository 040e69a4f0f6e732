"""Exact decision procedures for reachability and uniformity.

Reachability runs a frontier closure S <- S union tau(S) over the
sequence, with the frontier held as a sorted array of mixed-radix tuple
codes; each step can at most double the frontier and never shrinks it.
Uniformity pushes an exact rational mass map through the lazy sequence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    CounterTuple,
    Distribution,
    LazyNetwork,
    Network,
    TupleSet,
    apply_transposition,
    decode_tuple,
    encode_tuple,
    start_tuple,
)
from .errors import BudgetExceededError

DEFAULT_BUDGET = 1 << 27

MISSING_SAMPLE_CAP = 10


@dataclass(frozen=True)
class ReachVerdict:
    """Outcome of a reachability check.

    ok holds exactly when every one of the required n(n-1)...(n-t+1)
    ordered tuples is reachable; otherwise missing_sample lists up to 10
    lexicographically smallest unreached tuples.  steps_used reports how
    many transpositions were processed before completeness (early exit).
    """

    ok: bool
    reached: int
    required: int
    missing_sample: tuple[CounterTuple, ...]
    steps_used: int

    def render(self) -> str:
        if self.ok:
            return f"OK reached={self.reached} required={self.required}"
        lines = [f"FAIL reached={self.reached} required={self.required}"]
        lines += ["missing " + " ".join(map(str, x)) for x in self.missing_sample]
        return "\n".join(lines)


@dataclass(frozen=True)
class UniformityVerdict:
    """Outcome of an exact uniformity check.

    expected_mass is (n-t)!/n!; deviations lists every tuple whose mass
    differs (including unreachable tuples, at mass 0), sorted.
    """

    ok: bool
    required: int
    expected_mass: Fraction
    deviations: tuple[tuple[CounterTuple, Fraction], ...]

    def render(self) -> str:
        mass = f"{self.expected_mass.numerator}/{self.expected_mass.denominator}"
        if self.ok:
            return f"OK tuples={self.required} mass={mass}"
        lines = [f"FAIL deviations={len(self.deviations)} expected={mass}"]
        for x, m in self.deviations[:MISSING_SAMPLE_CAP]:
            lines.append(f"tuple {' '.join(map(str, x))} mass {m.numerator}/{m.denominator}")
        if len(self.deviations) > MISSING_SAMPLE_CAP:
            lines.append(f"... {len(self.deviations) - MISSING_SAMPLE_CAP} more")
        return "\n".join(lines)


def _required_tuples(n: int, t: int, budget: int) -> int:
    if not 1 <= t <= n:
        raise ValueError(f"arity must satisfy 1 <= t <= n, got t={t}, n={n}")
    required = math.perm(n, t)
    if required > budget:
        raise BudgetExceededError(
            f"{required} tuples exceed the state budget {budget} (n={n}, t={t})"
        )
    if n**t >= 1 << 62:
        raise BudgetExceededError(f"tuple code space n^t overflows 64 bits (n={n}, t={t})")
    return required


def _frontier_codes(net: Network, t: int, budget: int) -> tuple[np.ndarray, int, int]:
    """Run the closure; return (sorted codes, required, steps processed).

    The closure stops once the frontier holds all required tuples: no
    later step can add one.
    """
    n = net.n
    required = _required_tuples(n, t, budget)
    weights = [n**i for i in range(t - 1, -1, -1)]
    codes = np.array([encode_tuple(start_tuple(t), n)], dtype=np.int64)
    steps = 0
    for tau in net.seq:
        if len(codes) == required:
            break
        steps += 1
        a, b = tau.a - 1, tau.b - 1
        mapped = np.zeros_like(codes)
        for w in weights:
            d = (codes // w) % n
            d = np.where(d == a, np.int64(b), np.where(d == b, np.int64(a), d))
            mapped += d * w
        merged = np.union1d(codes, mapped)
        if len(merged) > len(codes):
            codes = merged
    return codes, required, steps


def reach_set(net: Network, t: int, budget: int = DEFAULT_BUDGET) -> TupleSet:
    """Exactly the tuples reachable from (1,...,t) by some subsequence."""
    codes, _, _ = _frontier_codes(net, t, budget)
    return {decode_tuple(code, net.n, t) for code in codes.tolist()}


def _missing_sample(codes: np.ndarray, n: int, t: int) -> tuple[CounterTuple, ...]:
    reached = set(codes.tolist())
    out: list[CounterTuple] = []
    for x in itertools.permutations(range(1, n + 1), t):
        if encode_tuple(x, n) not in reached:
            out.append(x)
            if len(out) == MISSING_SAMPLE_CAP:
                break
    return tuple(out)


def verify_reachability(net: Network, t: int, budget: int = DEFAULT_BUDGET) -> ReachVerdict:
    """Decide t-reachability; a complete frontier ends the closure early."""
    codes, required, steps = _frontier_codes(net, t, budget)
    reached = len(codes)
    ok = reached == required
    missing = () if ok else _missing_sample(codes, net.n, t)
    return ReachVerdict(ok, reached, required, missing, steps)


def verify_permutation_network(net: Network, budget: int = DEFAULT_BUDGET) -> ReachVerdict:
    """Reachability at arity t = n: every permutation of [n] realizable."""
    return verify_reachability(net, net.n, budget)


def tuple_distribution(net: LazyNetwork, t: int, budget: int = DEFAULT_BUDGET) -> Distribution:
    """Exact push-forward of the start tuple through the lazy sequence.

    Masses are Fractions and sum to exactly 1 after every prefix; tuples
    with zero mass are never stored.
    """
    _required_tuples(net.n, t, budget)
    zero = Fraction(0)
    one = Fraction(1)
    mass: Distribution = {start_tuple(t): one}
    for tau in net.seq:
        p = tau.p
        if p == 0:
            continue
        stay = one - p
        nxt: Distribution = {}
        for x, m in mass.items():
            y = apply_transposition(tau, x)
            nxt[y] = nxt.get(y, zero) + p * m
            if stay:
                nxt[x] = nxt.get(x, zero) + stay * m
        mass = nxt
    return mass


def verify_uniformity(
    net: LazyNetwork, t: int, budget: int = DEFAULT_BUDGET
) -> UniformityVerdict:
    """Decide whether every ordered tuple carries mass exactly (n-t)!/n!."""
    required = _required_tuples(net.n, t, budget)
    expected = Fraction(1, required)
    mass = tuple_distribution(net, t, budget)
    deviations = [
        (x, mass.get(x, Fraction(0)))
        for x in itertools.permutations(range(1, net.n + 1), t)
        if mass.get(x, Fraction(0)) != expected
    ]
    # Mass on non-distinct tuples is impossible (transpositions preserve
    # distinctness), so the check above is exhaustive.
    return UniformityVerdict(not deviations, required, expected, tuple(deviations))
