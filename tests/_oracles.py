"""Independent reference implementations used only by the tests.

These deliberately avoid the library's frontier closure and push-forward
code: reachability is decided by enumerating all 2^l subsequences, or by
the frontier closure over a plain Python set, and lazy distributions by
enumerating all 2^l fire patterns with exact rational weights.  Keep
them naive.  ``apply_transposition`` maps one counter tuple, and
``compose_subsequence`` is an independent route to it: it tracks counters
and positions, not tuples.

``oracle_tuple_distribution`` is the push-forward that the ranked mass
array replaced: a dict of exact Fraction masses over the support, where
every step moves every supported tuple.  ``oracle_uniformity`` scans all
injective tuples against such a dict in ``itertools.permutations``
order.

``oracle_min_length`` is the search engine that the bitmask search with a
failed-frontier memo replaced: frozenset frontiers over a per-transposition
code table, no memo.  It is kept to pin minima, witnesses, exhausted levels
and node counts of the library search.  With ``prune=False`` it drops all
four of the library's fixed prune rules and searches every sequence, the
soundness reference for those rules.

``oracle_check_expansion`` is the left-side Hall check that the phase-side
``check_expansion`` replaced: it enumerates every set of 2..t left vertices
and compares the size of its neighbourhood with its own.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable

from reachnet.constructors import BipartiteSupport
from reachnet.core import (
    CounterTuple,
    Distribution,
    LazyNetwork,
    LazyTransposition,
    Network,
    Transposition,
    TupleSet,
    start_tuple,
)
from reachnet.errors import BudgetExceededError, CapExhaustedError
from reachnet.search import SearchResult, SearchSpec
from reachnet.verify import UniformityVerdict


def apply_transposition(tau: Transposition | LazyTransposition, x: CounterTuple) -> CounterTuple:
    """Image of a counter tuple under one transposition.

    Every entry equal to one endpoint becomes the other; applying the same
    transposition twice is the identity.
    """
    a, b = tau.a, tau.b
    return tuple(b if e == a else a if e == b else e for e in x)


def naive_reach_set(net: Network, t: int) -> TupleSet:
    """All tuples reachable from (1..t), by explicit subsequence enumeration."""
    seq = net.seq
    out: TupleSet = set()

    def rec(i: int, x: CounterTuple) -> None:
        if i == len(seq):
            out.add(x)
            return
        rec(i + 1, x)
        rec(i + 1, apply_transposition(seq[i], x))

    rec(0, start_tuple(t))
    return out


def oracle_reach_set(net: Network, t: int) -> TupleSet:
    """The frontier closure S <- S | tau(S) over a plain Python set, no early exit."""
    reached: TupleSet = {start_tuple(t)}
    for tau in net.seq:
        reached |= {apply_transposition(tau, x) for x in reached}
    return reached


def compose_subsequence(net: Network, mask: Iterable[int]) -> tuple[int, ...]:
    """Composite permutation of the selected transpositions, applied in order.

    ``mask`` is a set of distinct 1-based indices into ``net.seq``; the
    selected transpositions keep their sequence order.  Returns the full
    permutation as a tuple p with p[j-1] = final position of the counter
    that starts on position j.  An empty mask gives the identity.
    """
    indices = sorted(mask)
    for prev, idx in zip(indices, indices[1:]):
        if idx == prev:
            raise ValueError(f"mask index {idx} selected twice")
    n = net.n
    pos = list(range(n + 1))  # pos[j] = current position of counter j
    arr = list(range(n + 1))  # arr[p] = counter currently on position p
    for idx in indices:
        if not 1 <= idx <= len(net.seq):
            raise IndexError(f"mask index {idx} out of range 1..{len(net.seq)}")
        tau = net.seq[idx - 1]
        ca, cb = arr[tau.a], arr[tau.b]
        arr[tau.a], arr[tau.b] = cb, ca
        pos[ca], pos[cb] = tau.b, tau.a
    return tuple(pos[1:])


def naive_lazy_distribution(net: LazyNetwork, t: int) -> dict[CounterTuple, Fraction]:
    """Exact tuple distribution by enumerating every fire pattern."""
    seq = net.seq
    acc: dict[CounterTuple, Fraction] = {}

    def rec(i: int, x: CounterTuple, w: Fraction) -> None:
        if w == 0:
            return
        if i == len(seq):
            acc[x] = acc.get(x, Fraction(0)) + w
            return
        tau = seq[i]
        y = tuple(tau.b if e == tau.a else tau.a if e == tau.b else e for e in x)
        rec(i + 1, y, w * tau.p)
        rec(i + 1, x, w * (1 - tau.p))

    rec(0, start_tuple(t), Fraction(1))
    return acc


def oracle_tuple_distribution(net: LazyNetwork, t: int) -> Distribution:
    """Exact push-forward over a dict of the nonzero masses, step by step."""
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


def oracle_uniformity(mass: Distribution, n: int, t: int) -> UniformityVerdict:
    """Every injective tuple, in permutations order, against its dict mass."""
    required = math.perm(n, t)
    expected = Fraction(1, required)
    deviations = tuple(
        (x, mass.get(x, Fraction(0)))
        for x in itertools.permutations(range(1, n + 1), t)
        if mass.get(x, Fraction(0)) != expected
    )
    return UniformityVerdict(not deviations, required, expected, deviations)


def _encode(x: CounterTuple, n: int) -> int:
    """Base-n code of a counter tuple, as the search numbers its bits."""
    code = 0
    for e in x:
        code = code * n + (e - 1)
    return code


def _apply_table(n: int, t: int, a: int, b: int) -> list[int]:
    """code -> code map of the transposition over the n^t code space."""
    size = n**t
    tab = list(range(size))
    da, db = a - 1, b - 1
    for code in range(size):
        c = code
        out = 0
        w = 1
        for _ in range(t):
            c, d = divmod(c, n)
            if d == da:
                d = db
            elif d == db:
                d = da
            out += d * w
            w *= n
        tab[code] = out
    return tab


class _FrozensetSearcher:
    def __init__(self, n: int, t: int, star_only: bool, prune: bool, budget: int | None):
        self.n = n
        self.t = t
        self.star_only = star_only
        self.prune = prune
        self.budget = budget
        self.required = math.perm(n, t)
        self.nodes = 0
        self.tables: dict[tuple[int, int], list[int]] = {}
        self.path: list[tuple[int, int]] = []

    def table(self, a: int, b: int) -> list[int]:
        tab = self.tables.get((a, b))
        if tab is None:
            tab = _apply_table(self.n, self.t, a, b)
            self.tables[(a, b)] = tab
        return tab

    def candidates(self, active: frozenset[int]) -> list[tuple[int, int]]:
        """Branching order: active-active pairs, then activations, lex each."""
        act = sorted(active)
        if self.star_only:
            within = [(1, x) for x in act if x != 1]
        else:
            within = [(a, b) for i, a in enumerate(act) for b in act[i + 1 :]]
        out = within
        inactive = [v for v in range(1, self.n + 1) if v not in active]
        if inactive:
            if self.prune:
                new = [inactive[0]]
            else:
                new = inactive
            if self.star_only:
                out = out + [(1, v) for v in new]
            else:
                out = out + sorted((min(a, v), max(a, v)) for a in act for v in new)
                if not self.prune:
                    out = out + [
                        (u, v) for i, u in enumerate(inactive) for v in inactive[i + 1 :]
                    ]
        return out

    def run(self, length: int) -> Network | None:
        start = frozenset([_encode(start_tuple(self.t), self.n)])
        active = frozenset(range(1, self.t + 1))
        self.path = []
        if self._dfs(start, active, length):
            return Network.from_pairs(self.n, self.path)
        return None

    def _dfs(self, frontier: frozenset[int], active: frozenset[int], remaining: int) -> bool:
        if len(frontier) == self.required:
            return True
        if remaining == 0:
            return False
        if self.prune:
            if len(frontier) << remaining < self.required:
                return False
            if self.n - len(active) > remaining:
                return False
        for a, b in self.candidates(active):
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                raise BudgetExceededError(
                    f"search node budget {self.budget} exceeded (result unknown)"
                )
            tab = self.table(a, b)
            child = frontier | {tab[s] for s in frontier}
            if self.prune and len(child) == len(frontier):
                continue
            if a in active:
                nxt_active = active if b in active else active | {b}
            else:
                nxt_active = active | {a} if b in active else active
            self.path.append((a, b))
            if self._dfs(child, nxt_active, remaining - 1):
                return True
            self.path.pop()
        return False


def oracle_min_length(spec: SearchSpec, prune: bool = True) -> SearchResult:
    """Iterative deepening from n-1 with the frozenset search."""
    searcher = _FrozensetSearcher(spec.n, spec.t, spec.star_only, prune, spec.budget)
    exhausted: list[int] = []
    level = max(0, spec.n - 1)
    while spec.max_len is None or level <= spec.max_len:
        witness = searcher.run(level)
        if witness is not None:
            return SearchResult(len(witness), witness, searcher.nodes, tuple(exhausted))
        exhausted.append(level)
        level += 1
    raise CapExhaustedError(f"no network of length <= {spec.max_len}")


def oracle_check_expansion(g: BipartiteSupport, t: int) -> bool:
    """Hall's condition at scale t: every <= t left vertices are matchable.

    Direct enumeration: each subset of 2..t left vertices must see at
    least as many distinct right vertices (singletons hold automatically,
    every left vertex having degree >= 1).
    """
    hoods = [frozenset(pair) for pair in g.phases_of]
    for s in range(2, t + 1):
        for subset in itertools.combinations(hoods, s):
            union: set[int] = set()
            for h in subset:
                union |= h
            if len(union) < s:
                return False
    return True
