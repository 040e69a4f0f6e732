"""Builders for every explicit network family.

Deterministic families: the 1-reachability star chain, the 2-reachability
construction of length ceil(3n/2)-2, its star-only variant of length
ceil(3(n-1)/2) (with the "twisted" tail for odd n), the recursive
permutation network of length sum(ceil(log2 i)), and the exactly
2-uniform lazy star network of length 2n-3.

Randomized family: a t-reachability network assembled from a random
bipartite support graph whose left vertices each get two uniform right
neighbors (phases); accepted supports satisfy Hall's matching condition at
scale t, checked over the connected sets of at most t-1 phases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import LazyNetwork, LazyTransposition, Network, Transposition, rational
from .errors import RetriesExceededError


def one_reach(n: int) -> Network:
    """Star chain (1,2),(1,3),...,(1,n): 1-reachable with n-1 transpositions."""
    if n < 2:
        raise ValueError(f"one_reach needs n >= 2, got {n}")
    return Network.from_pairs(n, ((1, k) for k in range(2, n + 1)))


def two_reach(n: int) -> Network:
    """2-reachability network of length exactly ceil(3n/2) - 2.

    Order of play: (1,2); (1,x) for odd x; (2,y) for even y >= 4;
    the disjoint pairs (x,x+1) for odd x; and a closing (1,2) when n is
    odd (needed to reach the pair (1,n)).
    """
    if n < 2:
        raise ValueError(f"two_reach needs n >= 2, got {n}")
    pairs: list[tuple[int, int]] = [(1, 2)]
    pairs += [(1, x) for x in range(3, n + 1, 2)]
    pairs += [(2, y) for y in range(4, n + 1, 2)]
    pairs += [(x, x + 1) for x in range(3, n, 2)]
    if n % 2 == 1:
        pairs.append((1, 2))
    return Network.from_pairs(n, pairs)


def two_reach_star(n: int) -> Network:
    """Star-only 2-reachability network of length exactly ceil(3(n-1)/2).

    Even n: load an even position in a first sweep, then sweep every
    position.  Odd n = 2m+1 uses the twisted tail (1,3),(1,2),(1,5),(1,4),
    ...,(1,2m+1),(1,2m) instead, saving one transposition over appending
    (1,2) to the even-style sweep.
    """
    if n < 3:
        raise ValueError(f"two_reach_star needs n >= 3, got {n}")
    pairs: list[tuple[int, int]] = [(1, 2)]
    if n % 2 == 0:
        pairs += [(1, k) for k in range(4, n + 1, 2)]
        pairs += [(1, k) for k in range(2, n + 1)]
    else:
        m = (n - 1) // 2
        pairs += [(1, k) for k in range(4, 2 * m + 1, 2)]
        for j in range(1, m + 1):
            pairs += [(1, 2 * j + 1), (1, 2 * j)]
    return Network.from_pairs(n, pairs)


def two_reach_length(n: int) -> int:
    return -(-3 * n // 2) - 2


def two_reach_star_length(n: int) -> int:
    return -(-3 * (n - 1) // 2)


# ---------------------------------------------------------------------------
# Permutation network
# ---------------------------------------------------------------------------


def waksman_length(n: int) -> int:
    """sum_{i=1}^{n} ceil(log2 i), the permutation-network switch count."""
    return sum((i - 1).bit_length() for i in range(1, n + 1))


def waksman_permutation_network(n: int) -> Network:
    """Permutation network on [n] with exactly waksman_length(n) switches.

    Recursive two-half decomposition, serialized in place: an entry column
    pairing consecutive positions, subnetworks on the odd- and even-indexed
    positions, and an exit column with the classic one-switch saving (the
    last exit pair is fixed straight).  Odd sizes route the last position
    into the larger subnetwork, bypassing both columns.
    """
    if n < 1:
        raise ValueError(f"waksman_permutation_network needs n >= 1, got {n}")

    def build(pos: list[int]) -> list[Transposition]:
        k = len(pos)
        if k <= 1:
            return []
        if k == 2:
            return [Transposition(pos[0], pos[1])]
        entry = [Transposition(pos[2 * i], pos[2 * i + 1]) for i in range(k // 2)]
        exit_ = [Transposition(pos[2 * i], pos[2 * i + 1]) for i in range((k + 1) // 2 - 1)]
        return entry + build(pos[0::2]) + build(pos[1::2]) + exit_

    return Network(n, tuple(build(list(range(1, n + 1)))))


# ---------------------------------------------------------------------------
# Star simulation
# ---------------------------------------------------------------------------


def network_to_star(net: Network) -> Network:
    """Replace each non-star (a,b) by the triple (1,a),(1,b),(1,a).

    Using all three or none of the triple realizes using or skipping the
    original transposition, so every tuple reachable before stays
    reachable; the extra subsequences can only add.
    """
    out: list[Transposition] = []
    for tau in net.seq:
        if tau.a == 1:
            out.append(tau)
        else:
            out += [
                Transposition(1, tau.a),
                Transposition(1, tau.b),
                Transposition(1, tau.a),
            ]
    return Network(net.n, tuple(out))


def lazy_to_star(net: LazyNetwork) -> LazyNetwork:
    """Replace each non-star (a,b,p) by (1,a,1),(1,b,p),(1,a,1).

    The outer transpositions fire with probability 1, so the triple equals
    (a,b) with probability p and the identity otherwise; the tuple
    distribution is preserved exactly for every arity.
    """
    one = Fraction(1)
    out: list[LazyTransposition] = []
    for tau in net.seq:
        if tau.a == 1:
            out.append(tau)
        else:
            out += [
                LazyTransposition(1, tau.a, one),
                LazyTransposition(1, tau.b, tau.p),
                LazyTransposition(1, tau.a, one),
            ]
    return LazyNetwork(net.n, tuple(out))


# ---------------------------------------------------------------------------
# Exact 2-uniformity
# ---------------------------------------------------------------------------


def two_unif_star(n: int) -> LazyNetwork:
    """Lazy star network of length 2n-3 that is exactly 2-uniform.

    Alternates a fair (1,2,1/2) with (1,k,2/(n+3-k)) for k = 3..n; all
    probabilities are exact rationals.
    """
    if n < 2:
        raise ValueError(f"two_unif_star needs n >= 2, got {n}")
    half = Fraction(1, 2)
    seq: list[LazyTransposition] = [LazyTransposition(1, 2, half)]
    for k in range(3, n + 1):
        seq.append(LazyTransposition(1, k, Fraction(2, n + 3 - k)))
        seq.append(LazyTransposition(1, 2, half))
    return LazyNetwork(n, tuple(seq))


# ---------------------------------------------------------------------------
# Randomized t-reachability
# ---------------------------------------------------------------------------


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of x, by exact integer bisection."""
    if x < 0 or k < 1:
        raise ValueError(f"iroot needs x >= 0 and k >= 1, got ({x}, {k})")
    # invariant lo^k <= x < hi^k; x < 2^bits, so hi = 2^ceil(bits/k) starts above
    lo, hi = 0, 1 << -(-x.bit_length() // k)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid
    return lo


def phase_count(n: int, epsilon: Fraction) -> int:
    """L = floor(n^(1-epsilon)), computed by integer root, never floats."""
    exp = 1 - rational(epsilon)
    if not 0 < exp < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return iroot(n**exp.numerator, exp.denominator)


def default_epsilon(t: int) -> Fraction:
    """Safely inside the required open interval (0, 1/(t+1))."""
    return Fraction(1, t + 2)


@dataclass(frozen=True)
class RandomConstructionParams:
    """Parameters of the randomized t-reachability builder."""

    t: int
    n: int
    seed: int
    epsilon: Fraction | None = None
    max_retries: int = 64

    def __post_init__(self) -> None:
        if self.t < 3:
            raise ValueError(f"randomized construction needs t >= 3, got t={self.t}")
        if self.n <= self.t:
            raise ValueError(f"randomized construction needs n > t, got n={self.n}, t={self.t}")
        eps = rational(self.epsilon) if self.epsilon is not None else default_epsilon(self.t)
        object.__setattr__(self, "epsilon", eps)
        if not 0 < eps < Fraction(1, self.t + 1):
            raise ValueError(f"epsilon must lie in (0, 1/{self.t + 1}), got {eps}")
        if self.max_retries < 1:
            raise ValueError("max_retries must be positive")

    @property
    def phase_count(self) -> int:
        return phase_count(self.n, self.epsilon)


@dataclass(frozen=True)
class BipartiteSupport:
    """Support graph: left vertices a_{t+1}..a_n, right vertices b_1..b_L.

    ``phases_of[j - t - 1]`` holds the two (not necessarily distinct)
    right neighbors of a_j, in sampling order.
    """

    t: int
    n: int
    num_phases: int
    phases_of: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.phases_of) != self.n - self.t:
            raise ValueError("need exactly one edge pair per left vertex")
        for pair in self.phases_of:
            if len(pair) != 2 or any(not 1 <= i <= self.num_phases for i in pair):
                raise ValueError(f"phase indices must lie in 1..{self.num_phases}, got {pair}")


def sample_support(params: RandomConstructionParams, rng: random.Random) -> BipartiteSupport:
    """Two uniformly random right neighbors per left vertex."""
    L = params.phase_count
    pairs = tuple(
        (rng.randrange(1, L + 1), rng.randrange(1, L + 1)) for _ in range(params.n - params.t)
    )
    return BipartiteSupport(params.t, params.n, L, pairs)


def check_expansion(g: BipartiteSupport, t: int) -> bool:
    """Hall's condition at scale t: every <= t left vertices are matchable.

    Phases are the nodes of a multigraph in which each left vertex is an
    edge between its two picks, a loop when they coincide.  A phase set W
    holds the left vertices whose picks both lie in W, and Hall fails
    exactly when some W of at most t-1 phases holds more than |W|: if a
    set S of at most t left vertices has |N(S)| < |S|, then W = N(S) has
    at most t-1 phases and holds all of S; conversely any |W|+1 left
    vertices held by such a W have all their picks in W, so |N(S)| <= |W|
    < |S|.  The held count of W is the sum over its connected components
    C of held(C), so a violator contains a connected violator with no more
    phases.  Hence only connected W are checked: each is enumerated once
    by ESU (Wernicke 2006), growing W from its smallest phase by phases
    above it, and held(W + u) = held(W) + loops at u + edges between u
    and W, failing as soon as held(W) > |W|.
    """
    if t < 2:  # no nonempty W of at most t-1 phases; a single left vertex has a pick
        return True
    loops = [0] * (g.num_phases + 1)
    edges: list[dict[int, int]] = [{} for _ in range(g.num_phases + 1)]
    for p, q in g.phases_of:
        if p == q:
            loops[p] += 1
        else:
            edges[p][q] = edges[p].get(q, 0) + 1
            edges[q][p] = edges[q].get(p, 0) + 1
    nbrs = [sum(1 << q for q in e) for e in edges]  # bitmask per phase

    def violated(size: int, held: int, members: int, seen: int, ext: int, above: int) -> bool:
        # ESU: W = members, seen = W and its neighbors, ext the phases W may take next
        if size == t - 1:
            return False
        while ext:
            u = ext.bit_length() - 1
            ext ^= 1 << u
            grown = held + loops[u] + sum(c for w, c in edges[u].items() if members >> w & 1)
            if grown > size + 1:
                return True
            fresh = nbrs[u] & ~seen & above
            if violated(size + 1, grown, members | 1 << u, seen | nbrs[u], ext | fresh, above):
                return True
        return False

    for v in range(1, g.num_phases + 1):
        if loops[v] > 1:
            return False
        above = -1 << (v + 1)
        if violated(1, loops[v], 1 << v, nbrs[v] | 1 << v, nbrs[v] & above, above):
            return False
    return True


@dataclass(frozen=True)
class RandomConstruction:
    """Builder output: the network plus the accepted support and retry count."""

    network: Network
    support: BipartiteSupport
    retries: int


def t_reach_random_full(params: RandomConstructionParams) -> RandomConstruction:
    """Sample supports until expansion holds, then emit phases plus tail.

    Phase i is (1,2)..(1,t) followed by (1,j) for every edge a_j b_i, so
    each (1,j) with j > t appears exactly twice across all phases.  The
    tail is a star-simulated permutation network on the first t positions.
    Total length: (t-1)L + 2(n-t) + tail.
    """
    t, n = params.t, params.n
    rng = random.Random(params.seed)
    support: BipartiteSupport | None = None
    retries = 0
    for attempt in range(params.max_retries):
        candidate = sample_support(params, rng)
        if check_expansion(candidate, t):
            support = candidate
            retries = attempt
            break
    if support is None:
        raise RetriesExceededError(
            f"no support graph passed the expansion check in {params.max_retries} attempts "
            f"(t={t}, n={n}, seed={params.seed}); try another seed"
        )

    pairs: list[tuple[int, int]] = []
    for i in range(1, support.num_phases + 1):
        pairs += [(1, j) for j in range(2, t + 1)]
        for j in range(t + 1, n + 1):
            pairs += [(1, j)] * support.phases_of[j - t - 1].count(i)
    tail = network_to_star(waksman_permutation_network(t))
    pairs += [(tau.a, tau.b) for tau in tail.seq]
    return RandomConstruction(Network.from_pairs(n, pairs), support, retries)
