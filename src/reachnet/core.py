"""Domain types, tuple algebra, and the text serialization format.

Positions are 1-based throughout.  A network is a ground-set size ``n``
plus an ordered sequence of transpositions; counters start on positions
1..t and a subsequence of the network moves them around.  The convention
is fixed once and for all: transpositions act on counter *positions*, and
the first transposition of a subsequence is applied first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import ParseError

FORMAT_VERSION = "reachnet 1"

# A counter tuple (x_1, ..., x_t): entry j is the position of counter j.
CounterTuple = tuple[int, ...]
TupleSet = set[CounterTuple]
Distribution = dict[CounterTuple, Fraction]


def rational(value: Union[Fraction, int, str]) -> Fraction:
    """A Fraction, an int, or ASCII ``<digits>/<digits>`` with a nonzero
    denominator, as a Fraction; anything else raises ValueError."""
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, str) and value.isascii():  # so isdigit() means 0-9
        num, slash, den = value.partition("/")
        if slash and num.isdigit() and den.isdigit() and int(den):
            return Fraction(int(num), int(den))
    raise ValueError(f"expected an exact rational <num>/<den>, got {value!r}")


def check_arity(n: int, t: int) -> None:
    """Counters sit on distinct positions, so 1 <= t <= n."""
    if not 1 <= t <= n:
        raise ValueError(f"arity must satisfy 1 <= t <= n, got t={t}, n={n}")


def closure_arity(n: int, t: int) -> int:
    """Arity a closure over injective tuples runs at: an injective n-tuple is
    fixed by its first n-1 entries, so t = n > 1 runs as n-1."""
    return n - 1 if t == n > 1 else t


class _Pair:
    """Checks and canonical order shared by plain and lazy transpositions."""

    a: int
    b: int

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        if a == b:
            raise ValueError(f"transposition endpoints must differ, got ({a}, {b})")
        if min(a, b) < 1:
            raise ValueError(f"positions are 1-based, got ({a}, {b})")
        if a > b:
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)


@dataclass(frozen=True, order=True)
class Transposition(_Pair):
    """Unordered pair of distinct positions, stored canonically with a < b."""

    a: int
    b: int

    def __iter__(self) -> Iterator[int]:
        return iter((self.a, self.b))

    def __repr__(self) -> str:
        return f"({self.a},{self.b})"


@dataclass(frozen=True, order=True)
class LazyTransposition(_Pair):
    """Transposition that fires with an exact rational probability p."""

    a: int
    b: int
    p: Fraction

    def __post_init__(self) -> None:
        super().__post_init__()
        p = rational(self.p)
        object.__setattr__(self, "p", p)
        if not 0 <= p <= 1:
            raise ValueError(f"firing probability must lie in [0, 1], got {p}")

    def __repr__(self) -> str:
        return f"({self.a},{self.b},{self.p})"


class _Sequence:
    """Checks shared by plain and lazy networks."""

    n: int
    seq: tuple[_Pair, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "seq", tuple(self.seq))
        if self.n < 1:
            raise ValueError(f"ground-set size must be >= 1, got {self.n}")
        for tau in self.seq:
            if tau.b > self.n:
                raise ValueError(f"transposition {tau} exceeds ground set [{self.n}]")

    @property
    def is_star(self) -> bool:
        return all(tau.a == 1 for tau in self.seq)

    def __len__(self) -> int:
        return len(self.seq)


@dataclass(frozen=True)
class Network(_Sequence):
    """Ground-set size plus an ordered transposition sequence."""

    n: int
    seq: tuple[Transposition, ...]

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Network":
        return cls(n, tuple(Transposition(a, b) for a, b in pairs))


@dataclass(frozen=True)
class LazyNetwork(_Sequence):
    """Ordered sequence of independent lazy transpositions."""

    n: int
    seq: tuple[LazyTransposition, ...]

    @classmethod
    def from_triples(
        cls, n: int, triples: Iterable[tuple[int, int, Union[Fraction, int, str]]]
    ) -> "LazyNetwork":
        return cls(n, tuple(LazyTransposition(a, b, p) for a, b, p in triples))

    def strip(self) -> Network:
        """Drop probabilities, keeping the bare transposition sequence."""
        return Network(self.n, tuple(Transposition(t.a, t.b) for t in self.seq))


AnyNetwork = Union[Network, LazyNetwork]


def start_tuple(t: int) -> CounterTuple:
    """Initial arrangement: counter j on position j."""
    return tuple(range(1, t + 1))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def render_network(net: AnyNetwork, comments: Sequence[str] = ()) -> str:
    """Serialize a plain or lazy network to the line-oriented text format.

    Comment strings are emitted right after the version line, prefixed
    with ``# `` unless already marked.
    """
    lines = [FORMAT_VERSION]
    for c in comments:
        lines.append(c if c.startswith("#") else f"# {c}")
    lines.append(f"n {net.n}")
    if isinstance(net, LazyNetwork):
        lines.append("kind lazy")
        for tau in net.seq:
            p = tau.p
            lines.append(f"{tau.a} {tau.b} {p.numerator}/{p.denominator}")
    else:
        lines.append("kind plain")
        for tau in net.seq:
            lines.append(f"{tau.a} {tau.b}")
    return "\n".join(lines) + "\n"


def parse_network(text: str) -> AnyNetwork:
    """Parse the text format back into a Network or LazyNetwork.

    Numbers are ASCII digits only and probabilities ``<num>/<den>``; signs,
    ``_`` separators, decimals and exponents are rejected, not guessed at.
    """

    def fail(lineno: int, msg: str) -> ParseError:
        return ParseError(f"line {lineno}: {msg}")

    items: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # with ASCII lines, str.isdigit() below accepts exactly 0-9
        if not line.isascii():
            raise fail(lineno, f"non-ASCII characters outside a comment: {line!r}")
        items.append((lineno, line.split()))

    if not items:
        raise ParseError("empty input")
    it = iter(items)

    lineno, tok = next(it)
    if tok != ["reachnet", "1"]:
        raise fail(lineno, f"expected '{FORMAT_VERSION}' header, got {' '.join(tok)!r}")

    try:
        lineno, tok = next(it)
    except StopIteration:
        raise ParseError("missing 'n <n>' line") from None
    if len(tok) != 2 or tok[0] != "n":
        raise fail(lineno, f"expected 'n <n>', got {' '.join(tok)!r}")
    if not tok[1].isdigit():
        raise fail(lineno, f"bad ground-set size {tok[1]!r}")
    n = int(tok[1])

    try:
        lineno, tok = next(it)
    except StopIteration:
        raise ParseError("missing 'kind plain|lazy' line") from None
    if len(tok) != 2 or tok[0] != "kind" or tok[1] not in ("plain", "lazy"):
        raise fail(lineno, f"expected 'kind plain|lazy', got {' '.join(tok)!r}")
    kind = tok[1]
    lazy = kind == "lazy"

    shape = "<a> <b> <num>/<den>" if lazy else "<a> <b>"
    seq: list[_Pair] = []
    for lineno, tok in it:
        if not (len(tok) == 2 + lazy and tok[0].isdigit() and tok[1].isdigit()):
            raise fail(lineno, f"{kind} entries need '{shape}', got {' '.join(tok)!r}")
        try:
            a, b = int(tok[0]), int(tok[1])
            seq.append(LazyTransposition(a, b, tok[2]) if lazy else Transposition(a, b))
        except ValueError as exc:
            raise fail(lineno, str(exc)) from None

    try:
        return (LazyNetwork if lazy else Network)(n, tuple(seq))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
