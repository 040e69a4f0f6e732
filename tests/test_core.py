import random
from decimal import Decimal

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from reachnet import (
    LazyNetwork,
    LazyTransposition,
    Network,
    ParseError,
    Transposition,
    parse_network,
    rational,
    render_network,
    start_tuple,
)

from _oracles import apply_transposition, compose_subsequence


def test_transposition_canonical_order():
    assert Transposition(3, 1) == Transposition(1, 3)
    tau = Transposition(5, 2)
    assert (tau.a, tau.b) == (2, 5)
    assert tuple(tau) == (2, 5)


PLAIN = (Transposition, Network)
LAZY = (lambda a, b: LazyTransposition(a, b, Fraction(1, 2)), LazyNetwork)
KINDS = pytest.mark.parametrize("kind", [PLAIN, LAZY], ids=["plain", "lazy"])


@KINDS
@pytest.mark.parametrize("a,b", [(2, 2), (0, 1), (-1, 3)])
def test_transposition_rejects_bad_endpoints(a, b, kind):
    make_tau, _ = kind
    with pytest.raises(ValueError):
        make_tau(a, b)


@KINDS
def test_network_validates_ground_set(kind):
    make_tau, make_net = kind
    with pytest.raises(ValueError):
        make_net(3, (make_tau(1, 4),))
    with pytest.raises(ValueError):
        make_net(0, ())
    net = make_net(4, (make_tau(4, 1),))
    assert len(net) == 1 and net.is_star and net.seq[0].a == 1


def test_is_star():
    assert Network.from_pairs(4, [(1, 2), (1, 4)]).is_star
    assert not Network.from_pairs(4, [(1, 2), (2, 4)]).is_star
    assert Network(1, ()).is_star


def test_lazy_probability_range():
    LazyTransposition(1, 2, Fraction(1))
    LazyTransposition(1, 2, Fraction(0))
    with pytest.raises(ValueError):
        LazyTransposition(1, 2, Fraction(3, 2))
    with pytest.raises(ValueError):
        LazyTransposition(1, 2, Fraction(-1, 2))
    assert LazyTransposition(1, 2, "2/4").p == Fraction(1, 2)


@pytest.mark.parametrize(
    "value,expected",
    [(Fraction(2, 4), Fraction(1, 2)), (1, Fraction(1)), (0, Fraction(0)),
     ("1/2", Fraction(1, 2)), ("0/7", Fraction(0)), ("06/10", Fraction(3, 5))],
)
def test_rational_accepts(value, expected):
    got = rational(value)
    assert got == expected and type(got) is Fraction


@pytest.mark.parametrize(
    "value",
    [0.1, 0.5, 1.0, Decimal("0.5"), None, "0.5", "1e-1", "1", "1/0", "0/0", "-1/2",
     "+1/2", "1/-2", " 1/5", "1/5 ", "1 /5", "1/2/3", "/2", "1/", "1_0/3", "²/3", "１/２"],
)
def test_rational_rejects(value):
    with pytest.raises(ValueError):
        rational(value)


@pytest.mark.parametrize("p", [0.1, 0.5, Decimal("0.5"), "0.5", "1e-1"])
def test_lazy_probability_must_be_exact(p):
    with pytest.raises(ValueError):
        LazyTransposition(1, 2, p)
    with pytest.raises(ValueError):
        LazyNetwork.from_triples(2, [(1, 2, p)])


def test_strip():
    lazy = LazyNetwork.from_triples(3, [(2, 3, Fraction(1, 2)), (1, 2, 1)])
    assert lazy.strip() == Network.from_pairs(3, [(2, 3), (1, 2)])


@pytest.mark.parametrize(
    "tau,x,expected",
    [
        ((1, 2), (1, 2), (2, 1)),
        ((3, 4), (1, 2), (1, 2)),
        ((1, 3), (3, 2), (1, 2)),
    ],
)
def test_apply_transposition_examples(tau, x, expected):
    assert apply_transposition(Transposition(*tau), x) == expected


@st.composite
def tuple_and_transposition(draw):
    n = draw(st.integers(2, 9))
    t = draw(st.integers(1, min(n, 5)))
    perm = draw(st.permutations(list(range(1, n + 1))))
    a = draw(st.integers(1, n))
    b = draw(st.integers(1, n).filter(lambda v: v != a))
    return tuple(perm[:t]), Transposition(a, b)


@given(tuple_and_transposition())
def test_apply_is_involution_and_keeps_distinctness(case):
    x, tau = case
    y = apply_transposition(tau, x)
    assert len(set(y)) == len(y)
    assert apply_transposition(tau, y) == x


def test_compose_empty_mask_is_identity():
    net = Network.from_pairs(3, [(1, 2), (1, 3)])
    assert compose_subsequence(net, []) == (1, 2, 3)


def test_compose_full_mask_worked_example():
    # counters: (1,2) moves 1->2; (1,3) then carries the counter on 1 to 3
    net = Network.from_pairs(3, [(1, 2), (1, 3)])
    assert compose_subsequence(net, [1, 2]) == (2, 3, 1)


def test_compose_single_swap():
    net = Network.from_pairs(2, [(1, 2)])
    assert compose_subsequence(net, [1]) == (2, 1)


def test_compose_mask_errors():
    net = Network.from_pairs(3, [(1, 2), (1, 3)])
    with pytest.raises(IndexError):
        compose_subsequence(net, [3])
    with pytest.raises(IndexError):
        compose_subsequence(net, [0])
    with pytest.raises(ValueError):
        compose_subsequence(net, [1, 1])


def test_compose_accepts_set_masks():
    net = Network.from_pairs(3, [(1, 2), (1, 3)])
    assert compose_subsequence(net, {1, 2}) == (2, 3, 1)
    assert compose_subsequence(net, {2, 1}) == (2, 3, 1)


def _random_network(rng, n, length):
    pairs = []
    for _ in range(length):
        a = rng.randint(1, n)
        b = rng.randint(1, n)
        while b == a:
            b = rng.randint(1, n)
        pairs.append((a, b))
    return Network.from_pairs(n, pairs)


def test_compose_matches_tuple_folding():
    # folding apply_transposition over (1..n) is an independent route to
    # the same permutation
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 7)
        net = _random_network(rng, n, rng.randint(0, 10))
        mask = sorted(rng.sample(range(1, len(net) + 1), rng.randint(0, len(net))))
        x = start_tuple(n)
        for idx in mask:
            x = apply_transposition(net.seq[idx - 1], x)
        assert compose_subsequence(net, mask) == x


def test_network_followed_by_reverse_is_identity():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 7)
        net = _random_network(rng, n, rng.randint(0, 12))
        both = Network(n, net.seq + tuple(reversed(net.seq)))
        assert compose_subsequence(both, range(1, 2 * len(net) + 1)) == start_tuple(n)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_render_plain_format():
    net = Network.from_pairs(3, [(1, 2), (2, 3)])
    text = render_network(net)
    assert text.splitlines() == ["reachnet 1", "n 3", "kind plain", "1 2", "2 3"]


def test_render_lazy_format():
    lazy = LazyNetwork.from_triples(3, [(1, 2, Fraction(1, 2)), (1, 3, 1)])
    text = render_network(lazy)
    assert text.splitlines() == ["reachnet 1", "n 3", "kind lazy", "1 2 1/2", "1 3 1/1"]


def test_render_comments_after_header():
    text = render_network(Network.from_pairs(2, [(1, 2)]), comments=["made by hand"])
    assert text.splitlines()[1] == "# made by hand"
    assert parse_network(text) == Network.from_pairs(2, [(1, 2)])


@given(st.data())
def test_parse_render_roundtrip(data):
    n = data.draw(st.integers(1, 12))
    length = data.draw(st.integers(0, 12))
    lazy = data.draw(st.booleans())
    pairs = []
    for _ in range(length):
        if n < 2:
            break
        a = data.draw(st.integers(1, n))
        b = data.draw(st.integers(1, n).filter(lambda v: v != a))
        if lazy:
            num = data.draw(st.integers(0, 12))
            den = data.draw(st.integers(max(1, num), 12))
            pairs.append((a, b, Fraction(num, den)))
        else:
            pairs.append((a, b))
    net = (
        LazyNetwork.from_triples(n, pairs) if lazy else Network.from_pairs(n, pairs)
    )
    assert parse_network(render_network(net)) == net


def test_parse_ignores_comments_and_blanks():
    text = "# header\n\nreachnet 1\n# note\nn 2\n\nkind plain\n1 2\n# trailing\n"
    assert parse_network(text) == Network.from_pairs(2, [(1, 2)])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "reachnet 2\nn 2\nkind plain\n",
        "n 2\nkind plain\n",
        "reachnet 1\nn x\nkind plain\n",
        "reachnet 1\nn 2\nkind fuzzy\n",
        "reachnet 1\nn 2\nkind plain\n1 2 1/2\n",
        "reachnet 1\nn 2\nkind lazy\n1 2\n",
        "reachnet 1\nn 2\nkind plain\n1 1\n",
        "reachnet 1\nn 2\nkind plain\n1 3\n",
        "reachnet 1\nn 2\nkind lazy\n1 2 3/2\n",
        "reachnet 1\nn 2\nkind lazy\n1 2 1/0\n",
        # numbers outside the format that int() and Fraction() would take
        "reachnet 1\nn 1_0\nkind plain\n",
        "reachnet 1\nn +2\nkind plain\n",
        "reachnet 1\nn ２\nkind plain\n",
        "reachnet 1\nn 2\nkind plain\n1 +2\n",
        "reachnet 1\nn 2\nkind plain\n-1 2\n",
        "reachnet 1\nn 2\nkind lazy\n1 2 0.5\n",
        "reachnet 1\nn 2\nkind lazy\n1 2 1e-1\n",
        "reachnet 1\nn 2\nkind lazy\n1 2 1\n",
        "reachnet 1\nn 2\nkind lazy\n1 2 -1/2\n",
        "reachnet 1\nn 2\nkind lazy\n1 2 1/+2\n",
        "reachnet 1\nn 2\nkind lazy\n1 2 1/2/3\n",
        "reachnet 1\nn 2\nkind lazy\n1 2 /2\n",
        "reachnet 1\nn 2\nkind lazy\n1_0 2 1/2\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_network(text)
