from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import floor

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sepcont.cantor import CantorPoint
from sepcont.functions import TableFunction
from sepcont.groups import ball_net, cyclic_group, get_group
from sepcont.zerodim import ZerodimPipeline
from sym3 import S3_LEFT, symmetric_group_3

DYADIC = get_group("dyadic")
C3 = get_group("cyclic:3")
REAL = get_group("real")
S3 = symmetric_group_3()

ALL_GROUPS = [DYADIC, C3, REAL, S3]


def small_elements(group, depth=3):
    return group.dense_enumeration(depth)


def triples(group, depth):
    els = small_elements(group, depth)
    return product(els, repeat=3)


class TestDist:
    def test_identity_case(self):
        for g in ALL_GROUPS:
            assert g.dist(g.identity(), g.identity()) == 0

    def test_dyadic_first_difference(self):
        a = DYADIC.parse_element("100(0)")
        b = DYADIC.parse_element("000(0)")
        assert DYADIC.dist(a, b) == Fraction(1, 2)

    def test_cyclic_discrete(self):
        assert C3.dist(C3.element(1), C3.element(2)) == Fraction(1, 2)
        assert C3.dist(C3.element(1), C3.element(1)) == 0

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
    def test_metric_axioms_exhaustive_small(self, group):
        els = small_elements(group, 3)
        for a in els:
            for b in els:
                d = group.dist(a, b)
                assert d == group.dist(b, a)
                assert (d == 0) == (a == b)
                assert d <= Fraction(1, 2)
        for a, b, c in triples(group, 2):
            assert group.dist(a, c) <= group.dist(a, b) + group.dist(b, c)

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
    def test_left_invariance_exhaustive_small(self, group):
        for g, a, b in triples(group, 2):
            assert group.dist(group.mul(g, a), group.mul(g, b)) == group.dist(a, b)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    def test_left_invariance_dyadic_depth6(self, i, j, k):
        els = DYADIC.dense_enumeration(6)
        g, a, b = els[i], els[j], els[k]
        assert DYADIC.dist(DYADIC.mul(g, a), DYADIC.mul(g, b)) == DYADIC.dist(a, b)


class TestMulInv:
    def test_identity_law(self):
        for group in ALL_GROUPS:
            e = group.identity()
            for a in small_elements(group, 3):
                assert group.mul(e, a) == a
                assert group.mul(a, e) == a

    def test_dyadic_xor(self):
        a = DYADIC.parse_element("110(0)")
        b = DYADIC.parse_element("011(0)")
        assert DYADIC.mul(a, b) == DYADIC.parse_element("101(0)")

    def test_dyadic_involution(self):
        for a in small_elements(DYADIC, 4):
            assert DYADIC.inv(a) == a
            assert DYADIC.mul(a, a) == DYADIC.identity()

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
    def test_group_axioms_small(self, group):
        e = group.identity()
        for a, b, c in triples(group, 2):
            assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        for a in small_elements(group, 2):
            assert group.mul(a, group.inv(a)) == e
            assert group.inv(group.inv(a)) == a

    def test_s3_nonabelian(self):
        r, s = S3.parse_element("r"), S3.parse_element("s")
        assert S3.mul(r, s) != S3.mul(s, r)


class TestEnumeration:
    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
    def test_monotone(self, group):
        for d in range(5):
            assert set(group.dense_enumeration(d)) <= set(group.dense_enumeration(d + 1))

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
    def test_every_depth_enumerates_the_identity(self, group):
        # So no ball is empty: ball_net's scan always has the identity to
        # keep, at every radius and depth.
        one = group.identity()
        for d in range(5):
            assert one in group.dense_enumeration(d)
        for k in range(4):
            assert one in ball_net(group, k, k + 2).elements

    def test_dyadic_sizes(self):
        for d in range(7):
            assert len(DYADIC.dense_enumeration(d)) == 2**d

    def test_dyadic_dense_at_resolution(self):
        # every element is within 2^-(d+1) of an enumerated one: truncation
        p = DYADIC.element(CantorPoint("01101", "0"))
        enum = set(DYADIC.dense_enumeration(4))
        assert any(DYADIC.dist(p, q) <= Fraction(1, 32) for q in enum)


@lru_cache(maxsize=None)
def _dense(group, depth):
    return group.dense_enumeration(depth)


class TestBallEnumeration:
    # The filtered dense enumeration is the oracle.
    @pytest.mark.parametrize(
        "group", [DYADIC, REAL, get_group("cyclic:5"), S3], ids=lambda g: g.name
    )
    @pytest.mark.parametrize("k", range(9))
    def test_is_the_ball_part_of_the_dense_enumeration(self, group, k):
        one, radius = group.identity(), Fraction(1, 2**k)
        top = min(k + 6, 14) if group is DYADIC else k + 6
        for depth in range(top + 1):
            expected = tuple(u for u in _dense(group, depth) if group.dist(one, u) <= radius)
            assert group.ball_enumeration(k, depth) == expected, depth


class TestBallNet:
    def test_dyadic_k1_depth6_has_8_elements(self):
        net = ball_net(DYADIC, 1, 6)
        assert len(net.elements) == 8
        # all bit patterns on coordinates {0,1,2}, zero tails
        patterns = {e.payload.prefix(3) for e in net.elements}
        assert patterns == {format(i, "03b") for i in range(8)}
        assert all(e.payload.prefix(6)[3:] == "000" for e in net.elements)

    def test_brute_force_net_properties(self):
        # independent oracle: recheck with direct loops over the enumeration
        net = ball_net(DYADIC, 1, 6)
        one = DYADIC.identity()
        els = net.elements
        assert all(DYADIC.dist(one, e) <= Fraction(1, 2) for e in els)
        assert all(
            DYADIC.dist(els[i], els[j]) >= Fraction(1, 8)
            for i in range(len(els))
            for j in range(i + 1, len(els))
        )
        for cand in DYADIC.dense_enumeration(6):
            assert any(DYADIC.dist(cand, e) < Fraction(1, 8) for e in els)

    def test_candidate_at_exactly_the_separation_breaks_maximality(self):
        # net(0) without 01(0): every point starting 01 lies exactly 2^-2,
        # the separation, from the identity and 1/2 from the rest.
        gap = DYADIC.parse_element("01(0)")
        full = ball_net(DYADIC, 0, 4)
        net = full._replace(elements=tuple(e for e in full.elements if e is not gap))
        assert len(net.elements) == 3 and full.check_maximality()
        assert not net.check_maximality()

    def test_singleton_when_ball_tiny(self):
        # C3 with k = 2: ball radius 1/4 contains only the identity
        net = ball_net(C3, 2, 0)
        assert net.elements == (C3.identity(),)
        assert net.check_maximality()

    def test_c3_whole_group(self):
        net = ball_net(C3, 0, 0)
        assert len(net.elements) == 3

    @pytest.mark.parametrize("k", range(4))
    def test_invariants_dyadic(self, k):
        net = ball_net(DYADIC, k, k + 4)
        assert net.check_ball_containment()
        assert net.check_pairwise_separation()
        assert net.check_maximality()

    @pytest.mark.parametrize("k", range(4))
    def test_invariants_real(self, k):
        net = ball_net(REAL, k, k + 4)
        assert net.check_ball_containment()
        assert net.check_pairwise_separation()
        assert net.check_maximality()

    @pytest.mark.parametrize("l", range(3))
    def test_product_containment(self, l):
        # any product of one element from each net(k), k = l+1..n, stays in B[2^-l]
        n = l + 3
        nets = [ball_net(DYADIC, k, k + 4) for k in range(l + 1, n + 1)]
        one = DYADIC.identity()
        for pick in range(5):
            acc = one
            for net in nets:
                acc = DYADIC.mul(acc, net.elements[pick % len(net.elements)])
            assert DYADIC.dist(one, acc) <= Fraction(1, 2**l)


# The greedy scan as ball_net ran it before it returned the ball
# enumeration at depth k + 2, kept as the oracle: every candidate in the ball
# is kept when it is at least the separation away from every element kept
# so far.
def brute_ball_net_elements(group, k, enumeration_depth):
    radius, separation = Fraction(1, 2**k), Fraction(1, 2 ** (k + 2))
    one = group.identity()
    kept = []
    for cand in _dense(group, enumeration_depth):
        if group.dist(one, cand) > radius:
            continue
        if all(group.dist(cand, e) >= separation for e in kept):
            kept.append(cand)
    return tuple(kept)


class TestGreedySeparation:
    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
    @pytest.mark.parametrize("k", range(13))
    def test_ball_net_matches_greedy_loop(self, group, k):
        # Depths up to k + 2 for every k; the default depth and k + 6 only
        # while the full enumeration stays small (2^(k+6) dyadic points).
        depths = {k - 1, k, k + 1, k + 2}
        if k < 6:
            depths |= {group.net_enumeration_depth(k), k + 3, k + 6}
        for depth in sorted(d for d in depths if d >= 0):
            net = ball_net(group, k, depth)
            assert net.elements == brute_ball_net_elements(group, k, depth), depth
            assert net.check_pairwise_separation() and net.check_maximality()

    def test_deep_dyadic_net_is_the_shallow_ball(self):
        net = ball_net(DYADIC, 12, 16)
        assert net.elements == DYADIC.ball_enumeration(12, 14)
        assert len(net.elements) == 8
        assert net.check_maximality()


C5 = get_group("cyclic:5")
NET_GROUPS = [DYADIC, REAL, C5, S3, S3_LEFT]


def _targets(group, top=3 * 2**12, zeros=0):
    """Elements of group, within and beyond the shallow enumerations: real
    values j/2^e with |j/2^e| <= top, dyadic points whose first ``zeros``
    bits are 0."""
    if group is DYADIC:
        bits = st.text("01", max_size=12)
        return st.tuples(bits, bits.filter(bool)).map(
            lambda t: group.element(CantorPoint("0" * zeros + t[0], t[1])))
    if group is REAL:
        return st.integers(0, 12).flatmap(lambda e: st.integers(
            -floor(top * 2**e), floor(top * 2**e)).map(lambda j: group.element(Fraction(j, 2**e))))
    return st.sampled_from(group.dense_enumeration(0))


def nearest(net, target):
    """The element of an enumerated net closest to target, and its
    distance: target itself when it is a member, else the first closest in
    element order, which is canonical order.  The oracle for
    ``GroupSpec.net_nearest`` wherever target lies in the net's window."""
    if target in net.elements:
        return target, Fraction(0)
    dists = [net.group.dist(e, target) for e in net.elements]
    best = min(dists)
    return net.elements[dists.index(best)], best


def _ball_targets(group, k):
    """Elements of B[2^-k], within and beyond the shallow enumerations."""
    if group is DYADIC:
        return _targets(group, zeros=max(k - 1, 0))
    if group is REAL:
        return _targets(group, top=2**8 if k <= 1 else Fraction(1, 2**k))
    return st.sampled_from(group.ball_enumeration(k, 0))


class TestNearest:
    @pytest.mark.parametrize("group", NET_GROUPS, ids=lambda g: g.name)
    @pytest.mark.parametrize("k", range(9))
    def test_net_elements_in_canonical_order(self, group, k):
        for depth in sorted({*range(k + 3), group.net_enumeration_depth(k)}):
            net = ball_net(group, k, depth)
            assert list(net.elements) == group.sort_canonically(net.elements), depth

    @given(st.sampled_from(NET_GROUPS), st.integers(0, 8), st.data())
    def test_nearest_is_the_least_distance_then_canonical_key(self, group, k, data):
        net = ball_net(group, k, group.net_enumeration_depth(k))
        target = data.draw(st.one_of(_targets(group), st.sampled_from(net.elements)))
        old = min(net.elements, key=lambda e: (group.dist(e, target), group.canonical_key(e)))
        assert nearest(net, target) == (old, group.dist(old, target))

    @given(st.sampled_from(NET_GROUPS), st.integers(0, 8), st.data())
    def test_net_nearest_is_the_enumerated_nets_nearest(self, group, k, data):
        # The enumerated real net(k) ends at +-1 for k <= 1, where the ball
        # is all of R; every other enumerated net is the whole net.
        net = ball_net(group, k, group.net_enumeration_depth(k))
        window = _targets(group, top=1 if k <= 1 else 3 * 2**12)
        target = data.draw(st.one_of(window, st.sampled_from(net.elements)))
        assert group.net_nearest(k, target) is nearest(net, target)[0]

    @given(st.sampled_from(NET_GROUPS), st.integers(0, 8), st.data())
    def test_net_nearest_serves_every_point_of_the_ball(self, group, k, data):
        # The step of the quantizer tower: a point of B[2^-k] lies within
        # 2^-(k+3) of a point of net(k), and a net point is its own nearest.
        one, target = group.identity(), data.draw(_ball_targets(group, k))
        assert group.dist(one, target) <= Fraction(1, 2**k)
        near = group.net_nearest(k, target)
        assert group.dist(near, target) <= Fraction(1, 2 ** (k + 3))
        assert group.dist(one, near) <= Fraction(1, 2**k) and group.net_nearest(k, near) is near

    @given(st.integers(0, 8), _targets(REAL, top=2**8))
    def test_real_net_nearest_is_the_nearest_multiple(self, k, target):
        # net(k) is the multiples of 2^-(k+2): all of them for k <= 1, those
        # in [-2^-k, 2^-k] above.
        step = Fraction(1, 2 ** (k + 2))
        j = floor(target.payload / step)
        candidates = [REAL.element(i * step) for i in (range(-4, 5) if k >= 2 else range(j - 1, j + 3))]
        expected = min(candidates, key=lambda e: (REAL.dist(e, target), REAL.canonical_key(e)))
        assert REAL.net_nearest(k, target) is expected

    @pytest.mark.parametrize("k, target, expected", [
        (0, "1/2^3", "0/2^0"),  # a tie between 0 and 1/4: 0 comes first
        (0, "3/2^3", "1/2^1"),  # a tie between 1/4 and 1/2: 1/2 comes first
        (1, "-517/2^3", "-517/2^3"),  # the ball is all of R
        (2, "1/2^1", "1/2^2"),  # clipped to the ball
        (2, "47/2^6", "1/2^2"),  # 31/2^6 from the ball's end
        (2, "3/2^2", "0/2^0"),  # every net point at least 1/2 away: a tie
        (3, "-3/2^0", "0/2^0"),
    ])
    def test_real_net_nearest_at_ties_and_far_targets(self, k, target, expected):
        assert REAL.net_nearest(k, REAL.parse_element(target)) is REAL.parse_element(expected)

    @pytest.mark.parametrize("k, target, expected", [
        (0, "1111(01)", "11(0)"),
        (2, "0101(1)", "0101(0)"),
        (2, "1(0)", "(0)"),  # outside the ball: every net point is 1/2 away
        (4, "0001(1)", "000111(0)"),
        (4, "001(1)", "(0)"),
    ])
    def test_dyadic_net_nearest_truncates_in_the_ball(self, k, target, expected):
        assert DYADIC.net_nearest(k, DYADIC.parse_element(target)) is DYADIC.parse_element(expected)

    @given(st.lists(_targets(REAL, top=2**8), min_size=2, max_size=6, unique=True),
           st.integers(0, 4))
    def test_real_images_pass_every_condition_row(self, values, n_max):
        # Values far outside [-1, 1], of both signs, in the image of a table.
        assume(min(v.payload for v in values) < 0 < max(v.payload for v in values))
        cells = [values[i % len(values)] for i in range(16)]
        f = TableFunction(2, tuple(tuple(cells[4 * i : 4 * i + 4]) for i in range(4)))
        rows = ZerodimPipeline(f, n_max).condition_rows()
        assert all(r.cond2_ok and r.cond3 for r in rows)


class TestElementHash:
    # Elements are hash-consed: one object per value, so equality is identity.
    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
    def test_one_object_per_value_and_text_is_unchanged(self, group):
        for e in group.dense_enumeration(3):
            assert group.element(e.payload) is e
            assert group.parse_element(str(e)) is group.parse_element(str(e)) is e
            assert repr(e) == f"<{group.name}:{e}>" and str(e) == group.format_element(e)
            assert {e: 1}[group.element(e.payload)] == 1


class TestIdentity:
    # Each group's identity payload and its text.
    EXPECTED = [
        (DYADIC, CantorPoint("", "0"), "(0)"),
        (REAL, Fraction(0), "0/2^0"),
        (C3, 0, "0"),
        (get_group("cyclic:5"), 0, "0"),
        (S3, 0, "e"),
    ]

    @pytest.mark.parametrize(
        "group, payload, text", EXPECTED, ids=lambda v: getattr(v, "name", None)
    )
    def test_one_identity_object_per_group(self, group, payload, text):
        e = group.identity()
        assert e is group.identity()
        assert e.group is group
        assert group.element(payload) is e
        assert str(e) == text and repr(e) == f"<{group.name}:{text}>"
        assert group.mul(e, e) == e

    @pytest.mark.parametrize("name", ["dyadic", "real", "cyclic:3", "cyclic:64"])
    def test_one_group_object_per_name(self, name):
        # A config names one group and parses every element with it, so
        # mul, inv and dist never see the elements of two groups.
        group = get_group(name)
        assert get_group(f" {name} ") is group and group.name == name
        assert group.parse_element(str(group.identity())) is group.identity()

    def test_groups_do_not_share_an_identity(self):
        c5 = get_group("cyclic:5")
        assert C3.identity() is not c5.identity()
        assert C3.identity().group is C3 and c5.identity().group is c5
        # Equal payloads of two groups are two elements, and unequal.
        assert C3.element(0) is not c5.element(0) and C3.element(0) != c5.element(0)


class TestRealGroup:
    def test_metric_cap(self):
        a, b = REAL.parse_element("1/2^0"), REAL.parse_element("-1/2^0")
        assert REAL.dist(a, b) == Fraction(1, 2)

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            REAL.parse_element("1/3")

    def test_parse_format_roundtrip(self):
        for text in ["0/2^0", "3/2^2", "-5/2^3"]:
            assert str(REAL.parse_element(text)) == text


class TestTableGroupValidation:
    def test_cyclic_table_valid(self):
        cyclic_group(5)

    @pytest.mark.parametrize("order", [1, 64])
    def test_cyclic_orders_at_the_bounds(self, order):
        group = get_group(f"cyclic:{order}")
        assert len(group.dense_enumeration(0)) == order
        assert group.mul(group.element(order - 1), group.element(1 % order)) is group.identity()

    def test_cyclic_order_above_the_bound_rejected(self):
        with pytest.raises(ValueError, match="cyclic group order 65 exceeds 64"):
            get_group("cyclic:65")

    def test_left_identities_are_not_an_identity(self):
        # Every element e has e x = x, but x e = e, so no element is an
        # identity; the table is associative, and its rows permutations.
        from sepcont.groups import FiniteTableGroup

        with pytest.raises(ValueError, match="no identity"):
            FiniteTableGroup("left", [[0, 1], [0, 1]])

    def test_non_associative_rejected(self):
        with pytest.raises(ValueError):
            from sepcont.groups import FiniteTableGroup

            FiniteTableGroup("bad", [[0, 1], [1, 1]])


class TestElementLiterals:
    @pytest.mark.parametrize("name", ["dyadic", "cyclic:3", "real"])
    @pytest.mark.parametrize("text", ["", "  "])
    def test_blank_literal_rejected(self, name, text):
        with pytest.raises(ValueError):
            get_group(name).parse_element(text)
