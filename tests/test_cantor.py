from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepcont.cantor import (
    ALL_ONES,
    CantorPoint,
    ClopenSet,
    basis_index,
    first_difference,
    point_dist,
)
from grid import basis_prefix, cell_prefixes, cell_range, grid_points

bits = st.text(alphabet="01", max_size=6)
nonempty_bits = st.text(alphabet="01", min_size=1, max_size=3)
points = st.builds(CantorPoint, bits, nonempty_bits)
clopens = st.lists(bits, max_size=4).map(ClopenSet.from_prefixes)


def loop_canonical_form(preperiod: str, period: str) -> tuple[str, str]:
    """Oracle for ``CantorPoint``'s canonical form: the minimal period found
    by trying every divisor length, then the preperiod's last bit absorbed
    into the cycle, one bit and one rotation at a time."""
    n = len(period)
    per = next((period[:d] for d in range(1, n) if n % d == 0 and period == period[:d] * (n // d)),
               period)
    pre = preperiod
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = per[-1] + per[:-1]
    return pre, per


def bitwise_prefix(p: CantorPoint, n: int) -> str:
    """Oracle for ``CantorPoint.prefix``: the first n bits read one by one."""
    return "".join(str(p.bit(i)) for i in range(n))


class TestCantorPoint:
    def test_canonical_trailing_zeros(self):
        assert CantorPoint("110", "0") == CantorPoint("11", "0")

    def test_canonical_all_ones(self):
        assert CantorPoint("111", "1") == ALL_ONES
        assert ALL_ONES.preperiod == "" and ALL_ONES.period == "1"

    def test_canonical_minimal_period(self):
        assert CantorPoint("", "1010") == CantorPoint("", "10")

    def test_parse_format_roundtrip(self):
        # canonical forms survive a parse/format cycle
        for text in ["11(0)", "(1)", "(10)", "1101(10)"]:
            assert str(CantorPoint.parse(text)) == text
        # non-canonical input parses to the same sequence
        assert CantorPoint.parse("110(0)") == CantorPoint.parse("11(0)")

    def test_parse_bare_prefix(self):
        assert CantorPoint.parse("110") == CantorPoint("110", "0")

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            CantorPoint("12", "0")
        with pytest.raises(ValueError):
            CantorPoint("0", "")

    @pytest.mark.parametrize(
        "bad", ["201", "0a1", "01x", "0 1", "01\n", "0１1"],
        ids=["start", "middle", "end", "space", "newline", "full-width-digit"],
    )
    def test_rejects_a_non_bit_anywhere(self, bad):
        # The full-width 1 is a digit to str.isdigit, but not a bit.
        for build, what in [(lambda s: CantorPoint(s, "0"), "preperiod"),
                            (lambda s: CantorPoint("", s), "period"),
                            (basis_index, "prefix"),
                            (lambda s: ClopenSet.from_prefixes([s]), "prefix")]:
            with pytest.raises(ValueError) as err:
                build(bad)
            assert str(err.value) == f"{what} must consist of 0/1 characters, got {bad!r}"

    @given(
        st.text(alphabet="01", max_size=12),
        st.text(alphabet="01", min_size=1, max_size=6),
        st.integers(min_value=0, max_value=40),
    )
    def test_prefix_matches_bitwise_oracle(self, preperiod, period, n):
        p = CantorPoint(preperiod, period)
        assert p.prefix(n) == bitwise_prefix(p, n)
        assert len(p.prefix(n)) == n

    @given(st.text(alphabet="01", max_size=12), st.text(alphabet="01", min_size=1, max_size=4),
           st.integers(1, 3))
    def test_canonical_form_matches_loop_oracle(self, preperiod, unit, reps):
        # A repeated unit makes the period's minimal form shorter than it.
        period = unit * reps
        p = CantorPoint(preperiod, period)
        assert (p.preperiod, p.period) == loop_canonical_form(preperiod, period)

    @given(points)
    def test_canonical_preserves_bits(self, p):
        raw = CantorPoint.__new__(CantorPoint)
        object.__setattr__(raw, "preperiod", p.preperiod + p.period)
        object.__setattr__(raw, "period", p.period)
        again = CantorPoint(p.preperiod + p.period, p.period)
        assert all(again.bit(i) == p.bit(i) for i in range(12))
        assert again == p

    @given(points)
    def test_kept_hash_is_the_hash_of_the_fields(self, p):
        # The hash is kept on first use and must be the tuple's, so that
        # no set or dict order moves; an equal point built afresh agrees.
        assert hash(p) == hash((p.preperiod, p.period)) == hash(p)
        assert hash(CantorPoint(p.preperiod, p.period)) == hash(p)

    def test_leading_ones(self):
        assert CantorPoint.parse("110(0)").leading_ones() == 2
        assert ALL_ONES.leading_ones() is None
        assert CantorPoint("11", "10").leading_ones() == 3
        assert CantorPoint.parse("(0)").leading_ones() == 0

    @pytest.mark.parametrize("k", range(41))
    def test_leading_ones_matches_the_bit_scan(self, k):
        # The string count against the first 0 bit read one by one, for
        # 1^k 0^omega and the periodic tails 1^k (01) and 1^k 0 (1).
        for p in (CantorPoint("1" * k, "0"), CantorPoint("1" * k, "01"), CantorPoint("1" * k + "0", "1")):
            scan = next(i for i in range(k + 2) if p.bit(i) == 0)
            assert p.leading_ones() == scan == k
        assert CantorPoint("1" * k, "1").leading_ones() is None


class TestPointDist:
    def test_zero_on_equal(self):
        p = CantorPoint.parse("01(10)")
        assert point_dist(p, p) == 0

    def test_differ_at_zero(self):
        assert point_dist(CantorPoint.parse("(0)"), CantorPoint.parse("10(0)")) == Fraction(1, 2)

    def test_differ_at_two(self):
        assert point_dist(CantorPoint.parse("110(0)"), CantorPoint.parse("1110(0)")) == Fraction(1, 8)

    @given(points, points)
    def test_symmetry_and_identity(self, x, y):
        assert point_dist(x, y) == point_dist(y, x)
        assert (point_dist(x, y) == 0) == (x == y)

    @given(points, points, points)
    def test_ultrametric_triangle(self, x, y, z):
        assert point_dist(x, z) <= max(point_dist(x, y), point_dist(y, z))

    @given(points, points)
    def test_first_difference_is_first(self, x, y):
        i = first_difference(x, y)
        if i is None:
            assert x == y
        else:
            assert x.bit(i) != y.bit(i)
            assert all(x.bit(j) == y.bit(j) for j in range(i))

    @given(points, points, st.integers(min_value=0, max_value=8))
    def test_metric_cylinder_coherence(self, x, y, m):
        # d(x, y) < 2^-(m+1) iff x, y share a prefix of length > m
        assert (point_dist(x, y) < Fraction(1, 2 ** (m + 1))) == (x.prefix(m + 1) == y.prefix(m + 1))


class TestBasis:
    def test_first_elements(self):
        assert basis_prefix(0) == ""
        assert basis_prefix(1) == "0"
        assert basis_prefix(2) == "1"
        assert basis_prefix(4) == "01"

    def test_enumeration_order(self):
        prefixes = [basis_prefix(k) for k in range(15)]
        assert prefixes == ["", "0", "1", "00", "01", "10", "11",
                            "000", "001", "010", "011", "100", "101", "110", "111"]

    @given(st.integers(min_value=0, max_value=2000))
    def test_index_roundtrip(self, k):
        assert basis_index(basis_prefix(k)) == k


class TestPartition:
    def test_depth_zero(self):
        assert cell_prefixes(0) == [""]

    def test_depth_two(self):
        assert cell_prefixes(2) == ["00", "01", "10", "11"]

    @pytest.mark.parametrize("d", range(13))
    def test_partition_covers_grid_once(self, d):
        cells = cell_prefixes(d)
        assert len(cells) == 2**d
        assert len(set(cells)) == len(cells)  # pairwise disjoint
        by_prefix = {c: 0 for c in cells}
        for p in grid_points(d):
            by_prefix[p.prefix(d)] += 1  # exactly one cell contains p
        assert all(count == 1 for count in by_prefix.values())

    @pytest.mark.parametrize("d", range(6))
    def test_refinement(self, d):
        coarse = cell_prefixes(d)
        for cell in cell_prefixes(d + 1):
            parents = [c for c in coarse if cell.startswith(c)]
            assert len(parents) == 1

    @pytest.mark.parametrize("d", range(8))
    def test_probe_grid_hits_every_shallow_cylinder(self, d):
        grid = grid_points(d)
        for k in range(2 ** (d + 1) - 1):
            c = basis_prefix(k)
            assert any(p.starts_with(c) for p in grid)


class TestClopenSet:
    def test_complement_involution_examples(self):
        a = ClopenSet.from_prefixes(["110", "0"])
        assert a.complement().complement() == a

    def test_intersect_prefix_containment(self):
        assert ClopenSet.from_prefixes(["0"]).intersect(
            ClopenSet.from_prefixes(["01"])
        ) == ClopenSet.from_prefixes(["01"])

    def test_is_subset(self):
        assert ClopenSet.from_prefixes(["110"]).is_subset_of(ClopenSet.from_prefixes(["11"]))
        assert not ClopenSet.from_prefixes(["11"]).is_subset_of(ClopenSet.from_prefixes(["110"]))

    def test_parse_and_str(self):
        assert ClopenSet.parse("{110, 0}") == ClopenSet.from_prefixes(["110", "0"])
        assert ClopenSet.parse("!{}").is_whole()
        assert ClopenSet.parse("{}").is_empty()
        assert ClopenSet.parse("!{0}") == ClopenSet.from_prefixes(["1"])

    def test_parse_rejects_an_unbalanced_brace(self):
        for text in ["{0", "0}", "!{0", "0"]:
            with pytest.raises(ValueError):
                ClopenSet.parse(text)

    def test_prefixes_are_canonical_antichain(self):
        assert ClopenSet.from_prefixes(["10", "11", "0101"]).prefixes() == ("1", "0101")

    @given(clopens)
    def test_double_complement(self, a):
        assert a.complement().complement() == a

    @given(clopens, clopens)
    def test_de_morgan(self, a, b):
        assert a.union(b).complement() == a.complement().intersect(b.complement())

    @given(clopens, clopens)
    def test_subset_via_intersection(self, a, b):
        assert a.is_subset_of(b) == (a.intersect(b) == a)

    @given(clopens, clopens, points)
    def test_membership_against_operations(self, a, b, p):
        assert a.union(b).contains(p) == (a.contains(p) or b.contains(p))
        assert a.intersect(b).contains(p) == (a.contains(p) and b.contains(p))
        assert a.complement().contains(p) == (not a.contains(p))

    @given(clopens)
    def test_prefixes_reassemble_in_basis_order(self, a):
        # The last prefix, which a certificate's cover reads, has the largest
        # basis index.
        prefixes = a.prefixes()
        assert ClopenSet.from_prefixes(prefixes) == a
        assert list(prefixes) == sorted(prefixes, key=basis_index)
        if not a.is_empty():
            assert basis_index(prefixes[-1]) == max(map(basis_index, prefixes))

    @given(clopens, st.integers(0, 2))
    def test_cell_indices_by_membership(self, a, extra):
        d = a.depth() + extra
        cells = cell_prefixes(d)
        assert a.cell_indices(d) == [i for i, c in enumerate(cells) if a.contains(CantorPoint(c))]
        if a.depth() > 0:
            with pytest.raises(ValueError):
                a.cell_indices(a.depth() - 1)


    @given(clopens, st.integers(0, 2))
    def test_from_cells_inverts_cell_indices(self, a, extra):
        # oracle: the same cells as depth-d prefixes, through from_prefixes
        d = a.depth() + extra
        cells = a.cell_indices(d)
        prefixes = [format(i, f"0{d}b") if d else "" for i in cells]
        assert ClopenSet.from_cells(cells, d) == ClopenSet.from_prefixes(prefixes) == a
        assert ClopenSet.from_cells(reversed(cells + cells), d) == a

    def test_from_cells_rejects_indices_out_of_range(self):
        with pytest.raises(ValueError):
            ClopenSet.from_cells([4], 2)
        with pytest.raises(ValueError):
            ClopenSet.from_cells([-1], 2)
        assert ClopenSet.from_cells([], 0).is_empty()
        assert ClopenSet.from_cells([0], 0).is_whole()

    @given(bits, st.integers(0, 6))
    def test_cell_range_by_overlap(self, prefix, d):
        cells = cell_prefixes(d)
        overlapping = [i for i, u in enumerate(cells) if u.startswith(prefix) or prefix.startswith(u)]
        assert list(cell_range(prefix, d)) == overlapping

