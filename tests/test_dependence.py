"""Unit tests for dependence relations (paper Table 2)."""

import pytest

from repro.core import DependenceType
from repro.core.dependence import (
    DependenceSpec,
    clip_intervals,
    count_points,
    interval_points,
    merge_intervals,
)

ALL_TYPES = list(DependenceType)


def spec(dtype, width=8, height=6, **kw):
    return DependenceSpec(dtype, width, height, **kw)


def points(intervals):
    return list(interval_points(intervals))


# ---------------------------------------------------------------------------
# Interval helpers
# ---------------------------------------------------------------------------
class TestIntervalHelpers:
    def test_merge_empty(self):
        assert merge_intervals([]) == []

    def test_merge_single(self):
        assert merge_intervals([5]) == [(5, 5)]

    def test_merge_contiguous(self):
        assert merge_intervals([1, 2, 3]) == [(1, 3)]

    def test_merge_gaps(self):
        assert merge_intervals([1, 3, 4, 9]) == [(1, 1), (3, 4), (9, 9)]

    def test_merge_duplicates(self):
        assert merge_intervals([2, 2, 3, 3]) == [(2, 3)]

    def test_merge_unsorted(self):
        assert merge_intervals([9, 1, 4, 3]) == [(1, 1), (3, 4), (9, 9)]

    def test_count_points(self):
        assert count_points([(1, 3), (7, 7)]) == 4

    def test_interval_points_order(self):
        assert points([(1, 2), (5, 6)]) == [1, 2, 5, 6]

    def test_clip_drops_empty(self):
        assert clip_intervals([(0, 2), (5, 9)], 3, 4) == []

    def test_clip_trims(self):
        assert clip_intervals([(0, 9)], 2, 5) == [(2, 5)]


# ---------------------------------------------------------------------------
# Table 2 equations, checked literally
# ---------------------------------------------------------------------------
class TestTable2:
    def test_trivial_no_deps(self):
        s = spec(DependenceType.TRIVIAL)
        for t in range(1, 6):
            for i in range(8):
                assert s.dependencies(t, i) == []

    def test_stencil_interior(self):
        """Stencil: D(t, i) = {i-1, i, i+1}."""
        s = spec(DependenceType.STENCIL_1D)
        assert points(s.dependencies(3, 4)) == [3, 4, 5]

    def test_stencil_left_edge_clipped(self):
        s = spec(DependenceType.STENCIL_1D)
        assert points(s.dependencies(3, 0)) == [0, 1]

    def test_stencil_right_edge_clipped(self):
        s = spec(DependenceType.STENCIL_1D)
        assert points(s.dependencies(3, 7)) == [6, 7]

    def test_sweep_dom(self):
        """Sweep: D(t, i) = {i-1, i}."""
        s = spec(DependenceType.DOM)
        assert points(s.dependencies(2, 5)) == [4, 5]
        assert points(s.dependencies(2, 0)) == [0]

    def test_fft_strides_double_per_stage(self):
        """FFT: D(t, i) = {i, i - 2^s, i + 2^s}, stride doubling each stage."""
        s = spec(DependenceType.FFT, width=8, height=4)
        assert points(s.dependencies(1, 3)) == [2, 3, 4]  # stride 1
        assert points(s.dependencies(2, 3)) == [1, 3, 5]  # stride 2
        assert points(s.dependencies(3, 3)) == [3, 7]  # stride 4, left clipped

    def test_fft_stride_cycles_beyond_log2_width(self):
        s = spec(DependenceType.FFT, width=4, height=8)
        # stages: stride 1, 2, then cycles back to 1
        assert points(s.dependencies(3, 1)) == [0, 1, 2]

    def test_tree_fans_out_doubling(self):
        s = spec(DependenceType.TREE, width=8, height=6)
        assert [s.width_at_timestep(t) for t in range(6)] == [1, 2, 4, 8, 8, 8]

    def test_tree_parent_is_floor_half(self):
        s = spec(DependenceType.TREE, width=8, height=6)
        for i in range(4):
            assert points(s.dependencies(2, i)) == [i // 2]

    def test_tree_children_after_expansion(self):
        s = spec(DependenceType.TREE, width=8, height=6)
        assert points(s.reverse_dependencies(1, 1)) == [2, 3]

    def test_tree_self_dependency_once_full(self):
        s = spec(DependenceType.TREE, width=8, height=6)
        assert points(s.dependencies(5, 3)) == [3]
        assert points(s.reverse_dependencies(4, 3)) == [3]

    def test_tree_non_power_of_two_width(self):
        s = spec(DependenceType.TREE, width=5, height=5)
        assert [s.width_at_timestep(t) for t in range(5)] == [1, 2, 4, 5, 5]
        # last child interval clipped to the active window
        assert points(s.reverse_dependencies(2, 2)) == [4]


# ---------------------------------------------------------------------------
# Additional official patterns
# ---------------------------------------------------------------------------
class TestOtherPatterns:
    def test_no_comm_self_only(self):
        s = spec(DependenceType.NO_COMM)
        assert points(s.dependencies(1, 5)) == [5]
        assert points(s.reverse_dependencies(1, 5)) == [5]

    def test_periodic_stencil_wraps(self):
        s = spec(DependenceType.STENCIL_1D_PERIODIC)
        assert points(s.dependencies(1, 0)) == [0, 1, 7]
        assert points(s.dependencies(1, 7)) == [0, 6, 7]

    def test_all_to_all(self):
        s = spec(DependenceType.ALL_TO_ALL)
        assert points(s.dependencies(1, 3)) == list(range(8))
        assert points(s.reverse_dependencies(1, 3)) == list(range(8))

    @pytest.mark.parametrize("radix", range(10))
    def test_nearest_radix_counts(self, radix):
        """Nearest with radix r has exactly r deps away from the edges."""
        s = spec(DependenceType.NEAREST, width=32, height=3, radix=radix)
        assert s.num_dependencies(1, 16) == radix

    def test_nearest_radix_zero_is_trivial(self):
        s = spec(DependenceType.NEAREST, radix=0)
        assert s.dependencies(1, 4) == []
        assert s.reverse_dependencies(1, 4) == []

    def test_nearest_centered(self):
        s = spec(DependenceType.NEAREST, width=32, height=3, radix=5)
        assert points(s.dependencies(1, 16)) == [14, 15, 16, 17, 18]

    def test_nearest_even_radix_bias(self):
        # radix 4: window [i-1, i+2] (official clipping convention)
        s = spec(DependenceType.NEAREST, width=32, height=3, radix=4)
        assert points(s.dependencies(1, 16)) == [15, 16, 17, 18]

    def test_spread_maximally_spaced(self):
        s = spec(DependenceType.SPREAD, width=12, height=4, radix=3)
        deps = points(s.dependencies(1, 0))
        assert len(deps) == 3
        gaps = sorted((b - a) % 12 for a, b in zip(deps, deps[1:]))
        assert all(g == 4 for g in gaps)

    def test_spread_rotates_with_timestep(self):
        s = spec(DependenceType.SPREAD, width=12, height=4, radix=3)
        d1 = set(points(s.dependencies(1, 0)))
        d2 = set(points(s.dependencies(2, 0)))
        assert d2 == {(x + 1) % 12 for x in d1}

    def test_spread_radix_exceeding_width_dedupes(self):
        s = spec(DependenceType.SPREAD, width=4, height=3, radix=9)
        assert s.num_dependencies(1, 0) <= 4

    def test_random_nearest_is_deterministic(self):
        a = spec(DependenceType.RANDOM_NEAREST, radix=5, seed=7)
        b = spec(DependenceType.RANDOM_NEAREST, radix=5, seed=7)
        for i in range(8):
            assert a.dependencies(3, i) == b.dependencies(3, i)

    def test_random_nearest_seed_changes_pattern(self):
        a = spec(DependenceType.RANDOM_NEAREST, width=64, height=4, radix=9, seed=1)
        b = spec(DependenceType.RANDOM_NEAREST, width=64, height=4, radix=9, seed=2)
        assert any(
            a.dependencies(2, i) != b.dependencies(2, i) for i in range(64)
        )

    def test_random_nearest_within_window(self):
        s = spec(
            DependenceType.RANDOM_NEAREST, width=64, height=4, radix=5, fraction=1.0
        )
        assert points(s.dependencies(1, 32)) == [30, 31, 32, 33, 34]

    def test_random_nearest_fraction_zero_empty(self):
        s = spec(DependenceType.RANDOM_NEAREST, radix=5, fraction=0.0)
        for i in range(8):
            assert s.dependencies(1, i) == []

    def test_random_nearest_period_repeats(self):
        s = spec(
            DependenceType.RANDOM_NEAREST,
            width=32,
            height=9,
            radix=7,
            period=3,
            fraction=0.5,
        )
        for i in range(32):
            assert s.dependencies(2, i) == s.dependencies(5, i) == s.dependencies(8, i)

    def test_random_nearest_no_period_varies(self):
        s = spec(
            DependenceType.RANDOM_NEAREST,
            width=64,
            height=9,
            radix=9,
            period=-1,
            fraction=0.5,
        )
        assert any(s.dependencies(2, i) != s.dependencies(5, i) for i in range(64))

    def test_random_nearest_fraction_density(self):
        s = spec(
            DependenceType.RANDOM_NEAREST,
            width=256,
            height=3,
            radix=9,
            fraction=0.25,
        )
        total = sum(s.num_dependencies(1, i) for i in range(20, 236))
        candidates = 9 * 216
        assert 0.15 < total / candidates < 0.35


# ---------------------------------------------------------------------------
# Exhaustive forward/backward consistency for every pattern
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ALL_TYPES)
@pytest.mark.parametrize("width", [1, 2, 5, 8])
def test_forward_backward_inverse(dtype, width):
    s = DependenceSpec(dtype, width, 6, radix=3, fraction=0.5, seed=99)
    fwd = set()
    for t in range(1, 6):
        off = s.offset_at_timestep(t)
        for i in range(off, off + s.width_at_timestep(t)):
            for j in s.dependency_points(t, i):
                assert s.contains_point(t - 1, j)
                fwd.add((t, i, j))
    bwd = set()
    for t in range(0, 5):
        off = s.offset_at_timestep(t)
        for j in range(off, off + s.width_at_timestep(t)):
            for i in s.reverse_dependency_points(t, j):
                assert s.contains_point(t + 1, i)
                bwd.add((t + 1, i, j))
    assert fwd == bwd


@pytest.mark.parametrize("dtype", ALL_TYPES)
def test_max_dependencies_bounds_actual(dtype):
    s = DependenceSpec(dtype, 8, 6, radix=5, fraction=1.0)
    bound = s.max_dependencies()
    for t in range(1, 6):
        off = s.offset_at_timestep(t)
        for i in range(off, off + s.width_at_timestep(t)):
            assert s.num_dependencies(t, i) <= bound


# ---------------------------------------------------------------------------
# Dependence sets (official core API)
# ---------------------------------------------------------------------------
class TestDependenceSets:
    def test_constant_patterns_have_one_set(self):
        for d in (DependenceType.TRIVIAL, DependenceType.STENCIL_1D,
                  DependenceType.DOM, DependenceType.NEAREST,
                  DependenceType.ALL_TO_ALL):
            s = spec(d, height=10)
            assert s.max_dependence_sets() == 1
            assert {s.dependence_set_at_timestep(t) for t in range(10)} == {0}

    def test_fft_sets_cycle_with_stages(self):
        s = DependenceSpec(DependenceType.FFT, 8, 10)
        assert s.max_dependence_sets() == 3  # log2(8) stages
        ids = [s.dependence_set_at_timestep(t) for t in range(1, 10)]
        assert ids == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_tree_sets_expand_then_steady(self):
        s = DependenceSpec(DependenceType.TREE, 8, 8)
        ids = [s.dependence_set_at_timestep(t) for t in range(8)]
        assert ids == [0, 1, 2, 3, 4, 4, 4, 4]
        assert s.max_dependence_sets() == 5

    def test_spread_sets_rotate(self):
        s = DependenceSpec(DependenceType.SPREAD, 6, 14, radix=2)
        assert s.max_dependence_sets() == 6
        assert s.dependence_set_at_timestep(1) == s.dependence_set_at_timestep(7)

    def test_random_period_sets(self):
        s = DependenceSpec(DependenceType.RANDOM_NEAREST, 8, 12, radix=3, period=4)
        assert s.max_dependence_sets() == 4
        s2 = DependenceSpec(DependenceType.RANDOM_NEAREST, 8, 12, radix=3)
        assert s2.max_dependence_sets() == 12  # no repetition

    def test_set_ids_in_range(self):
        for d in ALL_TYPES:
            s = DependenceSpec(d, 8, 12, radix=3, period=3)
            n = s.max_dependence_sets()
            for t in range(12):
                assert 0 <= s.dependence_set_at_timestep(t) < n, d

    @pytest.mark.parametrize("dtype", ALL_TYPES)
    @pytest.mark.parametrize("width", [1, 5, 8])
    @pytest.mark.parametrize("period", [-1, 1, 3])
    def test_set_cycle_names_each_sets_first_timestep(self, dtype, width, period):
        """``dependence_set_cycle`` is ``dependence_set_at_timestep`` in
        O(1): it sends a timestep to the first one (>= 1) with its set id."""
        s = DependenceSpec(dtype, width, 14, radix=3, period=period)
        lead, cycle = s.dependence_set_cycle()
        assert lead >= 1 and cycle >= 1
        first = {}
        for t in range(1, 14):
            first.setdefault(s.dependence_set_at_timestep(t), t)
            rep = t if t < lead else lead + (t - lead) % cycle
            assert rep == first[s.dependence_set_at_timestep(t)], (dtype, t)

    @pytest.mark.parametrize("dtype", ALL_TYPES)
    @pytest.mark.parametrize("width", [1, 5, 8])
    def test_equal_sets_imply_equal_structure(self, dtype, width):
        """The defining property: same set id -> same dependencies for
        every column (among timesteps that have a predecessor)."""
        s = DependenceSpec(dtype, width, 12, radix=3, period=3, fraction=0.5)
        by_set = {}
        for t in range(1, 12):
            sid = s.dependence_set_at_timestep(t)
            structure = tuple(
                tuple(s.dependencies(t, i))
                for i in range(s.offset_at_timestep(t),
                               s.offset_at_timestep(t) + s.width_at_timestep(t))
            )
            window = (s.offset_at_timestep(t), s.width_at_timestep(t))
            if sid in by_set:
                assert by_set[sid] == (structure, window), (dtype, t)
            else:
                by_set[sid] = (structure, window)


# ---------------------------------------------------------------------------
# Argument validation
# ---------------------------------------------------------------------------
class TestValidation:
    def test_bad_width(self):
        with pytest.raises(ValueError, match="width"):
            DependenceSpec(DependenceType.TRIVIAL, 0, 5)

    def test_bad_height(self):
        with pytest.raises(ValueError, match="height"):
            DependenceSpec(DependenceType.TRIVIAL, 5, 0)

    def test_bad_radix(self):
        with pytest.raises(ValueError, match="radix"):
            DependenceSpec(DependenceType.NEAREST, 5, 5, radix=-1)

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            DependenceSpec(DependenceType.RANDOM_NEAREST, 5, 5, fraction=1.5)

    def test_bad_period(self):
        with pytest.raises(ValueError, match="period"):
            DependenceSpec(DependenceType.RANDOM_NEAREST, 5, 5, period=0)

    def test_out_of_range_timestep(self):
        s = spec(DependenceType.STENCIL_1D)
        with pytest.raises(IndexError):
            s.dependencies(6, 0)

    def test_out_of_space_point(self):
        s = spec(DependenceType.TREE)
        with pytest.raises(IndexError):
            s.dependencies(0, 1)  # tree has width 1 at t=0

    def test_contains_point_negative(self):
        s = spec(DependenceType.STENCIL_1D)
        assert not s.contains_point(-1, 0)
        assert not s.contains_point(0, -1)
        assert not s.contains_point(0, 8)

    def test_parse_dependence_type(self):
        assert DependenceType.parse("Stencil_1D") is DependenceType.STENCIL_1D
        with pytest.raises(ValueError, match="unknown dependence"):
            DependenceType.parse("bogus")
