import math

import numpy as np
import pytest

from oracles import (
    _ref_larger_slope,
    _ref_smaller_slope,
    group_by_size,
    lemma_po_oracle,
    select_po_reference,
)
from warpcheck import selection
from warpcheck.partition import HyperRect, Partition, sample_points
from warpcheck.selection import (
    group_size,
    select_po,
    slope_bracket,
    sufficient_descent,
)

# stats for the worked three-rect configuration: sizes 1/2, 1/6, 1/18
THREE = [HyperRect(0, (1,), (0,), 5.0), HyperRect(1, (1,), (1,), 3.0),
         HyperRect(2, (1,), (2,), 4.0)]


def _minima(stats):
    """Group size -> least center value, the table select_po hands its helpers."""
    return {group_size(key): group[0].value for key, group in group_by_size(stats).items()}


def _bracket(stat, minima):
    return slope_bracket(stat.value, group_size(stat.depth_key), minima)


def _descent(stat, minima, l_min, tau=1e-4):
    upper = _bracket(stat, minima)[1]
    return sufficient_descent(stat.value, group_size(stat.depth_key), l_min, tau, upper)


def _score(stat, minima):
    """Width of the rect's slope bracket, the score select_po cuts at 0."""
    lower, upper = _bracket(stat, minima)
    return upper - lower


class TestOptimalScore:
    def test_single_rect_scores_infinite(self):
        stats = [HyperRect(0, (1,), (0,), 1.0)]
        assert _score(stats[0], _minima(stats)) == math.inf

    def test_middle_rect_of_three(self):
        # (5-3)/(1/2-1/6) - max(0, (3-4)/(1/6-1/18)) = 6 - 0
        assert _score(THREE[1], _minima(THREE)) == pytest.approx(6.0)

    def test_largest_rect_of_three(self):
        assert _score(THREE[0], _minima(THREE)) == math.inf

    def test_smallest_rect_negative_upper(self):
        # min over larger groups is (3-4)/(1/6-1/18) = -9
        assert _score(THREE[2], _minima(THREE)) == pytest.approx(-9.0)

    def test_positive_smaller_slope_subtracted(self):
        stats = [HyperRect(0, (1,), (0,), 5.0), HyperRect(1, (1,), (1,), 3.0),
                 HyperRect(2, (1,), (2,), 2.0)]
        # upper = (5-3)/(1/2-1/6) = 6; lower = (3-2)/(1/6-1/18) = 9
        assert _score(stats[1], _minima(stats)) == pytest.approx(6.0 - 9.0)


class TestSlopeBracket:
    def test_matches_both_reference_slopes_on_every_rect(self):
        # values rounded to one decimal so group minima and slopes tie
        rng = np.random.default_rng(18)
        for trial in range(300):
            stats = [
                HyperRect(i, (1,), (int(rng.integers(0, 5)),), float(np.round(rng.normal(), 1)))
                for i in range(int(rng.integers(1, 21)))
            ]
            by_key = {key: group[0].value for key, group in group_by_size(stats).items()}
            minima = _minima(stats)
            for s in stats:
                want = (_ref_smaller_slope(s, by_key), _ref_larger_slope(s, by_key))
                assert _bracket(s, minima) == want, f"trial {trial}, rect {s.id}"


class TestAlphaCandidates:
    def test_ranks_positive_scores(self):
        # group 1 scores: id 4 (value 3) 18, id 9 (value 4) 15, id 7
        # (value 12) (9 - 12) / (1/2 - 1/6) = -9
        stats = [
            HyperRect(0, (1,), (0,), 9.0), HyperRect(4, (1,), (1,), 3.0),
            HyperRect(7, (1,), (1,), 12.0), HyperRect(9, (1,), (1,), 4.0),
        ]
        minima = _minima(stats)
        assert [_score(s, minima) for s in stats[1:]] == pytest.approx([18.0, -9.0, 15.0])
        groups = group_by_size(stats)
        assert select_po(groups, alpha=2, tau=1e-4, l_min=3.0, max_depth=6) == [0, 4, 9]
        assert select_po(groups, alpha=3, tau=1e-4, l_min=3.0, max_depth=6) == [0, 4, 9]

    def test_empty_when_all_scores_nonpositive(self):
        # group 1 scores: id 1 (value 1) exactly 0, id 2 (value 2) -3
        stats = [HyperRect(0, (1,), (0,), 1.0), HyperRect(1, (1,), (1,), 1.0),
                 HyperRect(2, (1,), (1,), 2.0)]
        minima = _minima(stats)
        assert _score(stats[1], minima) == 0.0
        assert _score(stats[2], minima) < 0.0
        assert select_po(group_by_size(stats), alpha=3, tau=1e-4, l_min=1.0, max_depth=6) == [0]

    def test_alpha_one_picks_group_value_minimum(self):
        # within one size group the least center value has the best score
        stats = [HyperRect(0, (1,), (0,), 9.0)]
        stats += [HyperRect(i, (1,), (1,), v) for i, v in ((1, 3.0), (2, 5.0), (3, 4.0))]
        assert select_po(group_by_size(stats), alpha=1, tau=1e-4, l_min=3.0, max_depth=6) == [0, 1]

    def test_infinite_score_ties_break_on_value(self):
        stats = [HyperRect(3, (1,), (0,), 2.0), HyperRect(5, (1,), (0,), 1.0)]
        assert select_po(group_by_size(stats), alpha=1, tau=1e-4, l_min=1.0, max_depth=6) == [5]

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            select_po({}, alpha=0, tau=1e-4, l_min=0.0, max_depth=6)


class TestSufficientDescent:
    def test_largest_rect_always_passes(self):
        stats = [HyperRect(0, (1,), (0,), 7.0), HyperRect(1, (1,), (1,), 8.0)]
        assert _descent(stats[0], _minima(stats), l_min=7.0)

    def test_first_branch_accepts(self):
        # l_min = -1, value = -1, size 1/6, larger-group slope 6:
        # 1e-4 <= 0 + (1/6) * 6 / 1
        stats = [HyperRect(0, (1,), (0,), 1.0), HyperRect(1, (1,), (1,), -1.0)]
        minima = _minima(stats)
        # larger slope for rect 1: (1 - (-1)) / (1/2 - 1/6) = 6
        assert _bracket(stats[1], minima)[1] == pytest.approx(6.0)
        assert _descent(stats[1], minima, l_min=-1.0)

    def test_zero_l_min_branch_rejects(self):
        # value 0.2, size 1/6, slope term 0.6: 0.2 > 0.1
        stat = HyperRect(1, (1,), (1,), 0.2)
        larger = HyperRect(0, (1,), (0,), 0.2 + 0.6 * (group_size(0) - group_size(1)))
        assert not _descent(stat, _minima([larger, stat]), l_min=0.0)

    def test_zero_l_min_branch_accepts_negative_value(self):
        stats = [HyperRect(0, (1,), (0,), 0.5), HyperRect(1, (1,), (1,), -0.1)]
        assert _descent(stats[1], _minima(stats), l_min=0.0)


class TestSelectPo:
    def test_initial_cube_selected(self):
        part = Partition(2)
        part.rects[0].value = 1.5
        assert select_po(part.groups, 1, 1e-4, 1.5, 6) == [0]

    def test_three_rect_configuration(self):
        # largest rect by infinite score; middle passes the descent test
        got = select_po(group_by_size(THREE), alpha=1, tau=1e-4, l_min=3.0, max_depth=6)
        assert got == [0, 1]

    def test_group_size_computed_once_per_group(self, monkeypatch):
        part = _random_partition(np.random.default_rng(5), 2, 20, round_to=3)
        assert len(part.groups) > 2
        l_min = min(r.value for r in part)
        want = select_po_reference(list(part), 2, 1e-4, l_min, 9)
        calls = []
        monkeypatch.setattr(selection, "group_size", lambda k: calls.append(k) or group_size(k))
        assert select_po(part.groups, 2, 1e-4, l_min, 9) == want
        assert len(calls) <= len(part.groups)

    def test_depth_cap_empties_selection(self):
        stats = [HyperRect(0, (1,), (3,), 1.0), HyperRect(1, (1,), (3,), 2.0)]
        assert select_po(group_by_size(stats), alpha=1, tau=1e-4, l_min=1.0, max_depth=3) == []

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            stats = [
                HyperRect(i, (1,), (int(rng.integers(0, 4)),), float(rng.normal()))
                for i in range(int(rng.integers(2, 18)))
            ]
            l_min = min(s.value for s in stats)
            previous: set[int] = set()
            for alpha in (1, 2, 3, 5):
                selected = set(select_po(group_by_size(stats), alpha, 1e-4, l_min, max_depth=5))
                assert previous <= selected
                previous = selected

    def test_remark_one_largest_group_winner_always_selected(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            stats = [
                HyperRect(i, (1,), (int(rng.integers(0, 4)),), float(rng.normal()))
                for i in range(int(rng.integers(1, 16)))
            ]
            l_min = min(s.value for s in stats)
            selected = select_po(group_by_size(stats), 1, 1e-4, l_min, max_depth=5)
            assert selected, "selection must not be empty while rects are divisible"
            top_key = min(s.depth_key for s in stats)
            largest = [s for s in stats if s.depth_key == top_key]
            winner = min(largest, key=lambda s: (s.value, s.id))
            assert winner.id in selected


class TestLemmaOracleAgreement:
    # random synthetic rects against the oracle are acceptance criterion 2
    def test_matches_on_live_partitions(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            part = Partition(2)
            part.rects[0].value = float(rng.normal())
            for _ in range(6):
                live = list(part.rects)
                rect = part.rects[int(rng.choice(live))]
                points = sample_points(rect)
                results = {key: float(rng.normal()) for key in points}
                part.divide(rect.id, results)
            stats = list(part)
            l_min = min(s.value for s in stats)
            mine = set(select_po(group_by_size(stats), 1, 1e-4, l_min, max_depth=9))
            assert mine == lemma_po_oracle(stats, 1e-4, l_min)


def _random_partition(rng, n, divisions, round_to):
    part = Partition(n)
    part.rects[0].value = float(np.round(rng.normal(), round_to))
    for _ in range(divisions):
        rect = part.rects[int(rng.choice(list(part.rects)))]
        results = {key: float(np.round(rng.normal(), round_to))
                   for key in sample_points(rect)}
        part.divide(rect.id, results)
    return part


class TestMatchesScoreEveryRectReference:
    """Ordered-list equality with the rule that scores every rect of a group."""

    @pytest.mark.parametrize("max_depth", [3, 6])
    @pytest.mark.parametrize("alpha", [1, 2, 3, 5])
    def test_random_stats_with_ties(self, alpha, max_depth):
        rng = np.random.default_rng(100 * alpha + max_depth)
        for trial in range(300):
            stats = [
                HyperRect(i, (1,), (int(rng.integers(0, 6)),), float(np.round(rng.normal(), 1)))
                for i in range(int(rng.integers(1, 30)))
            ]
            l_min = 0.0 if trial % 3 == 0 else min(s.value for s in stats)
            tau = float(rng.choice([1e-3, 1e-4, 1e-5]))
            want = select_po_reference(stats, alpha, tau, l_min, max_depth)
            got = select_po(group_by_size(stats), alpha, tau, l_min, max_depth)
            assert got == want, f"trial {trial}"

    @pytest.mark.parametrize("max_depth", [3, 6])
    @pytest.mark.parametrize("alpha", [1, 2, 3, 5])
    def test_live_partitions(self, alpha, max_depth):
        rng = np.random.default_rng(1000 + 10 * alpha + max_depth)
        for trial in range(40):
            part = _random_partition(rng, int(rng.integers(1, 4)), 15, round_to=1)
            l_min = 0.0 if trial % 4 == 0 else min(r.value for r in part)
            want = select_po_reference(list(part), alpha, 1e-4, l_min, max_depth)
            assert select_po(part.groups, alpha, 1e-4, l_min, max_depth) == want, f"trial {trial}"
            # the partition's own groups equal the same rects grouped afresh
            stats = [HyperRect(r.id, (1,), (r.depth_key,), r.value) for r in part]
            for other in (list(part), stats):
                got = select_po(group_by_size(other), alpha, 1e-4, l_min, max_depth)
                assert got == want, f"trial {trial}"
