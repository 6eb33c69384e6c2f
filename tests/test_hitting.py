"""Interval piercing: greedy sweeps against the exhaustive oracle."""

import numpy as np
import pytest

from shallowlight.hitting import hit_intervals_discrete, pierce_intervals

from helpers import brute_force_min_hitting


def _random_intervals(rng, n, span=10.0):
    los = rng.uniform(0.0, span, size=n)
    lens = rng.uniform(0.0, span / 2, size=n)
    return [(lo, lo + ln) for lo, ln in zip(los, lens)]


def test_pierce_known_cases():
    # nested family: one point (the innermost right endpoint) pierces all
    nested = [(0, 10), (1, 9), (2, 8), (3, 4)]
    assert pierce_intervals(nested) == [4.0]
    # pairwise disjoint: one point per interval
    disjoint = [(0, 1), (2, 3), (5, 6), (8, 9)]
    assert pierce_intervals(disjoint) == [1.0, 3.0, 6.0, 9.0]
    # closed intervals: touching endpoints share a piercing point
    assert pierce_intervals([(0, 1), (1, 2)]) == [1.0]
    assert pierce_intervals([]) == []


def test_pierce_points_are_right_endpoints_and_ascending():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ivs = _random_intervals(rng, int(rng.integers(1, 20)))
        pts = pierce_intervals(ivs)
        his = {hi for _, hi in ivs}
        assert all(p in his for p in pts)
        assert pts == sorted(pts)
        # validity: every interval is stabbed
        for lo, hi in ivs:
            assert any(lo <= p <= hi for p in pts)


def test_pierce_matches_brute_force_cardinality():
    rng = np.random.default_rng(11)
    for _ in range(300):
        ivs = _random_intervals(rng, int(rng.integers(1, 13)))
        greedy = pierce_intervals(ivs)
        best = brute_force_min_hitting(ivs)
        assert len(greedy) == len(best)


def test_pierce_rejects_malformed():
    with pytest.raises(ValueError):
        pierce_intervals([(1.0, 0.0)])


def test_discrete_returns_indices_with_tie_breaking():
    # both intervals hit by value 5.0, present twice; lowest index wins
    ivs = [(0, 5), (3, 8)]
    cands = [9.0, 5.0, 5.0, 1.0]
    assert hit_intervals_discrete(ivs, cands) == [1]
    # largest candidate value <= hi is chosen, not merely any feasible one
    assert hit_intervals_discrete([(0, 6)], [1.0, 4.0, 2.0]) == [1]


def test_discrete_skips_intervals_already_hit():
    # sweep order (0,2) then (1,7): 2.0 pierces both, so one pick
    picks = hit_intervals_discrete([(1, 7), (0, 2)], [2.0, 7.0])
    assert picks == [0]


def test_discrete_infeasible_raises():
    with pytest.raises(ValueError, match="contains no candidate"):
        hit_intervals_discrete([(0, 1), (4, 5)], [0.5, 9.0])


def test_discrete_matches_brute_force_cardinality():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 300:
        n = int(rng.integers(1, 13))
        ivs = _random_intervals(rng, n, span=6.0)
        cands = list(rng.uniform(0.0, 9.0, size=int(rng.integers(1, 13))))
        try:
            picks = hit_intervals_discrete(ivs, cands)
        except ValueError:
            continue
        vals = [cands[i] for i in picks]
        for lo, hi in ivs:
            assert any(lo <= v <= hi for v in vals)
        best = brute_force_min_hitting(ivs, candidates=cands)
        assert len(picks) == len(best)
        checked += 1


def test_discrete_is_deterministic():
    rng = np.random.default_rng(31)
    ivs = _random_intervals(rng, 10, span=4.0)
    # seed the pool with every right endpoint so the instance is feasible
    cands = [hi for _, hi in ivs] + list(rng.uniform(0.0, 7.0, size=12))
    first = hit_intervals_discrete(ivs, cands)
    for _ in range(5):
        assert hit_intervals_discrete(list(ivs), list(cands)) == first


def test_brute_force_guards_and_edges():
    assert brute_force_min_hitting([]) == []
    with pytest.raises(ValueError, match="more than 15 intervals"):
        brute_force_min_hitting([(0, 1)] * 16)
    with pytest.raises(ValueError, match="more than 15 candidates"):
        brute_force_min_hitting([(0, 1)], candidates=list(range(16)))
    with pytest.raises(ValueError, match="no hitting set"):
        brute_force_min_hitting([(0, 1)], candidates=[5.0])
