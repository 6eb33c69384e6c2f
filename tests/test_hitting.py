"""Interval piercing: greedy sweeps against the exhaustive oracle, and the
grouped sweeps against the per-group scalar greedy."""

import numpy as np
import pytest

from shallowlight.hitting import GroupedSorted, hit_groups_discrete, pierce_groups

from helpers import (
    brute_force_min_hitting,
    hit_intervals_discrete,
    pierce_intervals,
    reference_hit_intervals_discrete,
    reference_pierce_intervals,
)


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


def _grouped_case(rng):
    """Intervals and candidates of a few groups on a coarse grid, so values,
    endpoints and candidates repeat; groups come in any input order."""
    n = int(rng.integers(0, 30))
    group = rng.integers(0, 5, size=n)
    lo = rng.integers(-4, 8, size=n) * 0.5
    hi = lo + rng.integers(0, 5, size=n) * 0.5
    lo[lo == 0.0] = rng.choice([0.0, -0.0], size=int(np.sum(lo == 0.0)))
    c = int(rng.integers(0, 30))
    cand_group = rng.integers(0, 5, size=c)
    cand_value = rng.integers(-4, 12, size=c) * 0.5
    return group, lo, hi, cand_group, cand_value


def _scalar(fn, *args):
    try:
        return fn(*args), None
    except ValueError as e:
        return None, str(e)


def test_pierce_groups_equal_per_group_scalar_greedy():
    rng = np.random.default_rng(41)
    for _ in range(500):
        group, lo, hi, _, _ = _grouped_case(rng)
        picks = pierce_groups(group, lo, hi)
        want = []
        for g in sorted(set(group.tolist())):
            rows = np.flatnonzero(group == g)
            want += [(g, v) for v in reference_pierce_intervals(zip(lo[rows], hi[rows]))]
        got = list(zip(group[picks].tolist(), hi[picks].tolist()))
        assert got == want
        # same floats, signs of zero included
        assert [np.signbit(v) for _, v in got] == [np.signbit(v) for _, v in want]


def test_hit_groups_discrete_equal_per_group_scalar_greedy():
    rng = np.random.default_rng(43)
    raised = 0
    for _ in range(500):
        group, lo, hi, cand_group, cand_value = _grouped_case(rng)
        # most intervals get a candidate at their hi, so most cases are feasible
        covered = rng.random(group.size) < 0.95
        cand_group = np.concatenate([cand_group, group[covered]])
        cand_value = np.concatenate([cand_value, hi[covered]])
        order = np.lexsort((cand_value, cand_group))  # ties keep the input order
        cand = GroupedSorted(cand_group[order], cand_value[order])
        got, err = _scalar(hit_groups_discrete, group, lo, hi, cand)
        want, want_err = [], None
        for g in sorted(set(group.tolist())):
            rows = np.flatnonzero(group == g)
            own = order[cand_group[order] == g]
            picked, want_err = _scalar(reference_hit_intervals_discrete,
                                       zip(lo[rows], hi[rows]), cand_value[own])
            if want_err:
                break
            want += own[picked].tolist()
        assert err == want_err
        if err:
            raised += 1
            assert "contains no candidate" in err
        else:
            assert order[got].tolist() == want
    assert 50 < raised < 450


def test_grouped_sorted_search_equals_per_group_searchsorted():
    rng = np.random.default_rng(47)
    for _ in range(200):
        _, _, _, group, value = _grouped_case(rng)
        value[value == 0.0] = -0.0
        order = np.lexsort((value, group))
        gs = GroupedSorted(group[order], value[order])
        q_group = rng.integers(-1, 6, size=20)
        q_value = rng.integers(-6, 14, size=20) * 0.5
        for side in ("left", "right"):
            got = gs.search(q_group, q_value, side=side)
            for qg, qv, pos in zip(q_group, q_value, got):
                start = np.searchsorted(gs.group, qg)
                own = gs.value[start:np.searchsorted(gs.group, qg, side="right")]
                assert pos == start + np.searchsorted(own, qv, side=side)
        pos = np.arange(gs.key.size)
        first = gs.first_equal(pos)
        assert np.all((gs.group[first] == gs.group) & (gs.value[first] == gs.value))
        assert np.all((first == 0) | (gs.key[np.maximum(first - 1, 0)] != gs.key))


@pytest.mark.parametrize("call", [
    lambda ivs: pierce_intervals(ivs),
    lambda ivs: hit_intervals_discrete(ivs, [0.0, 2.0]),
    lambda ivs: reference_pierce_intervals(ivs),
    lambda ivs: reference_hit_intervals_discrete(ivs, [0.0, 2.0]),
])
def test_malformed_interval_message_names_the_first_in_input_order(call):
    with pytest.raises(ValueError, match=r"^malformed interval \[3\.0, 1\.0\]$"):
        call([(0.0, 1.0), (3.0, 1.0), (2.0, 0.0)])
    with pytest.raises(ValueError, match=r"^malformed interval \[nan, nan\]$"):
        call([(float("nan"), float("nan"))])


def test_grouped_sweeps_reject_malformed_intervals():
    cand = GroupedSorted([0], [1.0])
    with pytest.raises(ValueError, match=r"^malformed interval \[2\.0, 1\.0\]$"):
        pierce_groups([1, 0], [0.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=r"^malformed interval \[2\.0, 1\.0\]$"):
        hit_groups_discrete([1, 0], [0.0, 2.0], [1.0, 1.0], cand)


def test_no_candidate_message_equals_the_scalar_greedy():
    ivs, cands = [(0, 1), (4, 5)], [0.5, 9.0]
    with pytest.raises(ValueError) as got:
        hit_intervals_discrete(ivs, cands)
    with pytest.raises(ValueError) as want:
        reference_hit_intervals_discrete(ivs, cands)
    assert str(got.value) == str(want.value) == "interval [4.0, 5.0] contains no candidate"
