"""Pair combinatorics: neighbours, chains, boxes, and the witness bijection."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plethy import (
    box,
    content,
    content_chain,
    count_hook_tableaux,
    increasing_tuples,
    is_semistandard,
    neighbour,
    pair_alpha,
    pair_sort_key,
    pair_to_increasing,
    semistandard_pairs,
)

from oracles import increasing_to_pair, pair_precedes


def test_neighbour_golden_chain_steps():
    assert neighbour((1, 2, 4), 7) == ((1, 2, 7), 4)
    assert neighbour((1, 2, 7), 4) == ((1, 4, 7), 2)
    # one more step leaves the semistandard range: first entry exceeds j
    assert neighbour((1, 4, 7), 2) == ((2, 4, 7), 1)
    assert not is_semistandard((2, 4, 7), 1)


def test_content_chain_golden():
    assert content_chain((1, 2, 4, 7)) == [
        ((1, 2, 4), 7),
        ((1, 2, 7), 4),
        ((1, 4, 7), 2),
    ]


def test_content_chain_rejects_repeats():
    with pytest.raises(ValueError):
        content_chain((1, 2, 2, 5))


def test_repeated_content_classes_are_singletons():
    # a pair with j inside i is alone in its content class
    pairs = semistandard_pairs(2, 4)
    repeated = [p for p in pairs if p[1] in p[0]]
    assert repeated
    for i, j in repeated:
        cls = [q for q in pairs if content(*q) == content(i, j)]
        assert cls == [(i, j)]


def test_neighbour_preserves_content():
    for i, j in semistandard_pairs(3, 5):
        if j in i:
            continue
        i2, j2 = neighbour(i, j)
        assert content(i2, j2) == content(i, j)
        assert j2 < j


def test_box_golden():
    assert list(box((0, 2, 3, 6))) == [
        (0, 2, 3),
        (0, 2, 4),
        (0, 2, 5),
        (1, 2, 3),
        (1, 2, 4),
        (1, 2, 5),
    ]
    assert list(box((1, 3))) == [(1,), (2,)]


def test_box_needs_strictly_increasing_corners():
    with pytest.raises(ValueError):
        list(box((2, 2, 3)))
    with pytest.raises(ValueError):
        list(box((3, 1)))


def test_box_size_is_product_of_gaps():
    for k in increasing_tuples(7, 4):
        gaps = [k[t + 1] - k[t] for t in range(3)]
        members = list(box(k))
        assert len(members) == gaps[0] * gaps[1] * gaps[2]
        assert all(a < b for m in members for a, b in zip(m, m[1:]))


def test_pair_order_golden_prefix():
    pairs = semistandard_pairs(2, 4)
    assert pairs[:6] == [
        ((0, 1), 0),
        ((0, 2), 0),
        ((0, 3), 0),
        ((0, 4), 0),
        ((0, 1), 1),
        ((0, 1), 2),
    ]
    # order key: content first, then the larger j wins
    assert pair_sort_key(((0, 2), 1)) == ((0, 1, 2), -1)
    assert pair_precedes(((0, 1), 2), ((0, 2), 1))


def test_semistandard_pairs_counts():
    for N in range(1, 5):
        for d in range(0, 8):
            pairs = semistandard_pairs(N, d)
            assert len(pairs) == count_hook_tableaux(N, d)
            assert len(set(pairs)) == len(pairs)
            assert all(is_semistandard(i, j) for i, j in pairs)


def test_count_formula_small_values():
    assert count_hook_tableaux(2, 4) == 40
    assert count_hook_tableaux(3, 5) == 105
    assert count_hook_tableaux(1, 3) == 10
    assert count_hook_tableaux(4, 1) == 0  # rank exceeds degree + 2


def test_witness_golden():
    assert pair_to_increasing((0, 3), 4) == (2, (0, 3, 5))
    assert pair_to_increasing((0, 4), 5) == (2, (0, 4, 6))
    assert pair_to_increasing((1, 2), 1) == (1, (1, 2, 3))


def test_witness_bijection_exhaustive():
    for N, d in ((1, 4), (2, 4), (3, 5)):
        pairs = semistandard_pairs(N, d)
        images = set()
        for i, j in pairs:
            alpha, k = pair_to_increasing(i, j)
            assert 1 <= alpha <= N
            assert len(k) == N + 1 and all(0 <= v <= d + 1 for v in k)
            assert all(k[t] < k[t + 1] for t in range(N))
            assert increasing_to_pair(alpha, k) == (i, j)
            images.add((alpha, k))
        # injective with the same count as the target, hence onto it
        assert len(images) == len(pairs)
        assert len(pairs) == N * len(increasing_tuples(d + 1, N + 1))


@given(st.data())
def test_witness_round_trip_random(data):
    N = data.draw(st.integers(min_value=1, max_value=5))
    d = data.draw(st.integers(min_value=N - 1, max_value=9))
    i = tuple(sorted(data.draw(st.sets(st.integers(0, d), min_size=N, max_size=N))))
    j = data.draw(st.integers(min_value=i[0], max_value=d))
    alpha, k = pair_to_increasing(i, j)
    assert increasing_to_pair(alpha, k) == (i, j)


def test_pair_alpha_matches_definition():
    for i, j in semistandard_pairs(3, 5):
        alpha = pair_alpha(i, j)
        assert i[alpha - 1] <= j  # 1-based index of the pivot entry
        assert all(i[t] > j for t in range(alpha, 3))


def test_pair_alpha_rejects_non_semistandard():
    with pytest.raises(ValueError):
        pair_alpha((2, 3), 1)


def test_increasing_tuples_inclusive_top():
    tuples = increasing_tuples(5, 3)
    assert tuples == sorted(tuples)
    assert len(tuples) == 20  # C(6, 3)
    assert all(t[0] < t[1] < t[2] <= 5 for t in tuples)
    assert increasing_tuples(3, 0) == [()]


def test_chain_lengths_partition_pairs():
    # each distinct-valued content class carries a chain of exactly N pairs
    N, d = 3, 5
    pairs = semistandard_pairs(N, d)
    by_content = {}
    for p in pairs:
        by_content.setdefault(content(*p), []).append(p)
    for values, members in by_content.items():
        if len(set(values)) == len(values):
            chain = content_chain(values)
            assert len(chain) == N
            assert sorted(members) == sorted(chain)
        else:
            assert len(members) == 1
