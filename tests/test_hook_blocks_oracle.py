"""Differential tests: the hook space's maps, built and checked one
Y-degree block at a time, against the whole-map builders and checks that
they replaced, kept in oracles.py."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from plethy import QQ, HookSchurSpace, dim, rank
from plethy.schur import _rank_over_qq
from plethy.spaces import basis
from oracles import whole_basis_matrix, whole_coordinate_map, whole_mu, whole_verify


def _entries(cols) -> list:
    """Columns as lists of (row, value), so key order is compared too."""
    return [list(col.items()) for col in cols]


points = st.integers(min_value=0, max_value=7).flatmap(
    lambda d: st.tuples(st.integers(min_value=1, max_value=d + 2), st.just(d))
)


@settings(max_examples=30, deadline=None)
@given(points)
@example((2, 0))  # N = d + 2: empty spaces, no block
@example((3, 1))
def test_the_block_maps_are_the_restrictions_of_the_whole_maps(point):
    N, d = point
    hook = HookSchurSpace(N, d)
    whole_verify(hook)
    mu, B, K = whole_mu(hook), whole_basis_matrix(hook), whole_coordinate_map(hook)
    # the blocks split both bases by Y-degree, each ascending
    amb_labels = basis(hook.ambient)
    assert sorted(p for ps in hook.ambient_blocks.values() for p in ps) == list(
        range(dim(hook.ambient))
    )
    assert sorted(m for ms in hook.pair_blocks.values() for m in ms) == list(
        range(len(hook.pairs))
    )
    assert set(hook.pair_blocks) <= set(hook.ambient_blocks)
    b_rank = mu_rank = 0
    for w, amb in hook.ambient_blocks.items():
        pairs = hook.pair_blocks.get(w, [])
        assert amb == sorted(amb) and pairs == sorted(pairs)
        assert all(hook.ambient.ydegree(amb_labels[p]) == w for p in amb)
        assert all(hook.coords.ydegree(hook.pairs[m]) == w for m in pairs)
        mu_w, B_w, K_w = hook.mu_block(w), hook.basis_block(w), hook.coordinate_block(w)
        # each slice is the whole map's columns at the block's positions,
        # with the same key order
        assert list(mu_w) == amb and list(K_w) == amb and list(B_w) == pairs
        assert _entries(mu_w.values()) == _entries(mu.pcols[p] for p in amb)
        assert _entries(K_w.values()) == _entries(K.pcols[p] for p in amb)
        assert _entries(B_w.values()) == _entries(B.pcols[m] for m in pairs)
        b_rank += _rank_over_qq(B_w.values())
        mu_rank += _rank_over_qq(mu_w.values())
    # the block ranks sum to the whole ranks
    assert b_rank == rank(B.map_entries(QQ, QQ.from_int)) == len(hook.pairs)
    assert mu_rank == rank(mu.map_entries(QQ, QQ.from_int))
    # the whole views have the whole builders' values and key order
    for view, whole in ((hook.mu, mu), (hook.B, B), (hook.K, K)):
        assert view == whole
        assert _entries(view.pcols) == _entries(whole.pcols)
