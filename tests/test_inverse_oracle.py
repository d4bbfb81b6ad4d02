"""Differential tests: the column-scatter block inverse against the original
dense forward substitution, kept here as a reference oracle only."""

import hashlib

import pytest

from plethy import iso_context
from plethy.cli import main
from oracles import WholeMapContext

GRID = [(N, d) for d in range(8) for N in range(1, d + 3)]


def oracle_inverse_cols(ctx):
    """The original algorithm: for every later row r of the block, sum
    paired[c][r] * x[c] over every column c of the block.  The paired
    columns come from the whole-map oracle, not from ctx."""
    paired = WholeMapContext(ctx.N, ctx.d).paired_columns
    inv_cols_by_pos = [None] * len(paired)
    for idxs in ctx.weight_blocks().values():
        for m in idxs:
            x = {m: 1}
            for r in idxs:
                if r <= m:
                    continue
                acc = 0
                for c in idxs:
                    if m <= c < r and c in x:
                        acc += paired[c].get(r, 0) * x[c]
                if acc:
                    x[r] = -acc
            inv_cols_by_pos[m] = x
    return [{ctx.witnesses[c]: v for c, v in x.items()} for x in inv_cols_by_pos]


@pytest.mark.parametrize("N, d", GRID)
def test_inverse_matches_oracle(N, d):
    ctx = iso_context(N, d)
    expected = oracle_inverse_cols(ctx)
    got = ctx.inverse().cols
    assert len(got) == len(expected)
    for m, (a, b) in enumerate(zip(got, expected)):
        assert a == b, f"column {m} differs at (N={N}, d={d})"


# sha256 of the dumps as written before the column-scatter substitution
DUMP_DIGESTS = {
    "json": "920e04f719d35a3ec42a8dbf1a3cb820600289b39a03037a112474f6b619d53a",
    "csv": "22562fa4f2d38c200f9be2cc622f0cf03d902117b49713a027c92c5360376178",
}


@pytest.mark.parametrize("fmt", sorted(DUMP_DIGESTS))
def test_inverse_dump_bytes_are_pinned(fmt, tmp_path, capsys):
    out = tmp_path / f"inverse.{fmt}"
    argv = ["dump", "--N", "3", "--d", "6", "--what", "inverse"]
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_DIGESTS[fmt]
