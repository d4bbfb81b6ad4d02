"""Differential tests: the structure certified one Y-degree block at a time
against the whole-map construction it replaced, kept in oracles.py."""

import hashlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

import plethy.cli as cli
import plethy.dump as dump
from plethy import HookSchurSpace, IsoContext, JsonArray, LinearMap, release_point
from plethy.cli import main
from plethy.dump import weight_block_digests
from oracles import WholeMapContext
from test_inverse_oracle import DUMP_DIGESTS


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
@example((1, 0))
@example((4, 7))
def test_the_per_block_context_equals_the_whole_map_oracle(point):
    N, d = point
    ctx = IsoContext(N, d)
    oracle = WholeMapContext(N, d)
    # what construction keeps: the blocks, in order, the diagonal, the
    # witnesses and the checked inverse
    assert list(ctx.weight_blocks().items()) == list(oracle.weight_blocks().items())
    assert ctx.diagonal == oracle.diagonal
    assert ctx.witnesses == oracle.witnesses
    assert _entries(ctx.inverse().pcols) == _entries(oracle.inverse().pcols)
    # the views built on first read
    assert _entries(ctx.paired_columns) == _entries(oracle.paired_columns)
    assert _entries(ctx.matrix.pcols) == _entries(oracle.matrix.pcols)
    assert _entries(ctx.coord_matrix.pcols) == _entries(oracle.coord_matrix.pcols)
    assert ctx.matrix == oracle.matrix and ctx.coord_matrix == oracle.coord_matrix
    assert weight_block_digests(ctx) == weight_block_digests(oracle)


def test_an_inverse_dump_builds_no_whole_map(monkeypatch, tmp_path, capsys):
    # the inverse dump reads neither phi, nor its coordinates, nor the
    # paired columns whole, and composes no map; its bytes are the pinned ones
    def refuse(*args):
        raise AssertionError("the inverse dump built a whole structure map")

    for view in ("matrix", "coord_matrix", "paired_columns"):
        monkeypatch.setattr(IsoContext, view, property(refuse))
    monkeypatch.setattr(LinearMap, "compose", refuse)
    release_point()
    try:
        for fmt, digest in sorted(DUMP_DIGESTS.items()):
            out = tmp_path / f"inverse.{fmt}"
            argv = ["dump", "--N", "3", "--d", "6", "--what", "inverse"]
            assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    finally:
        release_point()
    capsys.readouterr()


def test_an_inverse_dump_reads_no_whole_hook_map_and_builds_no_entries_list(
    monkeypatch, tmp_path, capsys
):
    # the hook space's mu, B and K are read block by block only, and the
    # payload streams its entries and labels: linear_map_to_json, which
    # makes them whole, is not called.  The bytes are the pinned ones
    def refuse(*args):
        raise AssertionError("the inverse dump built a whole map or list")

    sent = []
    write_json = cli.write_json

    def recorded(payload, write):
        sent.append(payload)
        write_json(payload, write)

    for view in ("mu", "B", "K"):
        monkeypatch.setattr(HookSchurSpace, view, property(refuse))
    monkeypatch.setattr(dump, "linear_map_to_json", refuse)
    monkeypatch.setattr(cli, "write_json", recorded)
    release_point()
    try:
        out = tmp_path / "inverse.json"
        argv = ["dump", "--N", "3", "--d", "6", "--what", "inverse", "--format", "json"]
        assert main(argv + ["--out", str(out)]) == 0
    finally:
        release_point()
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_DIGESTS["json"]
    [payload] = sent
    for key in ("domain_basis", "codomain_basis", "entries"):
        assert isinstance(payload[key], JsonArray)
