"""Serialization round trips for maps, rings, and bases."""

import io
import itertools
import json
import os
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plethy.cli as cli
import plethy.dump as dump
from plethy import (
    QQ,
    ZGAMMA,
    ZZ,
    IntPolynomialRing,
    JsonArray,
    LinearMap,
    PrimeField,
    Sym,
    basis,
    basis_stream,
    csv_text,
    dump_payload,
    group_action_map,
    hook_schur_space,
    iso_context,
    json_text,
    linear_map_from_json,
    linear_map_stream,
    linear_map_to_csv,
    linear_map_to_json,
    multiplication_map,
    ring_from_json,
    scan,
    verify_qchar_identity,
    write_csv,
    write_json,
)
from plethy.cli import main
from plethy.conjecture import CSV_HEADER, DIM_CAP
from oracles import csv_text_oracle, linear_map_csv_oracle, linear_map_json_oracle


@pytest.mark.parametrize(
    "ring", [ZZ, QQ, PrimeField(7), ZGAMMA, IntPolynomialRing("q")], ids=str
)
def test_ring_serialization_round_trip(ring):
    assert ring_from_json(ring.to_json()) == ring


def test_ring_serialization_rejects_unknown():
    with pytest.raises(ValueError):
        ring_from_json({"kind": "surreal"})


@pytest.mark.parametrize(
    "data",
    [
        {"kind": [1]},
        ["int"],
        None,
        # the fields of a known kind: exactly its json_fields, p an int and
        # var a string
        {"kind": "fp", "p": 7.0},
        {"kind": "fp", "p": "7"},
        {"kind": "fp", "p": True},
        {"kind": "fp"},
        {"kind": "poly"},
        {"kind": "poly", "var": 1},
        {"kind": "fp", "p": 7, "var": "q"},
        {"kind": "int", "p": None},
        {"kind": "rat", "extra": 1},
    ],
)
def test_ring_serialization_rejects_a_kind_that_is_not_a_name(data):
    with pytest.raises(ValueError):
        ring_from_json(data)


def test_map_json_round_trip_over_each_ring():
    ctx = iso_context(2, 3)
    for A in (
        ctx.matrix_over(ZZ),
        ctx.matrix_over(QQ),
        ctx.matrix_over(PrimeField(5)),
        group_action_map(
            ZGAMMA,
            ((ZGAMMA.one, ZGAMMA.gen()), (ZGAMMA.zero, ZGAMMA.one)),
            Sym(3),
        ),
    ):
        data = json.loads(json.dumps(linear_map_to_json(A)))
        assert linear_map_from_json(data) == A


def test_map_json_shape():
    A = multiplication_map(ZZ, 1, 1)
    data = linear_map_to_json(A)
    assert data["kind"] == "linear_map"
    assert data["domain"]["kind"] == "tensor"
    assert data["codomain"] == {
        "kind": "wedge",
        "r": 2,
        "inner": {"kind": "sym", "c": 1},
    }
    # entries are [row, col, value] sorted by column then row
    assert all(len(e) == 3 for e in data["entries"])
    cols = [e[1] for e in data["entries"]]
    assert cols == sorted(cols)


def test_map_json_rejects_basis_mismatch():
    A = multiplication_map(ZZ, 1, 1)
    data = linear_map_to_json(A)
    data["domain_basis"] = list(reversed(data["domain_basis"]))
    with pytest.raises(ValueError):
        linear_map_from_json(data)
    with pytest.raises(ValueError):
        linear_map_from_json({"kind": "something_else"})


def _set(path, value):
    """A mutation of a map's JSON form that sets the item at path."""

    def mutate(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = value

    return mutate


def _drop_codomain_r(data):
    del data["codomain"]["r"]


def _repeat_first_entry(data):
    data["entries"].append(list(data["entries"][0]))


@pytest.mark.parametrize(
    "mutate",
    [
        _set(("entries", 0, 0), -1),
        _set(("entries", 0, 0), 6),  # the codomain Wedge(2, Sym(3)) has 6 labels
        _set(("entries", 0, 1), 16),  # the domain has 16
        _set(("entries", 0, 0), 0.0),
        _repeat_first_entry,
        _set(("entries", 0, 2), 1.5),
        _set(("entries", 0, 2), True),
        _set(("domain_basis", 0, 1), 0.5),
        _set(("domain_basis", 0, 1), [0]),  # a Sym label is an int
        _set(("codomain", "inner", "c"), 3.0),
        _set(("domain", "left", "r"), True),
        _set(("domain", "right"), 3),
        _set(("domain", "extra"), 3),
        _drop_codomain_r,
    ],
    ids=[
        "row -1", "row past the end", "column past the end", "row 0.0",
        "entry twice", "payload 1.5", "payload true", "label entry 0.5",
        "label shape", "field 3.0", "field true",
        "field not a space", "field unknown", "field missing",
    ],
)
def test_map_json_rejects_malformed_dumps(mutate):
    data = json.loads(json.dumps(linear_map_to_json(multiplication_map(ZZ, 1, 3))))
    mutate(data)
    with pytest.raises(ValueError):
        linear_map_from_json(data)


def _drop_entries(data):
    del data["entries"]


def _drop(key):
    """A mutation of a map's JSON form that deletes a top-level key."""

    def mutate(data):
        del data[key]

    return mutate


@pytest.mark.parametrize(
    "data",
    [
        ["kind", "linear_map"],
        None,
        _set(("entries",), {}),
        _set(("entries",), 3),
        _drop_entries,
        _set(("codomain_basis",), "abc"),
        _set(("entries", 0), [0, 0]),
        _set(("entries", 0), [0, 0, 1, 1]),
        _set(("entries", 0), 5),
        _set(("entries", 0), "abc"),
        _drop("ring"),
        _drop("domain"),
        _drop("codomain"),
        _set(("extra",), 1),
    ],
    ids=[
        "top level a list", "top level null", "entries a dict",
        "entries an int", "entries missing", "basis a string",
        "entry of two", "entry of four", "entry an int", "entry a string",
        "ring missing", "domain missing", "codomain missing", "extra key",
    ],
)
def test_map_json_rejects_malformed_containers(data):
    if callable(data):
        mutate = data
        data = json.loads(json.dumps(linear_map_to_json(multiplication_map(ZZ, 1, 3))))
        mutate(data)
    with pytest.raises(ValueError):
        linear_map_from_json(data)


@pytest.mark.parametrize(
    "ring, payload",
    [
        (QQ, 0.1),
        (QQ, True),
        (QQ, None),
        # the writer writes str(Fraction(v)) and nothing else
        (QQ, "1/0"),
        (QQ, "2/4"),
        (QQ, "0.5"),
        (QQ, " 1/2"),
        (QQ, "1e3"),
        (PrimeField(7), 7),
        (PrimeField(7), -1),
        (ZGAMMA, 1),
        (ZGAMMA, [True]),
        (ZGAMMA, [1.5]),
    ],
    ids=str,
)
def test_map_json_rejects_payloads_outside_the_ring(ring, payload):
    data = linear_map_to_json(multiplication_map(ring, 1, 3))
    data["entries"][0][2] = payload
    with pytest.raises(ValueError):
        linear_map_from_json(data)


def test_csv_renders_exact_entries():
    ring = QQ
    A = iso_context(1, 2).coord_matrix_over(ring)
    text = csv_text(linear_map_to_csv(A))
    lines = text.splitlines()
    assert lines[0].startswith(",")
    assert len(lines) == 1 + 6  # pairs of (1, 2): 1 * C(4, 2) rows
    # integral map over the rationals renders as plain integers
    cells = {c for line in lines[1:] for c in line.split(",")[1:]}
    assert cells <= {"0", "1"}


def test_csv_polynomial_entries():
    g = ((ZGAMMA.one, ZGAMMA.gen()), (ZGAMMA.zero, ZGAMMA.one))
    A = group_action_map(ZGAMMA, g, Sym(2))
    text = csv_text(linear_map_to_csv(A))
    assert "gamma^2" in text
    assert "2*gamma" in text


def test_dump_payload_formats():
    A = multiplication_map(ZZ, 1, 2)
    assert dump_payload(A, "csv") == csv_text(linear_map_to_csv(A))
    assert json.loads(dump_payload(A, "json"))["kind"] == "linear_map"
    with pytest.raises(ValueError):
        dump_payload(A, "yaml")


def test_basis_json_structure():
    hook = hook_schur_space(2, 3)
    vectors = list(basis_stream(hook))
    assert len(vectors) == len(hook.pairs)
    for entry, pair in zip(vectors, hook.pairs):
        i, j = pair
        assert entry["pair"] == [list(i), j]
        support = entry["support"]
        assert all(coeff == 1 for _, coeff in support)
        assert len(support) == (1 if j in i else 2)


def test_fraction_payloads_survive():
    cols = [{0: Fraction(-3, 7), 1: Fraction(5)}, {1: Fraction(1, 2)}]
    from plethy import LinearMap

    A = LinearMap(Sym(1), Sym(1), QQ, cols)
    data = json.loads(json.dumps(linear_map_to_json(A)))
    B = linear_map_from_json(data)
    assert B == A
    assert "-3/7" in csv_text(linear_map_to_csv(A))


# json_text is exactly json.dumps(payload, indent=2) and a newline.
_CHARS = st.one_of(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u00e9\u20ac\u2028\ud83d\U0001f600'),
    st.characters(),
)
_INTS = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
)
_KEYS = st.one_of(
    st.text(_CHARS, max_size=4), _INTS, st.booleans(), st.none(), st.floats()
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), _INTS, st.floats(), st.text(_CHARS, max_size=6)
)
_LEAVES = st.one_of(
    _SCALARS,
    st.lists(_INTS, max_size=5),
    st.lists(st.one_of(_INTS, st.booleans()), max_size=4),
    st.lists(st.lists(_INTS, min_size=1, max_size=3), max_size=4),
    st.lists(st.lists(_INTS, max_size=2), max_size=3),
    st.lists(st.tuples(_INTS, _INTS), max_size=3),
)


def _nested(depth: int):
    """Payloads with dicts, lists and tuples nested up to depth deep over
    the leaves."""
    if depth == 0:
        return _LEAVES
    inner = _nested(depth - 1)
    return st.one_of(
        _LEAVES,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    )


# write_json has two paths: one json.dumps piece for a payload with no
# JsonArray value (the "json.dump" id is the path's older name), and a value
# at a time for a dict that has one.  A payload beside a streamed array
# takes the second.
WRITER_PATHS = pytest.mark.parametrize(
    "streamed", [False, True], ids=["json.dump", "beside a JsonArray"]
)


def _on_path(payload, streamed: bool):
    """The payload that write_json is given and its made form, for which
    json.dumps writes the expected text: payload itself, or, if streamed,
    its items (payload itself under "v", if it is no dict) with a JsonArray
    value beside them, one slice of int rows and one of other elements."""
    if not streamed:
        return payload, payload
    items = dict(payload) if isinstance(payload, dict) else {"v": payload}
    slices = [[[1, -(2**70)], [0]], ["x", None, [2, 3]]]
    written = {**items, "streamed": JsonArray(lambda: iter(slices))}
    made = {**items, "streamed": [v for piece in slices for v in piece]}
    return written, made


@WRITER_PATHS
@settings(max_examples=300, deadline=None)
@given(_nested(4))
def test_json_text_is_json_dumps_with_indent_two(streamed, payload):
    written, made = _on_path(payload, streamed)
    assert json_text(written) == json.dumps(made, indent=2) + "\n"


@WRITER_PATHS
@pytest.mark.parametrize(
    "payload",
    [
        {"entries": [[0, 0, 1], [1, 1, -2**70]], "empty": [[], {}, ()]},
        {"row": [0, True], "rows": [[1, 2], [3, False]], "tuples": [(1, 2), (3,)]},
        {1: [float("nan"), float("inf"), -0.0], None: [[]], False: [[1], []]},
        {2.5: "quote \" backslash \\ nul \x00 astral \U0001f600"},
        {"key \u00e9 \u2028 \" \U0001f600": [1], "\x00": "\ud83d"},
    ],
)
def test_json_text_edge_cases(streamed, payload):
    written, made = _on_path(payload, streamed)
    assert json_text(written) == json.dumps(made, indent=2) + "\n"


@WRITER_PATHS
@pytest.mark.parametrize(
    "payload",
    # repr(object()) holds an address, so that case gets a fixed id
    [
        {(1, 2): 0},
        pytest.param([object()], id="[object()]"),
        {"a": [{1j: 0}]},
        [[1, 2], [3, {4}]],
        # a JsonArray is streamed only as a value of a dict payload
        pytest.param([JsonArray(lambda: iter([[1]]))], id="[JsonArray]"),
        pytest.param({"a": [JsonArray(lambda: iter([[1]]))]}, id="{'a': [JsonArray]}"),
    ],
    ids=repr,
)
def test_json_text_rejects_what_json_dumps_rejects(streamed, payload):
    written, made = _on_path(payload, streamed)
    with pytest.raises(TypeError):
        json.dumps(made, indent=2)
    with pytest.raises(TypeError):
        json_text(written)


# The slices of a streamed array: lists of leaves, rows of ints (a map's
# entries, which write_json renders by repr), and empty slices.
_SLICES = st.lists(
    st.one_of(
        st.lists(_LEAVES, max_size=4),
        st.lists(st.lists(_INTS, min_size=1, max_size=3), min_size=1, max_size=4),
        st.just([]),
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(_KEYS, _nested(2), max_size=3),
    st.lists(st.tuples(_KEYS, _SLICES), min_size=1, max_size=3),
)
def test_a_dict_with_streamed_arrays_is_json_dumps_of_it_made(values, arrays):
    log: list = []

    def logged(slices):
        def made():
            for piece in slices:
                log.append(piece)
                yield piece

        return JsonArray(made)

    payload, made = dict(values), dict(values)
    for key, slices in arrays:
        payload[key] = logged(slices)
        made[key] = [v for piece in slices for v in piece]
    expected = json.dumps(made, indent=2) + "\n"
    assert json_text(payload) == expected
    log.clear()
    write_json(payload, log.append)
    assert "".join(p for p in log if type(p) is str) == expected
    # no piece holds more than one slice: a slice's elements are all in the
    # pieces sent before the next slice is asked for
    for k, piece in enumerate(log):
        if type(piece) is list and piece:
            sent = "".join(itertools.takewhile(lambda p: type(p) is str, log[k + 1 :]))
            assert json.dumps(piece, indent=2)[4:-2].replace("\n", "\n  ") in sent


CLI_JSON_COMMANDS = [
    ["verify", "--N", "1..2", "--d", "0..3", "--p", "2,3"],
    ["scan", "--M", "2..3", "--N", "2", "--d", "2..3", "--p", "2,3", "--format", "json"],
    ["qchar", "--N", "1..3", "--d", "0..4", "--format", "json"],
    ["dump", "--N", "2", "--d", "3", "--what", "basis", "--format", "json"],
] + [
    ["dump", "--N", "2", "--d", "3", "--what", what, "--format", "json",
     "--ring", ring, "--p", "7"]
    for what in ("map", "coords", "inverse")
    for ring in ("int", "rat", "fp", "polygamma")
]


def _made(payload):
    """The payload with each JsonArray value made into its list, as
    json.dumps takes it."""
    if isinstance(payload, dict):
        return {k: list(v) if isinstance(v, JsonArray) else v for k, v in payload.items()}
    return payload


@pytest.mark.parametrize("argv", CLI_JSON_COMMANDS, ids=" ".join)
def test_every_cli_payload_is_written_as_json_dumps_writes_it(argv, monkeypatch, capsys):
    # write_json is the streamed entry point, and json_text joins its pieces,
    # so a payload that takes either way is recorded here.  A map's payload
    # streams its arrays; json.dumps gets them made into lists
    payloads = []

    def record(payload, write):
        payloads.append(payload)

    monkeypatch.setattr(dump, "write_json", record)
    monkeypatch.setattr(cli, "write_json", record)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert len(payloads) == 1
    expected = json.dumps(_made(payloads[0]), indent=2) + "\n"
    assert json_text(payloads[0]) == expected
    assert "".join(_pieces(payloads[0])) == expected


def _pieces(payload) -> list:
    """The pieces that write_json sends, in order."""
    out: list = []
    write_json(payload, out.append)
    return out


_SLICE = dump._ROWS_PER_SLICE


@pytest.mark.parametrize("n", [_SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 3])
@pytest.mark.parametrize("rationals", [False, True], ids=["ints", "rationals"])
def test_entries_across_slice_boundaries_are_json_dumps(rationals, n):
    # rows of one to three ints, big and negative among them, so a slice
    # boundary falls between rows of every width
    big = [0, -1, 7, -(2**70), 2**64 + 5, 10**30, -12345]
    entries = [[big[(r + t) % len(big)] * (r - t) for t in range(r % 3 + 1)] for r in range(n)]
    if rationals:
        # a "p/q" value, as a rational map's entries hold, in some rows of
        # the first slice: it goes through json.dumps, the later slices
        # through the repr rewrite of int rows
        for row in entries[:_SLICE:7]:
            row[-1] = f"{row[-1]}/7"
    array = JsonArray(lambda: (entries[lo : lo + _SLICE] for lo in range(0, n, _SLICE)))
    payload = {"kind": "linear_map", "entries": array, "after": [entries[:2], -3]}
    expected = json.dumps(_made(payload), indent=2) + "\n"
    assert json_text(payload) == expected
    pieces = _pieces(payload)
    assert "".join(pieces) == expected
    # no piece holds more rows than one slice
    assert max(piece.count("[") for piece in pieces) <= _SLICE + 1


STREAMED_DUMPS = [(what, ring) for what in ("map", "coords", "inverse") for ring in ("int", "fp", "polygamma")]


@pytest.mark.parametrize("what, ring_name", STREAMED_DUMPS)
@pytest.mark.parametrize("rows_per_slice", [5, _SLICE])
def test_a_streamed_dump_file_is_json_text_of_the_map(rows_per_slice, what, ring_name, tmp_path):
    # at 5 rows a slice, the label arrays cross slice boundaries too
    N, d, p = 3, 7, 7
    out = tmp_path / "dump.json"
    argv = ["dump", "--N", str(N), "--d", str(d), "--what", what, "--ring", ring_name,
            "--p", str(p), "--format", "json", "--out", str(out)]
    with mock.patch.object(dump, "_ROWS_PER_SLICE", rows_per_slice):
        assert main(argv) == 0
    ring = {"int": ZZ, "fp": PrimeField(p), "polygamma": ZGAMMA}[ring_name]
    ctx = iso_context(N, d)
    if what == "map":
        A = ctx.matrix_over(ring)
    elif what == "coords":
        A = ctx.coord_matrix_over(ring)
    else:
        A = ctx.inverse().map_entries(ring, ring.from_int)
    payload = linear_map_to_json(A)
    # the entries cross slice boundaries
    assert len(payload["entries"]) > _SLICE
    assert out.read_bytes() == json_text(payload).encode()
    assert out.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


class _FirstWrite(io.StringIO):
    """A stream that records, at its first write, how many points the two
    one-point caches hold."""

    held = None

    def write(self, text):
        if self.held is None:
            self.held = (
                iso_context.cache_info().currsize,
                hook_schur_space.cache_info().currsize,
            )
        return super().write(text)


@pytest.mark.parametrize(
    "what, fmt",
    [(what, "json") for what in ("map", "coords", "inverse", "basis")]
    + [(what, "csv") for what in ("map", "coords", "inverse")],
)
def test_dump_releases_the_point_before_its_first_write(what, fmt, monkeypatch):
    iso_context(3, 5)  # a point held from before is released too
    stream = _FirstWrite()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["dump", "--N", "3", "--d", "5", "--what", what, "--format", fmt]) == 0
    assert stream.held == (0, 0)
    assert stream.getvalue()


@pytest.mark.parametrize(
    "what, fmt",
    [(what, "json") for what in ("map", "coords", "inverse", "basis")]
    + [(what, "csv") for what in ("map", "coords", "inverse")],
)
def test_dump_builds_no_basis_after_its_release(what, fmt, monkeypatch):
    # the payload takes the bases it labels with before the point is
    # released, so writing it builds none again
    emit = cli.emit
    seen = []

    def emitting(payload, out):
        before = basis.cache_info()
        emit(payload, out)
        seen.append((before.currsize, basis.cache_info().misses - before.misses))

    monkeypatch.setattr(cli, "emit", emitting)
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(["dump", "--N", "3", "--d", "5", "--what", what, "--format", fmt]) == 0
    assert seen == [(0, 0)]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_streamed_dump_that_cannot_be_written_is_a_usage_error(monkeypatch, capsys):
    # the up-front --out check is skipped, so the failure comes from the
    # writes of the stream itself, after the file is open
    monkeypatch.setattr(cli, "check_out", lambda out: None)
    argv = ["dump", "--N", "4", "--d", "6", "--what", "inverse", "--format", "json",
            "--out", "/dev/full"]
    assert main(argv) == 2
    assert "cannot write /dev/full" in capsys.readouterr().err


def _maps_to_stream(N: int, d: int):
    """(what, ring name, map) for map, coords and inverse at (N, d) over
    int, rat, fp and polygamma, as dump --what writes them, and for a small
    map whose columns hold their rows out of order."""
    ctx = iso_context(N, d)
    unsorted = LinearMap.from_positions(Sym(1), Sym(2), ZZ, [{2: 5, 0: -1}, {1: 6, 0: 2}])
    maps = (("map", ctx.matrix), ("coords", ctx.coord_matrix), ("inverse", ctx.inverse()))
    for what, A in maps + (("unsorted", unsorted),):
        for name, ring in (("int", ZZ), ("rat", QQ), ("fp", PrimeField(7)), ("polygamma", ZGAMMA)):
            yield what, name, A if ring == ZZ else A.map_entries(ring, ring.from_int)


@pytest.mark.parametrize("point", [(2, 0), (3, 7)], ids=str)
@pytest.mark.parametrize("rows_per_slice", [5, _SLICE])
def test_a_streamed_map_is_json_dumps_of_its_json_form(point, rows_per_slice):
    # at (2, 0) every space is empty; at (3, 7) the entries of every map
    # cross a slice boundary at _SLICE rows, and at 5 rows the label arrays do
    for what, ring_name, A in _maps_to_stream(*point):
        with mock.patch.object(dump, "_ROWS_PER_SLICE", rows_per_slice):
            data = linear_map_to_json(A)
            assert data == linear_map_json_oracle(A)
            expected = json.dumps(data, indent=2) + "\n"
            assert json_text(linear_map_stream(A)) == expected, (what, ring_name)
            pieces = _pieces(linear_map_stream(A))
        assert "".join(pieces) == expected
        assert linear_map_from_json(json.loads(expected)) == A
        assert linear_map_from_json(data) == A
        if what == "unsorted":
            assert [e[:2] for e in data["entries"]] == [[0, 0], [2, 0], [0, 1], [1, 1]]
        elif point == (3, 7):
            assert len(data["entries"]) > _SLICE
        else:
            assert data["entries"] == data["domain_basis"] == data["codomain_basis"] == []
        # no piece holds more than one slice: an entry or a label has at
        # most two brackets, an int entry's slice is one piece
        assert max(piece.count("[") for piece in pieces) <= 2 * rows_per_slice + 1


def test_a_streamed_array_is_made_afresh_on_every_read():
    calls = []

    def slices():
        calls.append(1)
        yield [[0, 1, 2], [3, 4, 5]]
        yield [[6, 7, "8/9"]]

    array = JsonArray(slices)
    rows = [[0, 1, 2], [3, 4, 5], [6, 7, "8/9"]]
    assert list(array) == rows and list(array) == rows
    assert json_text({"entries": array, "n": [1]}) == (
        json.dumps({"entries": rows, "n": [1]}, indent=2) + "\n"
    )
    assert len(calls) == 3


@pytest.mark.parametrize("point", [(2, 0), (3, 5), (3, 7)], ids=str)
def test_a_streamed_csv_map_is_the_text_of_the_whole_writer(point):
    # one piece per line: the header, then a row per codomain label
    for what, ring_name, A in _maps_to_stream(*point):
        table = linear_map_to_csv(A)
        pieces: list = []
        write_csv(table, pieces.append)
        expected = linear_map_csv_oracle(A)
        # line by line, so that a difference is shown in a line of its own
        lines = expected.splitlines(keepends=True)
        assert len(pieces) == len(lines) == 1 + len(basis(A.codomain))
        for k, (piece, line) in enumerate(zip(pieces, lines)):
            assert piece == line, (what, ring_name, k)
        assert csv_text(table) == expected  # the rows are made afresh
        if point == (2, 0) and what != "unsorted":
            # every space is empty: a lone empty header cell, quoted
            assert expected == '""\n'


def _recorded_csv(argv, monkeypatch, capsys):
    """The CsvTable that main(argv) writes, and the text on stdout."""
    tables = []

    def record(table, write):
        tables.append(table)
        write_csv(table, write)

    monkeypatch.setattr(cli, "write_csv", record)
    assert main(argv) == 0
    (table,) = tables
    return table, capsys.readouterr().out


def test_scan_and_qchar_csv_are_the_text_of_the_whole_writer(monkeypatch, capsys):
    Ms, Ns, ds, primes = [2, 3], [1, 2], [0, 1, 2, 3], (3, 2)
    argv = ["scan", "--M", "2..3", "--N", "1..2", "--d", "0..3", "--p", "3,2", "--format", "csv"]
    table, text = _recorded_csv(argv, monkeypatch, capsys)
    reports, _ = scan(Ms, Ns, ds, primes, dim_cap=DIM_CAP)
    rows = [row for r in reports for row in r.csv_rows()]
    assert len(rows) > 1
    expected = csv_text_oracle(CSV_HEADER, rows)
    assert text == csv_text(table) == expected
    pieces: list = []
    write_csv(table, pieces.append)
    assert len(pieces) == 1 + len(rows)

    argv = ["qchar", "--N", "1..3", "--d", "0..4", "--format", "csv"]
    table, text = _recorded_csv(argv, monkeypatch, capsys)
    points = [{"N": N, "d": d, **verify_qchar_identity(N, d)} for N in range(1, 4) for d in range(5)]
    expected = csv_text_oracle(list(points[0]), [list(p.values()) for p in points])
    assert text == csv_text(table) == expected
    pieces = []
    write_csv(table, pieces.append)
    assert len(pieces) == 1 + len(points)
