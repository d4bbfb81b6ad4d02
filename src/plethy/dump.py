"""Exact, byte-reproducible serialization of maps and bases.

write_json and write_csv are the one JSON layout and the one CSV dialect
of every payload the command line writes, sent a piece at a time;
json_text and csv_text join the pieces.  CSV: a CsvTable, which write_csv
sends a line at a time; for a map (linear_map_to_csv), one header row of
domain labels, then one row per codomain basis label with entries
rendered exactly as strings.  JSON: exactly json.dumps(payload, indent=2)
and a newline, by one rule on every interpreter: a dict payload whose
values include JsonArrays goes out a value at a time, a JsonArray a slice
at a time, and any other payload, such as a report, as one json.dumps
piece, which json's C encoder makes where there is one.  A map is
explicit basis label arrays plus sparse entries, which the command line
streams as JsonArrays (linear_map_stream), as it does the kernel basis
(basis_stream); payloads stay exact, in the ring's own JSON form (ints as
ints, rationals as "p/q" strings, polynomials as coefficient lists), so a
dump parses back to an equal LinearMap.  Nothing here writes timestamps.
A weight-block digest hashes the block's canonical text a line at a time,
made from its sparse columns indexed by row, so neither the text nor a
dense block is held.  hashlib and csv are imported on first use, by
weight_block_digest and write_csv, so a command that makes no block
digest and no CSV loads neither OpenSSL nor _csv.
"""

from __future__ import annotations

import json
from itertools import chain
from types import SimpleNamespace

from .iso import IsoContext
from .rings import json_int, ring_from_json
from .schur import HookSchurSpace, _support
from .spaces import LinearMap, basis, space_from_json


# Elements of a JsonArray that one slice holds: the text of a slice is made
# and written at once, so no text of the whole array is.
_ROWS_PER_SLICE = 256


class JsonArray:
    """A JSON array that write_json sends a slice at a time, as a value of a
    dict payload, so that it is never held whole: slices() yields its
    elements as lists, afresh on every call.  Iterating it yields the
    elements, so list() makes the array."""

    __slots__ = ("slices",)

    def __init__(self, slices):
        self.slices = slices

    def __iter__(self):
        return chain.from_iterable(self.slices())


def json_text(payload) -> str:
    """A payload as JSON text: exactly json.dumps(payload, indent=2) and one
    trailing newline, joined from the pieces that write_json makes; a
    JsonArray value in it is written as the list of its elements."""
    out: list = []
    write_json(payload, out.append)
    return "".join(out)


def write_json(payload, write) -> None:
    """Send the text json_text(payload) to write, one piece at a time.

    A dict with a JsonArray among its values is written one value at a
    time, each piece indented by two spaces: a JsonArray a slice at a time,
    and any other value as json.dumps(value, indent=2).  Every other
    payload, a report say, is one piece, json.dumps(payload, indent=2),
    which json makes with its C encoder where it has one (json.dump never
    does); a JsonArray there is a TypeError, as is any value json cannot
    encode."""
    if not isinstance(payload, dict) or not any(
        isinstance(v, JsonArray) for v in payload.values()
    ):
        write(json.dumps(payload, indent=2))
        write("\n")
        return
    sep = "{\n  "
    for k, v in payload.items():
        # '{"k": 0}' less "{" and "0}" is the key as json writes, or rejects, it
        write(sep + json.dumps({k: 0})[1:-2])
        if isinstance(v, JsonArray):
            _write_array(v.slices(), write)
        else:
            # json.dumps writes no newline inside a string, so each newline
            # it writes starts a line to indent
            write(json.dumps(v, indent=2).replace("\n", "\n  "))
        sep = ",\n  "
    write("\n}\n")


def _write_array(slices, write) -> None:
    """Send to write the JSON text, indented by two spaces, of the array
    whose elements the slices give in order, a slice's text at a time."""
    sep = "[\n    "
    for piece in slices:
        if not piece:
            continue
        if (
            type(piece) is list
            and set(map(type, piece)) == {list}
            and all(piece)
            and set(map(type, chain.from_iterable(piece))) == {int}
        ):
            # a slice's repr is "[[a, b], [c, d]]": only the separators change
            rows = (
                repr(piece)[2:-2]
                .replace("], [", "\n    ],\n    [\n      ")
                .replace(", ", ",\n      ")
            )
            write(sep + "[\n      " + rows + "\n    ]")
        else:
            # json.dumps(piece, indent=2) is "[\n  e1,\n  e2\n]"
            write(sep + json.dumps(piece, indent=2)[4:-2].replace("\n", "\n  "))
        sep = ",\n    "
    write("[]" if sep == "[\n    " else "\n  ]")


class CsvTable:
    """A CSV payload that write_csv sends a row at a time, so that its text
    is never held whole: a header row, and rows() yielding the rows, afresh
    on every call."""

    __slots__ = ("header", "rows")

    def __init__(self, header: list, rows):
        self.header = header
        self.rows = rows


def csv_text(table: CsvTable) -> str:
    """A table as CSV text, joined from the pieces that write_csv sends."""
    out: list = []
    write_csv(table, out.append)
    return "".join(out)


def write_csv(table: CsvTable, write) -> None:
    """Send the header row and then each row of table to write, one line
    each, ending in a bare newline."""
    import csv  # on first use, so a run that writes no CSV never loads it

    writer = csv.writer(SimpleNamespace(write=write), lineterminator="\n")
    writer.writerow(table.header)
    writer.writerows(table.rows())


def linear_map_to_json(A: LinearMap) -> dict:
    """The JSON form of A: linear_map_stream(A) with its arrays made."""
    return {
        k: list(v) if isinstance(v, JsonArray) else v
        for k, v in linear_map_stream(A).items()
    }


def linear_map_stream(A: LinearMap) -> dict:
    """The JSON form of A with its two label arrays and its entries as
    JsonArrays, which write_json sends _ROWS_PER_SLICE elements at a time:
    an entry [r, c, v] for each nonzero v at row r of column c, by column
    and then by row."""
    to_json = A.ring.payload_to_json
    size = _ROWS_PER_SLICE

    def entries():
        rows: list = []
        for c, col in enumerate(A.pcols):
            for r, v in sorted(col.items()):
                rows.append([r, c, to_json(v)])
                if len(rows) == size:
                    yield rows
                    rows = []
        if rows:
            yield rows

    return {
        "kind": "linear_map",
        "ring": A.ring.to_json(),
        "domain": A.domain.to_json(),
        "codomain": A.codomain.to_json(),
        "domain_basis": _json_array(basis(A.domain), A.domain.label_to_json),
        "codomain_basis": _json_array(basis(A.codomain), A.codomain.label_to_json),
        "entries": JsonArray(entries),
    }


def _json_array(items, to_json) -> JsonArray:
    """to_json of each of the items, in order, as a JsonArray whose slices
    hold _ROWS_PER_SLICE elements."""

    def slices():
        for lo in range(0, len(items), _ROWS_PER_SLICE):
            yield [to_json(x) for x in items[lo : lo + _ROWS_PER_SLICE]]

    return JsonArray(slices)


def linear_map_from_json(data) -> LinearMap:
    """The map that linear_map_to_json wrote as data, or ValueError."""
    if not isinstance(data, dict) or data.get("kind") != "linear_map":
        raise ValueError("not a serialized linear map")
    keys = ["kind", "ring", "domain", "codomain", "domain_basis", "codomain_basis", "entries"]
    if set(data) != set(keys):
        raise ValueError(f"a linear map has the keys {keys}, got {sorted(data)}")
    ring = ring_from_json(data["ring"])
    domain = space_from_json(data["domain"])
    codomain = space_from_json(data["codomain"])
    dom = basis(domain)
    cod = basis(codomain)
    got_dom = [domain.label_from_json(l) for l in _json_list(data, "domain_basis")]
    got_cod = [codomain.label_from_json(l) for l in _json_list(data, "codomain_basis")]
    if got_dom != list(dom) or got_cod != list(cod):
        raise ValueError("basis labels do not match the declared spaces")
    cols: list[dict] = [{} for _ in dom]
    for entry in _json_list(data, "entries"):
        if type(entry) is not list or len(entry) != 3:
            raise ValueError(f"an entry is a [row, column, value] list, got {entry!r}")
        r, c, v = entry
        if not (
            0 <= json_int(r, "an entry row") < len(cod)
            and 0 <= json_int(c, "an entry column") < len(dom)
        ):
            raise ValueError(f"entry ({r}, {c}) is outside the matrix")
        if r in cols[c]:
            raise ValueError(f"entry ({r}, {c}) is given twice")
        cols[c][r] = ring.payload_from_json(v)
    return LinearMap.from_positions(domain, codomain, ring, cols)


def _json_list(data: dict, key: str) -> list:
    value = data.get(key)
    if type(value) is not list:
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def linear_map_to_csv(A: LinearMap) -> CsvTable:
    """The dense CSV form of A: a header of domain labels, then one row per
    codomain label, its entries rendered exactly as strings.  One pass over
    the columns indexes the entries by row; a row starts as the ring's zero
    string, and only its nonzero entries are rendered."""
    ring = A.ring
    labels = basis(A.codomain)

    def rows():
        # per row, its column positions and values, flat and alternating
        by_row: list = [[] for _ in labels]
        for c, col in enumerate(A.pcols, 1):
            for r, v in col.items():
                by_row[r] += (c, v)
        blank = [ring.to_str(ring.zero)] * (len(A.pcols) + 1)
        for r, label in enumerate(labels):
            row = blank.copy()
            row[0] = A.codomain.label_str(label)
            entries = iter(by_row[r])
            for c, v in zip(entries, entries):
                row[c] = ring.to_str(v)
            by_row[r] = None
            yield row

    return CsvTable([""] + [A.domain.label_str(l) for l in basis(A.domain)], rows)


def basis_stream(hook: HookSchurSpace) -> JsonArray:
    """The hook kernel basis as a JsonArray: per pair, its label and the
    ambient labels of its kernel vector's support, each with coefficient 1.
    It reads the pairs and the two spaces, not the hook space itself."""
    pair_json, label_json = hook.coords.label_to_json, hook.ambient.label_to_json

    def vector(pair) -> dict:
        return {"pair": pair_json(pair), "support": [[label_json(l), 1] for l in _support(pair)]}

    return _json_array(hook.pairs, vector)


def _block_lines(ctx: IsoContext, w: int):
    """The canonical text of the Y-degree block w of the paired coordinate
    matrix (ctx.weight_block_matrix), a line at a time: row labels, column
    labels, then one line of dense integer entries per row.  The block's
    sparse paired columns are first indexed by row, so one row at a time is
    made into strings, and only its nonzero entries are converted."""
    idxs = ctx.weight_blocks().get(w, [])
    paired = ctx.weight_block_columns(w)
    local = {m: i for i, m in enumerate(idxs)}
    # per row, its column positions and entries, flat and alternating
    by_row: list = [[] for _ in idxs]
    for k, c in enumerate(idxs):
        for r, v in paired.pop(c).items():
            i = local.get(r)
            if i is not None:
                by_row[i] += (k, v)
    hook = ctx.hook
    yield "rows=" + ";".join(hook.coords.label_str(hook.pairs[m]) for m in idxs) + "\n"
    yield "cols=" + ";".join(ctx.domain.label_str(ctx.witnesses[m]) for m in idxs) + "\n"
    blank = ["0"] * len(idxs)
    for entries in by_row:
        row = blank.copy()
        pairs = iter(entries)
        for k, v in zip(pairs, pairs):
            row[k] = str(v)
        yield ",".join(row) + "\n"


def weight_block_digest(ctx: IsoContext, w: int) -> str:
    """sha256 of the canonical text of the Y-degree block w, fed to the
    hash a line at a time, so the text is never held whole."""
    import hashlib  # on first use: it maps OpenSSL, which only verify needs

    h = hashlib.sha256()
    for line in _block_lines(ctx, w):
        h.update(line.encode())
    return h.hexdigest()


def weight_block_digests(ctx: IsoContext) -> dict:
    """weight_block_digest of every Y-degree, ascending."""
    return {w: weight_block_digest(ctx, w) for w in sorted(ctx.weight_blocks())}


def dump_payload(A: LinearMap, fmt: str) -> str:
    if fmt == "json":
        return json_text(linear_map_stream(A))
    if fmt == "csv":
        return csv_text(linear_map_to_csv(A))
    raise ValueError(f"unknown format {fmt!r}")
