"""Exact, byte-reproducible serialization of maps and bases.

write_json and write_csv are the one JSON layout and the one CSV dialect
of every payload the command line writes, sent a piece at a time;
json_text and csv_text join the pieces.  CSV: a CsvTable, which write_csv
sends a line at a time; for a map (linear_map_to_csv), one header row of
domain labels, then one row per codomain basis label with entries
rendered exactly as strings.  JSON: explicit basis label arrays plus
sparse entries, which the command line streams as JsonArrays
(linear_map_stream); payloads stay exact, in the ring's own JSON form
(ints as ints, rationals as "p/q" strings, polynomials as coefficient
lists), so a dump parses back to an equal LinearMap.  Nothing here writes
timestamps.  hashlib and csv are imported on first use, by
weight_block_digest and write_csv, so a command that makes no block
digest and no CSV loads neither OpenSSL nor _csv.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from types import SimpleNamespace

from .iso import IsoContext
from .rings import json_int, ring_from_json
from .schur import HookSchurSpace, _support
from .spaces import LinearMap, basis, space_from_json


# Before CPython 3.13 any indent sends json.dumps through its pure-Python
# encoder, which write_json outruns; from 3.13 on the C encoder takes the
# indent and is the faster of the two.
_INDENT_IN_C = sys.version_info >= (3, 13) and json.encoder.c_make_encoder is not None


# Rows of a map's entries that one repr renders: the text of a slice is
# made and written at once, so no text of the whole list is.
_ROWS_PER_SLICE = 1024
# The piece size in which the text that json.dumps indents in C is written.
_CHARS_PER_WRITE = 1 << 16


class JsonArray:
    """A JSON array that write_json sends a slice at a time, so that it is
    never held whole: slices() yields its elements as lists, afresh on every
    call.  Iterating it yields the elements, so list() makes the array."""

    __slots__ = ("slices",)

    def __init__(self, slices):
        self.slices = slices

    def __iter__(self):
        return chain.from_iterable(self.slices())


def json_text(payload) -> str:
    """A payload as JSON text: exactly json.dumps(payload, indent=2) and one
    trailing newline, joined from the pieces that write_json makes; a
    JsonArray in it is written as the list of its elements."""
    out: list = []
    write_json(payload, out.append)
    return "".join(out)


def write_json(payload, write) -> None:
    """Send the text json_text(payload) to write, one piece at a time.

    An array is written a slice at a time: a list by slices of
    _ROWS_PER_SLICE elements, a JsonArray by the slices it yields.  A slice
    of non-empty lists of plain ints (a map's entries) is the repr of the
    slice with the separators replaced, on every interpreter.  Any other
    slice goes, where json.dumps indents in C, to json.dumps whole, its
    lines indented in place; where it would indent in pure Python, the text
    is built here from C-level string work: a plain int is its
    int.__repr__, as json writes it, and a list of plain ints is one
    str.join of those.  A dict with no container inside goes whole to
    json.dumps, its item separator set to the indent.  Other dicts and lists
    recurse; every other key, scalar and empty container goes to json.dumps,
    so json's own rules decide it.
    Where json.dumps indents in C, a value that is not a JsonArray and has
    none as a value or an element, a payload with none included, goes to
    json.dumps whole, and its text is sent in pieces of _CHARS_PER_WRITE
    characters, so that a file encodes one piece at a time; so there a
    JsonArray deeper in such a value is a TypeError."""
    _write_json(payload, "\n", write)
    write("\n")


def _streams(value) -> bool:
    """Whether value is a JsonArray or a dict, list or tuple with one as a
    value or an element."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return isinstance(value, JsonArray)
    return any(isinstance(v, JsonArray) for v in value)


def _write_json(value, nl: str, write) -> None:
    """Send to write the indent-2 JSON text of value, whose closing bracket
    goes after nl, a newline and the indent of value's own line."""
    if _INDENT_IN_C and not _streams(value):
        text = json.dumps(value, indent=2)
        if nl != "\n":
            # json.dumps writes no newline inside a string, so each newline
            # it writes starts an indented line
            text = text.replace("\n", nl)
        for lo in range(0, len(text), _CHARS_PER_WRITE):
            write(text[lo : lo + _CHARS_PER_WRITE])
    elif type(value) is int:
        write(int.__repr__(value))
    elif isinstance(value, JsonArray):
        _write_array(value.slices(), nl, write)
    elif isinstance(value, dict) and value:
        inner = nl + "  "
        if not any(isinstance(v, (dict, list, tuple, JsonArray)) for v in value.values()):
            # no container inside: json.dumps writes it whole, keys and all
            text = json.dumps(value, separators=("," + inner, ": "))
            write("{" + inner + text[1:-1] + nl + "}")
            return
        sep = "{" + inner
        for k, v in value.items():
            # a key that is not a str json.dumps writes, or rejects, by its rules
            key = json.dumps(k) if isinstance(k, str) else json.dumps({k: None})[1:-7]
            write(sep + key + ": ")
            _write_json(v, inner, write)
            sep = "," + inner
        write(nl + "}")
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {int}:
            inner = nl + "  "
            write("[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]")
        else:
            size = _ROWS_PER_SLICE
            _write_array((value[lo : lo + size] for lo in range(0, len(value), size)), nl, write)
    else:
        write(json.dumps(value))


def _write_array(slices, nl: str, write) -> None:
    """Send to write the indent-2 JSON text of the array whose elements the
    slices give in order, a slice's text at a time."""
    inner = nl + "  "
    first = sep = "[" + inner
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
            deeper = inner + "  "
            rows = (
                repr(piece)[2:-2]
                .replace("], [", inner + "]," + inner + "[" + deeper)
                .replace(", ", "," + deeper)
            )
            write(sep + "[" + deeper + rows + inner + "]")
        elif _INDENT_IN_C and not _streams(piece):
            # "[" nl e1 "," nl e2 nl "]" with nl the newline and two spaces
            write(sep + json.dumps(piece, indent=2)[4:-2].replace("\n", nl))
        else:
            for v in piece:
                write(sep)
                _write_json(v, inner, write)
                sep = "," + inner
            continue
        sep = "," + inner
    write("[]" if sep is first else nl + "]")


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
        "domain_basis": _label_array(A.domain),
        "codomain_basis": _label_array(A.codomain),
        "entries": JsonArray(entries),
    }


def _label_array(space) -> JsonArray:
    """The JSON labels of a space's basis, in order, as a JsonArray."""

    def slices():
        labels, to_json = basis(space), space.label_to_json
        for lo in range(0, len(labels), _ROWS_PER_SLICE):
            yield [to_json(l) for l in labels[lo : lo + _ROWS_PER_SLICE]]

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


def basis_to_json(hook: HookSchurSpace) -> list:
    out = []
    for pair in hook.pairs:
        out.append(
            {
                "pair": hook.coords.label_to_json(pair),
                "support": [
                    [hook.ambient.label_to_json(lab), 1]
                    for lab in _support(pair)
                ],
            }
        )
    return out


def _block_text(ctx: IsoContext, w: int) -> str:
    """Canonical text form of the Y-degree block w of the paired coordinate
    matrix (ctx.weight_block_matrix): row labels, column labels, then dense
    integer rows.  The block's sparse paired columns are scattered into
    rows of decimal strings, so only the nonzero entries are converted."""
    idxs = ctx.weight_blocks().get(w, [])
    paired = ctx.weight_block_columns(w)
    local = {m: k for k, m in enumerate(idxs)}
    rows = [["0"] * len(idxs) for _ in idxs]
    for k, c in enumerate(idxs):
        for r, v in paired[c].items():
            i = local.get(r)
            if i is not None:
                rows[i][k] = str(v)
    hook = ctx.hook
    lines = [
        "rows=" + ";".join(hook.coords.label_str(hook.pairs[m]) for m in idxs),
        "cols=" + ";".join(ctx.domain.label_str(ctx.witnesses[m]) for m in idxs),
    ]
    lines.extend(map(",".join, rows))
    return "\n".join(lines) + "\n"


def weight_block_digest(ctx: IsoContext, w: int) -> str:
    """sha256 of the canonical text of the Y-degree block w."""
    import hashlib  # on first use: it maps OpenSSL, which only verify needs

    return hashlib.sha256(_block_text(ctx, w).encode()).hexdigest()


def weight_block_digests(ctx: IsoContext) -> dict:
    """weight_block_digest of every Y-degree, ascending."""
    return {w: weight_block_digest(ctx, w) for w in sorted(ctx.weight_blocks())}


def dump_payload(A: LinearMap, fmt: str) -> str:
    if fmt == "json":
        return json_text(linear_map_stream(A))
    if fmt == "csv":
        return csv_text(linear_map_to_csv(A))
    raise ValueError(f"unknown format {fmt!r}")
