"""Exact, byte-reproducible serialization of maps and bases.

write_json and csv_text are the one JSON layout and the one CSV dialect
of every payload the command line writes; json_text joins the pieces that
write_json sends.  CSV: one header row of domain labels, then one row per
codomain basis label with entries rendered exactly as strings.  JSON:
explicit basis label arrays plus sparse entries; payloads stay exact, in
the ring's own JSON form (ints as ints, rationals as "p/q" strings,
polynomials as coefficient lists), so a dump parses back to an equal
LinearMap.  Nothing here writes timestamps.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from itertools import chain

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


def json_text(payload) -> str:
    """A payload as JSON text: exactly json.dumps(payload, indent=2) and one
    trailing newline, joined from the pieces that write_json makes."""
    out: list = []
    write_json(payload, out.append)
    return "".join(out)


def write_json(payload, write) -> None:
    """Send the text json_text(payload) to write, one piece at a time.

    Where json.dumps would indent in pure Python, the text is built here,
    and never whole, from C-level string work: a plain int is its
    int.__repr__, as json writes it, a list of plain ints is one str.join
    of those, and a list of non-empty lists of plain ints (a map's entries)
    is the repr of each slice of _ROWS_PER_SLICE rows with the separators
    replaced.  A dict with no container inside goes whole to json.dumps,
    its item separator set to the indent.  Other dicts and lists recurse;
    every other key, scalar and empty container goes to json.dumps, so
    json's own rules decide it.
    Where json.dumps indents in C, it makes the whole text, which is sent
    in pieces of _CHARS_PER_WRITE characters, so that a file encodes one
    piece at a time."""
    if _INDENT_IN_C:
        text = json.dumps(payload, indent=2)
        for lo in range(0, len(text), _CHARS_PER_WRITE):
            write(text[lo : lo + _CHARS_PER_WRITE])
    else:
        _write_json(payload, "\n", write)
    write("\n")


def _write_json(value, nl: str, write) -> None:
    """Send to write the indent-2 JSON text of value, whose closing bracket
    goes after nl, a newline and the indent of value's own line."""
    if type(value) is int:
        write(int.__repr__(value))
    elif isinstance(value, dict) and value:
        inner = nl + "  "
        if not any(isinstance(v, (dict, list, tuple)) for v in value.values()):
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
        inner = nl + "  "
        types = set(map(type, value))
        if types == {int}:
            write("[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]")
        elif (
            type(value) is list
            and types == {list}
            and all(value)
            and set(map(type, chain.from_iterable(value))) == {int}
        ):
            # a slice's repr is "[[a, b], [c, d]]": only the separators change
            deeper = inner + "  "
            between = inner + "]," + inner + "[" + deeper
            sep = "[" + inner + "[" + deeper
            for lo in range(0, len(value), _ROWS_PER_SLICE):
                rows = (
                    repr(value[lo : lo + _ROWS_PER_SLICE])[2:-2]
                    .replace("], [", between)
                    .replace(", ", "," + deeper)
                )
                write(sep + rows)
                sep = between
            write(inner + "]" + nl + "]")
        else:
            sep = "[" + inner
            for v in value:
                write(sep)
                _write_json(v, inner, write)
                sep = "," + inner
            write(nl + "]")
    else:
        write(json.dumps(value))


def csv_text(header: list, rows) -> str:
    """A header row and then the rows as CSV text, each line ending in a
    bare newline."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def linear_map_to_json(A: LinearMap) -> dict:
    dom = basis(A.domain)
    cod = basis(A.codomain)
    to_json = A.ring.payload_to_json
    entries = [
        [r, c, to_json(v)] for c, col in enumerate(A.pcols) for r, v in sorted(col.items())
    ]
    return {
        "kind": "linear_map",
        "ring": A.ring.to_json(),
        "domain": A.domain.to_json(),
        "codomain": A.codomain.to_json(),
        "domain_basis": [A.domain.label_to_json(l) for l in dom],
        "codomain_basis": [A.codomain.label_to_json(l) for l in cod],
        "entries": entries,
    }


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


def linear_map_to_csv(A: LinearMap) -> str:
    return csv_text(
        [""] + [A.domain.label_str(l) for l in basis(A.domain)],
        (
            [A.codomain.label_str(label)]
            + [A.ring.to_str(col.get(r, A.ring.zero)) for col in A.pcols]
            for r, label in enumerate(basis(A.codomain))
        ),
    )


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


def _block_text(ctx: IsoContext, idxs: list) -> str:
    """Canonical text form of the Y-degree block of the paired coordinate
    matrix at pair positions idxs (ctx.weight_block_matrix): row labels,
    column labels, then dense integer rows.  The sparse paired columns are
    scattered into rows of decimal strings, so only the nonzero entries are
    converted."""
    paired = ctx.paired_columns
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
    idxs = ctx.weight_blocks().get(w, [])
    return hashlib.sha256(_block_text(ctx, idxs).encode()).hexdigest()


def weight_block_digests(ctx: IsoContext) -> dict:
    """weight_block_digest of every Y-degree, ascending."""
    return {w: weight_block_digest(ctx, w) for w in sorted(ctx.weight_blocks())}


def dump_payload(A: LinearMap, fmt: str) -> str:
    if fmt == "json":
        return json_text(linear_map_to_json(A))
    if fmt == "csv":
        return linear_map_to_csv(A)
    raise ValueError(f"unknown format {fmt!r}")
