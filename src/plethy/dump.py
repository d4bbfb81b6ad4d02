"""Exact, byte-reproducible serialization of maps and bases.

CSV: one header row of domain labels, then one row per codomain basis
label with entries rendered exactly as strings.  JSON: explicit basis
label arrays plus sparse entries; payloads stay exact (ints as ints,
rationals as "p/q" strings, polynomials as coefficient lists), so a dump
parses back to an equal LinearMap.  Nothing here writes timestamps.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction

from .iso import IsoContext
from .rings import (
    QQ,
    ZZ,
    IntPoly,
    IntPolynomialRing,
    PrimeField,
    Ring,
)
from .schur import HookSchurSpace
from .spaces import LinearMap, basis, space_from_json


def ring_to_json(ring: Ring):
    if ring == ZZ:
        return {"kind": "int"}
    if ring == QQ:
        return {"kind": "rat"}
    if isinstance(ring, PrimeField):
        return {"kind": "fp", "p": ring.p}
    if isinstance(ring, IntPolynomialRing):
        return {"kind": "poly", "var": ring.var}
    raise ValueError(f"no serialization for ring {ring!r}")


def ring_from_json(data) -> Ring:
    kind = data["kind"]
    if kind == "int":
        return ZZ
    if kind == "rat":
        return QQ
    if kind == "fp":
        return PrimeField(data["p"])
    if kind == "poly":
        return IntPolynomialRing(data["var"])
    raise ValueError(f"unknown ring kind {kind!r}")


def payload_to_json(ring: Ring, value):
    if ring == QQ:
        return str(Fraction(value))
    if isinstance(ring, IntPolynomialRing):
        return list(value.coeffs)
    return value


def payload_from_json(ring: Ring, data):
    if ring == QQ:
        return Fraction(data)
    if isinstance(ring, IntPolynomialRing):
        return IntPoly(data, ring.var)
    return int(data)


def linear_map_to_json(A: LinearMap) -> dict:
    dom = basis(A.domain)
    cod = basis(A.codomain)
    cod_idx = {l: n for n, l in enumerate(cod)}
    entries = []
    for c, col in enumerate(A.cols):
        for l, v in sorted(col.items(), key=lambda kv: cod_idx[kv[0]]):
            entries.append([cod_idx[l], c, payload_to_json(A.ring, v)])
    return {
        "kind": "linear_map",
        "ring": ring_to_json(A.ring),
        "domain": A.domain.to_json(),
        "codomain": A.codomain.to_json(),
        "domain_basis": [A.domain.label_to_json(l) for l in dom],
        "codomain_basis": [A.codomain.label_to_json(l) for l in cod],
        "entries": entries,
    }


def linear_map_from_json(data) -> LinearMap:
    if data.get("kind") != "linear_map":
        raise ValueError("not a serialized linear map")
    ring = ring_from_json(data["ring"])
    domain = space_from_json(data["domain"])
    codomain = space_from_json(data["codomain"])
    dom = basis(domain)
    cod = basis(codomain)
    got_dom = [domain.label_from_json(l) for l in data["domain_basis"]]
    got_cod = [codomain.label_from_json(l) for l in data["codomain_basis"]]
    if got_dom != list(dom) or got_cod != list(cod):
        raise ValueError("basis labels do not match the declared spaces")
    cols: list[dict] = [{} for _ in dom]
    for r, c, v in data["entries"]:
        cols[c][cod[r]] = payload_from_json(ring, v)
    return LinearMap(domain, codomain, ring, cols)


def linear_map_to_csv(A: LinearMap) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    dom = basis(A.domain)
    writer.writerow([""] + [A.domain.label_str(l) for l in dom])
    for row_label in basis(A.codomain):
        writer.writerow(
            [A.codomain.label_str(row_label)]
            + [A.ring.to_str(col.get(row_label, A.ring.zero)) for col in A.cols]
        )
    return out.getvalue()


def basis_to_json(hook: HookSchurSpace) -> list:
    out = []
    for pair in hook.pairs:
        out.append(
            {
                "pair": hook.coords.label_to_json(pair),
                "support": [
                    [hook.ambient.label_to_json(lab), 1]
                    for lab in hook.kernel_support(pair)
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
        return json.dumps(linear_map_to_json(A), indent=2) + "\n"
    if fmt == "csv":
        return linear_map_to_csv(A)
    raise ValueError(f"unknown format {fmt!r}")
