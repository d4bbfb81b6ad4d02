"""Command line front end.

Subcommands:

* ``verify`` runs the full certificate over a grid: structure of the map
  (dimensions, kernel membership, unitriangularity, unit determinant,
  integral inverse), all three equivariance routes, the degree swaps with
  their sign law, and the graded dimension identities.
* ``dump`` serializes the map, its coordinate form, its exact inverse, or
  the kernel basis to CSV or JSON.
* ``qchar`` reports the graded dimension identities on their own.
* ``scan`` sweeps the general-parameter comparison grid and writes a
  machine-readable report; inequalities are findings, not errors.

Machine payloads go to --out when given, otherwise to stdout; progress and
summaries go to stderr.  An --out that cannot be written is a usage error
found before any work starts.  Files written via --out carry no timings, so
repeated runs produce identical bytes.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time

from .characters import verify_qchar_identity
from .conjecture import CONVENTION, CSV_HEADER, DIM_CAP, scan
from .dump import basis_to_json, csv_text, dump_payload, json_text, weight_block_digests
from .iso import (
    gl2_scalar_exponents,
    iso_context,
    verify_duality,
    verify_group_equivariance_fp,
    verify_group_equivariance_poly,
    verify_lie_equivariance,
    verify_structure,
)
from .rings import ZZ, ConsistencyError, PrimeField, ring_by_name
from .schur import hook_schur_space


# The one-point caches that verify clears between grid points, bound at
# import: a tracer such as perfbench/spans.py rebinds the public names to
# plain wrappers, which have no cache_clear.
_POINT_CACHES = (iso_context, hook_schur_space)


class UsageError(Exception):
    pass


# ------------------------------------------------------------------ arguments


def parse_range(text: str) -> list[int]:
    """'3' -> [3]; '1..4' -> [1, 2, 3, 4]."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            a, b = int(lo), int(hi)
            if a > b:
                raise ValueError
            return list(range(a, b + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(f"bad range {text!r}, expected INT or LO..HI") from None


def parse_primes(text: str) -> tuple[int, ...]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(PrimeField(int(piece)).p)
        except ValueError as exc:
            raise UsageError(f"bad prime {piece!r}: {exc}") from None
    if not out:
        raise UsageError("need at least one prime")
    return tuple(dict.fromkeys(out))


def parse_grid(args) -> tuple[list[int], list[int]]:
    """The --N and --d ranges, which need N >= 1 and d >= 0."""
    Ns, ds = parse_range(args.N), parse_range(args.d)
    if min(Ns) < 1 or min(ds) < 0:
        raise UsageError(f"need N >= 1 and d >= 0, got --N {args.N} --d {args.d}")
    return Ns, ds


def single_value(values: list[int], flag: str) -> int:
    if len(values) != 1:
        raise UsageError(f"{flag} takes a single value here, got {values}")
    return values[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plethy",
        description="exact certificates for the wedge-to-hook map",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full certificate grid")
    p_verify.add_argument("--N", default="1..3", help="rank value or range LO..HI")
    p_verify.add_argument("--d", default="0..5", help="degree value or range LO..HI")
    p_verify.add_argument("--p", default="2,3,5", help="comma separated primes")
    p_verify.add_argument("--out", help="write the JSON report here (no timings)")
    p_verify.set_defaults(func=cmd_verify)

    p_dump = sub.add_parser("dump", help="serialize the map or the kernel basis")
    p_dump.add_argument("--N", required=True, help="rank (single value)")
    p_dump.add_argument("--d", required=True, help="degree (single value)")
    p_dump.add_argument(
        "--what",
        default="map",
        choices=("map", "coords", "inverse", "basis"),
        help="map: ambient-valued matrix; coords: kernel-coordinate matrix; "
        "inverse: exact integer inverse; basis: kernel basis vectors",
    )
    p_dump.add_argument(
        "--ring",
        default="int",
        choices=("int", "rat", "fp", "polygamma"),
        help="coefficient ring for matrix dumps",
    )
    p_dump.add_argument("--p", default="2", help="prime for --ring fp (first is used)")
    p_dump.add_argument("--format", default="csv", choices=("csv", "json"))
    p_dump.add_argument("--out", help="output path (default stdout)")
    p_dump.set_defaults(func=cmd_dump)

    p_qchar = sub.add_parser("qchar", help="graded dimension identities")
    p_qchar.add_argument("--N", default="1..6", help="rank value or range LO..HI")
    p_qchar.add_argument("--d", default="0..12", help="degree value or range LO..HI")
    p_qchar.add_argument("--format", default="json", choices=("json", "csv"))
    p_qchar.add_argument("--out", help="output path (default stdout)")
    p_qchar.set_defaults(func=cmd_qchar)

    p_scan = sub.add_parser("scan", help="sweep the general-parameter grid")
    p_scan.add_argument("--M", default="1..2", help="row length value or range")
    p_scan.add_argument("--N", default="1..3", help="rank value or range")
    p_scan.add_argument("--d", default="0..5", help="degree value or range")
    p_scan.add_argument("--p", default="2,3", help="comma separated primes")
    p_scan.add_argument(
        "--dim-cap",
        type=int,
        default=DIM_CAP,
        help="skip grid points above this ambient dimension (default %(default)s)",
    )
    p_scan.add_argument("--workers", type=int, default=1, help="parallel processes")
    p_scan.add_argument("--format", default="json", choices=("json", "csv"))
    p_scan.add_argument("--out", help="output path (default stdout)")
    p_scan.set_defaults(func=cmd_scan)

    return parser


def emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None


def check_out(out: str | None):
    """Fail fast, before any work, when --out cannot be written: its
    directory must exist and be writable, and it must not be a directory
    itself.  Nothing is created."""
    if out is None:
        return
    folder = os.path.dirname(out) or "."
    if os.path.isdir(out):
        reason = errno.EISDIR
    elif not os.path.isdir(folder):
        reason = errno.ENOENT
    elif not os.access(folder, os.W_OK | os.X_OK) or (
        os.path.exists(out) and not os.access(out, os.W_OK)
    ):
        reason = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {out}: {os.strerror(reason)}")


def note(msg: str):
    print(msg, file=sys.stderr)


# -------------------------------------------------------------------- verify


def verify_point(N: int, d: int, primes: tuple[int, ...]) -> dict:
    """All checks at one grid point, flattened to named booleans, with
    auxiliary data and per-group timings kept separate.

    A ConsistencyError inside a check group fails that group alone: it is
    recorded as the failed check `<group>.consistency`, with its message
    under `<group>.consistency_error` in data, and the other groups run."""
    checks: dict[str, bool] = {}
    data: dict = {}
    timings: dict[str, float] = {}

    def run(group: str, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except ConsistencyError as exc:
            result = {"consistency": False, "consistency_error": str(exc)}
        timings[group] = round((time.perf_counter() - t0) * 1000, 1)
        for key, value in result.items():
            if isinstance(value, bool):
                checks[f"{group}.{key}"] = value
            else:
                data[f"{group}.{key}"] = value

    run("structure", lambda: verify_structure(N, d))
    run("lie", lambda: verify_lie_equivariance(N, d))
    run("poly", lambda: verify_group_equivariance_poly(N, d))
    for p in primes:
        run(f"fp[{p}]", lambda p=p: verify_group_equivariance_fp(N, d, p))
    run("duality", lambda: verify_duality(N, d))
    run("characters", lambda: verify_qchar_identity(N, d))

    def scalars():
        a, b = gl2_scalar_exponents(N, d)
        return {"exponents_match": a == b, "exponents": [a, b]}

    run("scalars", scalars)
    hashes: dict[str, str] = {}

    def digests():
        digest = weight_block_digests(iso_context(N, d))
        hashes.update((str(w), h) for w, h in digest.items())
        return {}

    run("block_hashes", digests)
    return {
        "N": N,
        "d": d,
        "checks": checks,
        "data": data,
        "block_hashes": hashes,
        "timings_ms": timings,
    }


def cmd_verify(args) -> int:
    Ns, ds = parse_grid(args)
    # sorted, as scan runs them, so the report's bytes do not depend on the
    # order the primes were given in
    primes = tuple(sorted(parse_primes(args.p)))
    if all(N > d + 2 for N in Ns for d in ds):
        raise UsageError(f"no grid point has N <= d + 2 in --N {args.N} --d {args.d}")
    points = []
    for N in Ns:
        for d in ds:
            if N > d + 2:
                note(f"skip (N={N}, d={d}): rank exceeds degree + 2, no such map")
                continue
            if points:
                # drop the last point's context and hook space before this
                # point's are built, so the run peaks at its largest point
                for cached in _POINT_CACHES:
                    cached.cache_clear()
            point = verify_point(N, d, primes)
            points.append(point)
            failed = [k for k, v in point["checks"].items() if not v]
            total = sum(point["timings_ms"].values())
            status = "pass" if not failed else "FAIL " + ", ".join(failed)
            note(
                f"(N={N}, d={d}) {len(point['checks'])} checks: "
                f"{status} [{total:.0f} ms]"
            )
    n_checks = sum(len(pt["checks"]) for pt in points)
    failures = [
        (pt["N"], pt["d"], k)
        for pt in points
        for k, v in pt["checks"].items()
        if not v
    ]
    report = {
        "kind": "verification_report",
        "grid": {"N": Ns, "d": ds, "p": list(primes)},
        "points": points,
        "checks_total": n_checks,
        "checks_failed": len(failures),
        "all_pass": not failures,
    }
    if args.out:
        # the file drops the timings, so its bytes are reproducible
        for pt in points:
            del pt["timings_ms"]
    emit(json_text(report), args.out)
    if args.out:
        note(f"report written to {args.out}")
    note(
        f"verify: {n_checks - len(failures)}/{n_checks} checks passed "
        f"on {len(points)} grid points"
    )
    for N, d, name in failures:
        note(f"FAILED at (N={N}, d={d}): {name}")
    return 0 if not failures else 1


# ---------------------------------------------------------------------- dump


def cmd_dump(args) -> int:
    N = single_value(parse_range(args.N), "--N")
    d = single_value(parse_range(args.d), "--d")
    if N < 1 or d < 0 or N > d + 2:
        raise UsageError(f"need 1 <= N <= d + 2, got (N={N}, d={d})")
    p = parse_primes(args.p)[0]

    if args.what == "basis":
        if args.format != "json":
            raise UsageError("the kernel basis dump is JSON only")
        payload = {
            "kind": "kernel_basis",
            "N": N,
            "d": d,
            "vectors": basis_to_json(hook_schur_space(N, d)),
        }
        emit(json_text(payload), args.out)
        return 0

    ring = ring_by_name(args.ring, p)
    ctx = iso_context(N, d)
    if args.what == "map":
        A = ctx.matrix_over(ring)
    elif args.what == "coords":
        A = ctx.coord_matrix_over(ring)
    else:
        A = ctx.inverse()
        if ring != ZZ:
            A = A.map_entries(ring, ring.from_int)
    emit(dump_payload(A, args.format), args.out)
    return 0


# --------------------------------------------------------------------- qchar


def cmd_qchar(args) -> int:
    Ns, ds = parse_grid(args)
    rows = []
    for N in Ns:
        for d in ds:
            entry = {"N": N, "d": d}
            entry.update(verify_qchar_identity(N, d))
            rows.append(entry)
    bool_keys = [k for k, v in rows[0].items() if isinstance(v, bool)]
    failures = [r for r in rows if not all(r[k] for k in bool_keys)]
    if args.format == "json":
        payload = {
            "kind": "qchar_report",
            "points": rows,
            "all_pass": not failures,
        }
        emit(json_text(payload), args.out)
    else:
        emit(csv_text(list(rows[0]), ([r[k] for k in rows[0]] for r in rows)), args.out)
    note(f"qchar: {len(rows) - len(failures)}/{len(rows)} grid points pass")
    return 0 if not failures else 1


# ---------------------------------------------------------------------- scan


def cmd_scan(args) -> int:
    Ms = parse_range(args.M)
    if min(Ms) < 1:
        raise UsageError(f"need M >= 1, got --M {args.M}")
    Ns, ds = parse_grid(args)
    primes = parse_primes(args.p)
    cap = args.dim_cap
    if cap < 0:
        raise UsageError(f"the dimension cap must be at least 0, got {cap}")
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")

    reports, skipped = scan(Ms, Ns, ds, primes, dim_cap=cap, workers=args.workers)
    for entry in skipped:
        note(
            f"skip (M={entry['M']}, N={entry['N']}, d={entry['d']}): "
            + entry["reason"]
        )
    disagreements = [r for r in reports if not r.all_equal]
    for r in reports:
        flag = "equal" if r.all_equal else "NOT EQUAL"
        note(f"(M={r.M}, N={r.N}, d={r.d}) dims {r.dim_lhs}/{r.dim_rhs_char0} {flag}")

    if args.format == "json":
        payload = {
            "kind": "conjecture_scan",
            "convention": CONVENTION,
            # scan runs the primes sorted, and the grid says so
            "grid": {"M": Ms, "N": Ns, "d": ds, "p": sorted(primes)},
            "dim_cap": cap,
            "reports": [r.to_json() for r in reports],
            "skipped": skipped,
            "disagreements": len(disagreements),
        }
        emit(json_text(payload), args.out)
    else:
        rows = [row for r in reports for row in r.csv_rows()]
        emit(csv_text(CSV_HEADER, rows), args.out)
    note(
        f"scan: {len(reports)} grid points, {len(skipped)} skipped, "
        f"{len(disagreements)} disagreements"
    )
    return 0


# ---------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_out(args.out)
        return args.func(args)
    except UsageError as exc:
        note(f"usage error: {exc}")
        return 2
    except ConsistencyError as exc:
        note(f"consistency failure: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
