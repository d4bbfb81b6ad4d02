"""Command line behavior: exit codes, artifacts, and reproducibility."""

import csv
import gc
import hashlib
import io
import json
import weakref

import pytest

from plethy import (
    ZZ,
    ConsistencyError,
    HookSchurSpace,
    IsoContext,
    hook_schur_space,
    iso_context,
    linear_map_from_json,
)
from plethy.cli import main, parse_primes, parse_range
from plethy.cli import UsageError


# ------------------------------------------------------------------ parsing


def test_parse_range():
    assert parse_range("3") == [3]
    assert parse_range("1..4") == [1, 2, 3, 4]
    assert parse_range("0..0") == [0]
    for bad in ("x", "4..1", "1..", "..3", "1...4"):
        with pytest.raises(UsageError):
            parse_range(bad)


def test_parse_primes():
    assert parse_primes("2,3,5") == (2, 3, 5)
    assert parse_primes("5, 2, 5") == (5, 2)  # deduplicated, order kept
    for bad in ("4", "2,9", "x", "", "65537"):
        with pytest.raises(UsageError):
            parse_primes(bad)


# ---------------------------------------------------------------- exit codes


def test_verify_passes_small_grid(capsys):
    assert main(["verify", "--N", "2", "--d", "3..4", "--p", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is True
    assert report["checks_failed"] == 0
    assert {pt["d"] for pt in report["points"]} == {3, 4}
    # stdout report keeps the timings
    assert all("timings_ms" in pt for pt in report["points"])


def test_usage_errors_exit_two():
    assert main(["verify", "--N", "nope"]) == 2
    assert main(["verify", "--p", "6"]) == 2
    assert main(["dump", "--N", "2", "--d", "4", "--what", "basis"]) == 2
    assert main(["dump", "--N", "2", "--d", "4", "--what", "basis", "--format",
                 "json", "--ring", "fp", "--p", "9"]) == 2  # --p checked here too
    assert main(["dump", "--N", "1..2", "--d", "4"]) == 2  # range where single
    assert main(["dump", "--N", "5", "--d", "1"]) == 2  # empty parameter zone
    assert main(["scan", "--workers", "0"]) == 2
    # a prime beyond the supported range, in every subcommand that takes --p
    assert main(["verify", "--p", "65537"]) == 2
    assert main(["scan", "--p", "65537"]) == 2
    assert main(["dump", "--N", "1", "--d", "0", "--ring", "fp", "--p", "65537"]) == 2
    # an --out path that cannot be opened, in every subcommand
    unwritable = ["--N", "1", "--d", "0", "--out", "/nonexistent/x.json"]
    assert main(["verify", "--p", "2", *unwritable]) == 2
    assert main(["dump", *unwritable]) == 2
    assert main(["qchar", *unwritable]) == 2
    assert main(["scan", "--M", "1", "--p", "2", *unwritable]) == 2


def test_an_unwritable_out_fails_before_any_grid_point_runs(capsys):
    argv = ["verify", "--N", "1..3", "--d", "0..5", "--out", "/nonexistent/x.json"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "cannot write /nonexistent/x.json" in err
    assert "(N=" not in err


def test_an_out_that_is_a_directory_fails_first_and_creates_nothing(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    for command in (
        ["verify", "--N", "1..3", "--d", "0..5"],
        ["scan", "--M", "1", "--N", "1", "--d", "0..2", "--p", "2"],
        ["qchar", "--N", "1", "--d", "0..2"],
        ["dump", "--N", "1", "--d", "0"],
    ):
        for out in (tmp_path, missing):
            assert main([*command, "--out", str(out)]) == 2, (command, out)
            err = capsys.readouterr().err
            assert f"cannot write {out}" in err
            assert "(N=" not in err and "(M=" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--N", "0", "--d", "0"],
        ["qchar", "--N", "0", "--d", "0"],
        ["qchar", "--N", "3", "--d", "-1"],
        ["verify", "--N", "5", "--d", "1"],  # no point with N <= d + 2
    ],
)
def test_bad_grid_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err


def test_argparse_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as err:
        main(["explode"])
    assert err.value.code == 2
    capsys.readouterr()


def test_math_failure_exits_one(monkeypatch, capsys):
    import plethy.cli as cli

    def broken(N, d):
        return {"dims_equal": False}

    monkeypatch.setattr(cli, "verify_structure", broken)
    assert main(["verify", "--N", "2", "--d", "3", "--p", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is False
    assert report["checks_failed"] == 1


def test_qchar_failure_exits_one(monkeypatch, capsys):
    import plethy.cli as cli

    real = cli.verify_qchar_identity

    def broken(N, d):
        out = dict(real(N, d))
        out["hook_identity"] = False
        return out

    monkeypatch.setattr(cli, "verify_qchar_identity", broken)
    assert main(["qchar", "--N", "2", "--d", "3"]) == 1
    capsys.readouterr()


# -------------------------------------------------------------------- verify


def test_verify_out_file_omits_timings(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert (
        main(["verify", "--N", "2", "--d", "4", "--p", "2,3", "--out", str(out)])
        == 0
    )
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    assert all("timings_ms" not in pt for pt in report["points"])
    point = report["points"][0]
    assert point["checks"]["structure.determinant_one"] is True
    assert point["checks"]["fp[3].commutes_with_all_unipotents"] is True
    assert point["data"]["scalars.exponents"] == [16, 16]
    assert len(point["block_hashes"]) == 11


def test_verify_out_is_byte_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--N", "2", "--d", "3", "--p", "2", "--out", str(a)])
    main(["verify", "--N", "2", "--d", "3", "--p", "2", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_out_bytes_are_pinned(tmp_path, capsys):
    # the default grid; the digest was taken before the equivariance routes
    # moved to integer arithmetic, and is the benchmark's verify-grid pin
    out = tmp_path / "report.json"
    argv = ["verify", "--N", "1..3", "--d", "0..5", "--p", "2,3,5", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "4bd2d9e94661c1f233077be8dd956b6f746d72876a050233be03f2813492458a"
    )


# sha256 of each output's bytes, taken before the writers were unified
OUTPUT_PINS = [
    (["scan", "--M", "2..3", "--N", "2", "--d", "2..3", "--p", "2,3", "--format", "csv"],
     "7730b48df5b351ff93049a66b3b500d177b6f3f96b7cd2deacd41f0cf33abdec"),
    (["scan", "--M", "2..3", "--N", "2", "--d", "2..3", "--p", "2,3", "--format", "json"],
     "bef5f3a398a9eb785e6e952d60164f9283c397aa93d28b08b6e19702362a7a28"),
    (["qchar", "--N", "1..3", "--d", "0..4", "--format", "json"],
     "254d1f8a8cc61ff99cd92a1bd20227d1f962aac7bd1356faaf4398817f86e311"),
    (["qchar", "--N", "1..3", "--d", "0..4", "--format", "csv"],
     "0993b2ac200d5962bd34b329eb0dda3969e58b35f7ec3b5aaef4ff330f186619"),
    (["dump", "--N", "2", "--d", "3", "--what", "basis", "--format", "json"],
     "7f6ab193deb88d0bf068db37690e4fd7759a94bcaa699361f0e2f5e1f79e06e4"),
    (["dump", "--N", "2", "--d", "3", "--what", "map", "--format", "json",
      "--ring", "rat"],
     "755b751a900036a2198069224e5fdba981a41c81ac052edf15cb5a7b29180274"),
    (["dump", "--N", "2", "--d", "3", "--what", "map", "--format", "json",
      "--ring", "fp", "--p", "7"],
     "83ddf6fbd9aaba109a534b1be82ac6bfe9b87ea5c4b33d581728805366c2313b"),
    (["dump", "--N", "2", "--d", "3", "--what", "map", "--format", "json",
      "--ring", "polygamma"],
     "dc197823bd1051f3625d29ddfd9e00dfab1a7585d75173eb672a6a85e14654d9"),
    (["dump", "--N", "2", "--d", "3", "--what", "coords", "--format", "csv"],
     "8aa541c0e711497c3eb0aa74e15686ad8785fbf7adf8d1733b93763dbd34fe6c"),
    (["scan", "--M", "2..4", "--N", "1..2", "--d", "1..3", "--p", "5,7",
      "--format", "json"],
     "dc260ba631b2357cd26b353299d3af49ee9f1339122dde0c7898f54365dc25ec"),
]


@pytest.mark.parametrize(
    "argv, digest", OUTPUT_PINS, ids=[" ".join(argv) for argv, _ in OUTPUT_PINS]
)
def test_output_bytes_are_pinned(argv, digest, tmp_path, capsys):
    out = tmp_path / "payload"
    assert main([*argv, "--out", str(out)]) == 0
    assert main(argv) == 0  # stdout carries the same bytes
    assert capsys.readouterr().out.encode() == out.read_bytes()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_no_command_path_builds_a_label_view(monkeypatch, tmp_path, capsys):
    # maps and vectors are keyed by basis position between layers; the label
    # views are for callers at the edge, so refusing them changes nothing
    from plethy import scan_one, spaces
    from test_inverse_oracle import DUMP_DIGESTS

    def refuse(self):
        raise AssertionError("a label view was built")

    monkeypatch.setattr(spaces.LinearMap, "_label_cols", refuse)
    monkeypatch.setattr(spaces.ModuleElement, "coeffs", property(refuse))
    assert main(["verify", "--N", "2", "--d", "3", "--p", "2,3"]) == 0
    out = tmp_path / "inverse.json"
    argv = ["dump", "--N", "3", "--d", "6", "--what", "inverse", "--format", "json"]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_DIGESTS["json"]
    r = scan_one(3, 2, 4, (2, 3))
    two, three = r.primes
    assert two.jordan_lhs == (2,) * 51 + (1,) * 3
    assert two.jordan_rhs == (2,) * 49 + (1,) * 7
    assert three.jordan_lhs == three.jordan_rhs == (3,) * 35
    capsys.readouterr()
    with pytest.raises(AssertionError, match="label view"):
        iso_context(2, 3).matrix.cols
    with pytest.raises(AssertionError, match="label view"):
        spaces.ModuleElement.basis_vector(spaces.Sym(1), ZZ, 0).coeffs


def test_consistency_error_fails_one_group_and_the_run_goes_on(
    monkeypatch, tmp_path, capsys
):
    import plethy.cli as cli

    real = cli.verify_group_equivariance_poly

    def broken(N, d):
        if (N, d) == (2, 3):
            raise ConsistencyError("poly route fell over")
        return real(N, d)

    monkeypatch.setattr(cli, "verify_group_equivariance_poly", broken)
    out = tmp_path / "report.json"
    argv = ["verify", "--N", "2", "--d", "2..4", "--p", "2", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "FAILED at (N=2, d=3): poly.consistency" in err
    report = json.loads(out.read_text())
    assert report["all_pass"] is False
    assert report["checks_failed"] == 1
    assert [pt["d"] for pt in report["points"]] == [2, 3, 4]
    bad = report["points"][1]
    assert bad["checks"]["poly.consistency"] is False
    assert bad["data"]["poly.consistency_error"] == "poly route fell over"
    assert "poly.commutes_with_upper_unipotent" not in bad["checks"]
    # the other groups at that point and the other points still ran
    others = {k: v for k, v in bad["checks"].items() if k != "poly.consistency"}
    assert others and all(others.values())
    assert "fp[2].commutes_with_all_unipotents" in others
    assert len(bad["block_hashes"]) == len(iso_context(2, 3).weight_blocks())
    for pt in (report["points"][0], report["points"][2]):
        assert all(pt["checks"].values())


def test_verify_skips_out_of_range_points(capsys):
    assert main(["verify", "--N", "4", "--d", "0..2", "--p", "2"]) == 0
    err = capsys.readouterr().err
    assert "skip (N=4, d=0)" in err
    assert "skip (N=4, d=1)" in err
    assert "(N=4, d=2)" in err  # the boundary point runs


def test_verify_holds_one_grid_point_at_a_time(capsys, monkeypatch):
    # the first point's context and hook space are gone once the grid has
    # moved on, and already when the next point's are built; the pre-built
    # first point is reused, and every point's objects are built once.
    # Constructions are counted, as cache_clear resets cache_info
    built = {IsoContext: [], HookSchurSpace: []}
    live = {IsoContext: [], HookSchurSpace: []}  # earlier objects alive at each build
    refs = {IsoContext: [], HookSchurSpace: []}
    for cls in built:
        def counting(self, N, d, cls=cls, init=cls.__init__):
            gc.collect()
            live[cls].append(sum(ref() is not None for ref in refs[cls]))
            built[cls].append((N, d))
            refs[cls].append(weakref.ref(self))
            init(self, N, d)
        monkeypatch.setattr(cls, "__init__", counting)
    iso_context.cache_clear()
    hook_schur_space.cache_clear()
    ctx = iso_context(1, 0)  # the grid's first point, which the run reuses
    dead_ctx, dead_hook = weakref.ref(ctx), weakref.ref(ctx.hook)
    del ctx
    assert main(["verify", "--N", "1..2", "--d", "0..3", "--p", "2"]) == 0
    capsys.readouterr()
    gc.collect()
    assert dead_ctx() is None
    assert dead_hook() is None
    points = [(N, d) for N in (1, 2) for d in range(4)]
    assert built == {IsoContext: points, HookSchurSpace: points}
    assert live == {IsoContext: [0] * 8, HookSchurSpace: [0] * 8}
    for cached in (iso_context, hook_schur_space):
        assert cached.cache_info().currsize == 1


def test_verify_report_bytes_do_not_depend_on_the_order_of_the_primes(tmp_path, capsys):
    outs = []
    for primes in ("3,2", "2,3"):
        out = tmp_path / f"verify-{primes}.json"
        assert main(["verify", "--N", "1", "--d", "1", "--p", primes, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["grid"]["p"] == [2, 3]


# ---------------------------------------------------------------------- dump


def test_dump_map_csv_shape(tmp_path, capsys):
    out = tmp_path / "map.csv"
    assert main(["dump", "--N", "2", "--d", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert len(rows[0]) - 1 == 40  # domain columns
    assert len(rows) - 1 == 50  # ambient rows
    assert rows[0][1] == "0|(0,1,2)"
    assert rows[1][0] == "(0,1)|0"
    values = {v for row in rows[1:] for v in row[1:]}
    assert values == {"0", "1"}  # every matrix entry is zero or one


def test_dump_json_round_trip(tmp_path, capsys):
    for what, expected in (
        ("map", iso_context(2, 4).matrix_over(ZZ)),
        ("coords", iso_context(2, 4).coord_matrix_over(ZZ)),
        ("inverse", iso_context(2, 4).inverse()),
    ):
        out = tmp_path / f"{what}.json"
        code = main(
            ["dump", "--N", "2", "--d", "4", "--what", what,
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        recovered = linear_map_from_json(json.loads(out.read_text()))
        assert recovered == expected
    capsys.readouterr()


def test_dump_basis_json(capsys):
    assert main(["dump", "--N", "2", "--d", "4", "--what", "basis",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "kernel_basis"
    assert len(payload["vectors"]) == 40
    by_pair = {tuple(map(tuple, [v["pair"][0]])) + (v["pair"][1],): v
               for v in payload["vectors"]}
    vec = by_pair[((0, 1), 2)]
    assert vec["support"] == [[[[0, 1], 2], 1], [[[0, 2], 1], 1]]


def test_dump_modular_ring(capsys):
    assert main(["dump", "--N", "2", "--d", "3", "--ring", "fp", "--p", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ring"] == {"kind": "fp", "p": 2}


def test_dump_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["dump", "--N", "3", "--d", "4", "--out", str(a)])
    main(["dump", "--N", "3", "--d", "4", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------- qchar


def test_qchar_csv(capsys):
    assert main(["qchar", "--N", "2", "--d", "3..4", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][:3] == ["N", "d", "hook_identity"]
    assert len(rows) == 3


# ----------------------------------------------------------------------- scan


def test_scan_exits_zero_even_on_findings(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code = main(["scan", "--M", "3", "--N", "2", "--d", "2", "--p", "2",
                 "--out", str(out)])
    assert code == 0  # findings are reported, not failed
    err = capsys.readouterr().err
    assert "NOT EQUAL" in err
    payload = json.loads(out.read_text())
    assert payload["disagreements"] == 1
    assert payload["reports"][0]["all_equal"] is False


def test_scan_csv_schema(capsys):
    assert main(["scan", "--M", "2", "--N", "2", "--d", "3", "--p", "2,3",
                 "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == [
        "M", "N", "d", "p", "dim_lhs", "dim_rhs", "qchar_equal",
        "jordan_lhs", "jordan_rhs", "jordan_equal", "convention",
    ]
    assert len(rows) == 3  # one row per prime
    assert rows[1][3] == "2" and rows[2][3] == "3"


def test_scan_dim_cap_env(capsys):
    argv = ["scan", "--M", "3", "--N", "3", "--d", "5", "--p", "2", "--dim-cap", "50"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "exceeds cap 50" in captured.err
    payload = json.loads(captured.out)
    assert payload["reports"] == [] and len(payload["skipped"]) == 1


def test_scan_json_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["scan", "--M", "1..2", "--N", "2", "--d", "0..3", "--p", "2"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_scan_json_does_not_depend_on_the_order_of_the_primes(tmp_path, capsys):
    # the reports list the primes sorted, and so does the grid
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["scan", "--M", "2", "--N", "1", "--d", "1"]
    main(args + ["--p", "2,3", "--out", str(a)])
    main(args + ["--p", "3,2", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_bytes())["grid"]["p"] == [2, 3]
    assert hashlib.sha256(a.read_bytes()).hexdigest().startswith("2565d9b4")


def test_scan_rejects_bad_grid(capsys):
    assert main(["scan", "--M", "0", "--N", "1", "--d", "0"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_scan_rejects_negative_dim_cap(capsys):
    assert main(["scan", "--dim-cap", "-1"]) == 2
    assert "usage error" in capsys.readouterr().err
