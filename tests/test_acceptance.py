"""Acceptance gate: every advertised guarantee at its full desk-scale grid.

Each criterion is one test, so the pytest -v listing carries exactly one
pass/fail line per criterion; its PASS line with wall time is echoed into
the terminal summary by conftest.  All comparisons are exact; there are
no tolerances anywhere.
"""

import time

from plethy import (
    QQ,
    ZZ,
    basis_image,
    content_chain,
    count_hook_tableaux,
    dim,
    iso_context,
    multiplication_map,
    rank,
    reversal_sign,
    scan,
    semistandard_pairs,
    verify_duality,
    verify_group_equivariance_fp,
    verify_group_equivariance_poly,
    verify_lie_equivariance,
    verify_qchar_identity,
    verify_structure,
)


def grid(N_max, d_max):
    return [
        (N, d)
        for N in range(1, N_max + 1)
        for d in range(0, d_max + 1)
        if N <= d + 2
    ]


PASS_LINES = []


def report(n, name, t0):
    line = f"ACCEPTANCE {n} {name}: PASS ({time.perf_counter() - t0:.1f}s)"
    print(line)
    PASS_LINES.append(line)


def test_criterion_1_isomorphism_certificate():
    t0 = time.perf_counter()
    for N, d in grid(4, 8):
        result = verify_structure(N, d)
        assert all(result.values()), (N, d, result)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"certificate grid took {elapsed:.1f}s"
    report(1, "isomorphism certificate N<=4 d<=8", t0)


def test_criterion_2_equivariance_three_routes():
    t0 = time.perf_counter()
    for N, d in grid(4, 8):
        assert all(verify_lie_equivariance(N, d).values()), ("lie", N, d)
    for N, d in grid(3, 6):
        assert all(verify_group_equivariance_poly(N, d).values()), ("poly", N, d)
    for N, d in grid(3, 5):
        for p in (2, 3, 5, 7):
            assert all(verify_group_equivariance_fp(N, d, p).values()), (N, d, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"equivariance routes took {elapsed:.1f}s"
    report(2, "equivariance via integer, polynomial, modular routes", t0)


def test_criterion_3_golden_values():
    t0 = time.perf_counter()
    v = basis_image(ZZ, 3, 5, 1, (0, 2, 3, 6))
    assert v.coeffs == {
        ((0, 2, 3), 4): 1,
        ((0, 2, 4), 3): 1,
        ((0, 2, 5), 2): 1,
        ((1, 2, 3), 3): 1,
        ((1, 2, 4), 2): 1,
        ((1, 2, 5), 1): 1,
    }
    assert content_chain((1, 2, 4, 7)) == [
        ((1, 2, 4), 7),
        ((1, 2, 7), 4),
        ((1, 4, 7), 2),
    ]
    rows, cols, mat = iso_context(2, 4).weight_block_matrix(7)
    assert rows == [
        ((0, 3), 4), ((0, 4), 3), ((1, 2), 4),
        ((1, 4), 2), ((1, 3), 3), ((2, 3), 2),
    ]
    assert cols == [
        (1, (0, 3, 5)), (0, (0, 4, 5)), (1, (1, 2, 5)),
        (0, (1, 3, 5)), (1, (1, 3, 4)), (0, (2, 3, 4)),
    ]
    assert mat == [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [1, 1, 0, 1, 0, 0],
        [1, 0, 1, 1, 1, 0],
        [1, 0, 0, 1, 1, 1],
    ]
    report(3, "golden expansion, chain, and triangular block", t0)


def test_criterion_4_duality_and_sign_table():
    t0 = time.perf_counter()
    assert [reversal_sign(R) for R in (1, 2, 3, 4)] == [1, -1, -1, 1]
    for N, d in grid(3, 5):
        result = verify_duality(N, d)
        booleans = {k: v for k, v in result.items() if isinstance(v, bool)}
        assert all(booleans.values()), (N, d, result)
        if count_hook_tableaux(N, d) > 0:
            assert result["swap_law_sign"] == (-1) ** N, (N, d)
        else:
            assert result["swap_law_sign"] is None, (N, d)
    report(4, "degree swap duality and sign law N<=3 d<=5", t0)


def test_criterion_5_graded_dimension_identities():
    t0 = time.perf_counter()
    for N in range(1, 7):
        for d in range(0, 13):
            result = verify_qchar_identity(N, d)
            booleans = {k: v for k, v in result.items() if isinstance(v, bool)}
            assert all(booleans.values()), (N, d, result)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"identity grid took {elapsed:.1f}s"
    report(5, "graded dimension identities N<=6 d<=12", t0)


def test_criterion_6_dimension_oracle_equivalence():
    t0 = time.perf_counter()
    for N, d in grid(4, 8):
        closed = count_hook_tableaux(N, d)
        enumerated = len(semistandard_pairs(N, d))
        mu = multiplication_map(QQ, N, d)
        nullity = dim(mu.domain) - rank(mu)
        assert closed == enumerated == nullity, (N, d)
    report(6, "closed count == enumeration == rank-nullity N<=4 d<=8", t0)


def test_criterion_7_conjecture_grid():
    t0 = time.perf_counter()
    proven, skipped = scan((1, 2), (1, 2, 3), range(0, 6), (2, 3))
    assert not skipped
    for r in proven:
        assert r.all_equal, (r.M, r.N, r.d)
    general, skipped = scan((3,), (1, 2, 3), range(0, 6), (2, 3))
    assert not skipped
    assert len(general) == 18
    for r in general:
        # characteristic zero comparison must hold everywhere
        assert r.qchar_equal and r.dim_lhs == r.dim_rhs_char0, (r.M, r.N, r.d)
        assert r.kernel_matches_tableaux, (r.M, r.N, r.d)
    # the modular probe is allowed to disagree; the scanner records where
    findings = {(r.N, r.d) for r in general if not r.all_equal}
    assert findings == {(2, 2), (2, 4)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"conjecture grid took {elapsed:.1f}s"
    report(7, "conjecture rows M<=2 equal, M=3 reported with findings", t0)
