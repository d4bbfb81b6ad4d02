"""The general-parameter comparison grid and its modular fingerprints."""

import concurrent.futures
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethy import conjecture, spaces
from plethy import (
    QQ,
    ZZ,
    ConsistencyError,
    LinearMap,
    ModuleElement,
    PrimeField,
    Sym,
    Tensor,
    Wedge,
    basis,
    conjecture_qchar,
    dim,
    hook_domain,
    hook_kernel_map,
    hook_kernel_vectors,
    hook_schur_polynomial,
    jordan_fingerprint,
    jordan_type_from_ranks,
    kernel_basis,
    kernel_qchar,
    lhs_space,
    multiplication_map,
    qchar,
    release_point,
    scan,
    scan_one,
)
from plethy.characters import _count_qpoly

# ------------------------------------------------------------------- the map


def test_two_row_kernel_map_is_the_multiplication_map():
    # at M = 2 the defining map coincides with the wedge multiplication,
    # up to wrapping the loose factor in a length-one power
    for N, d in ((2, 4), (3, 3)):
        A = hook_kernel_map(ZZ, 2, N, d)
        B = multiplication_map(ZZ, N, d)
        assert [(w, m[0]) for (w, m) in basis(A.domain)] == list(basis(B.domain))
        for colA, colB in zip(A.cols, B.cols):
            assert {lab[0]: v for lab, v in colA.items()} == colB


def test_kernel_map_needs_two_rows():
    with pytest.raises(ValueError):
        hook_kernel_map(ZZ, 1, 2, 3)


def test_side_shapes():
    assert lhs_space(1, 3, 5) == Wedge(3, Sym(5))
    assert lhs_space(2, 2, 4) == Tensor(Wedge(1, Sym(1)), Wedge(3, Sym(5)))
    assert lhs_space(3, 2, 2) == Tensor(Wedge(2, Sym(2)), Wedge(4, Sym(4)))
    assert hook_domain(1, 3, 5) == Wedge(3, Sym(5))
    assert hook_domain(3, 2, 2).right.r == 2


def test_kernel_counts_match_tableaux_enumeration():
    for M, N, d in ((1, 2, 4), (2, 2, 4), (2, 3, 4), (3, 2, 3), (3, 1, 4)):
        vectors = hook_kernel_vectors(QQ, M, N, d)
        assert len(vectors) == hook_schur_polynomial(M, N, d)(1)
        assert kernel_qchar(QQ, M, N, d) == hook_schur_polynomial(M, N, d)


def test_qchar_comparison_two_rows_is_exact():
    for N, d in ((1, 3), (2, 4), (3, 5)):
        result = conjecture_qchar(2, N, d)
        assert result["qchar_equal"]
        assert result["qchar_shift"] == N  # the determinant twist
        assert result["dim_lhs"] == result["dim_rhs_char0"]


def test_qchar_comparison_single_column_is_verbatim():
    result = conjecture_qchar(1, 3, 5)
    assert result["qchar_equal"]
    assert result["qchar_shift"] == 0
    assert qchar(lhs_space(1, 3, 5)) == kernel_qchar(QQ, 1, 3, 5)


def test_qchar_shift_matches_degree_bookkeeping():
    # lowest degrees differ by C(M-1,2) + C(M+N-1,2) - C(N,2)
    for M, N, d in ((2, 2, 4), (3, 2, 3), (3, 3, 4)):
        result = conjecture_qchar(M, N, d)
        expected = (
            (M - 1) * (M - 2) // 2
            + (M + N - 1) * (M + N - 2) // 2
            - N * (N - 1) // 2
        )
        assert result["qchar_shift"] == expected


# ------------------------------------------------------------ integer kernel

SMALL_POINTS = st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(0, 4)).filter(
    lambda mnd: dim(hook_domain(*mnd)) <= 400
)


@settings(max_examples=40, deadline=None)
@given(SMALL_POINTS)
def test_integer_kernel_is_the_rational_kernel_scaled(point):
    # the rational kernel_basis is the oracle: each integer vector is its
    # vector times the trailing coefficient, primitive, and maps to zero
    # over ZZ, so the graded dimensions agree
    A = hook_kernel_map(ZZ, *point)
    integer = kernel_basis(A)
    rational = kernel_basis(hook_kernel_map(QQ, *point))
    assert len(integer) == len(rational)
    for v, w in zip(integer, rational):
        assert v.ring == ZZ and A.apply(v).is_zero()
        trailing = v.pcoeffs[max(v.pcoeffs)]
        assert trailing > 0 and gcd(*v.pcoeffs.values()) == 1
        assert v.pcoeffs == {r: trailing * c for r, c in w.pcoeffs.items()}
    degrees = [w.homogeneous_ydegree() for w in rational]
    assert kernel_qchar(ZZ, *point) == kernel_qchar(QQ, *point) == _count_qpoly(degrees)


def test_a_skipped_combination_step_fails_the_zero_check(monkeypatch):
    # each step updates v and then its combination; leaving the pivot's
    # part out of every combination leaves v's relation to it broken, in
    # the integer arithmetic (kernel_qchar reads QQ as ZZ) and over GF(3)
    calls = []
    real = spaces._step

    def skipping(v, s, t, pv, ring):
        calls.append(1)
        real(v, s, t if len(calls) % 2 else 0, pv, ring)

    monkeypatch.setattr(spaces, "_step", skipping)
    for ring in (QQ, PrimeField(3)):
        calls.clear()
        with pytest.raises(ConsistencyError, match="kernel vector failed the zero check"):
            kernel_qchar(ring, 3, 2, 3)
        assert calls


def test_the_scan_forms_no_fraction(monkeypatch):
    # the characteristic-zero dims come from integer kernel vectors
    import fractions

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was formed")

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    with pytest.raises(AssertionError, match="a Fraction was formed"):
        fractions.Fraction(1)
    for M, N, d in ((1, 2, 3), (2, 2, 3), (3, 2, 4), (4, 1, 3)):
        report = scan_one(M, N, d, (2, 3))
        assert report.kernel_matches_tableaux


def test_the_kernel_map_is_built_once_per_point_and_reduced(monkeypatch):
    # the integer map is built once per point, and each field's map is its
    # reduction, with the entries divisible by p dropped
    builds = []
    real = LinearMap.from_function.__func__

    def counting(cls, ring, domain, codomain, fn):
        builds.append(ring)
        return real(cls, ring, domain, codomain, fn)

    monkeypatch.setattr(LinearMap, "from_function", classmethod(counting))
    cached = conjecture._integer_kernel_map
    cached.cache_clear()
    scan_one(4, 1, 2, (2, 3, 5))
    assert builds == [ZZ]
    A = hook_kernel_map(ZZ, 4, 1, 2)
    assert 3 in {c for col in A.pcols for c in col.values()}
    for p in (2, 3, 5):
        ring = PrimeField(p)
        assert hook_kernel_map(ring, 4, 1, 2) == A.map_entries(ring, lambda n: n % p)
    assert builds == [ZZ]
    B = hook_kernel_map(ZZ, 4, 1, 3)
    assert builds == [ZZ, ZZ]
    # the one slot holds (4, 1, 3): asking for it again builds nothing
    assert cached.cache_info().currsize == 1
    assert cached(4, 1, 3) is B
    assert builds == [ZZ, ZZ]


# ------------------------------------------------------------------- fingerprints


def test_jordan_type_from_ranks_unit():
    # one 3-block and one 1-block: ranks of powers 4, 2, 1, 0
    assert jordan_type_from_ranks([4, 2, 1, 0]) == (3, 1)
    assert jordan_type_from_ranks([3, 0]) == (1, 1, 1)
    assert jordan_type_from_ranks([0]) == ()
    assert jordan_type_from_ranks([5, 3, 1, 0]) == (3, 2)


def test_jordan_type_rejects_non_convex_ranks():
    with pytest.raises(ConsistencyError):
        jordan_type_from_ranks([4, 1, 1, 0])


def test_jordan_fingerprint_sym_mod_two():
    # X -> X, Y -> X + Y on quadratic forms in characteristic two:
    # the square of Y is fixed up to lower terms, leaving a 2 + 1 split
    assert jordan_fingerprint(2, Sym(1)) == (2,)
    assert jordan_fingerprint(2, Sym(2)) == (2, 1)
    assert jordan_fingerprint(2, Sym(3)) == (2, 2)
    assert jordan_fingerprint(3, Sym(2)) == (3,)
    assert jordan_fingerprint(5, Sym(4)) == (5,)


def test_jordan_fingerprint_respects_partition_sum():
    for p in (2, 3, 5):
        for space in (Sym(3), Wedge(2, Sym(3)), Tensor(Sym(1), Sym(2))):
            assert sum(jordan_fingerprint(p, space)) == dim(space)


def test_jordan_fingerprint_restriction():
    # the plane spanned by the top monomial is fixed: a single 1-block
    ring = PrimeField(2)
    v = ModuleElement.basis_vector(Sym(2), ring, 0)
    assert jordan_fingerprint(2, Sym(2), [v]) == (1,)


def test_jordan_fingerprint_rejects_non_invariant_span():
    ring = PrimeField(2)
    v = ModuleElement.basis_vector(Sym(2), ring, 1)  # XY is not fixed
    with pytest.raises(ConsistencyError):
        jordan_fingerprint(2, Sym(2), [v])


def test_jordan_fingerprint_rejects_dependent_vectors():
    ring = PrimeField(3)
    x2 = ModuleElement.basis_vector(Sym(2), ring, 0)
    xy = ModuleElement.basis_vector(Sym(2), ring, 1)
    with pytest.raises(ValueError):
        jordan_fingerprint(3, Sym(2), [x2, x2])
    with pytest.raises(ValueError):
        jordan_fingerprint(3, Sym(2), [x2, xy, x2 + xy.scale(2)])
    with pytest.raises(ValueError):
        jordan_fingerprint(3, Sym(2), [ModuleElement.zero(Sym(2), ring)])


def test_kernel_vectors_are_their_own_echelon_rows():
    # each kernel_basis vector has its own free column as its highest
    # position, its lead, with coefficient one, and every other vector is
    # zero there: the reduced echelon form that _span_coordinates reads the
    # coordinates off, so _reduced_rows stores each one as it is
    from plethy.conjecture import _reduced_rows

    for M, N, d in ((2, 1, 3), (3, 1, 3), (3, 2, 4), (4, 1, 2)):
        for p in (2, 3, 5):
            vectors = hook_kernel_vectors(PrimeField(p), M, N, d)
            leads = [max(v.pcoeffs) for v in vectors]
            assert all(v.pcoeffs[lead] == 1 for v, lead in zip(vectors, leads))
            assert len(set(leads)) == len(leads)
            for v, lead in zip(vectors, leads):
                assert v.pcoeffs.keys() & set(leads) == {lead}
            reduced = _reduced_rows(p, [v.pcoeffs for v in vectors])
            assert list(reduced.items()) == [
                (lead, v.pcoeffs) for v, lead in zip(vectors, leads)
            ]


# ------------------------------------------------------------------- reports


def test_proven_rows_agree_everywhere():
    # M = 1 and M = 2 are the proven cases; every probe must come back equal
    reports, skipped = scan((1, 2), (1, 2, 3), range(0, 5), (2, 3))
    assert not skipped
    assert len(reports) == 2 * 3 * 5
    for r in reports:
        assert r.all_equal, (r.M, r.N, r.d)
        assert r.kernel_matches_tableaux


def test_three_row_scan_finding_regression():
    # a genuine modular discrepancy: dimensions and graded characters agree
    # but the unipotent acts with different block sizes in characteristic two
    r = scan_one(3, 2, 2, (2, 3))
    assert r.dim_lhs == r.dim_rhs_char0 == 15
    assert r.qchar_equal and r.qchar_shift == 6
    two, three = r.primes
    assert two.p == 2
    assert two.jordan_lhs == (2, 2, 2, 2, 2, 2, 2, 1)
    assert two.jordan_rhs == (2, 2, 2, 2, 2, 2, 1, 1, 1)
    assert not two.jordan_equal
    assert three.jordan_equal
    assert not r.all_equal


def test_three_row_scan_third_finding_regression():
    # the third characteristic-two finding along N = 2; p = 3 still agrees
    r = scan_one(3, 2, 6, (2, 3))
    assert r.dim_lhs == r.dim_rhs_char0 == 378
    assert r.qchar_equal and r.qchar_shift == 6
    two, three = r.primes
    assert two.jordan_lhs == (2,) * 186 + (1,) * 6
    assert two.jordan_rhs == (2,) * 183 + (1,) * 12
    assert not two.jordan_equal
    assert three.jordan_lhs == three.jordan_rhs == (3,) * 126
    assert not r.all_equal


def test_four_row_single_column_finding_regression():
    # at (4, 1, 1) the kernel itself grows mod 2: the rhs gains a dimension
    # over its characteristic-zero count and has more 2-blocks than the lhs
    r = scan_one(4, 1, 1, (2,))
    assert r.dim_lhs == r.dim_rhs_char0 == 5
    assert r.qchar_equal
    (two,) = r.primes
    assert two.p == 2 and two.dim_rhs == 6
    assert two.jordan_lhs == (2, 2, 1)
    assert two.jordan_rhs == (2, 2, 2)
    assert not two.jordan_equal
    assert not r.all_equal


def test_three_row_line_seventh_point_agrees():
    # the (3, 2, d) line past the workload grid: p = 2 agrees at odd d
    r = scan_one(3, 2, 7, (2, 3))
    assert r.dim_lhs == r.dim_rhs_char0 == 630
    assert r.qchar_equal and r.qchar_shift == 6
    two, three = r.primes
    assert two.dim_rhs == three.dim_rhs == 630
    assert two.jordan_lhs == two.jordan_rhs == (2,) * 310 + (1,) * 10
    assert three.jordan_lhs == three.jordan_rhs == (3,) * 210
    assert r.all_equal


def test_three_row_line_eighth_point_finding_regression():
    # and disagrees at even d, as at d = 2, 4, 6; p = 3 agrees
    r = scan_one(3, 2, 8, (2, 3))
    assert r.dim_lhs == r.dim_rhs_char0 == 990
    assert r.qchar_equal and r.qchar_shift == 6
    two, three = r.primes
    assert two.dim_rhs == three.dim_rhs == 990
    assert two.jordan_lhs == (2,) * 490 + (1,) * 10
    assert two.jordan_rhs == (2,) * 486 + (1,) * 18
    assert not two.jordan_equal
    assert three.jordan_lhs == three.jordan_rhs == (3,) * 330
    assert not r.all_equal


def test_three_row_rank_four_finding_regression():
    # a characteristic-two finding off the N = 2 line; p = 3 agrees
    r = scan_one(3, 4, 4, (2, 3))
    assert r.dim_lhs == r.dim_rhs_char0 == 70
    assert r.qchar_equal
    two, three = r.primes
    assert two.dim_rhs == three.dim_rhs == 70
    assert two.jordan_lhs == (2,) * 34 + (1,) * 2
    assert two.jordan_rhs == (2,) * 33 + (1,) * 4
    assert not two.jordan_equal
    assert three.jordan_lhs == three.jordan_rhs == (3,) * 23 + (1,)
    assert not r.all_equal


def test_four_row_first_odd_prime_finding_regression():
    # the first odd-prime finding: p = 3 disagrees while p = 2 agrees
    r = scan_one(4, 3, 3, (2, 3))
    assert r.dim_lhs == r.dim_rhs_char0 == 70
    assert r.qchar_equal
    two, three = r.primes
    assert two.dim_rhs == three.dim_rhs == 70
    assert two.jordan_lhs == two.jordan_rhs == (2,) * 34 + (1,) * 2
    assert three.jordan_lhs == (3,) * 23 + (1,)
    assert three.jordan_rhs == (3,) * 22 + (2, 1, 1)
    assert not three.jordan_equal
    assert not r.all_equal


def test_six_row_kernel_jumps_at_two_primes_regression():
    # the one known point whose rhs kernel is larger than in characteristic
    # zero at two primes, so the elimination over ZZ and over each GF(p)
    # is pinned where their kernels differ
    r = scan_one(6, 1, 2, (2, 3, 5))
    assert r.dim_lhs == r.dim_rhs_char0 == 28
    assert r.qchar_equal and r.qchar_shift == 25
    two, three, five = r.primes
    assert [f.dim_rhs for f in r.primes] == [36, 31, 28]
    assert len(hook_kernel_vectors(PrimeField(7), 6, 1, 2)) == 28
    assert two.jordan_lhs == (2,) * 12 + (1,) * 4
    assert two.jordan_rhs == (2,) * 16 + (1,) * 4
    assert three.jordan_lhs == (3,) * 9 + (1,)
    assert three.jordan_rhs == (3,) * 10 + (1,)
    assert five.jordan_lhs == five.jordan_rhs == (5,) * 5 + (3,)
    assert not r.all_equal


def test_three_row_larger_point_agrees():
    r = scan_one(3, 3, 5, (2, 3))
    assert r.all_equal
    assert r.dim_lhs == 336
    assert r.qchar_shift == 8


def test_scan_never_builds_a_tensor_action_whole(monkeypatch):
    # both sides' unipotents are tensor actions, applied one factor at a
    # time; building one whole, by position or as the label view, raises
    def refuse(self):
        raise AssertionError("a tensor action was built whole")

    monkeypatch.setattr(spaces.LinearMap, "_label_cols", refuse)
    monkeypatch.setattr(spaces.KroneckerMap, "_whole_columns", refuse)
    r = scan_one(3, 2, 4, (2, 3))
    two, three = r.primes
    assert two.jordan_lhs == (2,) * 51 + (1,) * 3
    assert two.jordan_rhs == (2,) * 49 + (1,) * 7
    assert three.jordan_lhs == three.jordan_rhs == (3,) * 35
    with pytest.raises(AssertionError, match="built whole"):
        spaces.group_action_map(PrimeField(2), ((1, 1), (0, 1)), hook_domain(3, 2, 4)).cols


def test_report_serialization():
    r = scan_one(2, 2, 3, (2,))
    payload = r.to_json()
    assert payload["all_equal"] is True
    assert payload["primes"][0]["p"] == 2
    rows = r.csv_rows()
    assert len(rows) == 1
    assert rows[0][:4] == [2, 2, 3, 2]
    assert "+" in rows[0][7]  # jordan types render as summands


def test_scan_dim_cap_skips():
    reports, skipped = scan((3,), (3,), (5,), (2,), dim_cap=100)
    assert reports == []
    assert len(skipped) == 1
    assert "exceeds cap" in skipped[0]["reason"]


def _point_memos() -> list:
    """The memos that release_point drops, less the poly route's record."""
    return [memo for memo in spaces._POINT_MEMOS if not isinstance(memo, dict)]


def test_serial_scan_keeps_only_the_last_points_caches():
    # after a grid, the memos of one point (bases, indexes, dims, insertion
    # tables, the integer kernel map) hold what scan_one fills them with at
    # the last point
    caches = _point_memos()
    release_point()
    scan_one(3, 2, 4, (2, 3))
    alone = [cached.cache_info().currsize for cached in caches]
    reports, _ = scan((1, 2, 3), (1, 2), (2, 3, 4), (2, 3), workers=1)
    assert (reports[-1].M, reports[-1].N, reports[-1].d) == (3, 2, 4)
    assert [cached.cache_info().currsize for cached in caches] == alone
    # an earlier point's space is built afresh
    misses = basis.cache_info().misses
    basis(lhs_space(2, 1, 2))
    assert basis.cache_info().misses > misses


def test_a_scan_job_after_another_point_holds_only_its_own():
    # what a pool worker runs: each job drops the point before it, so a
    # worker holds one point at a time, whatever it ran before
    caches = _point_memos()
    job = (3, 2, 4, (2, 3))
    release_point()
    scan_one(*job)
    alone = [cached.cache_info().currsize for cached in caches]
    assert all(alone[:4])  # the bases, indexes, dims and insertion tables
    for before in ((2, 1, 3, (2, 3)), (1, 3, 5, (2,)), job):
        conjecture._scan_job(before)
        conjecture._scan_job(job)
        assert [cached.cache_info().currsize for cached in caches] == alone


def test_scan_workers_match_serial():
    grid = ((1, 2), (2,), (2, 3), (2,))
    serial, _ = scan(*grid, workers=1)
    parallel, _ = scan(*grid, workers=2)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


def _recorded_pools(monkeypatch) -> list:
    """Put a serial stand-in for ProcessPoolExecutor in place and return
    the list it appends each pool's max_workers to: no process is started,
    whatever the count."""
    seen = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return seen


def _usable_cpus(monkeypatch, n: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_scan_starts_at_most_one_worker_per_grid_point(monkeypatch):
    seen = _recorded_pools(monkeypatch)
    _usable_cpus(monkeypatch, 8)
    grid = ((1,), (2,), (2, 3), (2,))
    reports, _ = scan(*grid, workers=64)
    assert seen == [2]
    serial, _ = scan(*grid, workers=1)
    assert seen == [2]
    assert [r.to_json() for r in reports] == [r.to_json() for r in serial]


def test_scan_starts_at_most_one_worker_per_usable_cpu(monkeypatch):
    # fork starts every worker of a pool up front, so --workers 64 on a
    # grid of 9 points starts no more processes than the CPUs it may use
    seen = _recorded_pools(monkeypatch)
    grid = ((1,), (1, 2, 3), (0, 1, 2), (2,))
    serial, _ = scan(*grid, workers=1)
    for cpus, started in ((3, [3]), (2, [2]), (1, [])):
        seen.clear()
        _usable_cpus(monkeypatch, cpus)
        reports, _ = scan(*grid, workers=64)
        assert seen == started
        assert [r.to_json() for r in reports] == [r.to_json() for r in serial]
    # where the affinity mask cannot be read, the CPU count is used
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, started in ((4, [4]), (None, [])):
        seen.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        scan(*grid, workers=64)
        assert seen == started


def test_importing_the_cli_does_not_import_the_pool():
    # only scan --workers > 1 uses the pool, so only it pays for the import
    src = Path(conjecture.__file__).resolve().parent.parent
    code = (
        "import sys; before = set(sys.modules); import plethy.cli; "
        "print('concurrent.futures' in set(sys.modules) - before)"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        check=True,
        text=True,
        timeout=60,
    )
    assert run.stdout.strip() == "False"


def test_scan_validates_primes():
    with pytest.raises(ValueError):
        scan((1,), (2,), (3,), (4,))


def test_kernel_qchar_homogeneous_mod_p():
    # elimination output must stay graded over a prime field too
    assert kernel_qchar(PrimeField(2), 2, 2, 4) == hook_schur_polynomial(2, 2, 4)
