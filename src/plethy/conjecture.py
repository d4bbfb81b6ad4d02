"""Falsification scanner for the generalized wedge-to-hook identity.

For a width parameter M the candidate left side is
Wedge(M-1, Sym(M+N-3)) (x) Wedge(M+N-1, Sym(M+d-1)); the right side is the
hook-shape kernel of

    Wedge(N, Sym(d)) (x) SymPower(M-1, Sym(d))
        -> Wedge(N+1, Sym(d)) (x) SymPower(M-2, Sym(d)),

the map moving each symmetric factor into the wedge in turn, so repeated
factors contribute integer multiplicities (which matters mod p).  M = 2 is
the proven case, reproducing the multiplication map verbatim; M = 1 reads
as the bare wedge power on both sides, the one-dimensional Wedge(0) factor
dropped.  This convention choice is recorded in every report because the
general statement does not pin one down.

The scanner never asserts: it compares graded dimensions over the
rationals (up to the determinant-twist power of q) and unipotent Jordan
types over small prime fields, and reports what it finds.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from functools import lru_cache

from .characters import _count_qpoly, hook_schur_polynomial, qchar
from .rings import QQ, ZZ, ConsistencyError, PrimeField, Ring
from .spaces import (
    LinearMap,
    ModuleElement,
    Space,
    Sym,
    SymPower,
    Tensor,
    Wedge,
    _POINT_MEMOS,
    _eliminate,
    _step,
    dim,
    group_action_map,
    identity_map,
    kernel_basis,
    release_point,
    wedge_normalize,
)

CONVENTION = (
    "hook(M,1^(N-1)) = ker(Wedge(N,Sym d) x SymPower(M-1,Sym d) -> "
    "Wedge(N+1,Sym d) x SymPower(M-2,Sym d)); M=1 -> Wedge(N,Sym d); "
    "left side drops its Wedge(0) factor at M=1"
)

# default of scan's dim_cap and of `plethy scan --dim-cap`
DIM_CAP = 5000


def lhs_space(M: int, N: int, d: int) -> Space:
    """The wedge tensor product side."""
    _check_mnd(M, N, d)
    if M == 1:
        return Wedge(N, Sym(d))
    return Tensor(
        Wedge(M - 1, Sym(M + N - 3)), Wedge(M + N - 1, Sym(M + d - 1))
    )


def hook_domain(M: int, N: int, d: int) -> Space:
    _check_mnd(M, N, d)
    if M == 1:
        return Wedge(N, Sym(d))
    return Tensor(Wedge(N, Sym(d)), SymPower(M - 1, Sym(d)))


def hook_kernel_map(ring: Ring, M: int, N: int, d: int) -> LinearMap:
    """The defining map of the hook kernel, M >= 2: the integer map of the
    point, built once and held until another point's is asked for, reduced
    into ring."""
    A = _integer_kernel_map(M, N, d)
    if ring == ZZ:
        return A
    # map_entries reduces each entry and drops the zeros, so a multiplicity
    # divisible by p vanishes here
    return A.map_entries(ring, ring.from_int)


@lru_cache(maxsize=1)
def _integer_kernel_map(M: int, N: int, d: int) -> LinearMap:
    _check_mnd(M, N, d)
    if M < 2:
        raise ValueError("the kernel map needs M >= 2")
    domain = hook_domain(M, N, d)
    codomain = Tensor(Wedge(N + 1, Sym(d)), SymPower(M - 2, Sym(d)))

    def fn(label):
        w, m = label
        out: dict = {}
        for x in sorted(set(m)):
            norm = wedge_normalize(w + (x,), d)
            if norm is None:
                continue
            lab, sgn = norm
            pos = m.index(x)
            key = (lab, m[:pos] + m[pos + 1 :])
            out[key] = out.get(key, 0) + m.count(x) * sgn
        return out

    return LinearMap.from_function(ZZ, domain, codomain, fn)


_POINT_MEMOS.append(_integer_kernel_map)


def hook_kernel_vectors(ring: Ring, M: int, N: int, d: int) -> list[ModuleElement]:
    """Basis of the hook kernel over a field, or over QQ made of primitive
    integer vectors when ring is ZZ; the whole wedge space at M=1."""
    if M == 1:
        space = hook_domain(M, N, d)
        return [
            ModuleElement.from_positions(space, ring, {r: ring.one})
            for r in range(dim(space))
        ]
    return kernel_basis(hook_kernel_map(ring, M, N, d))


def _check_mnd(M: int, N: int, d: int):
    if M < 1 or N < 1 or d < 0:
        raise ValueError(f"bad (M, N, d) = ({M}, {N}, {d})")


# ----------------------------------------------------------------- characters


def kernel_qchar(ring: Ring, M: int, N: int, d: int):
    """Graded dimension of the hook kernel over GF(p), or in characteristic
    zero, over QQ or ZZ, where it is read off the integer kernel vectors,
    each checked to map to zero over ZZ, so no Fraction is formed.

    Kernel vectors produced by the elimination are automatically
    Y-homogeneous because columns of different degree never share a pivot
    row; each one is checked."""
    if ring == QQ:
        ring = ZZ
    degrees = []
    for v in hook_kernel_vectors(ring, M, N, d):
        w = v.homogeneous_ydegree()
        if w is None:
            raise ConsistencyError("kernel vector is not homogeneous")
        degrees.append(w)
    return _count_qpoly(degrees)


def conjecture_qchar(M: int, N: int, d: int) -> dict:
    """Compare graded dimensions of the two sides over the rationals,
    aligned by lowest degree (the determinant twist shifts one side)."""
    lhs = qchar(lhs_space(M, N, d))
    rhs = kernel_qchar(QQ, M, N, d)
    tableaux_poly = hook_schur_polynomial(M, N, d)
    if lhs.is_zero() or rhs.is_zero():
        shift = 0
        equal = lhs == rhs
    else:
        low_l = next(n for n, c in enumerate(lhs.coeffs) if c)
        low_r = next(n for n, c in enumerate(rhs.coeffs) if c)
        shift = low_l - low_r
        equal = shift >= 0 and lhs == rhs.shift(shift)
    return {
        "qchar_equal": equal,
        "qchar_shift": shift,
        "dim_lhs": lhs(1),
        "dim_rhs_char0": rhs(1),
        "kernel_matches_tableaux": rhs == tableaux_poly,
    }


# ----------------------------------------------------------------- fingerprints


def jordan_type_from_ranks(ranks: list[int]) -> tuple[int, ...]:
    """Block sizes from ranks of successive nilpotent powers; ranks[0] is
    the dimension and the list ends at zero."""
    if ranks[-1] != 0:
        raise ValueError("rank sequence must end at zero")
    blocks_ge = [ranks[m - 1] - ranks[m] for m in range(1, len(ranks))]
    if any(a < b for a, b in zip(blocks_ge, blocks_ge[1:])):
        raise ConsistencyError(f"rank sequence {ranks} is not convex")
    parts: list[int] = []
    for m, ge in enumerate(blocks_ge, start=1):
        ge_next = blocks_ge[m] if m < len(blocks_ge) else 0
        parts.extend([m] * (ge - ge_next))
    parts.sort(reverse=True)
    return tuple(parts)


def jordan_fingerprint(p: int, space: Space, vectors=None) -> tuple[int, ...]:
    """Jordan type of the standard unipotent on a space over GF(p), or on
    the span of the given vectors (checked to be independent and invariant).

    On a whole Tensor the type comes from its factors' types by the tensor
    rule of the cyclic group of order p, _tensor_jordan_type; pass the
    full basis as vectors to compute it directly.  Otherwise U is built
    once, and S = U - 1 is formed whole only on a whole space that is not a
    tensor.  On given vectors, read by basis position, S is written on the
    reduced echelon basis of their span, a square matrix of the span's
    dimension: each S b = U b - b is applied through U, one factor at a
    time on a tensor, and its coordinates are its entries at the basis's
    leads.  The ranks of the powers of S then come from image bases,
    im S^(m+1) = S(im S^m), so only a basis of the current image goes
    through S again.
    """
    if vectors is None and type(space) is Tensor:
        return _tensor_jordan_type(
            p, jordan_fingerprint(p, space.left), jordan_fingerprint(p, space.right)
        )
    ring = PrimeField(p)
    U = group_action_map(
        ring, ((ring.one, ring.one), (ring.zero, ring.one)), space
    )
    if vectors is None:
        shift = (U - identity_map(ring, space)).pcols  # S, keyed by position
        return jordan_type_from_ranks(_power_ranks(p, shift))
    if any(v.space != space or v.ring != ring for v in vectors):
        raise ValueError("vectors do not match the space or field")
    coords = _span_coordinates(p, U, [v.pcoeffs for v in vectors])
    return jordan_type_from_ranks(_power_ranks(p, coords))


def _tensor_jordan_type(p: int, left: tuple, right: tuple) -> tuple[int, ...]:
    """The Jordan type of u (x) u from the types of u on two factors, for u
    of order p in characteristic p, so every block has size at most p.

    For blocks r <= s (Green 1962; Renaud 1979; Glasby, Praeger and Xia
    2015): if r + s <= p, J_r (x) J_s is the sum of J_(s-r+2i-1) for
    i = 1..r; otherwise it is (r+s-p) J_p plus J_(s-r+2i-1) for i = 1..p-s.
    """
    parts: Counter = Counter()
    for r, m in Counter(left).items():
        for s, n in Counter(right).items():
            lo, hi = sorted((r, s))
            if lo + hi <= p:
                top = lo + hi
            else:
                parts[p] += (lo + hi - p) * m * n
                top = 2 * p - lo - hi
            for size in range(hi - lo + 1, top, 2):
                parts[size] += m * n
    return tuple(sorted(parts.elements(), reverse=True))


# -------------------------------------------------------- packed GF(p) rows

_WORDS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _set_bits(x: int):
    """The indices of the set bits of x, low first."""
    bits = bin(x)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


class _Rows:
    """An echelon of GF(p) vectors of one length, packed into Python ints.

    Entry i of a vector occupies bits [w*i, w*(i+1)); the leading entry is
    the highest nonzero slot.  Over GF(2) a slot is one bit and a row
    operation is one XOR, as in M4RI.  Over odd p slots hold nonnegative
    residues that are reduced only when a pivot is stored (delayed
    reduction, as in FFLAS-FFPACK): subtracting c times a row adds (p - c)
    times it, so a slot grows by at most (p-1)^2 per row added, and a slot
    that is 0 mod p is cleared only once it leads.  A vector starts as a
    sum of at most `length` residue multiples of reduced rows and then
    takes at most one row per pivot, at most `length` more, so w is sized
    to hold (p-1) + (n+1)(p-1)^2 with n = 2 * length: no carry crosses a
    slot.  w is rounded up to a machine word so slots unpack in C; with
    p < 2**16 (the PrimeField range) 64 bits hold the bound for any length
    below 2**30.

    Pivots are keyed by the bit offset of their leading slot and stored
    reduced with leading entry one.  `cols` are the packed columns of the
    matrix that `image` applies.
    """

    def __init__(self, p: int, length: int, cols=()):
        self.p = p
        self.pivots: dict[int, int] = {}
        if p == 2:
            self.w = 1
        else:
            bound = (p - 1) + (2 * length + 1) * (p - 1) ** 2
            self.w = next(w for w in _WORDS if bound < 1 << w)
            self.fmt = _WORDS[self.w]
            self.nbytes = length * self.w // 8
        self.cols = [self.pack(col) for col in cols]

    def pack(self, entries: dict) -> int:
        """Residues keyed by slot index, as one int."""
        if self.p == 2:
            x = 0
            for i in entries:
                x |= 1 << i
            return x
        slots = memoryview(bytearray(self.nbytes)).cast(self.fmt)
        for i, v in entries.items():
            slots[i] = v
        return int.from_bytes(slots, sys.byteorder)

    def slots(self, x: int):
        """The slot values of x up to its leading slot, unreduced, as a
        writable view that int.from_bytes packs back."""
        size = -(-x.bit_length() // self.w) * (self.w // 8)
        return memoryview(bytearray(x.to_bytes(size, sys.byteorder))).cast(self.fmt)

    def image(self, x: int) -> int:
        """The matrix `cols` applied to a packed vector of residues."""
        cols = self.cols
        y = 0
        if self.p == 2:
            for i in _set_bits(x):
                y ^= cols[i]
            return y
        for c, col in zip(self.slots(x), cols):
            if c:
                y += c * col
        return y

    def reduce(self, x: int) -> int:
        """Eliminate x against the pivots, leading slot first, down to zero
        or to a leading slot with no pivot, whose residue is nonzero."""
        pivots = self.pivots
        top = x.bit_length()
        if self.p == 2:
            while top:
                row = pivots.get(top - 1)
                if row is None:
                    return x
                x ^= row
                top = x.bit_length()
            return x
        p, w = self.p, self.w
        while top:
            at = (top - 1) & -w
            s = x >> at
            r = s % p
            if r:
                row = pivots.get(at)
                if row is None:
                    return x
                x += (p - r) * row - ((s + p - r) << at)
            else:
                x -= s << at
            top = x.bit_length()
        return x

    def insert(self, x: int) -> None:
        """Store a nonzero remainder left by `reduce` as a pivot row,
        reduced with leading entry one, keyed by the bit offset of its
        lead."""
        at = (x.bit_length() - 1) & -self.w
        if self.p != 2:
            slots = self.slots(x)
            inv = pow(slots[-1], -1, self.p)
            if inv != 1 or max(slots) >= self.p:
                for i, v in enumerate(slots):
                    if v:
                        slots[i] = v * inv % self.p
                x = int.from_bytes(slots, sys.byteorder)
        self.pivots[at] = x


# ------------------------------------------------------ sparse span rows


def _reduced_rows(p: int, vectors) -> dict:
    """Sparse rows over GF(p) in reduced echelon form spanning the given
    vectors, keyed by lead, in the order the vectors gave them; a dependent
    vector is a ValueError.

    A row's lead is its highest position, where it is one and every other
    row is zero.  The forward pass is _eliminate's; then each row, lowest
    lead first, is cleared of the leads below its own.  Their rows are
    reduced by then, so no step brings a lead back.  Vectors in that form
    already, as the scan's kernel vectors are, stay as they are, at the
    cost of one lookup per entry in the back pass."""
    ring = PrimeField(p)
    pivots, dependent = _eliminate(vectors, ring, track=False)
    if dependent:
        raise ValueError("vectors are not linearly independent")
    rows = {lead: row for lead, (row, _) in pivots.items()}
    for lead in sorted(rows):
        row = rows[lead]
        for i in [i for i in row if i != lead and i in rows]:
            _step(row, 1, row[i], rows[i], ring)
    return rows


def _span_coordinates(p: int, U: LinearMap, vectors: list) -> list:
    """Columns of S = U - 1 on the span of the given vectors, in
    coordinates on its reduced echelon basis, _reduced_rows.

    The Jordan type of S on the span does not depend on the basis, so no
    change of basis back to the vectors is kept.  For each row b, S b =
    U b - b is summed by U's own method (one factor at a time on a tensor).
    A vector y of the span is the sum over leads i of y[i] times the row at
    i, so its coordinates are read off at the leads, and the residual
    y - sum y[i] row(i) is summed into y itself.  It is zero mod p at every
    lead by construction, so an entry that is not, at one of the other
    positions, witnesses a span that S does not preserve."""
    rows = _reduced_rows(p, vectors)
    index = {lead: j for j, lead in enumerate(rows)}
    coords = []
    for b in rows.values():
        items = b.items()
        y = U._add_image({i: -c for i, c in items}, items)
        at_leads = [(i, r) for i, c in y.items() if i in index and (r := c % p)]
        get = y.get
        for i, r in at_leads:
            for k, a in rows[i].items():
                y[k] = get(k, 0) - r * a
        if any(c % p for c in y.values()):
            raise ConsistencyError("span is not invariant under the unipotent")
        coords.append({index[i]: r for i, r in at_leads})
    return coords


def _power_ranks(p: int, cols: list) -> list[int]:
    """Ranks of the powers of a nilpotent square matrix given by sparse
    columns, ending at zero, from successive image bases."""
    rows = _Rows(p, len(cols), cols)
    ranks = [len(cols)]
    images = rows.cols
    while ranks[-1] > 0:
        rows.pivots = {}
        for x in images:
            x = rows.reduce(x)
            if x:
                rows.insert(x)
        ranks.append(len(rows.pivots))
        if len(ranks) > p + 1:
            raise ConsistencyError("nilpotency degree exceeded the characteristic")
        images = [rows.image(b) for b in rows.pivots.values()]
    return ranks


# ----------------------------------------------------------------------- scan


class PrimeFingerprint:
    def __init__(self, p: int, dim_rhs: int, jordan_lhs: tuple, jordan_rhs: tuple):
        self.p = p
        self.dim_rhs = dim_rhs
        self.jordan_lhs = jordan_lhs
        self.jordan_rhs = jordan_rhs

    @property
    def jordan_equal(self) -> bool:
        return self.jordan_lhs == self.jordan_rhs

    def to_json(self) -> dict:
        """The fields in order, as __init__ set them, then jordan_equal."""
        return dict(vars(self), jordan_equal=self.jordan_equal)


class ConjectureReport:
    def __init__(
        self, M: int, N: int, d: int, dim_lhs: int, dim_rhs_char0: int, qchar_equal: bool,
        qchar_shift: int, kernel_matches_tableaux: bool, primes: list | None = None,
    ):
        self.M = M
        self.N = N
        self.d = d
        self.dim_lhs = dim_lhs
        self.dim_rhs_char0 = dim_rhs_char0
        self.qchar_equal = qchar_equal
        self.qchar_shift = qchar_shift
        self.kernel_matches_tableaux = kernel_matches_tableaux
        self.primes = [] if primes is None else primes

    @property
    def all_equal(self) -> bool:
        return (
            self.qchar_equal
            and self.dim_lhs == self.dim_rhs_char0
            and all(f.jordan_equal for f in self.primes)
        )

    def to_json(self) -> dict:
        """The fields in order, as __init__ set them, then all_equal and
        the convention."""
        return dict(
            vars(self),
            primes=[f.to_json() for f in self.primes],
            all_equal=self.all_equal,
            convention=CONVENTION,
        )

    def csv_rows(self) -> list[list]:
        """One row per prime: the CSV_HEADER keys of the report's JSON
        merged with the prime's, each Jordan type written as 3+2+1, or 0
        when it is empty."""
        report = self.to_json()
        rows = []
        for prime in report["primes"]:
            row = report | prime
            for key in ("jordan_lhs", "jordan_rhs"):
                row[key] = "+".join(map(str, row[key])) or "0"
            rows.append([row[key] for key in CSV_HEADER])
        return rows


CSV_HEADER = [
    "M",
    "N",
    "d",
    "p",
    "dim_lhs",
    "dim_rhs",
    "qchar_equal",
    "jordan_lhs",
    "jordan_rhs",
    "jordan_equal",
    "convention",
]


def scan_one(M: int, N: int, d: int, primes: tuple[int, ...]) -> ConjectureReport:
    """Full comparison at one grid point."""
    report = ConjectureReport(M=M, N=N, d=d, **conjecture_qchar(M, N, d))
    left = lhs_space(M, N, d)
    for p in primes:
        ring = PrimeField(p)
        vectors = hook_kernel_vectors(ring, M, N, d)
        report.primes.append(
            PrimeFingerprint(
                p=p,
                dim_rhs=len(vectors),
                jordan_lhs=jordan_fingerprint(p, left),
                jordan_rhs=jordan_fingerprint(p, hook_domain(M, N, d), vectors),
            )
        )
    return report


def _scan_job(args):
    """scan_one at one grid point, with the last point's memos dropped
    first, in a pool worker as in a serial scan."""
    release_point()
    return scan_one(*args)


def scan(
    Ms,
    Ns,
    ds,
    primes,
    dim_cap: int = DIM_CAP,
    workers: int = 1,
):
    """Sweep the grid in deterministic order.

    Returns (reports, skipped); a grid point is skipped with a notice when
    either side's ambient dimension exceeds dim_cap.  Grid points are
    independent, so workers > 1 fans them out to at most one process per
    grid point and per CPU this process may run on: a fork pool starts
    all its processes up front.
    """
    jobs = []
    skipped = []
    primes = tuple(sorted(set(primes)))
    for p in primes:
        PrimeField(p)  # validate early
    for M in sorted(set(Ms)):
        for N in sorted(set(Ns)):
            for d in sorted(set(ds)):
                _check_mnd(M, N, d)
                sizes = (dim(lhs_space(M, N, d)), dim(hook_domain(M, N, d)))
                if max(sizes) > dim_cap:
                    reason = f"dimension {max(sizes)} exceeds cap {dim_cap}"
                    skipped.append({"M": M, "N": N, "d": d, "reason": reason})
                    continue
                jobs.append((M, N, d, primes))
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(workers, len(jobs), cpus)
    if workers < 2:
        return [_scan_job(job) for job in jobs], skipped
    # imported here: only a parallel scan needs the pool, and the import
    # costs every command several milliseconds
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_scan_job, jobs)), skipped
