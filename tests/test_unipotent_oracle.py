"""Differential tests: the generator-based unipotent routes against the
original ones, kept here as reference oracles only.

The oracle polynomial route builds both unipotent actions over Z[gamma]
and compares them gamma-coefficient by gamma-coefficient.  The oracle
prime-field route composes one action pair for every gamma in 0..p-1, for
both transposes.  Both are compared with the routes in plethy.iso on the
true map and on maps broken at random.
"""

import copy
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plethy.iso as iso
from plethy import (
    ZGAMMA,
    ZZ,
    LinearMap,
    PrimeField,
    basis,
    gamma_coefficients,
    group_action_map,
    iso_context,
    verify_group_equivariance_fp,
    verify_group_equivariance_poly,
)

PRIMES = (2, 3, 5, 7)
GRID = [(N, d) for d in range(6) for N in range(1, 4)]


# ------------------------------------------------------------------ oracles


def oracle_poly(ctx) -> dict:
    ring = ZGAMMA
    phi = ctx.matrix
    gamma = ring.gen()
    zero = LinearMap(ctx.domain, ctx.hook.ambient, ZZ, [{} for _ in phi.cols])
    out = {}
    for transpose, name in ((False, "upper"), (True, "lower")):
        g = iso._unipotent(ring, gamma, transpose)
        dom = gamma_coefficients(group_action_map(ring, g, ctx.domain))
        amb = gamma_coefficients(group_action_map(ring, g, ctx.hook.ambient))
        out[f"commutes_with_{name}_unipotent"] = all(
            (phi.compose(dom[k]) if k in dom else zero)
            == (amb[k].compose(phi) if k in amb else zero)
            for k in sorted(dom.keys() | amb.keys())
        )
    return out


def oracle_fp(ctx, p: int) -> dict:
    ring = PrimeField(p)
    phi = ctx.matrix_over(ring)
    ok = True
    for gamma in range(p):
        for transpose in (False, True):
            g = iso._unipotent(ring, ring.from_int(gamma), transpose)
            dom = group_action_map(ring, g, ctx.domain)
            amb = group_action_map(ring, g, ctx.hook.ambient)
            if phi.compose(dom) != amb.compose(phi):
                ok = False
    return {
        "commutes_with_all_unipotents": ok,
        "determinant_unit_mod_p": prod(ctx.diagonal) % p == 1 % p,
    }


# ------------------------------------------------------------------ breaks


def _broken(ctx, kind: str, j: int, r: int, delta: int):
    """A copy of ctx whose map is broken in column j; r picks an entry of
    that column or an ambient label, delta is the added integer."""
    cols = [dict(col) for col in ctx.matrix.cols]
    col = cols[j]
    labels = list(col)
    label = labels[r % len(labels)]
    ydeg = ctx.hook.ambient.ydegree
    amb = basis(ctx.hook.ambient)
    if kind == "shift":
        col[label] += delta
    elif kind == "drop":
        del col[label]
    elif kind == "add_same_degree":
        same = [l for l in amb if ydeg(l) == ydeg(label)]
        target = same[r % len(same)]
        col[target] = col.get(target, 0) + delta
    else:  # move an entry to a label of another Y-degree
        other = [l for l in amb if ydeg(l) != ydeg(label)]
        target = other[r % len(other)]
        col[target] = col.get(target, 0) + col.pop(label)
    broken = copy.copy(ctx)
    broken.matrix = LinearMap(ctx.domain, ctx.hook.ambient, ZZ, cols)
    return broken


def _reports(ctx, p):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(iso, "iso_context", lambda N, d: ctx)
        return (
            verify_group_equivariance_poly(ctx.N, ctx.d),
            verify_group_equivariance_fp(ctx.N, ctx.d, p),
        )


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("N, d", GRID)
def test_true_map_matches_oracle(N, d):
    ctx = iso_context(N, d)
    assert verify_group_equivariance_poly(N, d) == oracle_poly(ctx)
    for p in PRIMES:
        assert verify_group_equivariance_fp(N, d, p) == oracle_fp(ctx, p), p


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 3),
    d=st.integers(1, 4),
    p=st.sampled_from(PRIMES),
    kind=st.sampled_from(("shift", "drop", "add_same_degree", "move_degree")),
    j=st.integers(0, 10**6),
    r=st.integers(0, 10**6),
    delta=st.sampled_from((1, -1, 2, 3, 5, 7, 10)),
)
def test_broken_maps_match_oracle(N, d, p, kind, j, r, delta):
    ctx = iso_context(N, d)
    nonzero = [m for m, col in enumerate(ctx.matrix.cols) if col]
    if not nonzero:
        return
    broken = _broken(ctx, kind, nonzero[j % len(nonzero)], r, delta)
    assert _reports(broken, p) == (oracle_poly(broken), oracle_fp(broken, p))


@pytest.mark.parametrize("p", PRIMES)
def test_a_map_that_mixes_y_degrees_fails_both_routes(p):
    # one entry of phi moved to a label of another Y-degree: phi is no
    # longer Y-homogeneous, and both the oracle and the route see it
    ctx = iso_context(2, 3)
    broken = _broken(ctx, "move_degree", 3, 0, 0)
    poly, fp = _reports(broken, p)
    assert poly == oracle_poly(broken) == {
        "commutes_with_upper_unipotent": False,
        "commutes_with_lower_unipotent": False,
    }
    assert fp == oracle_fp(broken, p)
    assert fp["commutes_with_all_unipotents"] is False
