"""Differential tests: kernel coordinates from the coordinate map K, with
the check B K v = v, against the original chain walk, kept here as a
reference oracle only."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethy import (
    QQ,
    ZZ,
    ModuleElement,
    PrimeField,
    basis,
    content,
    content_chain,
    hook_schur_space,
    iso_context,
)

GRID = [(N, d) for d in range(8) for N in range(1, d + 3)]
RINGS = st.sampled_from((ZZ, QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)))


def oracle_coordinates(hook, v):
    """The original algorithm: sort every entry's content, rebuild each
    class's chain, and walk it with Ring calls."""
    if v.space != hook.ambient:
        raise ValueError("element does not live in the ambient space")
    ring = v.ring
    classes: dict = {}
    for (i, j), val in v.coeffs.items():
        classes.setdefault(content(i, j), {})[(i, j)] = val
    coords: dict = {}
    for cont, members in sorted(classes.items()):
        if len(set(cont)) != len(cont):
            # one repeated value: the class holds a single fixed pair
            distinct = tuple(sorted(set(cont)))
            rep = next(x for x in set(cont) if cont.count(x) == 2)
            pair = (distinct, rep)
            if set(members) != {pair}:
                return hook._coordinates_fallback(v)
            coords[pair] = members[pair]
            continue
        chain = content_chain(cont)
        terminal = (cont[1:], cont[0])
        if not set(members) <= set(chain) | {terminal}:
            return hook._coordinates_fallback(v)
        running = ring.zero
        for pair in chain:
            running = ring.sub(members.get(pair, ring.zero), running)
            if not ring.is_zero(running):
                coords[pair] = running
        if not ring.eq(members.get(terminal, ring.zero), running):
            return hook._coordinates_fallback(v)
    return ModuleElement(hook.coords, ring, coords)


def outcome(fn, *args):
    """The coordinates, or the exception type, of a coordinates call."""
    try:
        result = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)
    return result.space, result.ring, result.coeffs


@st.composite
def elements(draw):
    """A hook space, a ring, and an integer combination of kernel basis
    vectors, perturbed on a few ambient labels so that it usually leaves
    the kernel."""
    d = draw(st.integers(0, 5))
    N = draw(st.integers(1, d + 1))  # N = d + 2 has an empty kernel basis
    hook = hook_schur_space(N, d)
    ring = draw(RINGS)
    acc: dict = {}
    for pair in draw(st.lists(st.sampled_from(hook.pairs), min_size=1, max_size=6)):
        c = draw(st.integers(-5, 5))
        for label in hook.kernel_support(pair):
            acc[label] = acc.get(label, 0) + c
    if draw(st.booleans()):
        labels = basis(hook.ambient)
        for label in draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3)):
            acc[label] = acc.get(label, 0) + draw(st.integers(-3, 3).filter(bool))
    v = ModuleElement(hook.ambient, ring, {l: ring.from_int(c) for l, c in acc.items()})
    return hook, v


@settings(max_examples=200, deadline=None)
@given(elements())
def test_coordinates_match_oracle(case):
    hook, v = case
    assert outcome(hook.coordinates, v) == outcome(oracle_coordinates, hook, v)


def test_terminal_mismatch_is_caught_over_every_ring():
    hook = hook_schur_space(2, 4)
    # the chain of content (1, 2, 4) with its terminal label dropped
    pair = ((1, 2), 4)
    for ring in (ZZ, QQ, PrimeField(2), PrimeField(7)):
        v = ModuleElement(hook.ambient, ring, {pair: ring.one})
        assert outcome(hook.coordinates, v) == ValueError
        assert outcome(oracle_coordinates, hook, v) == ValueError
        # a label outside the ambient basis (9 > d) is refused where the
        # element is built
        with pytest.raises(ValueError, match="not in the basis"):
            ModuleElement(hook.ambient, ring, {((0, 1), 9): ring.one})


@pytest.mark.parametrize("N, d", GRID)
def test_coord_matrix_matches_oracle(N, d):
    ctx = iso_context(N, d)
    hook = ctx.hook
    for col, got in zip(ctx.matrix.cols, ctx.coord_matrix.cols):
        expected = oracle_coordinates(hook, ModuleElement(hook.ambient, ZZ, col))
        assert got == expected.coeffs
