"""Spaces, actions, and exact sparse elimination."""

import importlib
import json
import pkgutil
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plethy
import plethy.characters as characters
import plethy.conjecture as conjecture
import plethy.iso as iso
import plethy.spaces as spaces
from plethy import (
    QQ,
    ZGAMMA,
    ZZ,
    KroneckerMap,
    LinearMap,
    ModuleElement,
    PairCoords,
    PrimeField,
    Sym,
    SymPower,
    Tensor,
    Wedge,
    basis,
    basis_index,
    dim,
    group_action_map,
    identity_map,
    kernel_basis,
    lie_action_map,
    multiplication_map,
    rank,
    rank_of_vectors,
    release_point,
    wedge_normalize,
)
from plethy.spaces import space_from_json

# ---------------------------------------------------------------- dimensions


def test_dimensions():
    assert dim(Sym(4)) == 5
    assert dim(Wedge(2, Sym(4))) == 10
    assert dim(Wedge(5, Sym(3))) == 0
    assert dim(SymPower(2, Sym(2))) == 6
    assert dim(Tensor(Sym(2), Wedge(3, Sym(5)))) == 3 * 20
    assert dim(PairCoords(2, 4)) == 40


def test_basis_sizes_match_dims():
    for space in (
        Sym(0),
        Sym(3),
        Wedge(2, Sym(3)),
        Wedge(3, Sym(2)),
        SymPower(3, Sym(2)),
        Tensor(Wedge(2, Sym(2)), Sym(2)),
        PairCoords(3, 4),
    ):
        assert len(basis(space)) == dim(space)
        assert len(set(basis(space))) == dim(space)


def test_degree_bookkeeping():
    assert Sym(5).ydegree(3) == 3
    assert Wedge(2, Sym(4)).ydegree((1, 3)) == 4
    assert Tensor(Sym(2), Sym(3)).ydegree((1, 2)) == 3
    assert SymPower(2, Sym(3)).ydegree((1, 2)) == 3
    assert Sym(5).total_degree() == 5
    assert Wedge(2, Sym(4)).total_degree() == 8
    assert Tensor(Sym(2), Wedge(3, Sym(5))).total_degree() == 17
    # pair coordinates carry the kernel's degree
    assert PairCoords(2, 4).total_degree() == 12
    assert PairCoords(2, 4).ydegree(((0, 3), 4)) == 7


def test_sym_atoms():
    assert Sym(3).sym_atoms() == {Sym(3)}
    assert Tensor(Sym(2), Wedge(3, Sym(5))).sym_atoms() == {Sym(2), Sym(5)}
    assert Tensor(Wedge(2, Sym(4)), SymPower(2, Sym(4))).sym_atoms() == {Sym(4)}
    assert PairCoords(2, 4).sym_atoms() == frozenset()


def test_wedge_and_sympower_require_sym_inner():
    with pytest.raises((TypeError, ValueError)):
        Wedge(2, Wedge(2, Sym(2)))
    with pytest.raises((TypeError, ValueError)):
        SymPower(2, Tensor(Sym(1), Sym(1)))


def test_label_str_round_feel():
    assert Sym(4).label_str(2) == "2"
    assert Wedge(2, Sym(4)).label_str((0, 3)) == "(0,3)"
    assert SymPower(3, Sym(4)).label_str((1, 1, 4)) == "(1,1,4)"
    assert Tensor(Sym(2), Wedge(2, Sym(4))).label_str((1, (0, 3))) == "1|(0,3)"
    assert PairCoords(2, 4).label_str(((0, 3), 4)) == "(0,3)|4"


_contract_atoms = st.one_of(
    st.integers(0, 4).map(Sym),
    st.builds(Wedge, st.integers(0, 3), st.integers(0, 4).map(Sym)),
    st.builds(SymPower, st.integers(0, 3), st.integers(0, 3).map(Sym)),
    st.builds(PairCoords, st.integers(1, 3), st.integers(0, 3)),
)
_contract_spaces = st.recursive(
    _contract_atoms, lambda inner: st.builds(Tensor, inner, inner), max_leaves=3
).filter(lambda s: dim(s) <= 200)


@settings(max_examples=80, deadline=None)
@given(_contract_spaces)
def test_space_type_contract(space):
    # every kind serializes itself and its labels, and its basis and
    # degrees agree with one another
    assert space_from_json(json.loads(json.dumps(space.to_json()))) == space
    labels = basis(space)
    assert len(labels) == dim(space)
    top = space.total_degree()
    for label in labels:
        data = json.loads(json.dumps(space.label_to_json(label)))
        assert space.label_from_json(data) == label
        assert 0 <= space.ydegree(label) <= top


@pytest.mark.parametrize(
    "space, form",
    [
        (Sym(2), {"kind": "sym", "c": 2}),
        (
            Wedge(2, Sym(4)),
            {"kind": "wedge", "r": 2, "inner": {"kind": "sym", "c": 4}},
        ),
        (
            SymPower(3, Sym(4)),
            {"kind": "sympower", "r": 3, "inner": {"kind": "sym", "c": 4}},
        ),
        (
            Tensor(Sym(1), SymPower(2, Sym(3))),
            {
                "kind": "tensor",
                "left": {"kind": "sym", "c": 1},
                "right": {"kind": "sympower", "r": 2, "inner": {"kind": "sym", "c": 3}},
            },
        ),
        (PairCoords(2, 4), {"kind": "paircoords", "N": 2, "d": 4}),
    ],
    ids=str,
)
def test_space_json_forms_are_pinned(space, form):
    # a round trip alone would pass after a key is renamed; the key order is
    # part of the byte-reproducible dumps
    assert space.to_json() == form
    assert json.dumps(space.to_json()) == json.dumps(form)


@pytest.mark.parametrize(
    "space, label, form",
    [
        (Sym(4), 2, 2),
        (Wedge(2, Sym(4)), (0, 3), [0, 3]),
        (SymPower(3, Sym(4)), (1, 1, 4), [1, 1, 4]),
        (Tensor(Sym(2), Wedge(2, Sym(4))), (1, (0, 3)), [1, [0, 3]]),
        (PairCoords(2, 4), ((0, 3), 4), [[0, 3], 4]),
    ],
    ids=str,
)
def test_label_json_forms_are_pinned(space, label, form):
    assert space.label_to_json(label) == form
    assert space.label_from_json(form) == label


def test_space_from_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        space_from_json({"kind": "schur", "c": 2})


@pytest.mark.parametrize("data", [{"kind": [1]}, {"kind": {}}, {"c": 2}, ["sym"], None])
def test_space_from_json_rejects_a_kind_that_is_not_a_name(data):
    # an unhashable kind is not looked up in the kind table
    with pytest.raises(ValueError):
        space_from_json(data)


def test_wedge_and_sympower_stay_distinct():
    # the two power kinds share fields and code but not equality, reprs or
    # cached bases
    wedge, sympower = Wedge(2, Sym(2)), SymPower(2, Sym(2))
    assert wedge != sympower
    assert repr(wedge) == "Wedge(r=2, inner=Sym(c=2))"
    assert repr(sympower) == "SymPower(r=2, inner=Sym(c=2))"
    assert basis(wedge) == ((0, 1), (0, 2), (1, 2))
    assert len(basis(sympower)) == dim(sympower) == 6
    assert basis_index(wedge) != basis_index(sympower)
    assert wedge.to_json()["kind"] == "wedge"
    assert sympower.to_json()["kind"] == "sympower"


def _build_space(recipe):
    """A new space object from a nested recipe, sharing no part with any
    other build."""
    kind = recipe[0]
    if kind == "sym":
        return Sym(recipe[1])
    if kind == "pair":
        return PairCoords(recipe[1], recipe[2])
    if kind == "tensor":
        return Tensor(_build_space(recipe[1]), _build_space(recipe[2]))
    return (Wedge if kind == "wedge" else SymPower)(recipe[1], Sym(recipe[2]))


SPACE_RECIPES = st.recursive(
    st.one_of(
        st.tuples(st.just("sym"), st.integers(0, 4)),
        st.tuples(st.sampled_from(("wedge", "sympower")), st.integers(0, 2), st.integers(0, 3)),
        st.tuples(st.just("pair"), st.integers(1, 2), st.integers(0, 2)),
    ),
    lambda inner: st.tuples(st.just("tensor"), inner, inner),
    max_leaves=3,
)


@settings(max_examples=100, deadline=None)
@given(SPACE_RECIPES)
def test_equal_spaces_built_apart_hash_equal_and_share_one_basis_index(recipe):
    # a space keeps its hash once taken; it is the hash of its field
    # tuple, so equal spaces built apart still meet in every cache
    a, b = _build_space(recipe), _build_space(recipe)
    assert a == b and a is not b
    field_hash = hash(tuple(getattr(a, name) for name in a._fields))
    assert hash(a) == hash(a) == hash(b) == field_hash
    assert basis_index(a) is basis_index(b)
    assert basis_index(a) == {label: n for n, label in enumerate(basis(b))}


# Every kind: its field values in order, its repr, and its declared fields,
# which space_from_json reads to tell an int field from a space field.
KINDS = [
    (Sym, (2,), "Sym(c=2)", {"c": "int"}),
    (Wedge, (2, Sym(3)), "Wedge(r=2, inner=Sym(c=3))", {"r": "int", "inner": "Sym"}),
    (SymPower, (2, Sym(3)), "SymPower(r=2, inner=Sym(c=3))", {"r": "int", "inner": "Sym"}),
    (
        Tensor,
        (Sym(1), Wedge(1, Sym(2))),
        "Tensor(left=Sym(c=1), right=Wedge(r=1, inner=Sym(c=2)))",
        {"left": "Space", "right": "Space"},
    ),
    (PairCoords, (2, 3), "PairCoords(N=2, d=3)", {"N": "int", "d": "int"}),
]
KIND_CASES = pytest.mark.parametrize(
    "kind, values, text, fields", KINDS, ids=[case[0].__name__ for case in KINDS]
)


@KIND_CASES
def test_a_space_is_built_by_position_or_keyword(kind, values, text, fields):
    assert kind._fields == fields
    names = list(fields)
    by_keyword = dict(zip(names, values))
    for space in (kind(*values), kind(**by_keyword), kind(**dict(reversed(by_keyword.items())))):
        assert type(space) is kind
        assert tuple(getattr(space, name) for name in names) == values
    for bad in (
        lambda: kind(*values[:-1]),
        lambda: kind(*values, values[-1]),
        lambda: kind(*values, other=1),
        lambda: kind(*values, **{names[0]: values[0]}),
    ):
        with pytest.raises(TypeError):
            bad()


@KIND_CASES
def test_a_space_repr_names_its_kind_and_fields(kind, values, text, fields):
    space = kind(*values)
    assert repr(space) == text
    assert eval(text, vars(plethy)) == space


@KIND_CASES
def test_spaces_are_equal_only_within_a_kind(kind, values, text, fields):
    space = kind(*values)
    assert space == kind(*values) and not space != kind(*values)
    for other_kind, other_values, _, _ in KINDS:
        if other_kind is not kind:
            other = other_kind(*other_values)
            assert space != other and not space == other
            assert space.__eq__(other) is NotImplemented
    # the two power kinds share their fields, but not equality
    if kind in (Wedge, SymPower):
        twin = (SymPower if kind is Wedge else Wedge)(*values)
        assert space != twin and hash(space) == hash(twin)
    # one field changed
    changed = (values[0] + 1,) + values[1:] if type(values[0]) is int else values[::-1]
    assert space != kind(*changed)


@KIND_CASES
def test_a_space_hash_is_the_hash_of_its_field_tuple(kind, values, text, fields):
    space = kind(*values)
    assert hash(space) == hash(values) == hash(kind(*values))
    assert hash(space) == hash(space)
    assert len({space, kind(*values)}) == 1


@KIND_CASES
def test_a_space_refuses_assignment_and_deletion(kind, values, text, fields):
    space = kind(*values)
    hash(space)
    for name in (*fields, "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(space, name, 0)
        with pytest.raises(AttributeError):
            delattr(space, name)
    assert tuple(getattr(space, name) for name in fields) == values
    assert hash(space) == hash(values)


@KIND_CASES
def test_space_from_json_reads_the_declared_field_types(kind, values, text, fields):
    form = kind(*values).to_json()
    assert list(form) == ["kind", *fields]
    assert space_from_json(form) == kind(*values)
    for name, declared in fields.items():
        # an int field takes only a JSON integer; any other field a space
        wrong = [2.0, True, "2", Sym(1).to_json()] if declared == "int" else [1, None, [1]]
        for value in wrong:
            with pytest.raises(ValueError):
                space_from_json({**form, name: value})
    last = list(fields)[-1]
    with pytest.raises(ValueError):
        space_from_json({k: v for k, v in form.items() if k != last})


@pytest.mark.parametrize(
    "space",
    [
        PairCoords(2, 3),
        Tensor(PairCoords(1, 1), Sym(1)),
        # zero-dimensional: the refusal must not wait for a basis label
        PairCoords(3, 0),
        Tensor(Sym(1), PairCoords(3, 0)),
    ],
    ids=str,
)
def test_pair_coords_refuse_the_actions(space):
    with pytest.raises(TypeError, match="group action is undefined on PairCoords"):
        group_action_map(ZZ, ((1, 0), (0, 1)), space)
    for which in ("e", "f"):
        with pytest.raises(TypeError, match="Lie action is undefined on PairCoords"):
            lie_action_map(which, space)


# ------------------------------------------------------------ wedge normalize


def parity_oracle(seq):
    """Sign of the sorting permutation, by brute inversion count."""
    inv = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return -1 if inv % 2 else 1


def test_wedge_normalize_goldens():
    assert wedge_normalize((1, 2, 0), 4) == ((0, 1, 2), 1)  # two inversions
    assert wedge_normalize((2, 0), 4) == ((0, 2), -1)
    assert wedge_normalize((0, 1, 2), 4) == ((0, 1, 2), 1)
    assert wedge_normalize((1, 1), 4) is None
    assert wedge_normalize((), 4) == ((), 1)


def test_wedge_normalize_range_check():
    with pytest.raises(ValueError):
        wedge_normalize((0, 5), 4)
    with pytest.raises(ValueError):
        wedge_normalize((-1, 2), 4)


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6))
def test_wedge_normalize_matches_parity_oracle(seq):
    result = wedge_normalize(tuple(seq), 9)
    if len(set(seq)) != len(seq):
        assert result is None
    else:
        labels, sign = result
        assert labels == tuple(sorted(seq))
        assert sign == parity_oracle(seq)


# ---------------------------------------------------------------- group action


def test_unipotent_on_sym2_golden():
    # with X fixed and Y -> X + Y, the square (Y^2) expands binomially
    g = ((QQ.one, QQ.one), (QQ.zero, QQ.one))
    image = group_action_map(QQ, g, Sym(2)).column(2)
    assert image.coeffs == {0: Fraction(1), 1: Fraction(2), 2: Fraction(1)}


def test_transposed_unipotent_moves_x():
    g = ((QQ.one, QQ.zero), (QQ.one, QQ.one))
    image = group_action_map(QQ, g, Sym(2)).column(0)  # the image of X^2
    assert image.coeffs == {0: Fraction(1), 1: Fraction(2), 2: Fraction(1)}


def test_identity_acts_trivially():
    for space in (Sym(3), Wedge(2, Sym(3)), Tensor(Sym(1), Wedge(2, Sym(2)))):
        g = ((ZZ.one, ZZ.zero), (ZZ.zero, ZZ.one))
        assert group_action_map(ZZ, g, space) == identity_map(ZZ, space)


def test_action_is_multiplicative_mod_p():
    ring = PrimeField(5)
    space = Tensor(Sym(2), Wedge(2, Sym(3)))
    rng = random.Random(7)

    def rand_invertible():
        while True:
            g = tuple(
                tuple(ring.from_int(rng.randrange(5)) for _ in range(2))
                for _ in range(2)
            )
            if (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % 5:
                return g

    for _ in range(4):
        g, h = rand_invertible(), rand_invertible()
        gh = tuple(
            tuple(
                sum(g[i][k] * h[k][j] for k in range(2)) % 5 for j in range(2)
            )
            for i in range(2)
        )
        lhs = group_action_map(ring, gh, space)
        rhs = group_action_map(ring, g, space).compose(
            group_action_map(ring, h, space)
        )
        assert lhs == rhs


@pytest.mark.parametrize("ring", [ZZ, PrimeField(2), PrimeField(3), PrimeField(7)])
def test_kronecker_position_items_are_the_built_columns(ring):
    # the entries a b formed by position from the factors equal the
    # Kronecker product of the factors' label views, reduced, mapped to
    # positions, column for column
    g = tuple(tuple(map(ring.from_int, row)) for row in ((2, 5), (3, 4)))
    maps = [
        group_action_map(ring, g, space)
        for space in (
            Tensor(Sym(3), Wedge(2, Sym(4))),
            Tensor(SymPower(2, Sym(3)), Sym(2)),
            Tensor(Tensor(Sym(1), Wedge(2, Sym(3))), SymPower(2, Sym(2))),
            Tensor(Sym(2), Tensor(Sym(1), Sym(3))),
        )
    ]
    maps.append(
        KroneckerMap(multiplication_map(ring, 2, 3), group_action_map(ring, g, Sym(2)))
    )
    for A in maps:
        assert isinstance(A, KroneckerMap)
        idx = basis_index(A.codomain)
        built = [
            {
                idx[(ll, rl)]: r
                for ll, lv in lcol.items()
                for rl, rv in rcol.items()
                if (r := ring.reduce(lv * rv))
            }
            for lcol in A.left.cols
            for rcol in A.right.cols
        ]
        assert A.pcols == built
        assert A.cols == [{basis(A.codomain)[r]: v for r, v in col.items()} for col in built]


LABEL_VIEW_RINGS = (ZZ, PrimeField(2), PrimeField(3), ZGAMMA)
LABEL_VIEW_SPACES = (
    Sym(0),
    Sym(3),
    Wedge(2, Sym(3)),
    Wedge(3, Sym(4)),
    SymPower(2, Sym(2)),
    Tensor(Sym(1), Wedge(2, Sym(2))),
    Tensor(SymPower(2, Sym(1)), Tensor(Sym(1), Sym(0))),
)


@st.composite
def label_view_maps(draw):
    """A map over one of LABEL_VIEW_RINGS between LABEL_VIEW_SPACES, made by
    the constructor, from_function, compose or group_action_map."""
    ring = draw(st.sampled_from(LABEL_VIEW_RINGS))
    spaces = st.sampled_from(LABEL_VIEW_SPACES)

    def random_map(domain, codomain):
        rows = st.sampled_from(basis(codomain))
        entries = st.dictionaries(rows, st.integers(-3, 3).map(ring.from_int), max_size=3)
        return LinearMap(domain, codomain, ring, [draw(entries) for _ in basis(domain)])

    source = draw(st.sampled_from(("constructor", "from_function", "compose", "action")))
    X, Y = draw(spaces), draw(spaces)
    if source == "constructor":
        return random_map(X, Y)
    if source == "from_function":
        A = random_map(X, Y)
        return LinearMap.from_function(ring, X, Y, A.column)
    if source == "compose":
        mid = draw(spaces)
        return random_map(mid, Y).compose(random_map(X, mid))
    g = tuple(
        tuple(ring.from_int(draw(st.integers(-2, 2))) for _ in range(2)) for _ in range(2)
    )
    return group_action_map(ring, g, X)


@settings(max_examples=200, deadline=None)
@given(label_view_maps())
def test_label_view_is_the_position_columns_through_the_basis(A):
    labels = basis(A.codomain)
    assert len(A.cols) == len(A.pcols) == dim(A.domain)
    for col, pcol in zip(A.cols, A.pcols):
        assert col == {labels[r]: v for r, v in pcol.items()}
    assert LinearMap(A.domain, A.codomain, A.ring, A.cols) == A


@st.composite
def label_view_vectors(draw):
    """A vector over one of LABEL_VIEW_RINGS in one of LABEL_VIEW_SPACES,
    made by the constructor, from_positions, apply, column, kernel_basis,
    + or scale."""
    ring = draw(st.sampled_from(LABEL_VIEW_RINGS))
    spaces = st.sampled_from(LABEL_VIEW_SPACES)
    scalars = st.integers(-3, 3).map(ring.from_int)

    def random_vector(space):
        labels = st.sampled_from(basis(space))
        return ModuleElement(space, ring, draw(st.dictionaries(labels, scalars, max_size=4)))

    def random_map(domain, codomain):
        cols = [random_vector(codomain).pcoeffs for _ in basis(domain)]
        return LinearMap.from_positions(domain, codomain, ring, cols)

    sources = ["constructor", "from_positions", "apply", "column", "sum", "scale"]
    if ring.is_field:
        sources.append("kernel_basis")
    source = draw(st.sampled_from(sources))
    X, Y = draw(spaces), draw(spaces)
    if source == "constructor":
        return random_vector(X)
    if source == "from_positions":
        positions = st.integers(0, dim(X) - 1)
        return ModuleElement.from_positions(
            X, ring, draw(st.dictionaries(positions, scalars, max_size=4))
        )
    if source == "apply":
        return random_map(X, Y).apply(random_vector(X))
    if source == "column":
        return random_map(X, Y).column(draw(st.sampled_from(basis(X))))
    if source == "sum":
        return random_vector(X) + random_vector(X)
    if source == "scale":
        return random_vector(X).scale(draw(scalars))
    kernel = kernel_basis(random_map(X, Y))
    return draw(st.sampled_from(kernel)) if kernel else ModuleElement.zero(X, ring)


@settings(max_examples=200, deadline=None)
@given(label_view_vectors())
def test_vector_label_view_is_the_positions_through_the_basis(v):
    labels = basis(v.space)
    assert all(0 <= r < dim(v.space) for r in v.pcoeffs)
    assert v.coeffs == {labels[r]: c for r, c in v.pcoeffs.items()}
    assert ModuleElement(v.space, v.ring, v.coeffs) == v


def test_wedge_action_picks_up_signs():
    # swapping both basis lines through the antidiagonal reverses wedge order
    g = ((QQ.zero, QQ.one), (QQ.one, QQ.zero))
    image = group_action_map(QQ, g, Wedge(2, Sym(1))).column((0, 1))
    assert image.coeffs == {(0, 1): Fraction(-1)}


def test_bad_matrix_shape_rejected():
    with pytest.raises(ValueError):
        group_action_map(ZZ, ((ZZ.one,),), Sym(1))


# ------------------------------------------------------------------ Lie action


def test_lie_generators_on_sym():
    E = lie_action_map("e", Sym(3))
    F = lie_action_map("f", Sym(3))
    assert E.ring == F.ring == ZZ
    assert E.cols == [{}, {0: 1}, {1: 2}, {2: 3}]
    assert F.cols == [{1: 3}, {2: 2}, {3: 1}, {}]
    assert all(type(v) is int for col in E.cols + F.cols for v in col.values())


@pytest.mark.parametrize(
    "space",
    [Sym(4), Wedge(2, Sym(3)), Tensor(Sym(2), Wedge(2, Sym(3))), SymPower(2, Sym(2))],
    ids=str,
)
def test_lie_commutator_is_the_weight(space):
    # [e, f] acts on a Y-degree-a vector by (total degree - 2a)
    E = lie_action_map("e", space)
    F = lie_action_map("f", space)
    comm = E.compose(F) - F.compose(E)
    td = space.total_degree()
    for n, label in enumerate(basis(space)):
        expected = {label: td - 2 * space.ydegree(label)}
        got = {l: v for l, v in comm.cols[n].items() if v}
        assert got == expected or (not got and td - 2 * space.ydegree(label) == 0)


def test_lie_moves_ydegree_by_one():
    space = Tensor(Sym(2), Wedge(2, Sym(3)))
    E = lie_action_map("e", space)
    F = lie_action_map("f", space)
    for label in basis(space):
        v = ModuleElement.basis_vector(space, ZZ, label)
        up = F.apply(v)
        down = E.apply(v)
        w = space.ydegree(label)
        if not up.is_zero():
            assert up.homogeneous_ydegree() == w + 1
        if not down.is_zero():
            assert down.homogeneous_ydegree() == w - 1


# ------------------------------------------------------------- multiplication


def test_multiplication_map_goldens():
    mu = multiplication_map(ZZ, 2, 4)
    assert mu.domain == Tensor(Wedge(2, Sym(4)), Sym(4))
    assert mu.codomain == Wedge(3, Sym(4))
    # repeated factor collapses to zero
    assert mu.column(((0, 1), 0)).is_zero()
    # appending a smaller factor costs the sorting sign
    assert mu.column(((1, 2), 0)).coeffs == {(0, 1, 2): 1}
    assert mu.column(((0, 2), 1)).coeffs == {(0, 1, 2): -1}
    assert mu.column(((0, 1), 2)).coeffs == {(0, 1, 2): 1}


def test_multiplication_kernel_dimensions():
    # rank-nullity against the closed count of semistandard pairs
    for N, d, expected in ((2, 4, 40), (3, 5, 105), (1, 3, 10)):
        mu = multiplication_map(QQ, N, d)
        assert dim(mu.domain) - rank(mu) == expected


# -------------------------------------------------------- elimination, kernel


def element(space, ring, pairs):
    return ModuleElement(space, ring, dict(pairs))


def test_rank_and_kernel_small_golden():
    # columns e0+e1, e1+e2, e0+e2: invertible over Q, kernel (1,1,1) mod 2
    space = Sym(2)
    cols_q = [
        {0: Fraction(1), 1: Fraction(1)},
        {1: Fraction(1), 2: Fraction(1)},
        {0: Fraction(1), 2: Fraction(1)},
    ]
    A = LinearMap(Sym(2), space, QQ, cols_q)
    assert rank(A) == 3
    assert kernel_basis(A) == []

    ring = PrimeField(2)
    cols_p = [{k: 1 for k in c} for c in cols_q]
    B = LinearMap(Sym(2), space, ring, cols_p)
    assert rank(B) == 2
    (kern,) = kernel_basis(B)
    assert kern.coeffs == {0: 1, 1: 1, 2: 1}


def test_rank_of_vectors():
    space = Sym(3)
    vs = [
        element(space, QQ, {0: Fraction(1), 1: Fraction(1)}),
        element(space, QQ, {1: Fraction(1)}),
        element(space, QQ, {0: Fraction(1), 1: Fraction(2)}),  # dependent
    ]
    assert rank_of_vectors(vs) == 2
    assert rank_of_vectors([]) == 0


def test_rank_over_zz_is_the_rational_rank_and_forms_no_fraction(monkeypatch):
    # the columns 2 e0 + 4 e1, 3 e0 + 6 e1 and 5 e1 have rank 2 over QQ
    cols = [{0: 2, 1: 4}, {0: 3, 1: 6}, {1: 5}]
    A = LinearMap.from_positions(Sym(2), Sym(1), ZZ, cols)
    vectors = [ModuleElement.from_positions(Sym(1), ZZ, col) for col in cols]
    assert rank(A.map_entries(QQ, QQ.from_int)) == 2

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was formed")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert rank(A) == rank_of_vectors(vectors) == 2
    (v,) = kernel_basis(A)
    assert v.pcoeffs == {0: -3, 1: 2}


def test_rank_over_z_gamma_is_a_value_error():
    mu = multiplication_map(ZGAMMA, 2, 3)
    for run in (rank, kernel_basis):
        with pytest.raises(ValueError, match="needs a field or ZZ, not ZZ\\[gamma\\]"):
            run(mu)
    with pytest.raises(ValueError, match="needs a field or ZZ"):
        rank_of_vectors([ModuleElement.from_positions(mu.domain, ZGAMMA, {0: ZGAMMA.one})])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda c: st.lists(
            st.dictionaries(st.integers(0, 4), st.integers(-4, 4), max_size=4),
            min_size=c + 1,
            max_size=c + 1,
        )
    )
)
def test_integer_kernel_is_the_rational_kernel_scaled_to_primitive(cols):
    # over ZZ each kernel vector is the one over QQ times its trailing
    # coefficient, which is positive, and its entries have no common factor
    domain, codomain = Sym(len(cols) - 1), Sym(4)
    A = LinearMap.from_positions(domain, codomain, ZZ, cols)
    B = LinearMap.from_positions(
        domain, codomain, QQ, ({r: Fraction(c) for r, c in col.items()} for col in cols)
    )
    integer, rational = kernel_basis(A), kernel_basis(B)
    assert len(integer) == len(rational)
    for v, w in zip(integer, rational):
        assert v.ring == ZZ and A.apply(v).is_zero()
        trailing = v.pcoeffs[max(v.pcoeffs)]
        assert trailing > 0 and gcd(*v.pcoeffs.values()) == 1
        assert v.pcoeffs == {r: trailing * c for r, c in w.pcoeffs.items()}


def test_integer_kernel_turns_a_negative_trailing_coefficient_positive():
    # columns -1 and 1: the elimination ends at -(e0 + e1)
    A = LinearMap.from_positions(Sym(1), Sym(0), ZZ, [{0: -1}, {0: 1}])
    (v,) = kernel_basis(A)
    assert v.pcoeffs == {0: 1, 1: 1}


def test_kernel_vectors_annihilate_map():
    for ring in (QQ, PrimeField(2), PrimeField(5)):
        mu = multiplication_map(ring, 2, 3)
        kern = kernel_basis(mu)
        assert len(kern) == dim(mu.domain) - rank(mu)
        for v in kern:
            assert mu.apply(v).is_zero()
        assert rank_of_vectors(kern) == len(kern)


# --------------------------------------------------------------- map algebra


def test_linear_map_algebra():
    mu = multiplication_map(ZZ, 2, 3)
    zero = mu - mu
    assert not any(zero.cols)
    assert mu.compose(identity_map(ZZ, mu.domain)) == mu
    assert identity_map(ZZ, mu.codomain).compose(mu) == mu
    assert mu.entry_count() == sum(len(c) for c in mu.cols)


def test_module_element_algebra():
    space = Sym(3)
    v = element(space, ZZ, {0: 2, 1: -1})
    w = element(space, ZZ, {1: 1, 3: 5})
    assert (v + w).coeffs == {0: 2, 3: 5}  # the middle term cancels
    assert (v - v).is_zero()
    assert v.scale(0).is_zero()
    assert v.scale(3).coeffs == {0: 6, 1: -3}
    assert element(space, ZZ, {2: 0}).is_zero()  # zero coefficients dropped


def test_homogeneous_ydegree():
    space = Sym(4)
    assert element(space, ZZ, {1: 2}).homogeneous_ydegree() == 1
    assert element(space, ZZ, {1: 2, 3: 1}).homogeneous_ydegree() is None
    assert ModuleElement.zero(space, ZZ).homogeneous_ydegree() is None


@settings(max_examples=25)
@given(st.data())
def test_action_preserves_ydegree_shift_invariants(data):
    # diag(1, t) over F7 scales each basis vector by t^(Y-degree)
    ring = PrimeField(7)
    t = data.draw(st.integers(min_value=1, max_value=6))
    space = data.draw(st.sampled_from([Sym(3), Wedge(2, Sym(3)), SymPower(2, Sym(2))]))
    g = ((ring.one, ring.zero), (ring.zero, ring.from_int(t)))
    A = group_action_map(ring, g, space)
    for n, label in enumerate(basis(space)):
        assert A.cols[n] == {label: pow(t, space.ydegree(label), 7)}


# ------------------------------------------------------------ one grid point


def _package_memos() -> list:
    """Every object with cache_clear bound in a module of the package."""
    found = []
    for info in pkgutil.iter_modules(plethy.__path__):
        module = importlib.import_module(f"plethy.{info.name}")
        found += [obj for obj in vars(module).values() if hasattr(obj, "cache_clear")]
    return found


def test_every_memo_of_the_package_goes_with_its_point_or_is_kept_on_purpose():
    # a memo added to the package is in the registry, or it is one of the
    # two kept across points, so none outlives its point unseen
    registry = spaces._POINT_MEMOS
    kept = [spaces._sym_action_table, characters.gaussian_binomial]
    memos = _package_memos()
    assert set(map(id, kept)) <= set(map(id, memos))
    for memo in memos:
        assert any(memo is m for m in registry + kept), memo
    assert {m.__wrapped__.__name__ for m in registry if not isinstance(m, dict)} == {
        "basis", "basis_index", "dim", "_insertions",
        "hook_schur_space", "iso_context", "_integer_kernel_map",
    }
    # the one record in it is the poly route's, of its integer comparisons
    assert [id(m) for m in registry if isinstance(m, dict)] == [id(iso._zz_unipotent_checks)]


def test_release_point_empties_every_memo_of_the_point():
    iso.verify_group_equivariance_poly(2, 3)
    conjecture.scan_one(3, 1, 2, (2,))
    assert iso._zz_unipotent_checks
    registry = spaces._POINT_MEMOS
    assert all(m.cache_info().currsize for m in registry if not isinstance(m, dict))
    tables = spaces._sym_action_table.cache_info().currsize
    release_point()
    assert not iso._zz_unipotent_checks
    assert not any(m.cache_info().currsize for m in registry if not isinstance(m, dict))
    # the Sym action tables stay across points
    assert spaces._sym_action_table.cache_info().currsize == tables > 0
