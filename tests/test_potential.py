"""Parser, evaluator, printer, gradient and droplet scan for the potential DSL."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigas.errors import ValidationError
from fermigas.potential import (
    BinOp,
    Call,
    Neg,
    Num,
    Pow,
    PotentialExpr,
    Var,
    choose_box,
    droplet_half_width,
    grad_potential,
    lattice,
    parse_potential,
)

# Canonical forms: parse followed by pretty-print must reproduce each string
# byte for byte.  Spacing convention: additive operators padded, everything
# else tight, minimal parentheses.
ROUND_TRIP_CORPUS = [
    "x1",
    "x1^2",
    "x1^2 + x2^2",
    "x1^2 + x2^2 + x3^2",
    "(1 - x1^2)^2",
    "(1 - x1^2 - x2^2)^2",
    "x1^4 - x1^2",
    "x1^4 - 2*x1^2 + 1",
    "-x1",
    "-x1^2",
    "-(x1 + x2)",
    "2*x1",
    "2*x1^2 + 3*x2^2",
    "0.5*x1^2",
    "0.05*x1^4",
    "x1/2",
    "x1/(x2 + 2)",
    "2/x1^2",
    "x1*x2",
    "x1*x2*x3",
    "x1*(x2 + 1)",
    "(x1 + x2)^2",
    "(x1 + x2)*(x1 - x2)",
    "x1 - (x2 - 1)",
    "x1 - x2 - x3",
    "x1^2*x2^2",
    "x1^2*x2 + x2^3",
    "x1^-2",
    "x1^-1 + x1",
    "x1^0",
    "exp(x1)",
    "exp(-x1^2)",
    "exp(-x1^2 - x2^2)",
    "exp(x1) + exp(-x1)",
    "exp(x1*x2/2)",
    "cos(x1)",
    "sin(x1)",
    "sin(x1*x2)",
    "cos(x1)^2 + sin(x1)^2",
    "sin(x1)*cos(x2)",
    "exp(cos(x1))",
    "1 - cos(x1)",
    "2 - -x1",
    "3.5 - x1",
    "1e-06*x1",
    "x1^2 + 2*x1 + 1",
    "x1^2/2 + x2^2/2",
    "(x1 - 1)^2*(x1 + 1)^2",
    "exp(x1^2) - 1",
    "x1^6 - x1^4 + 0.25*x1^2",
]


def test_round_trip_corpus_is_large_enough():
    assert len(ROUND_TRIP_CORPUS) == 50


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_pretty_print_round_trip(text):
    V = parse_potential(text)
    assert V.to_text() == text
    # and the printed form parses back to the identical tree
    assert parse_potential(V.to_text()).ast == V.ast


# every tree the parser can produce: finite non-negative literals (a minus
# is always a Neg), x1..x3, integer exponents and the three functions
PARSER_TREES = st.recursive(
    st.one_of(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Num),
        st.integers(1, 3).map(Var),
    ),
    lambda children: st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.integers(-120, 120)),
        st.builds(Call, st.sampled_from(("exp", "sin", "cos")), children),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(PARSER_TREES)
def test_printer_round_trips_every_parser_tree(ast):
    assert parse_potential(PotentialExpr(ast).to_text()).ast == ast


def test_evaluation_examples():
    assert parse_potential("x1^2")(np.array([2.0])) == pytest.approx(4.0)
    assert parse_potential("x1^2 + x2^2")([1.0, 1.0]) == pytest.approx(2.0)
    assert parse_potential("(1 - x1^2)^2")([0.0]) == pytest.approx(1.0)


def test_evaluation_batches_and_scalars():
    V = parse_potential("x1^2 + x2^2")
    out = V(np.array([[1.0, 1.0], [0.0, 3.0]]))
    assert out.shape == (2,)
    assert np.allclose(out, [2.0, 9.0])
    V1 = parse_potential("x1^2")
    assert np.allclose(V1(np.array([0.0, 1.0, 2.0])), [0.0, 1.0, 4.0])
    assert V1(3.0) == pytest.approx(9.0)


def test_unicode_operator_aliases():
    assert parse_potential("2×x1")([3.0]) == pytest.approx(6.0)
    assert parse_potential("x1÷2")([3.0]) == pytest.approx(1.5)


def test_precedence_and_associativity():
    assert parse_potential("-x1^2")([2.0]) == pytest.approx(-4.0)
    assert parse_potential("2*x1^2")([3.0]) == pytest.approx(18.0)
    assert parse_potential("2 - 3 - 4")([0.0]) == pytest.approx(-5.0)
    assert parse_potential("12/3/2")([0.0]) == pytest.approx(2.0)
    assert parse_potential("1 + 2*3")([0.0]) == pytest.approx(7.0)


def test_negative_and_zero_exponents():
    assert parse_potential("x1^-2")([2.0]) == pytest.approx(0.25)
    assert parse_potential("x1^0")([7.0]) == pytest.approx(1.0)


def test_syntax_error_carries_offset():
    with pytest.raises(ValidationError, match="offset 3"):
        parse_potential("x1^^2")
    with pytest.raises(ValidationError, match="offset 4"):
        parse_potential("x1 +")
    with pytest.raises(ValidationError, match="offset 3"):
        parse_potential("(x1")
    with pytest.raises(ValidationError, match="offset 3"):
        parse_potential("x1 $ 2")
    with pytest.raises(ValidationError, match="offset 5.*not finite"):
        parse_potential("x1 + 1e400")


def test_constant_division_by_zero_is_rejected():
    V = parse_potential("x1^2 + 1/0")
    with pytest.raises(ValidationError, match="division by zero"):
        V([1.0])
    with pytest.raises(ValidationError, match="division by zero"):
        grad_potential(V, [1.0])


def test_unknown_identifier_errors():
    with pytest.raises(ValidationError, match="unknown identifier 'y'"):
        parse_potential("y + 1")
    with pytest.raises(ValidationError, match="x4"):
        parse_potential("x4")
    with pytest.raises(ValidationError, match="integer"):
        parse_potential("x1^x2")
    with pytest.raises(ValidationError, match="empty"):
        parse_potential("   ")


def test_gradient_examples():
    V = parse_potential("x1^2")
    assert np.allclose(grad_potential(V, [1.0]), [2.0])
    V2 = parse_potential("x1^2 + x2^2")
    assert np.allclose(grad_potential(V2, [0.0, 3.0]), [0.0, 6.0])


GRADIENT_CASES = [
    ("x1^2", [0.7]),
    ("x1^4 - x1^2", [-1.3]),
    ("(1 - x1^2)^2", [0.4]),
    ("x1^2 + x2^2", [0.5, -1.5]),
    ("exp(-x1^2 - x2^2)", [0.3, 0.8]),
    ("sin(x1)*cos(x2)", [1.1, -0.6]),
    ("x1^2*x2 + x2^3", [0.9, 0.2]),
    ("x1/(1 + x2^2)", [2.0, 0.5]),
    ("exp(cos(x1))", [0.25]),
    ("x1*x2*x3", [1.0, 2.0, 3.0]),
]


@pytest.mark.parametrize("text, point", GRADIENT_CASES)
def test_gradient_matches_central_differences(text, point):
    V = parse_potential(text)
    point = np.asarray(point, dtype=float)
    sym = grad_potential(V, point)
    step = 1e-6
    for k in range(len(point)):
        lo = point.copy()
        hi = point.copy()
        lo[k] -= step
        hi[k] += step
        hi_val = float(V(hi.reshape(1, -1))[0])
        lo_val = float(V(lo.reshape(1, -1))[0])
        fd = (hi_val - lo_val) / (2.0 * step)
        assert abs(sym[k] - fd) <= 1e-6


# hand derivatives; the two powers with |k| >= 100 on a negative base are
# where a complex ** in polar form would lose the step
CLOSED_FORM_GRADIENTS = [
    ("x1^101", [-1.001], lambda x: [101.0 * x[0] ** 100]),
    ("x1^-120", [-0.99], lambda x: [-120.0 * x[0] ** -121]),
    ("x1/(1 + x2^2)", [2.0, 0.5], lambda x: [
        1.0 / (1.0 + x[1] ** 2), -2.0 * x[0] * x[1] / (1.0 + x[1] ** 2) ** 2,
    ]),
    ("exp(cos(x1))", [0.25], lambda x: [-np.sin(x[0]) * np.exp(np.cos(x[0]))]),
    ("x1*x2*x3", [1.0, 2.0, 3.0], lambda x: [
        x[1] * x[2], x[0] * x[2], x[0] * x[1],
    ]),
    ("x1^2 + 0*x2", [1.0, 5.0], lambda x: [2.0 * x[0], 0.0]),
]


@pytest.mark.parametrize(
    "text, point, exact", CLOSED_FORM_GRADIENTS,
    ids=[case[0] for case in CLOSED_FORM_GRADIENTS],
)
def test_gradient_matches_closed_form(text, point, exact):
    got = grad_potential(parse_potential(text), point)
    np.testing.assert_allclose(got, exact(point), rtol=1e-12, atol=0.0)


def test_grad_potential_rejects_wrong_dimension():
    V = parse_potential("x1^2 + x2^2")
    with pytest.raises(ValidationError):
        grad_potential(V, [1.0])


def test_lattice_is_x1_major_in_every_dimension():
    ax = np.array([-1.0, 0.5, 2.0])
    assert lattice(ax, 1).shape == (3, 1)
    np.testing.assert_array_equal(lattice(ax, 1)[:, 0], ax)
    pts = lattice(ax, 2)
    np.testing.assert_array_equal(pts[:, 0], np.repeat(ax, 3))
    np.testing.assert_array_equal(pts[:, 1], np.tile(ax, 3))
    assert lattice(ax, 3).shape == (27, 3)
    np.testing.assert_array_equal(lattice(ax, 3)[:9], np.column_stack(
        [np.full(9, -1.0), np.repeat(ax, 3), np.tile(ax, 3)]))


def test_droplet_half_width_quadratic():
    V = parse_potential("x1^2")
    w = droplet_half_width(V, 1.0)
    assert 0.9 <= w <= 1.0


def test_droplet_half_width_double_well():
    # (1 - x^2)^2 < 0.5 out to x^2 = 1 + sqrt(0.5), i.e. |x| ~ 1.3066
    V = parse_potential("(1 - x1^2)^2")
    w = droplet_half_width(V, 0.5)
    assert 1.25 <= w <= 1.35


def test_droplet_half_width_radial_2d():
    V = parse_potential("x1^2 + x2^2")
    w = droplet_half_width(V, 1.0)
    assert 0.9 <= w <= 1.0


def test_droplet_half_width_unconfined():
    with pytest.raises(ValidationError, match="unconfined"):
        droplet_half_width(parse_potential("-x1^2"), 1.0)


def test_choose_box_refuses_three_dimensions():
    # grids stop at 2-d; a 3-d face lattice would hold 257^3 points
    with pytest.raises(ValidationError, match="dimensions 1 and 2"):
        choose_box(parse_potential("x1^2 + x2^2 + x3^2"), 1.0, 1.0)
