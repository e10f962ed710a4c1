import random
from fractions import Fraction

import pytest

from twofold.expr import ZERO, ExpressionError, Num, diff, parse_expr, source


def compiled(tree):
    """`tree` as a function of (x1, x2, x3), built from its source."""
    return eval(f"lambda x1, x2, x3: {source(tree)}", {"__builtins__": {}})


def value(text, x1=0.0, x2=0.0, x3=0.0):
    return compiled(parse_expr(text))(x1, x2, x3)


def test_rational_constants_are_exact():
    e = parse_expr("23/100")
    assert e == Num(Fraction(23, 100))
    assert compiled(e)(0, 0, 0) == 23 / 100


def test_decimal_literals():
    assert value("0.25") == 0.25
    assert value(".5") == 0.5
    assert value("2.") == 2.0


def test_basic_arithmetic():
    assert value("1+2*x1-3/2*x2+x3^2", 2.0, 1.0, 3.0) == 1 + 4 - 1.5 + 9


def test_power_binds_tighter_than_product():
    assert value("2*x1^2", 3.0) == 18.0


def test_unary_minus_chains():
    assert value("--x1", 4.0) == 4.0
    assert value("-x1^2", 3.0) == 9.0  # (-x1)^2 per the grammar


def test_parentheses():
    assert value("(1+x1)*(1-x1)", 0.5) == 0.75


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionError) as err:
        parse_expr("x1 + * 2")
    assert err.value.pos == 5


@pytest.mark.parametrize("text, message, pos", [
    ("(x1+x2", "expected ')'", 6),
    ("1.5/2", "'/' is only allowed after an integer literal", 3),
    ("1/x1", "denominator must be an unsigned integer", 2),
    ("1/2.5", "denominator must be an unsigned integer", 2),
])
def test_malformed_literals_and_groups_are_located(text, message, pos):
    with pytest.raises(ExpressionError) as err:
        parse_expr(text)
    assert str(err.value) == f"{message} at position {pos}: {text!r}"
    assert (err.value.text, err.value.pos) == (text, pos)


def test_tokenizer_locates_a_stray_character_and_skips_trailing_blanks():
    with pytest.raises(ExpressionError) as err:
        parse_expr("x1 $")
    assert str(err.value) == "unexpected character '$' at position 3: 'x1 $'"
    assert parse_expr("x1 + x2   ") == parse_expr("x1+x2")


def test_long_expression_is_quoted_as_a_window_about_the_offence():
    # up to 60 characters the text is quoted whole; past that a 60-character
    # window about the position, each cut end marked with "..."
    text = "+".join(["x1"] * 40) + ")" + "+x2" * 40
    with pytest.raises(ExpressionError) as err:
        parse_expr(text)
    pos = err.value.pos
    assert (err.value.text, pos) == (text, 119)
    assert str(err.value) == (f"unexpected ')' at position 119: "
                              f"...{text[pos - 30:pos + 30]!r}...")
    text = "x1)" + "+x2" * 40            # the window stops at the text's start
    with pytest.raises(ExpressionError) as err:
        parse_expr(text)
    assert str(err.value) == f"unexpected ')' at position 2: {text[:60]!r}..."
    for short in ("x1+" * 19 + "x1)", "x1)" + "+x1" * 19):
        with pytest.raises(ExpressionError) as err:
            parse_expr(short)
        assert len(short) <= 60 and str(err.value).endswith(f": {short!r}")


def test_unknown_identifier_rejected():
    with pytest.raises(ExpressionError, match="unknown identifier 'y'"):
        parse_expr("x1 + y")


def test_division_operator_rejected():
    with pytest.raises(ExpressionError):
        parse_expr("x1/2")
    with pytest.raises(ExpressionError):
        parse_expr("(1+2)/5")


@pytest.mark.parametrize("text, message, pos", [
    ("1" + "0" * 400 + "*x2", "number beyond the float range", 0),
    ("x1+" + "9" * 400 + ".5", "number beyond the float range", 3),
    ("x1^" + "1" * 400, "number beyond the float range", 3),
    ("3/" + "7" * 400, "number beyond the float range", 2),    # each token counts
    ("1/" + "1" * 5000, "number has too many digits", 2),
], ids=["integer", "decimal", "exponent", "denominator", "digit-limit"])
def test_numbers_a_float_cannot_hold_are_rejected(text, message, pos):
    with pytest.raises(ExpressionError) as err:
        parse_expr(text)
    assert str(err.value).startswith(f"{message} at position {pos}: ")


def test_zero_denominator_rejected():
    with pytest.raises(ExpressionError, match="zero denominator"):
        parse_expr("1/0")


def test_fractional_exponent_rejected():
    with pytest.raises(ExpressionError):
        parse_expr("x1^1.5")
    with pytest.raises(ExpressionError):
        parse_expr("x1^-2")


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionError):
        parse_expr("x1 x2")


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return str(rng.choice(["x1", "x2", "x3"]))
        if rng.random() < 0.5:
            return f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"
        return str(rng.randint(0, 20))
    op = rng.choice(["+", "-", "*"])
    left = _random_expr(rng, depth - 1)
    right = _random_expr(rng, depth - 1)
    if rng.random() < 0.2:
        return f"-({left}{op}{right})"
    if rng.random() < 0.2:
        return f"({left}{op}{right})^{rng.randint(0, 3)}"
    return f"{left}{op}{right}"


def test_derivative_matches_central_differences():
    # the polynomial derivative is exact; central differences of the
    # compiled tree agree to their own O(d^2) truncation plus rounding
    rng = random.Random(909)
    d = 1e-5
    for _ in range(60):
        tree = parse_expr(_random_expr(rng, 3))
        f = compiled(tree)
        grad = [compiled(diff(tree, index)) for index in (1, 2, 3)]
        for _ in range(10):
            x = [rng.uniform(-1.5, 1.5) for _ in range(3)]
            scale = max(1.0, abs(f(*x)))
            for index in (1, 2, 3):
                up, dn = list(x), list(x)
                up[index - 1] += d
                dn[index - 1] -= d
                fd = (f(*up) - f(*dn)) / (2.0 * d)
                exact = grad[index - 1](*x)
                assert abs(fd - exact) <= 1e-5 * max(scale, abs(exact)), (str(tree), index, x)


def test_derivative_folds_zeros_and_stays_in_the_grammar():
    e = parse_expr("x1*x2^3-2/5*x3+7")
    assert [diff(e, i) for i in (1, 2, 3)] == [parse_expr(s) for s in
                                               ("x2^3", "x1*(3*x2^2)", "-2/5")]
    assert diff(parse_expr("x2*x3"), 1) is ZERO
    assert diff(parse_expr("x1^0"), 1) is ZERO
