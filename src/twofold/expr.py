"""Arithmetic expressions in the state variables x1, x2, x3.

Grammar (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := number | 'x1' | 'x2' | 'x3' | '(' expr ')' | '-' base
    number := int ('/' uint)? | decimal

Constants are stored as exact rationals and evaluated in double precision,
so coefficients like 23/100 carry no decimal-entry drift.  There is no
division operator: '/' is only legal inside a numeric literal.  A tree is
evaluated only through its `source()`, which `fields` compiles into flat
functions; `diff` gives its exact partial derivatives.  Nesting is bounded
by `MAX_DEPTH`, so every accepted tree and its derivatives compile.  Nodes
are immutable `__slots__` classes, equal when their types and fields are.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "Expr", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Pow",
    "ExpressionError", "parse_expr", "num", "ZERO",
]

VAR_NAMES = ("x1", "x2", "x3")

# Deepest accepted nesting, of the parentheses and unary minuses open at a
# point of the text and of the tree (a sum or product of n terms nests n - 1
# deep).  A tree's source nests its parentheses as deep as the tree, and a
# derivative's at most twice as deep; inside the tuple a kernel returns that
# is 2 * 90 + 1 = 181 levels, under the 200 that CPython compiles.
MAX_DEPTH = 90
QUOTE_MAX = 60      # the longest text an error message quotes whole


class ExpressionError(ValueError):
    """Malformed expression; `pos` is the 0-based column of the offence.  The
    message quotes a longer text than QUOTE_MAX as a window of QUOTE_MAX
    characters about `pos`, each cut end marked with "..."."""

    def __init__(self, message: str, text: str, pos: int):
        lo = max(0, min(pos - QUOTE_MAX // 2, len(text) - QUOTE_MAX))
        hi = lo + QUOTE_MAX
        quoted = "..." * (lo > 0) + repr(text[lo:hi]) + "..." * (hi < len(text))
        super().__init__(f"{message} at position {pos}: {quoted}")
        self.text = text
        self.pos = pos


class Expr:
    """Base node.  Trees are immutable and shareable: a node's `_fields`
    are slots its constructor sets once.  Two nodes are equal when they have
    the same type and equal fields, so `Add(a, b) != Mul(a, b)`."""

    __slots__ = _fields = ()

    def _key(self):
        return (type(self),) + tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable node")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def source(self) -> str:
        """Python source fragment used by the compiled evaluators."""
        raise NotImplementedError

    def diff(self, index: int) -> Expr:
        """Exact partial derivative in x<index>.  Zero and one factors are
        folded away, so the derivative of a polynomial field stays short; an
        identically zero derivative is the shared ZERO node."""
        raise NotImplementedError


_set = object.__setattr__     # the constructors' one way past Expr.__setattr__


class Num(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction):
        _set(self, "value", value)

    def source(self):
        return repr(float(self.value))

    def diff(self, index):
        return ZERO


class Var(Expr):
    __slots__ = _fields = ("index",)   # 1..3

    def __init__(self, index: int):
        _set(self, "index", index)

    def source(self):
        return VAR_NAMES[self.index - 1]

    def diff(self, index):
        return ONE if self.index == index else ZERO


class Neg(Expr):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)

    def source(self):
        return f"(-{self.arg.source()})"

    def diff(self, index):
        d = self.arg.diff(index)
        return ZERO if d is ZERO else Neg(d)


class _Binary(Expr):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)


class Add(_Binary):
    __slots__ = ()

    def source(self):
        return f"({self.left.source()}+{self.right.source()})"

    def diff(self, index):
        return _add(self.left.diff(index), self.right.diff(index))


class Sub(_Binary):
    __slots__ = ()

    def source(self):
        return f"({self.left.source()}-{self.right.source()})"

    def diff(self, index):
        d_left, d_right = self.left.diff(index), self.right.diff(index)
        if d_right is ZERO:
            return d_left
        return Neg(d_right) if d_left is ZERO else Sub(d_left, d_right)


class Mul(_Binary):
    __slots__ = ()

    def source(self):
        return f"({self.left.source()}*{self.right.source()})"

    def diff(self, index):
        return _add(_mul(self.left.diff(index), self.right),
                    _mul(self.left, self.right.diff(index)))


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")   # exponent >= 0

    def __init__(self, base: Expr, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)

    def source(self):
        return f"({self.base.source()}**{self.exponent})"

    def diff(self, index):
        n = self.exponent
        if n == 0:
            return ZERO
        outer = ONE if n == 1 else Mul(Num(Fraction(n)),
                                       self.base if n == 2 else Pow(self.base, n - 1))
        return _mul(outer, self.base.diff(index))


ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))


# the folds test identity: every zero or one a derivative produces is ZERO
# or ONE itself
def _add(a: Expr, b: Expr) -> Expr:
    if a is ZERO:
        return b
    return a if b is ZERO else Add(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    return a if b is ONE else Mul(a, b)


def num(value) -> Expr:
    """Exact constant node; negatives become an explicit unary minus, as the
    parser builds them, so no `Num` has a signed source (`-0.5**2` would
    bind the power first)."""
    f = Fraction(value)
    if f < 0:
        return Neg(Num(-f))
    return Num(f)


# ---------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # no token from here: only trailing blanks, or a bad character
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExpressionError(f"unexpected character {text[bad]!r}", text, bad)
        number, name, op = m.groups()
        tok_pos = m.end() - len(m.group().lstrip())
        if number is not None:
            tokens.append(("num", number, tok_pos))
        elif name is not None:
            tokens.append(("name", name, tok_pos))
        else:
            tokens.append((op, op, tok_pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ExpressionError(message, self.text, tok[2])

    def nest(self, depth: int, tok) -> int:
        """depth + 1, or an ExpressionError at `tok` past MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            self.error(f"expression nests deeper than {MAX_DEPTH} levels", tok)
        return depth + 1

    # each rule takes the number of parentheses and unary minuses open
    # around it and returns its tree with the tree's height

    def parse(self) -> Expr:
        e, _ = self.expr(0)
        kind, val, _ = self.peek()
        if kind != "end":
            self.error(f"unexpected {val!r}")
        return e

    def expr(self, opened: int) -> tuple[Expr, int]:
        e, h = self.term(opened)
        while self.peek()[0] in ("+", "-"):
            tok = self.advance()
            rhs, h_rhs = self.term(opened)
            e = Add(e, rhs) if tok[0] == "+" else Sub(e, rhs)
            h = self.nest(max(h, h_rhs), tok)
        return e, h

    def term(self, opened: int) -> tuple[Expr, int]:
        e, h = self.factor(opened)
        while self.peek()[0] == "*":
            tok = self.advance()
            rhs, h_rhs = self.factor(opened)
            e, h = Mul(e, rhs), self.nest(max(h, h_rhs), tok)
        return e, h

    def factor(self, opened: int) -> tuple[Expr, int]:
        e, h = self.base(opened)
        if self.peek()[0] == "^":
            tok = self.advance()
            exp = kind, val, _ = self.peek()
            if kind != "num" or "." in val:
                self.error("exponent must be a non-negative integer")
            self.advance()
            e, h = Pow(e, int(self._exact(exp))), self.nest(h, tok)
        return e, h

    def base(self, opened: int) -> tuple[Expr, int]:
        tok = kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            return Num(self._number(tok)), 0
        if kind == "name":
            self.advance()
            if val in VAR_NAMES:
                return Var(VAR_NAMES.index(val) + 1), 0
            self.error(f"unknown identifier {val!r}", tok)
        if kind == "(":
            self.advance()
            e, h = self.expr(self.nest(opened, tok))
            if self.peek()[0] != ")":
                self.error("expected ')'")
            self.advance()
            return e, h
        if kind == "-":
            self.advance()
            e, h = self.base(self.nest(opened, tok))
            return Neg(e), self.nest(h, tok)
        self.error(f"expected a value, got {val!r}" if val else "unexpected end of expression")

    def _exact(self, tok) -> Fraction:
        """The value of the number token `tok`; an ExpressionError at it when
        a float cannot hold that value."""
        try:
            value = Fraction(tok[1])
            float(value)
        except OverflowError:
            self.error("number beyond the float range", tok)
        except ValueError:      # past int's limit on the digits of a string
            self.error("number has too many digits", tok)
        return value

    def _number(self, tok) -> Fraction:
        value = self._exact(tok)
        if self.peek()[0] == "/":
            if "." in tok[1]:
                self.error("'/' is only allowed after an integer literal")
            self.advance()
            den = kind, text, _ = self.peek()
            if kind != "num" or "." in text:
                self.error("denominator must be an unsigned integer")
            self.advance()
            divisor = self._exact(den)
            if divisor == 0:
                self.error("zero denominator", den)
            value /= divisor    # an integer >= 1, so the value stays in range
        return value


def parse_expr(text: str) -> Expr:
    """Parse one expression; raises ExpressionError with a position on
    failure, nesting deeper than MAX_DEPTH included."""
    return _Parser(text).parse()
