"""Potential expression DSL: parser, evaluator, printer, gradient, droplet box.

Grammar (ASCII, with unicode multiply/divide accepted as aliases):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' integer)*          # integer exponents only
    atom   := NUMBER | 'x'<k> | ('exp'|'cos'|'sin') '(' expr ')' | '(' expr ')'

Precedence ^ > unary - > * / > + -, everything left associative, so
"-x1^2" is -(x1^2).  Number literals must be finite.  The printer emits
minimal parentheses in a canonical spacing ("a + b", "a*b", "x1^2") and
round-trips through the parser.  Gradients come from the same evaluator by
the complex step: every operation of the grammar is analytic, so
Im V(x + i t e_k) / t is dV/dx_k to rounding for a tiny real t.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "PotentialExpr",
    "parse_potential",
    "grad_potential",
    "lattice",
    "droplet_half_width",
    "choose_box",
]

_FUNCTIONS = ("exp", "cos", "sin")


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based: x1, x2, x3


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str  # exp, cos or sin
    arg: object


def _max_var(node):
    if isinstance(node, Var):
        return node.index
    if isinstance(node, Num):
        return 0
    if isinstance(node, Neg):
        return _max_var(node.child)
    if isinstance(node, BinOp):
        return max(_max_var(node.left), _max_var(node.right))
    if isinstance(node, Pow):
        return _max_var(node.base)
    if isinstance(node, Call):
        return _max_var(node.arg)
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]|×|÷))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip over any leading whitespace to report the offending char
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if bad >= len(text):
                break
            raise ValidationError(
                f"syntax error at offset {bad}: unexpected character {text[bad]!r}"
            )
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            op = m.group("op")
            op = {"×": "*", "÷": "/"}.get(op, op)
            tokens.append(("op", op, m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            return self.advance()
        raise ValidationError(f"syntax error at offset {off}: expected {op!r}")

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ValidationError(
                f"syntax error at offset {off}: unexpected {val!r}"
            )
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val == "^":
                self.advance()
                node = Pow(node, self.integer_exponent())
            else:
                return node

    def integer_exponent(self):
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            sign = -1
            kind, val, off = self.peek()
        if kind != "num" or not re.fullmatch(r"\d+", val):
            raise ValidationError(
                f"syntax error at offset {off}: exponent must be an integer"
            )
        self.advance()
        return sign * int(val)

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise ValidationError(
                    f"number {val!r} at offset {off} is not finite"
                )
            return Num(value)
        if kind == "ident":
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            m = re.fullmatch(r"x([0-9]+)", val)
            if m:
                index = int(m.group(1))
                if not 1 <= index <= 3:
                    raise ValidationError(
                        f"unknown identifier {val!r} at offset {off}: "
                        "variables are x1, x2, x3"
                    )
                return Var(index)
            raise ValidationError(f"unknown identifier {val!r} at offset {off}")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ValidationError(
            f"syntax error at offset {off}: unexpected "
            f"{'end of input' if kind == 'end' else val!r}"
        )


# ---------------------------------------------------------------------------
# evaluation / printing

def _evaluate(node, coords):
    """coords: list of real or complex arrays (or scalars), one per variable."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.index > len(coords):
            raise ValidationError(
                f"expression uses x{node.index} but the point has "
                f"dimension {len(coords)}"
            )
        return coords[node.index - 1]
    if isinstance(node, Neg):
        return -_evaluate(node.child, coords)
    if isinstance(node, BinOp):
        a = _evaluate(node.left, coords)
        b = _evaluate(node.right, coords)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Pow):
        base = _evaluate(node.base, coords)
        if np.iscomplexobj(base):
            return _complex_power(base, node.exponent)
        if node.exponent < 0:
            return base ** float(node.exponent)
        return base ** node.exponent
    if isinstance(node, Call):
        a = _evaluate(node.arg, coords)
        return getattr(np, node.func)(a)
    raise TypeError(f"not an AST node: {node!r}")


def _evaluate_checked(ast, coords):
    # constants are Python floats, whose arithmetic raises instead of
    # returning inf or nan as numpy arrays do
    try:
        return _evaluate(ast, coords)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(
            f"constant arithmetic in the potential fails: {exc}"
        ) from None


def _complex_power(z, k):
    """z**k by repeated squaring.

    numpy multiplies out complex integer powers only for |k| < 100 and goes
    through the polar form above that, which loses a complex step on a
    negative real part; squaring keeps it to rounding for every k.
    """
    result = np.ones_like(z)
    m = abs(k)
    while m:
        if m & 1:
            result = result * z
        m >>= 1
        if m:
            z = z * z
    return 1.0 / result if k < 0 else result


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_NEG_PREC = 3
_POW_PREC = 4
_ATOM_PREC = 5


def _precedence(node):
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _NEG_PREC
    if isinstance(node, Pow):
        return _POW_PREC
    return _ATOM_PREC


def _fmt_number(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _to_text(node):
    if isinstance(node, Num):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Neg):
        inner = _to_text(node.child)
        if _precedence(node.child) < _NEG_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        left = _to_text(node.left)
        if _precedence(node.left) < prec:
            left = f"({left})"
        right = _to_text(node.right)
        # all operators associate left, so equal precedence on the right
        # needs parentheses to round-trip structurally
        if _precedence(node.right) <= prec:
            right = f"({right})"
        joint = f" {node.op} " if node.op in "+-" else node.op
        return f"{left}{joint}{right}"
    if isinstance(node, Pow):
        base = _to_text(node.base)
        if _precedence(node.base) < _POW_PREC:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.func}({_to_text(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# public surface


class PotentialExpr:
    """A validated potential expression, evaluated on points or arrays."""

    def __init__(self, ast):
        self.ast = ast
        self.dimension = max(1, _max_var(ast))

    def __call__(self, point):
        """Evaluate at a point (n,) or an array of points (m, n).

        For n=1 a bare scalar or a flat array of scalars also works.
        """
        pt = np.asarray(point, dtype=float)
        if pt.ndim == 0:
            coords = [pt[()]]
        elif pt.ndim == 1:
            if self.dimension == 1:
                # a flat array of 1-d points
                coords = [pt]
            else:
                coords = list(pt)
        else:
            coords = [pt[..., k] for k in range(pt.shape[-1])]
        if len(coords) < self.dimension:
            raise ValidationError(
                f"point has dimension {len(coords)}, expected {self.dimension}"
            )
        out = _evaluate_checked(self.ast, coords)
        return np.asarray(out, dtype=float) + np.zeros(
            np.broadcast_shapes(*(np.shape(c) for c in coords)) or (),
        )

    def to_text(self):
        return _to_text(self.ast)

    def __repr__(self):
        return f"PotentialExpr({self.to_text()!r}, dimension={self.dimension})"


def parse_potential(text):
    """Parse the DSL into a PotentialExpr; errors carry character offsets."""
    if not isinstance(text, str) or not text.strip():
        raise ValidationError("empty potential expression")
    ast = _Parser(text).parse()
    return PotentialExpr(ast)


# the imaginary step: small enough that t^2 terms vanish beside any value
_STEP = 1e-20


def grad_potential(V, x):
    """Gradient of V at the point x, by the complex step.

    Evaluates V once on the n copies x + i t e_k and returns Im / t; there
    is no difference quotient, so no cancellation.
    """
    pt = np.asarray(x, dtype=float).reshape(-1)
    n = V.dimension
    if pt.size != n:
        raise ValidationError(f"point has dimension {pt.size}, expected {n}")
    copies = pt[:, None] + 1j * _STEP * np.eye(n)  # row j: x_j in each copy
    values = _evaluate_checked(V.ast, list(copies))
    return np.imag(np.broadcast_to(values, (n,))) / _STEP


def lattice(ax, n):
    """The points of ax^n as an (ax.size**n, n) array, x1-major."""
    return np.stack(np.meshgrid(*[ax] * n, indexing="ij"), -1).reshape(-1, n)


# the farthest any droplet scan or box reaches, and the scan's radial step
_MAX_HALF_WIDTH = 64.0
_SCAN_STEP = 0.05


def droplet_half_width(V, level):
    """Outermost |x|_inf among scanned points with V < level, by outward scan.

    Scans the rays along every nonzero direction in {-1, 0, 1}^n: axes and
    diagonals.  Raises when the sublevel set still shows up at
    _MAX_HALF_WIDTH, which signals an unconfined potential.
    """
    radii = np.arange(_SCAN_STEP, _MAX_HALF_WIDTH + _SCAN_STEP, _SCAN_STEP)
    outer = 0.0
    dirs = lattice(np.array([-1.0, 0.0, 1.0]), V.dimension)
    for d in dirs[np.any(dirs != 0.0, axis=1)]:
        pts = radii[:, None] * (d / np.linalg.norm(d))
        vals = V(pts)
        below = np.nonzero(vals < level)[0]
        if below.size:
            r = radii[below[-1]]
            if r >= _MAX_HALF_WIDTH - _SCAN_STEP:
                raise ValidationError(
                    f"unconfined potential: V < {level} persists out to "
                    f"|x|={_MAX_HALF_WIDTH}"
                )
            outer = max(outer, np.max(np.abs(pts[below[-1]])))
    return outer


def choose_box(V, M, margin):
    """Smallest half-width on a 0.5-lattice that safely contains {V <= M}.

    The box must dominate the droplet of level M + margin and satisfy
    V >= M + margin everywhere on its boundary, so that the Dirichlet
    truncation cannot disturb spectra below M.
    """
    level = M + margin
    if V.dimension > 2:  # before a 257^n boundary lattice
        raise ValidationError("boxes exist in dimensions 1 and 2 only")
    inner = droplet_half_width(V, level)  # raises when unconfined
    L = 0.5 * max(1.0, math.ceil(inner / 0.5))
    while L <= _MAX_HALF_WIDTH:
        if L >= inner and _boundary_min(V, L) >= level:
            return L
        L += 0.5
    raise ValidationError(
        f"no box with boundary above {level} found out to half-width "
        f"{_MAX_HALF_WIDTH:g}"
    )


def _boundary_min(V, L):
    # linspace ends are exactly -L and L, so this picks the box's faces
    pts = lattice(np.linspace(-L, L, 257), V.dimension)
    return float(np.min(V(pts[np.any(np.abs(pts) == L, axis=1)])))
