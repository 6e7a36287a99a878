"""Textual first-order safety-constraint language over state vectors.

Formulas combine p-norm distance atoms and state-component bounds with
boolean connectives and bounded universal quantification over named sets of
anchor points. Grammar (EBNF):

    formula    := disj
    disj       := conj ("or" conj)*
    conj       := unit ("and" unit)*
    unit       := "not" unit
                | "(" formula ")"
                | ("forall" | "exists") IDENT "in" IDENT ":" unit
                | comparison
    comparison := expr CMP expr            CMP in { <= < >= > }
    expr       := ["-"] NUMBER | "s" "[" INT "]" | norm
    norm       := ("norm1"|"norm2"|"norminf") "(" ref "-" ref ")"
    ref        := "s" | "s" "." IDENT | IDENT | point
    point      := "[" ["-"] NUMBER ("," ["-"] NUMBER)* "]"

"#" starts a comment running to end of line. Constraint files (.fl) hold one
formula, possibly spanning lines. "exists" is sugar for not-forall-not. A
quantifier variable may not be named "s": "s" in a norm is the state.
Parentheses, "not"s and quantifiers nest at most MAX_NESTING deep, counted
together with "exists" as the three levels it stands for, and quantifiers
at most MAX_QUANTIFIERS deep.

A parsed Formula is bound against an ObjectRegistry (quantifier domains) and
a state schema (component count, named slices) to produce a BoundFormula
that evaluates states, one at a time or as a batch of rows.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

CMP_OPS = ("<=", "<", ">=", ">")

_KEYWORDS = {"and", "or", "not", "forall", "exists", "in"}
_NORM_NAMES = {"norm1": 1.0, "norm2": 2.0, "norminf": math.inf}

# Parsing, binding, rendering and scoring each recurse once per level of
# parentheses, "not" and quantifier, so the parser refuses a deeper nest
# before Python's recursion limit can. Each enclosing quantifier adds one
# axis to the arrays a formula is scored on, beside the rows and, for a
# norm operand's constants, the components; a numpy array has at most 64
# axes (32 before numpy 2).
MAX_NESTING = 100
MAX_QUANTIFIERS = (64 if int(np.__version__.split(".")[0]) >= 2 else 32) - 2
# the levels each unit opens: "exists" is parsed as not-forall-not, which
# to_text writes back as such
_NESTING = {"NOT": 1, "LPAREN": 1, "FORALL": 1, "EXISTS": 3}


class FLSyntaxError(ValueError):
    """Lexical or grammatical error, carrying 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class BindError(ValueError):
    """Formula refers to something the registry or schema does not provide."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class Component:
    index: int


@dataclass(frozen=True)
class StateRef:
    """The full state vector, or a named slice of it."""

    slice_name: Optional[str] = None


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class PointLiteral:
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("PointLiteral needs at least 1 value")


VectorExpr = Union[StateRef, VarRef, PointLiteral]


@dataclass(frozen=True)
class NormDistance:
    p: float
    left: VectorExpr
    right: VectorExpr


ScalarExpr = Union[Literal, Component, NormDistance]


@dataclass(frozen=True)
class Comparison:
    lhs: ScalarExpr
    op: str
    rhs: ScalarExpr


@dataclass(frozen=True)
class Atom:
    cmp: Comparison


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("And needs at least 2 children")


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Or needs at least 2 children")


@dataclass(frozen=True)
class ForAll:
    var: str
    set_name: str
    body: "Formula"


Formula = Union[Atom, Not, And, Or, ForAll]


# ---------------------------------------------------------------------------
# Object registry


class ObjectRegistry:
    """Named finite sets of anchor points that quantifiers range over.

    Each set is an (m, k) array of points. An empty set is stored as
    (0, 0) and makes its quantifier vacuous; points of width 0 are refused.
    """

    def __init__(self):
        self.sets: dict[str, np.ndarray] = {}

    def add_set(self, name: str, points) -> None:
        if name in self.sets:
            raise ValueError(f"registry set {name!r} already exists")
        arr = np.asarray(points, dtype=np.float64)
        if arr.size == 0:
            if len(arr):
                raise ValueError(f"set {name!r}: {len(arr)} anchor points of width 0")
            arr = arr.reshape(0, 0)
        if arr.ndim != 2:
            raise ValueError(f"set {name!r}: points must form an (m, k) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"set {name!r}: non-finite anchor point")
        self.sets[name] = arr

    def names(self) -> list[str]:
        return list(self.sets)

    def points(self, name: str) -> np.ndarray:
        return self.sets[name]

    def __contains__(self, name: str) -> bool:
        return name in self.sets


# ---------------------------------------------------------------------------
# Norms


def _running_norm(left: list, right: list, p: float):
    """The p-norm of `left - right`, for p in {1, 2, inf}, over two operands
    given as one closure per component (each maps the state matrix to a
    (rows, anchors...) plane, up to broadcasting). The component planes of
    the difference are summed (or maxed) in order, so no (rows, anchors,
    width) array is built. Below 8 components that is bit for bit what
    np.sum gives; from 8 on np.sum adds pairwise, a few ulp away."""
    pairs = tuple(zip(left, right))
    square = p == 2.0
    combine = np.maximum if p == math.inf else np.add

    def norm(s):
        acc = None
        for a, b in pairs:
            d = a(s) - b(s)
            if square:
                d *= d  # (-x) * (-x) == x * x, so no abs
            else:
                np.abs(d, out=d)
            acc = d if acc is None else combine(acc, d, out=acc)
        return np.sqrt(acc, out=acc) if square else acc

    return norm


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


# One named group per token kind, tried in order; every character is matched
# by some group. Digits are ASCII only: str.isdigit also accepts digits such
# as '²' or '٣', which float() and int() then reject or read as other numbers.
_TOKEN_RE = re.compile(r"""
    (?P<NEWLINE>\n)
  | (?P<SKIP>[ \t\r]+ | \#[^\n]*)
  | (?P<NUMBER>[0-9]+ (?:\.[0-9]+)? (?:[eE][+-]?[0-9]+)?)
  | (?P<IDENT>\w+)          # must start where str.isalpha() or "_" holds
  | (?P<CMP>[<>]=?)
  | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<LBRACKET>\[) | (?P<RBRACKET>\])
  | (?P<COMMA>,) | (?P<COLON>:) | (?P<MINUS>-) | (?P<DOT>\.)
  | (?P<BAD>.)
""", re.VERBOSE)


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind == "BAD" or (kind == "IDENT" and not (text[0].isalpha() or text[0] == "_")):
            raise FLSyntaxError(f"unexpected character {text[0]!r}", line, col)
        elif kind != "SKIP":
            if kind == "IDENT" and text in _KEYWORDS:
                kind = text.upper()
            tokens.append(_Token(kind, text, line, col))
    tokens.append(_Token("EOF", "", line, len(source) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent following the grammar above)


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # the units open around the current token

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            self.fail(f"expected {what}, got {self.cur.text or 'end of input'!r}")
        return self.advance()

    def fail(self, message: str):
        raise FLSyntaxError(message, self.cur.line, self.cur.col)

    def parse(self) -> Formula:
        f = self.formula()
        if self.cur.kind != "EOF":
            self.fail(f"trailing input {self.cur.text!r}")
        return f

    def formula(self) -> Formula:
        parts = [self.conj()]
        while self.cur.kind == "OR":
            self.advance()
            parts.append(self.conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conj(self) -> Formula:
        parts = [self.unit()]
        while self.cur.kind == "AND":
            self.advance()
            parts.append(self.unit())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unit(self) -> Formula:
        kind = self.cur.kind
        if kind not in _NESTING:
            return self.comparison()
        if self.depth + _NESTING[kind] > MAX_NESTING:
            self.fail(f"more than {MAX_NESTING} nested parentheses, 'not's and quantifiers")
        self.depth += _NESTING[kind]
        self.advance()
        if kind == "NOT":
            inner = Not(self.unit())
        elif kind == "LPAREN":
            inner = self.formula()
            self.expect("RPAREN", "')'")
        else:
            var = self.expect("IDENT", "a variable name").text
            self.expect("IN", "'in'")
            set_name = self.expect("IDENT", "a set name").text
            self.expect("COLON", "':'")
            body = self.unit()
            if kind == "EXISTS":
                inner = Not(ForAll(var, set_name, Not(body)))
            else:
                inner = ForAll(var, set_name, body)
        self.depth -= _NESTING[kind]
        return inner

    def comparison(self) -> Formula:
        lhs = self.scalar_expr()
        if self.cur.kind != "CMP":
            self.fail(f"expected a comparison operator, got {self.cur.text or 'end of input'!r}")
        op = self.advance().text
        rhs = self.scalar_expr()
        return Atom(Comparison(lhs, op, rhs))

    def scalar_expr(self) -> ScalarExpr:
        tok = self.cur
        if tok.kind in ("MINUS", "NUMBER"):
            return Literal(self.signed_number())
        if tok.kind == "IDENT":
            if tok.text in _NORM_NAMES:
                return self.norm()
            if tok.text == "s":
                self.advance()
                self.expect("LBRACKET", "'[' (component index)")
                idx = self.expect("NUMBER", "a component index")
                if "." in idx.text or "e" in idx.text or "E" in idx.text:
                    raise FLSyntaxError("component index must be an integer", idx.line, idx.col)
                self.expect("RBRACKET", "']'")
                return Component(int(idx.text))
        self.fail(f"expected a number, s[i] or a norm, got {tok.text or 'end of input'!r}")

    def norm(self) -> NormDistance:
        name = self.advance()
        p = _NORM_NAMES[name.text]
        self.expect("LPAREN", "'('")
        left = self.vector_ref()
        self.expect("MINUS", "'-'")
        right = self.vector_ref()
        self.expect("RPAREN", "')'")
        return NormDistance(p, left, right)

    def vector_ref(self) -> VectorExpr:
        tok = self.cur
        if tok.kind == "IDENT":
            self.advance()
            if tok.text == "s":
                if self.cur.kind == "DOT":
                    self.advance()
                    slice_name = self.expect("IDENT", "a slice name").text
                    return StateRef(slice_name)
                return StateRef(None)
            return VarRef(tok.text)
        if tok.kind == "LBRACKET":
            self.advance()
            values = [self.signed_number()]
            while self.cur.kind == "COMMA":
                self.advance()
                values.append(self.signed_number())
            self.expect("RBRACKET", "']'")
            return PointLiteral(tuple(values))
        self.fail(f"expected s, s.<slice>, a variable or a point, got {tok.text or 'end of input'!r}")

    def signed_number(self) -> float:
        neg = False
        if self.cur.kind == "MINUS":
            self.advance()
            neg = True
        tok = self.expect("NUMBER", "a number")
        v = float(tok.text)
        # an overflowing number reads as inf, which to_text cannot write back
        if not math.isfinite(v):
            raise FLSyntaxError(f"number {tok.text} is too large for a float", tok.line, tok.col)
        return -v if neg else v


def parse(source: str) -> Formula:
    """Parse a formula; raises FLSyntaxError with position on bad input."""
    return _Parser(source).parse()


def load_constraint_file(path) -> Formula:
    """Read a .fl file (one formula, '#' comments) and parse it."""
    with open(path) as fp:
        return parse(fp.read())


# ---------------------------------------------------------------------------
# Rendering


def _fmt_number(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _norm_keyword(p: float) -> str:
    for name, order in _NORM_NAMES.items():
        if order == p:
            return name
    raise ValueError(f"no textual form for norm order {p}")


def _ref_text(ref: VectorExpr) -> str:
    if isinstance(ref, StateRef):
        return "s" if ref.slice_name is None else f"s.{ref.slice_name}"
    if isinstance(ref, VarRef):
        return ref.name
    return "[" + ",".join(_fmt_number(v) for v in ref.values) + "]"


def _expr_text(expr: ScalarExpr) -> str:
    if isinstance(expr, Literal):
        return _fmt_number(expr.value)
    if isinstance(expr, Component):
        return f"s[{expr.index}]"
    return f"{_norm_keyword(expr.p)}({_ref_text(expr.left)} - {_ref_text(expr.right)})"


def to_text(formula: Formula) -> str:
    """Canonical rendering; parse(to_text(f)) is structurally equal to f."""

    def unit(f: Formula) -> str:
        if isinstance(f, Atom):
            c = f.cmp
            return f"{_expr_text(c.lhs)} {c.op} {_expr_text(c.rhs)}"
        if isinstance(f, Not):
            return "not " + unit(f.child)
        if isinstance(f, ForAll):
            return f"forall {f.var} in {f.set_name}: " + unit(f.body)
        return "(" + full(f) + ")"

    def conj(f: Formula) -> str:
        if isinstance(f, And):
            return " and ".join(unit(c) for c in f.children)
        return unit(f)

    def full(f: Formula) -> str:
        if isinstance(f, Or):
            return " or ".join(conj(c) for c in f.children)
        return conj(f)

    return full(formula)


# ---------------------------------------------------------------------------
# Binding and compilation
#
# bind() checks and compiles the formula in one walk, into a tree of
# closures; a name or width the registry and schema do not provide raises
# BindError at the node that uses it, also inside a quantifier over an empty
# set. Each closure maps the (n, size) state matrix to a boolean array with
# one axis for the rows and one per enclosing quantifier: a quantified
# variable is its set's anchors stacked along that variable's axis, so
# `forall` is `.all()` over the last axis and needs no loop. A norm operand
# compiles to one closure per component: a state column read, or a constant
# plane of anchors or point values; every norm is the one running norm over
# the two lists. Everything that does not read the state (literals, anchors,
# point literals, norms between them) is resolved once, here.


_CMP_FN = {"<=": np.less_equal, "<": np.less, ">=": np.greater_equal, ">": np.greater}


def _column(i: int, depth: int):
    """A closure reading state component i, with one unit axis per
    quantifier after the row axis."""
    if depth == 0:
        return lambda s: s[:, i]
    shape = (-1,) + (1,) * depth
    return lambda s: s[:, i].reshape(shape)


def _constant(value: np.ndarray):
    """A closure for a result that does not read the state: `value`
    repeated over the rows (a fresh array per call)."""
    return lambda s: np.repeat(value, len(s), axis=0)


def _never_scored(s):
    """The closure of a norm over a variable whose set is empty: the
    vacuous quantifier returns a constant and never calls its body."""
    raise AssertionError("a quantifier over an empty set scored its body")


def _flatten(f: Formula) -> list:
    """Children of f, with nested connectives of f's own kind spliced in."""
    out = []
    for c in f.children:
        out.extend(_flatten(c) if type(c) is type(f) else [c])
    return out


class BoundFormula:
    """A formula closed over a registry and schema, ready to score states."""

    def __init__(self, formula: Formula, registry: ObjectRegistry, schema):
        self.formula = formula
        self.registry = registry
        self.schema = schema
        self._fn = self._compile(formula, ())

    # -- checked compilation ------------------------------------------------
    # Each node is checked where it is compiled, so the first BindError in
    # reading order is raised. `scope` lists the (variable, anchors) of the
    # enclosing quantifiers, outermost first; its length is the depth. A
    # closure at depth D returns an array of ndim D + 1 whose first axis has
    # the n rows.

    def _state_columns(self, ref: StateRef) -> tuple[int, ...]:
        if ref.slice_name is None:
            return tuple(range(self.schema.size))
        slices = self.schema.slices
        if ref.slice_name not in slices:
            raise BindError(f"unknown state slice {ref.slice_name!r}; schema has {sorted(slices)}")
        return slices[ref.slice_name]

    def _compile(self, f: Formula, scope: tuple):
        if isinstance(f, Atom):
            return self._compile_atom(f.cmp, scope)
        if isinstance(f, Not):
            child = self._compile(f.child, scope)
            return lambda s: ~child(s)
        if isinstance(f, (And, Or)):
            return self._compile_connective(f, scope)
        if len(scope) == MAX_QUANTIFIERS:
            raise BindError(f"more than {MAX_QUANTIFIERS} nested quantifiers")
        if f.var == "s":
            raise BindError("quantifier variable 's' would be read as the state; rename it")
        if f.set_name not in self.registry:
            raise BindError(f"unknown object set {f.set_name!r}")
        points = self.registry.points(f.set_name)
        body = self._compile(f.body, scope + ((f.var, points),))
        if len(points) == 0:  # vacuous: true; the body is checked, never scored
            return _constant(np.ones((1,) * (len(scope) + 1), dtype=bool))
        return lambda s: body(s).all(axis=-1)

    def _compile_connective(self, f: Formula, scope: tuple):
        parts = [self._compile(c, scope) for c in _flatten(f)]
        if len(parts) == 1:
            return parts[0]
        combine = np.logical_and if isinstance(f, And) else np.logical_or
        first, rest = parts[0], parts[1:]

        def connective(s):
            acc = first(s)
            for part in rest:
                acc = combine(acc, part(s))
            return acc

        return connective

    def _compile_atom(self, cmp: Comparison, scope: tuple):
        op = _CMP_FN[cmp.op]
        lhs, lhs_fn = self._compile_scalar(cmp.lhs, scope)
        rhs, rhs_fn = self._compile_scalar(cmp.rhs, scope)
        if lhs_fn is None and rhs_fn is None:
            value = np.asarray(op(lhs, rhs))
            if value.ndim == 0:  # two literals
                value = value.reshape((1,) * (len(scope) + 1))
            return _constant(value)
        if rhs_fn is None:
            return lambda s: op(lhs_fn(s), rhs)
        if lhs_fn is None:
            return lambda s: op(lhs, rhs_fn(s))
        return lambda s: op(lhs_fn(s), rhs_fn(s))

    def _compile_scalar(self, expr: ScalarExpr, scope: tuple):
        """(constant, None) or (None, closure) for one side of an atom."""
        if isinstance(expr, Literal):
            return expr.value, None
        if isinstance(expr, Component):
            if not 0 <= expr.index < self.schema.size:
                raise BindError(
                    f"component s[{expr.index}] out of range for schema of size {self.schema.size}"
                )
            return None, _column(expr.index, len(scope))
        p = expr.p
        if p not in _NORM_NAMES.values():
            raise BindError(f"norm order {p} is not one of 1, 2, inf")
        left = self._compile_vector(expr.left, scope)
        right = self._compile_vector(expr.right, scope)
        if left is None or right is None:  # a variable over an empty set
            return None, _never_scored
        if len(left) != len(right):
            raise BindError(
                f"norm operands have different dimensions ({len(left)} vs {len(right)}); "
                "use a state slice (s.<name>) to select matching components"
            )
        norm = _running_norm(left, right, p)
        if not isinstance(expr.left, StateRef) and not isinstance(expr.right, StateRef):
            return norm(None), None
        return None, norm

    def _compile_vector(self, ref: VectorExpr, scope: tuple):
        """One closure per component of a norm operand, each returning a
        (rows, one axis per quantifier) array up to broadcasting; None for
        a variable over an empty set."""
        depth = len(scope)
        if isinstance(ref, StateRef):
            return [_column(i, depth) for i in self._state_columns(ref)]
        if isinstance(ref, VarRef):
            # innermost binding of the name wins
            axis = {var: a for a, (var, _) in enumerate(scope)}.get(ref.name)
            if axis is None:
                raise BindError(f"unknown identifier {ref.name!r} (not bound by any quantifier)")
            points = scope[axis][1]
            if len(points) == 0:
                return None
            m, k = points.shape
            planes = points.T.reshape((k,) + (1,) * (axis + 1) + (m,) + (1,) * (depth - axis - 1))
        else:
            planes = np.array(ref.values, dtype=np.float64).reshape((-1,) + (1,) * (depth + 1))
        return [lambda s, c=c: c for c in planes]

    # -- evaluation ---------------------------------------------------------

    def evaluate_batch(self, states) -> np.ndarray:
        """Boolean satisfaction for each row of an (n, size) state matrix."""
        arr = np.asarray(states, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.schema.size:
            raise ValueError(
                f"expected states of shape (n, {self.schema.size}), got {arr.shape}"
            )
        if np.count_nonzero(np.isfinite(arr)) != arr.size:
            raise ValueError("non-finite state components")
        return self._fn(arr)

    def evaluate(self, state) -> bool:
        arr = np.asarray(state, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("expected a single 1-D state")
        return bool(self.evaluate_batch(arr[None, :])[0])


def bind(formula: Formula, registry: ObjectRegistry, schema) -> BoundFormula:
    """Resolve set and slice names; returns an evaluation-ready BoundFormula."""
    return BoundFormula(formula, registry, schema)
