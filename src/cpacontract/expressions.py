"""Expression trees for right-hand sides: compiled evaluation, forward-mode
differentiation, and interval enclosure.

Variables are indexed 0..n with index 0 reserved for t. `compile_exprs`
turns a list of trees into one straight-line numpy function, generated
from the node types (never from the user's text); `values` may be shaped
(n+1,) for a single point or (n+1, N) for a batch. `compile_rk4` emits
the same trees, by the same emitter, into the oracle's unrolled RK4 loop
over Python floats, with the same bits; the subtrees that read t alone
are tabulated before that loop by the numpy code. Interval evaluation
takes parallel lower/upper arrays and returns a sound enclosure, widened
by a relative epsilon inflation instead of directed rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ExpressionSyntaxError, UnknownSymbolError

DEFAULT_INFLATION = 1e-12

_TWO_PI = 2.0 * math.pi


def _widen(lo, hi):
    m = np.maximum(np.abs(lo), np.abs(hi))
    return lo - DEFAULT_INFLATION * m, hi + DEFAULT_INFLATION * m


def _interval_mul(alo, ahi, blo, bhi):
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return lo, hi


def _contains_crit(lo, hi, offset):
    # True where some offset + 2*pi*k lies in [lo, hi]
    return np.floor((hi - offset) / _TWO_PI) >= np.ceil((lo - offset) / _TWO_PI)


class Expr:
    """Base expression node. Subclasses implement iv / diff."""

    def iv(self, lo, hi):
        raise NotImplementedError

    def diff(self, k):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def iv(self, lo, hi):
        return self.value, self.value

    def diff(self, k):
        return Const(0.0)

    def __str__(self):
        return repr(self.value)


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def iv(self, lo, hi):
        return lo[self.index], hi[self.index]

    def diff(self, k):
        return Const(1.0 if k == self.index else 0.0)

    def __str__(self):
        return "t" if self.index == 0 else f"x{self.index}"


class Add(Expr):
    __slots__ = ("a", "b")
    op = "+"

    def __init__(self, a, b):
        self.a, self.b = a, b

    def iv(self, lo, hi):
        alo, ahi = self.a.iv(lo, hi)
        blo, bhi = self.b.iv(lo, hi)
        return _widen(alo + blo, ahi + bhi)

    def diff(self, k):
        return add(self.a.diff(k), self.b.diff(k))

    def __str__(self):
        return f"({self.a} + {self.b})"


class Sub(Expr):
    __slots__ = ("a", "b")
    op = "-"

    def __init__(self, a, b):
        self.a, self.b = a, b

    def iv(self, lo, hi):
        alo, ahi = self.a.iv(lo, hi)
        blo, bhi = self.b.iv(lo, hi)
        return _widen(alo - bhi, ahi - blo)

    def diff(self, k):
        return sub(self.a.diff(k), self.b.diff(k))

    def __str__(self):
        return f"({self.a} - {self.b})"


class Mul(Expr):
    __slots__ = ("a", "b")
    op = "*"

    def __init__(self, a, b):
        self.a, self.b = a, b

    def iv(self, lo, hi):
        alo, ahi = self.a.iv(lo, hi)
        blo, bhi = self.b.iv(lo, hi)
        return _widen(*_interval_mul(alo, ahi, blo, bhi))

    def diff(self, k):
        return add(mul(self.a.diff(k), self.b), mul(self.a, self.b.diff(k)))

    def __str__(self):
        return f"({self.a} * {self.b})"


class Div(Expr):
    __slots__ = ("a", "b")
    op = "/"

    def __init__(self, a, b):
        self.a, self.b = a, b

    def iv(self, lo, hi):
        alo, ahi = self.a.iv(lo, hi)
        blo, bhi = self.b.iv(lo, hi)
        if np.any((blo <= 0.0) & (bhi >= 0.0)):
            raise DomainError("interval division through zero")
        rlo, rhi = 1.0 / bhi, 1.0 / blo
        return _widen(*_interval_mul(alo, ahi, rlo, rhi))

    def diff(self, k):
        num = sub(mul(self.a.diff(k), self.b), mul(self.a, self.b.diff(k)))
        return div(num, mul(self.b, self.b))

    def __str__(self):
        return f"({self.a} / {self.b})"


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def iv(self, lo, hi):
        alo, ahi = self.a.iv(lo, hi)
        return -ahi, -alo

    def diff(self, k):
        return neg(self.a.diff(k))

    def __str__(self):
        return f"(-{self.a})"


class Pow(Expr):
    """Integer power; negative exponents go through the reciprocal."""

    __slots__ = ("a", "p")

    def __init__(self, a, p):
        self.a, self.p = a, int(p)

    def iv(self, lo, hi):
        p = self.p
        if p < 0:
            inner = Pow(self.a, -p)
            ilo, ihi = inner.iv(lo, hi)
            if np.any((ilo <= 0.0) & (ihi >= 0.0)):
                raise DomainError("interval reciprocal through zero")
            return _widen(1.0 / ihi, 1.0 / ilo)
        alo, ahi = self.a.iv(lo, hi)
        plo, phi = alo**p, ahi**p
        if p % 2 == 0 and p > 0:
            crosses = (alo <= 0.0) & (ahi >= 0.0)
            lo_out = np.where(crosses, 0.0, np.minimum(plo, phi))
            hi_out = np.maximum(plo, phi)
            return _widen(lo_out, hi_out)
        return _widen(plo, phi)

    def diff(self, k):
        if self.p == 0:
            return Const(0.0)
        return mul(mul(Const(self.p), ipow(self.a, self.p - 1)), self.a.diff(k))

    def __str__(self):
        return f"({self.a} ^ {self.p})"


class Fun(Expr):
    """Whitelisted unary function: sin, cos, exp."""

    __slots__ = ("name", "a")

    _EV = {"sin": np.sin, "cos": np.cos, "exp": np.exp}

    def __init__(self, name, a):
        self.name, self.a = name, a

    def iv(self, lo, hi):
        alo, ahi = self.a.iv(lo, hi)
        if self.name == "exp":
            return _widen(np.exp(alo), np.exp(ahi))
        if self.name == "sin":
            va, vb = np.sin(alo), np.sin(ahi)
            hi_out = np.where(_contains_crit(alo, ahi, 0.5 * math.pi), 1.0,
                              np.maximum(va, vb))
            lo_out = np.where(_contains_crit(alo, ahi, -0.5 * math.pi), -1.0,
                              np.minimum(va, vb))
        else:
            va, vb = np.cos(alo), np.cos(ahi)
            hi_out = np.where(_contains_crit(alo, ahi, 0.0), 1.0,
                              np.maximum(va, vb))
            lo_out = np.where(_contains_crit(alo, ahi, math.pi), -1.0,
                              np.minimum(va, vb))
        lo_out, hi_out = _widen(lo_out, hi_out)
        return np.maximum(lo_out, -1.0), np.minimum(hi_out, 1.0)

    def diff(self, k):
        inner = self.a.diff(k)
        if self.name == "sin":
            return mul(call("cos", self.a), inner)
        if self.name == "cos":
            return neg(mul(call("sin", self.a), inner))
        return mul(self, inner)

    def __str__(self):
        return f"{self.name}({self.a})"


# Smart constructors with constant folding, so derivative trees stay small.

def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a, b):
    if _is_const(b) and b.value != 0.0:
        if _is_const(a):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if _is_const(a, 0.0):
        return Const(0.0)
    return Div(a, b)


def neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def ipow(a, p):
    p = int(p)
    if p == 0:
        return Const(1.0)
    if p == 1:
        return a
    if _is_const(a):
        with np.errstate(all="ignore"):
            return Const(np.float64(a.value) ** p)
    return Pow(a, p)


def call(name, a):
    if _is_const(a):
        with np.errstate(all="ignore"):
            return Const(float(Fun._EV[name](a.value)))
    return Fun(name, a)


def _ipow(x, p):
    """x ** p for an integer p by repeated squaring: products and, for
    p < 0, one division, each rounded once, so that a numpy scalar and an
    array give the same bits (numpy's `**` rounds the two differently)."""
    if p < 0:
        return 1.0 / _ipow(x, -p)
    if p < 2:
        return x ** p   # 1 or x, exactly
    half = _ipow(x, p // 2)
    return half * half * x if p % 2 else half * half


def _div(a, b):
    """a / b on Python floats, a zero b divided as a float64: numpy's inf
    or nan instead of ZeroDivisionError."""
    return a / b if b else a / np.float64(b)


def _variables(e):
    """Indices of the variables that tree e reads."""
    if isinstance(e, Var):
        return {e.index}
    return set().union(*(_variables(getattr(e, s)) for s in ("a", "b")
                         if s in e.__slots__))


def _time_subtrees(e):
    """The maximal subtrees of e that read t alone, t itself among them."""
    if _variables(e) == {0}:
        return [e]
    return [s for c in ("a", "b") if c in e.__slots__
            for s in _time_subtrees(getattr(e, c))]


def _emit(exprs, targets, names, env, lines, indent="    ", table=None):
    """Append `target = tree` to `lines` for each pair, reading variable i
    (t for i = 0) as `names(i)`; constants are bound in `env`.

    Each tree becomes one nested expression applying the same operators
    and ufuncs in the same order as a recursive walk, so results are
    bit-identical to it, and numpy can reuse temporaries. Integer powers
    are taken by repeated squaring (`_ipow`), so one point given as numpy
    scalars and a batch of points give the same bits. Constants are
    bound by value as float64, so non-finite ones survive and `1/0` gives
    inf instead of raising; callers own the `np.errstate` and the
    finiteness check.

    With `table`, the code is for one point over Python floats, with the
    same bits, since IEEE +, -, * and / round alike on Python floats and
    on float64. Each maximal subtree that reads t alone, t itself aside,
    is read as the text `table(tree)`. Constants are Python floats, and a
    function value is the numpy ufunc's at the point, converted by
    `float`. Each division whose divisor is not a nonzero constant, and
    each negative power, goes through `_div`, which divides a zero divisor
    as a float64, so that it gives numpy's inf or nan and never raises
    ZeroDivisionError.
    """
    def emit(e):
        """Source text of e and its nesting depth."""
        if table and not isinstance(e, Var) and _variables(e) == {0}:
            return table(e), 0
        if isinstance(e, Const):
            name = f"_c{len(env)}"
            env[name] = e.value if table else np.float64(e.value)
            return name, 0
        if isinstance(e, Var):
            return names(e.index), 0
        parts = [emit(getattr(e, s)) for s in ("a", "b") if s in e.__slots__]
        a = [text for text, _ in parts]
        if isinstance(e, Neg):
            text = f"-{a[0]}"
        elif isinstance(e, Pow):
            if table and e.p < 0:
                text = f"_div(1.0, _ipow({a[0]}, {-e.p:d}))"
            else:
                text = f"_ipow({a[0]}, {e.p:d})"
        elif isinstance(e, Fun):
            if e.name not in Fun._EV:
                raise ValueError(f"function {e.name!r} is not whitelisted")
            text = f"{e.name}({a[0]})"
            text = f"float({text})" if table else text
        elif table and isinstance(e, Div) and not (
                _is_const(e.b) and e.b.value != 0.0):
            text = f"_div({a[0]}, {a[1]})"
        else:
            text = f"{a[0]} {e.op} {a[1]}"
        depth = 1 + max(d for _, d in parts)
        if depth > 32:      # stay well inside the parser's nesting limit
            lines.append(f"{indent}_{len(lines)} = {text}\n")
            return f"_{len(lines) - 1}", 0
        return f"({text})", depth

    for target, e in zip(targets, exprs):
        lines.append(f"{indent}{target} = {emit(e)[0]}\n")


def compile_exprs(exprs):
    """Compile trees into one function `compiled(v, out)` that writes the
    value of tree j to `out[..., j]`, reading variable i as `v[i]` (see
    `_emit`)."""
    env, lines = dict(Fun._EV, _ipow=_ipow), ["def compiled(v, out):\n"]
    _emit(exprs, [f"out[..., {j}]" for j in range(len(exprs))],
          "v[{}]".format, env, lines)
    exec(compile("".join(lines), "<expressions>", "exec"), env)
    return env["compiled"]


def compile_rk4(f, jac=None):
    """The classical RK4 loop for x' = f(t, x) as one function `rk4(t0, h,
    steps, y, record)`, its four stages unrolled; with `jac`, the trees of
    D_x f, the state is x and then the row-major Phi of Phi' = D_x f Phi.

    The loop runs over Python floats with the bits of `compile_exprs` (see
    `_emit`), and `1/0` gives inf (callers own the `np.errstate`). Each
    subtree that reads t alone is tabulated before the loop, once for
    each stage time t, t + h/2 and t + h, by `compile_exprs`'s array code
    over the step grid t0 + arange(steps) * h, which holds each step's t
    bit for bit; f and D_x f share a table when the subtree's text is the
    same. numpy's sin, cos and exp give the same bits on a batch as on one
    point, so the tables hold the values that the loop would compute.
    Stage inputs are x + k*c, the new state
    x + (((k1 + k2*2) + k3*2) + k4)*(h/6). At n >= 2, D_x f Phi is one
    `np.matmul` per stage, which keeps the bits of its fused products.
    `record`, unless None, gets each new finite state as a tuple. Returns
    (done, domain, state): the first step whose new state is non-finite,
    or `steps`; whether one of its stage evaluations was non-finite; and
    the state after the last step taken.
    """
    n, jac = len(f), list(jac or ())
    trees = list(f) + jac
    size = len(trees)
    env = dict(Fun._EV, _ipow=_ipow, isfinite=math.isfinite, _div=_div,
                _mm=np.matmul, _arr=np.array,
               _arange=np.arange)
    x, a, new = ([f"{c}{j}" for j in range(size)] for c in "xan")
    state, evals, body = ", ".join(x) + ",", [], " " * 8
    lines = ["def rk4(t0, h, steps, y, record):\n",
             f"    {state} = map(float, y)\n",
             "    t0, h = float(t0), float(h)\n",
             "    hh, w = 0.5 * h, h / 6.0\n"]
    found = {str(s): s for e in trees for s in _time_subtrees(e)}
    bare = found.pop("t", None) is not None
    tables = {key: k for k, key in enumerate(found)}
    if found:
        lines += ["    _g0 = t0 + _arange(steps) * h\n",
                  "    _g1, _g2 = _g0 + hh, _g0 + h\n"]
        for g in range(3):
            grid = [f"_T{k}_{g}" for k in range(len(found))]
            _emit(list(found.values()), grid, [f"_g{g}"].__getitem__, env,
                  lines)
            lines += [f"    {T} = {T}.tolist()\n" for T in grid]
    lines.append("    for i in range(steps):\n")
    if bare:
        lines += [f"{body}t = t0 + i * h\n", f"{body}th, tn = t + hh, t + h\n"]

    def put(*code):
        lines.extend(f"{body}{line}\n" for line in code)

    for s, (g, c) in enumerate(((0, ""), (1, "hh"), (1, "hh"), (2, "h"))):
        v, k = a if s else x, [f"k{s}_{j}" for j in range(size)]
        if s:
            put(*(f"{a[j]} = {x[j]} + k{s - 1}_{j} * {c}" for j in range(size)))
        evals += k[:n] + [f"j{s}_{l}" for l in range(len(jac))]
        _emit(trees, evals[-size:], ([("t", "th", "tn")[g]] + v).__getitem__,
              env, lines, body, lambda e, g=g: f"_T{tables[str(e)]}_{g}[i]")
        if jac and n == 1:
            put(f"{k[1]} = j{s}_0 * {v[1]}")
        elif jac:
            put(f"{', '.join(k[n:])}, = _mm(_arr(({', '.join(evals[-n * n:])}"
                f")).reshape({n}, {n}), _arr(({', '.join(v[n:])})).reshape("
                f"{n}, {n})).ravel().tolist()")
    put(*(f"{new[j]} = {x[j]} + (k0_{j} + k1_{j} * 2.0 + k2_{j} * 2.0 "
          f"+ k3_{j}) * w" for j in range(size)),
        f"if not ({' and '.join(f'isfinite({e})' for e in new)}):",
        f"    return i, not ({' and '.join(f'isfinite({e})' for e in evals)}"
        f"), ({', '.join(new)},)",
        f"{state} = {', '.join(new)},", "if record is not None:",
        f"    record(({state}))")
    lines.append(f"    return steps, False, ({state})\n")
    exec(compile("".join(lines), "<expressions>", "exec"), env)
    return env["rk4"]


FUNCTIONS = ("sin", "cos", "exp")

_CONSTANTS = {"pi": math.pi, "e": math.e}


class _Tokenizer:
    def __init__(self, text, base):
        self.text = text
        self.base = base  # global offset for error positions
        self.pos = 0
        self.tokens = []
        self._scan()
        self.i = 0

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            start = i
            if ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
                j = i
                while j < len(text) and (text[j].isdigit() or text[j] == "."):
                    j += 1
                if j < len(text) and text[j] in "eE":
                    k = j + 1
                    if k < len(text) and text[k] in "+-":
                        k += 1
                    if k < len(text) and text[k].isdigit():
                        j = k
                        while j < len(text) and text[j].isdigit():
                            j += 1
                self.tokens.append(("num", text[i:j], self.base + start))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], self.base + start))
                i = j
            elif text.startswith("**", i):
                self.tokens.append(("op", "^", self.base + start))
                i += 2
            elif ch in "+-*/^()":
                self.tokens.append(("op", ch, self.base + start))
                i += 1
            else:
                raise ExpressionSyntaxError(f"unexpected character {ch!r}", self.base + start)
        self.tokens.append(("end", "", self.base + len(text)))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


class ExpressionParser:
    """Recursive-descent parser over the closed function whitelist.

    Grammar:
        expr   := term (('+'|'-') term)*
        term   := unary (('*'|'/') unary)*
        unary  := ('+'|'-') unary | power
        power  := atom ('^' unary)?        -- exponent must be an integer literal
        atom   := number | 't' | 'x<k>' | const | fun '(' expr ')' | '(' expr ')'
    """

    def __init__(self, n_vars):
        self.n = n_vars

    def parse(self, text, base_offset=0):
        tz = _Tokenizer(text, base_offset)
        expr = self._expr(tz)
        kind, val, pos = tz.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {val!r}", pos)
        return expr

    def _expr(self, tz):
        node = self._term(tz)
        while True:
            kind, val, _ = tz.peek()
            if kind == "op" and val in "+-":
                tz.next()
                rhs = self._term(tz)
                node = add(node, rhs) if val == "+" else sub(node, rhs)
            else:
                return node

    def _term(self, tz):
        node = self._unary(tz)
        while True:
            kind, val, _ = tz.peek()
            if kind == "op" and val in "*/":
                tz.next()
                rhs = self._unary(tz)
                node = mul(node, rhs) if val == "*" else div(node, rhs)
            else:
                return node

    def _unary(self, tz):
        kind, val, _ = tz.peek()
        if kind == "op" and val in "+-":
            tz.next()
            inner = self._unary(tz)
            return inner if val == "+" else neg(inner)
        return self._power(tz)

    def _power(self, tz):
        base = self._atom(tz)
        kind, val, pos = tz.peek()
        if kind == "op" and val == "^":
            tz.next()
            exp = self._unary(tz)
            if not isinstance(exp, Const) or not math.isfinite(exp.value) \
                    or exp.value != int(exp.value):
                raise ExpressionSyntaxError("exponent must be an integer literal", pos)
            return ipow(base, int(exp.value))
        return base

    def _atom(self, tz):
        kind, val, pos = tz.next()
        if kind == "num":
            try:
                return Const(float(val))
            except ValueError:
                raise ExpressionSyntaxError(f"bad number {val!r}", pos) from None
        if kind == "name":
            if val == "t":
                return Var(0)
            if val in _CONSTANTS:
                return Const(_CONSTANTS[val])
            if val in FUNCTIONS:
                k2, v2, p2 = tz.next()
                if k2 != "op" or v2 != "(":
                    raise ExpressionSyntaxError(f"expected '(' after {val}", p2)
                arg = self._expr(tz)
                k3, v3, p3 = tz.next()
                if k3 != "op" or v3 != ")":
                    raise ExpressionSyntaxError("expected ')'", p3)
                return call(val, arg)
            if val.startswith("x") and val[1:].isdigit():
                idx = int(val[1:])
                if not 1 <= idx <= self.n:
                    raise UnknownSymbolError(
                        f"variable {val} out of range for dimension {self.n}")
                return Var(idx)
            raise UnknownSymbolError(f"unknown symbol {val!r}")
        if kind == "op" and val == "(":
            node = self._expr(tz)
            k2, v2, p2 = tz.next()
            if k2 != "op" or v2 != ")":
                raise ExpressionSyntaxError("expected ')'", p2)
            return node
        if kind == "end":
            raise ExpressionSyntaxError("unexpected end of expression", pos)
        raise ExpressionSyntaxError(f"unexpected token {val!r}", pos)


def interval_bound_abs(expr, lo, hi):
    """Upper bound of |expr| over the box [lo, hi] (arrays broadcast)."""
    blo, bhi = expr.iv(np.asarray(lo, dtype=float),
                       np.asarray(hi, dtype=float))
    return np.maximum(np.abs(blo), np.abs(bhi))
