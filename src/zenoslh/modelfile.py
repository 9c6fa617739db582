"""Declarative model files.

A model file is a JSON document with up to six sections::

    {
      "name": "kerr_qubit",
      "spaces": {"mode": {"kind": "fock", "n_max": 6}},
      "parameters": {"chi0": 1.0, "alpha": [0.2, 0.0]},
      "operators": {"a": "annihilator(mode)", "num": "adjoint(a)*a"},
      "family": {
        "channels": 2,
        "S": [["1", "0"], ["0", "1"]],
        "L1": ["0", "0"],
        "L0": ["sqrt(kappa1)*a", "sqrt(kappa2)*a"],
        "H2": "chi0*adjoint(a)*adjoint(a)*a*a",
        "H1": "0",
        "H0": "Delta*num - i*sqrt(kappa1)*(alpha*adjoint(a) - conj(alpha)*a)"
      },
      "subspace": {"basis": [[0], [1]]}
    }

Spaces declare named tensor factors in order: kind ``qubit`` or ``spin``
(dimension 2), ``level`` with ``dim``, ``fock`` with ``n_max``.
Parameters are named finite scalars; complex values are written as
[re, im] pairs.  JSON ``true`` and ``false`` are never numbers.  Names
of factors, parameters and operators are identifiers matching
``[A-Za-z_][A-Za-z_0-9]*`` and neither primitives nor Python keywords
(``lambda``, ``in``, ``None``, ...).

Operator expressions are a whitelisted subset of Python expressions,
parsed by :mod:`ast`: ``+ - * /`` between values, unary ``-``,
parentheses, decimal number literals in ASCII digits (``2``, ``.5``,
``1e-3``), names, and calls of a primitive by its bare name.  Anything
else (``**``, attributes, ``0x1``, ``1_0``, ``1j``, trailing commas, ...)
is rejected with the column it starts at, and leading-zero integers
such as ``007`` are rejected as Python rejects them.  Syntax errors
carry Python's message.  There are no loops and no user functions.

Primitives: ``annihilator(factor)``, ``pauli(factor, axis)``,
``ketbra(factor, i, j)``, ``identity(factor)``, ``tensor(A, B)``,
``adjoint(A)``, plus the scalar helpers ``sqrt(x)`` and ``conj(x)`` and
the imaginary unit ``i``.  ``*`` multiplies scalars
and operators (operator products align factor coverage automatically),
``/`` divides by scalars, ``+``/``-`` combine operators.  Operators
named earlier in the section may be referenced later.  Family slots take
the same expressions; a bare scalar c is coerced to c * identity on the
full space, and a value that is not finite is rejected.

The ``subspace`` section is either ``"auto"`` (compute the split from
the kernel of the k^2 drift coefficient), or a ``basis`` list whose
entries are flat indices or per-factor index tuples.  Omitting the
section means ``"auto"``.
"""

from __future__ import annotations

import ast
import cmath
import hashlib
import json
import keyword
import re
from dataclasses import dataclass

import numpy as np

from .elimination import ScaledSLHFamily, find_zeno_subspace
from .operators import HilbertSpace, Operator, ZenoSplit, fock_annihilator, pauli

__all__ = [
    "ModelParseError",
    "ModelDocument",
    "parse_model",
    "load_model",
    "canonical_text",
    "model_digest",
]

_RESERVED = {
    "annihilator",
    "pauli",
    "ketbra",
    "identity",
    "tensor",
    "adjoint",
    "sqrt",
    "conj",
    "i",
}

_SPACE_KINDS = ("qubit", "spin", "level", "fock")


class ModelParseError(ValueError):
    """Model file rejected, with a location when one is available."""


# ---------------------------------------------------------------------------
# expression language
# ---------------------------------------------------------------------------

# characters an expression may hold besides whitespace
_FOREIGN = re.compile(r"[^A-Za-z0-9_.+\-*/(),\s]")
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _reserved(name) -> bool:
    return name in _RESERVED or keyword.iskeyword(name)


@dataclass(frozen=True)
class _Tagged:
    """Matrix covering an ordered subset of the declared factors."""

    mat: np.ndarray
    factors: tuple


class _Evaluator:
    def __init__(self, factor_order, factor_dims, factor_kinds, params):
        self.order = tuple(factor_order)
        self.dims = dict(factor_dims)
        self.kinds = dict(factor_kinds)
        self.params = params
        self.named = {}
        self.where = ""
        self.src = ""

    def fail(self, pos, msg):
        # a node that starts with the wrapping "(", as in "a, b", has offset 0
        raise ModelParseError(f"{self.where}: column {max(1, pos)}: {msg}")

    def evaluate(self, text, where):
        """Value of one expression: a scalar or a _Tagged operator."""
        self.where = where
        if not isinstance(text, str):
            raise ModelParseError(f"{where}: expected an expression string")
        foreign = _FOREIGN.search(text)
        if foreign:
            self.fail(foreign.start() + 1, f"unexpected character {foreign.group()!r}")
        # the text is now ASCII on one line, and the leading "(" makes each
        # node's col_offset its 1-based column in the text
        self.src = "(" + re.sub(r"\s", " ", text) + ")"
        try:
            # a value that is not finite stays so and is rejected once whole
            with np.errstate(all="ignore"):
                return self.eval(ast.parse(self.src, mode="eval").body)
        except SyntaxError as e:
            raise ModelParseError(f"{where}: column {max(1, e.offset - 1)}: {e.msg}") from None
        except RecursionError:
            raise ModelParseError(f"{where}: expression nested too deeply") from None

    # -- alignment ---------------------------------------------------------

    def embed(self, val: _Tagged, target) -> _Tagged:
        target = tuple(target)
        if val.factors == target:
            return val
        missing = [f for f in target if f not in val.factors]
        pad = 1
        for f in missing:
            pad *= self.dims[f]
        mat = np.kron(val.mat, np.eye(pad, dtype=complex))
        legs = list(val.factors) + missing
        dims_legs = [self.dims[f] for f in legs]
        perm = [legs.index(f) for f in target]
        nl = len(legs)
        t = mat.reshape(dims_legs + dims_legs)
        t = t.transpose([*perm, *[nl + p for p in perm]])
        d = int(np.prod([self.dims[f] for f in target]))
        return _Tagged(t.reshape(d, d), target)

    def align(self, a: _Tagged, b: _Tagged):
        union = tuple(f for f in self.order if f in a.factors or f in b.factors)
        return self.embed(a, union), self.embed(b, union)

    def to_full_operator(self, val) -> Operator:
        space = HilbertSpace(tuple(self.dims[f] for f in self.order))
        with np.errstate(all="ignore"):
            if isinstance(val, _Tagged):
                mat = self.embed(val, self.order).mat
            else:
                mat = complex(val) * np.eye(space.dim, dtype=complex)
        try:
            return Operator(space, mat)
        except ValueError:  # the only check mat can fail: entries not finite
            raise ModelParseError(f"{self.where}: value is not finite") from None

    # -- evaluation --------------------------------------------------------

    def eval(self, node):
        """Check one node against the grammar and evaluate it."""
        if isinstance(node, ast.BinOp):
            return self.eval_bin(node)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            v = self.eval(node.operand)
            return _Tagged(-v.mat, v.factors) if isinstance(v, _Tagged) else -v
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.Name):
            return self.lookup(node.id, node.col_offset)
        if isinstance(node, ast.Constant):
            if node.value is None or isinstance(node.value, bool):
                return self.lookup(str(node.value), node.col_offset)
            value = self.number(node)
            if value is not None:
                return complex(value)
        self.fail(node.col_offset, "unsupported syntax")

    def number(self, node):
        """The float a plain decimal literal denotes; None for any other node."""
        if isinstance(node, ast.Constant):
            text = self.src[node.col_offset : node.end_col_offset]
            if _NUMBER.fullmatch(text):
                return float(text)
        return None

    def lookup(self, name, pos):
        if name == "i":
            return 1j
        if name in self.params:
            return self.params[name]
        if name in self.named:
            return self.named[name]
        if name in self.dims:
            self.fail(pos, f"factor name {name!r} used as a value")
        self.fail(pos, f"unresolved reference {name!r}")

    def eval_bin(self, node):
        # the operator is the first token after the left operand's ")"s
        gap = self.src[node.left.end_col_offset : node.right.col_offset]
        pos = node.left.end_col_offset + len(gap) - len(gap.lstrip(" )"))
        op = _BINOPS.get(type(node.op))
        if op is None:
            self.fail(pos, "unsupported operator")
        lhs = self.eval(node.left)
        rhs = self.eval(node.right)
        l_op = isinstance(lhs, _Tagged)
        r_op = isinstance(rhs, _Tagged)
        if op in "+-":
            if l_op != r_op:
                self.fail(pos, "cannot add a scalar and an operator")
            if not l_op:
                return lhs + rhs if op == "+" else lhs - rhs
            a, b = self.align(lhs, rhs)
            m = a.mat + b.mat if op == "+" else a.mat - b.mat
            return _Tagged(m, a.factors)
        if op == "*":
            if l_op and r_op:
                a, b = self.align(lhs, rhs)
                return _Tagged(a.mat @ b.mat, a.factors)
            if l_op:
                return _Tagged(lhs.mat * rhs, lhs.factors)
            if r_op:
                return _Tagged(rhs.mat * lhs, rhs.factors)
            return lhs * rhs
        if op == "/":
            if r_op:
                self.fail(pos, "cannot divide by an operator")
            if rhs == 0:
                self.fail(pos, "division by zero")
            if l_op:
                return _Tagged(lhs.mat / rhs, lhs.factors)
            return lhs / rhs
        raise AssertionError(op)

    def factor_arg(self, args, idx, fname, pos):
        if len(args) <= idx or not isinstance(args[idx], ast.Name) or args[idx].id not in self.dims:
            self.fail(pos, f"{fname} expects a declared factor name as argument {idx + 1}")
        return args[idx].id

    def int_arg(self, args, idx, fname, pos):
        value = self.number(args[idx]) if len(args) > idx else None
        if value is None or not value.is_integer():  # also rejects inf and nan
            self.fail(pos, f"{fname} expects an integer as argument {idx + 1}")
        return int(value)

    def eval_call(self, node):
        pos, func, args = node.col_offset, node.func, node.args
        # a bare name directly before "(": rejects (sqrt)(g) and sqrt(g)(g)
        if not (isinstance(func, ast.Name) and self.src[func.end_col_offset :].lstrip()[0] == "("):
            self.fail(pos, "only a primitive name can be called")
        if node.keywords:
            self.fail(pos, f"{func.id} takes no keyword arguments")
        if self.src[: node.end_col_offset - 1].rstrip().endswith(","):
            self.fail(node.end_col_offset - 1, "expected a value")
        fname = func.id

        def arity(n):
            if len(args) != n:
                self.fail(pos, f"{fname} takes {n} argument(s), got {len(args)}")

        if fname == "annihilator":
            arity(1)
            f = self.factor_arg(args, 0, fname, pos)
            if self.kinds[f] != "fock":
                self.fail(pos, f"annihilator expects a fock factor, {f!r} is {self.kinds[f]!r}")
            return _Tagged(fock_annihilator(self.dims[f]).mat, (f,))
        if fname == "pauli":
            arity(2)
            f = self.factor_arg(args, 0, fname, pos)
            if self.dims[f] != 2:
                self.fail(pos, f"pauli needs a dimension-2 factor, {f!r} has dim {self.dims[f]}")
            if not (isinstance(args[1], ast.Name) and args[1].id in ("x", "y", "z")):
                self.fail(pos, "pauli axis must be x, y or z")
            return _Tagged(pauli(args[1].id).mat, (f,))
        if fname == "ketbra":
            arity(3)
            f = self.factor_arg(args, 0, fname, pos)
            d = self.dims[f]
            ii = self.int_arg(args, 1, fname, pos)
            jj = self.int_arg(args, 2, fname, pos)
            if not (0 <= ii < d and 0 <= jj < d):
                self.fail(pos, f"ketbra indices ({ii}, {jj}) out of range for dim {d}")
            m = np.zeros((d, d), dtype=complex)
            m[ii, jj] = 1.0
            return _Tagged(m, (f,))
        if fname == "identity":
            arity(1)
            f = self.factor_arg(args, 0, fname, pos)
            return _Tagged(np.eye(self.dims[f], dtype=complex), (f,))
        if fname == "tensor":
            arity(2)
            a = self.eval(args[0])
            b = self.eval(args[1])
            if not (isinstance(a, _Tagged) and isinstance(b, _Tagged)):
                self.fail(pos, "tensor expects two operators")
            if set(a.factors) & set(b.factors):
                self.fail(pos, "tensor factors overlap")
            return _Tagged(np.kron(a.mat, b.mat), a.factors + b.factors)
        if fname == "adjoint":
            arity(1)
            a = self.eval(args[0])
            if not isinstance(a, _Tagged):
                self.fail(pos, "adjoint expects an operator; use conj for scalars")
            return _Tagged(a.mat.conj().T, a.factors)
        if fname == "sqrt":
            arity(1)
            a = self.eval(args[0])
            if isinstance(a, _Tagged):
                self.fail(pos, "sqrt expects a scalar")
            return cmath.sqrt(a)
        if fname == "conj":
            arity(1)
            a = self.eval(args[0])
            if isinstance(a, _Tagged):
                self.fail(pos, "conj expects a scalar")
            return complex(a).conjugate()
        self.fail(pos, f"unknown primitive {fname!r}")


# ---------------------------------------------------------------------------
# document assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelDocument:
    """Parsed, validated model: resolved operators plus the scaled family."""

    name: str
    space: HilbertSpace
    factor_names: tuple
    parameters: dict
    operators: dict
    family: ScaledSLHFamily
    zeno_indices: tuple | None
    raw: dict

    @property
    def auto_subspace(self) -> bool:
        return self.zeno_indices is None

    def split(self) -> ZenoSplit:
        """The declared split, or the kernel-derived one for "auto"."""
        if self.zeno_indices is not None:
            return ZenoSplit.from_indices(self.space, self.zeno_indices)
        return find_zeno_subspace(self.family)


def _require(cond, msg):
    if not cond:
        raise ModelParseError(msg)


def _is_int(x) -> bool:
    """A JSON integer; JSON true and false are not numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_name(section, name, **taken):
    """A declared name must be one that expressions can refer to."""
    _require(re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name), f"{section}: invalid name {name!r}")
    _require(not _reserved(name), f"{section}: name {name!r} is reserved")
    for kind, names in taken.items():
        _require(name not in names, f"{section}: name {name!r} collides with a {kind}")


def _parse_scalar(name, value):
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    _require(
        all(_is_int(x) or isinstance(x, float) for x in parts),
        f"parameters.{name}: expected a number or [re, im] pair",
    )
    try:
        z = complex(*parts)
    except OverflowError:  # an integer too large for a float
        z = complex(cmath.inf)
    _require(cmath.isfinite(z), f"parameters.{name}: value is not finite")
    return z


def _parse_spaces(spaces):
    _require(isinstance(spaces, dict) and spaces, "spaces: need at least one named factor")
    names, dims, kinds = [], {}, {}
    for name, decl in spaces.items():
        _check_name("spaces", name)
        _require(isinstance(decl, dict) and "kind" in decl, f"spaces.{name}: need a kind")
        kind = decl["kind"]
        _require(kind in _SPACE_KINDS, f"spaces.{name}: unknown kind {kind!r}")
        extra = set(decl) - {"kind", "dim", "n_max"}
        _require(not extra, f"spaces.{name}: unknown keys {sorted(extra)}")
        if kind in ("qubit", "spin"):
            dim = 2
        elif kind == "level":
            dim = decl.get("dim")
            _require(_is_int(dim) and dim >= 2, f"spaces.{name}: level needs dim >= 2")
        else:
            dim = decl.get("n_max")
            _require(_is_int(dim) and dim >= 2, f"spaces.{name}: fock needs n_max >= 2")
        names.append(name)
        dims[name] = dim
        kinds[name] = kind
    return tuple(names), dims, kinds


def _eval_slot(ev: _Evaluator, text, where) -> Operator:
    return ev.to_full_operator(ev.evaluate(text, where))


def parse_model(text: str) -> ModelDocument:
    """Parse and validate a model document; raises ModelParseError."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    _require(isinstance(raw, dict), "model document must be a JSON object")
    known = {"name", "spaces", "parameters", "operators", "family", "subspace"}
    extra = set(raw) - known
    _require(not extra, f"unknown top-level sections {sorted(extra)}")
    _require("spaces" in raw, "missing required section: spaces")
    _require("family" in raw, "missing required section: family")

    name = raw.get("name", "model")
    _require(isinstance(name, str), "name must be a string")
    factor_names, dims, kinds = _parse_spaces(raw["spaces"])

    params = {}
    for pname, pval in (raw.get("parameters") or {}).items():
        _check_name("parameters", pname, factor=dims)
        params[pname] = _parse_scalar(pname, pval)

    ev = _Evaluator(factor_names, dims, kinds, params)
    operators = {}
    for oname, expr in (raw.get("operators") or {}).items():
        _check_name("operators", oname, factor=dims, parameter=params)
        val = ev.evaluate(expr, f"operators.{oname}")
        if not isinstance(val, _Tagged):
            raise ModelParseError(f"operators.{oname}: expression is a scalar, not an operator")
        ev.named[oname] = val
        operators[oname] = ev.to_full_operator(val)

    fam_raw = raw["family"]
    _require(isinstance(fam_raw, dict), "family: expected an object")
    missing = [k for k in ("channels", "S", "L1", "L0", "H2", "H1", "H0") if k not in fam_raw]
    _require(not missing, f"family: missing slots {missing}")
    extra = set(fam_raw) - {"channels", "S", "L1", "L0", "H2", "H1", "H0"}
    _require(not extra, f"family: unknown slots {sorted(extra)}")
    n = fam_raw["channels"]
    _require(_is_int(n) and n >= 1, "family.channels must be a positive integer")

    s_rows = fam_raw["S"]
    _require(
        isinstance(s_rows, list) and len(s_rows) == n and all(
            isinstance(r, list) and len(r) == n for r in s_rows
        ),
        f"family.S must be an {n} x {n} array of expressions",
    )
    s = tuple(
        tuple(_eval_slot(ev, s_rows[j][k], f"family.S[{j}][{k}]") for k in range(n))
        for j in range(n)
    )
    for slot in ("L1", "L0"):
        _require(
            isinstance(fam_raw[slot], list) and len(fam_raw[slot]) == n,
            f"family.{slot} must list {n} expressions",
        )
    l1 = tuple(_eval_slot(ev, fam_raw["L1"][j], f"family.L1[{j}]") for j in range(n))
    l0 = tuple(_eval_slot(ev, fam_raw["L0"][j], f"family.L0[{j}]") for j in range(n))
    h2 = _eval_slot(ev, fam_raw["H2"], "family.H2")
    h1 = _eval_slot(ev, fam_raw["H1"], "family.H1")
    h0 = _eval_slot(ev, fam_raw["H0"], "family.H0")
    try:
        family = ScaledSLHFamily(s, l1, l0, h2, h1, h0)
    except ValueError as e:
        raise ModelParseError(f"family: {e}") from None

    space = HilbertSpace(tuple(dims[f] for f in factor_names))
    zeno_indices = _parse_subspace(raw.get("subspace"), factor_names, dims, space)

    return ModelDocument(
        name=name,
        space=space,
        factor_names=factor_names,
        parameters=params,
        operators=operators,
        family=family,
        zeno_indices=zeno_indices,
        raw=raw,
    )


def _parse_subspace(sub, factor_names, dims, space):
    if sub is None or sub == "auto":
        return None
    _require(
        isinstance(sub, dict) and set(sub) == {"basis"},
        'subspace: expected "auto" or {"basis": [...]}',
    )
    basis = sub["basis"]
    _require(isinstance(basis, list) and basis, "subspace.basis: need at least one vector")
    shape = tuple(dims[f] for f in factor_names)
    out = []
    for entry in basis:
        if _is_int(entry):
            _require(0 <= entry < space.dim, f"subspace.basis: index {entry} out of range")
            out.append(entry)
        elif isinstance(entry, list) and all(_is_int(x) for x in entry):
            _require(
                len(entry) == len(factor_names),
                f"subspace.basis: need one index per factor ({len(factor_names)})",
            )
            for x, d in zip(entry, shape):
                _require(0 <= x < d, f"subspace.basis: factor index {x} out of range")
            out.append(int(np.ravel_multi_index(tuple(entry), shape)))
        else:
            raise ModelParseError("subspace.basis: entries must be ints or index tuples")
    _require(len(set(out)) == len(out), "subspace.basis: duplicate basis vectors")
    return tuple(out)


def load_model(path) -> ModelDocument:
    with open(path, "r", encoding="utf-8") as f:
        return parse_model(f.read())


def canonical_text(doc: ModelDocument) -> str:
    """Canonical serialization of the source document (sorted keys)."""
    return json.dumps(doc.raw, sort_keys=True, separators=(",", ":"))


def model_digest(doc: ModelDocument) -> str:
    return "sha256:" + hashlib.sha256(canonical_text(doc).encode("utf-8")).hexdigest()
