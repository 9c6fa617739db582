"""The model-file expression grammar, checked against recorded outcomes.

``modelfile_grammar_outcomes.json`` holds about a thousand seeded
expressions and what ``parse_model`` did with each under the original
hand-written tokenizer and recursive-descent parser: the sha256 of the
operator bytes, the ``ModelParseError`` text, or the type of any other
exception.  The front end that replaced it must keep that behaviour:

- an accepted expression gives bit-identical operator bytes;
- an evaluation error keeps its exact text and column;
- every other input raises ``ModelParseError`` naming the slot, and a
  syntax error names a column within the text;
- only expressions with a Python keyword or a leading-zero integer
  literal may change from accepted to rejected.

The fixture was written once by running this file as a script at the
commit that still had the hand-written parser; it is a record, not
something to regenerate.
"""

import hashlib
import json
import keyword
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zenoslh import ModelParseError, parse_model

FIXTURE = Path(__file__).with_name("modelfile_grammar_outcomes.json")
SEED = 20141404
COUNT = 1000
SLOT = "family.L0[0]"

# messages of the hand-written parser that were about syntax, not meaning
SYNTAX_MESSAGES = (
    "unexpected character",
    "expected a value",
    "expected ')'",
    "unexpected trailing input",
)

SCALAR_ATOMS = (
    "0", "1", "2", "3", "0.5", ".25", "4.", "1e-3", "2E+1", "1.5e2", "1e400",
    "g", "h", "alpha", "i",
)
OPERATOR_ATOMS = (
    "a", "sz", "annihilator(mode)", "identity(q)", "identity(lv)", "identity(mode)",
    "pauli(q, x)", "pauli(q, y)", "pauli(q,z)", "ketbra(lv, 0, 2)", "ketbra(lv, 2, 1)",
)
# atoms that the grammar rejects, or that resolve to nothing
ODD_ATOMS = (
    "nope", "q", "lv", "x", "True", "None", "lambda", "007", "0x1", "1_0", "1j",
    "ketbra(lv, 3, 0)", "ketbra(lv, 1.5, 0)", "ketbra(lv, -1, 0)", "ketbra(lv, 1e400, 0)",
    "pauli(lv, x)", "pauli(q, w)", "annihilator(q)", "identity(nope)", "identity(q, lv)",
    "tensor(a, a)", "tensor(g, a)", "adjoint(g)", "sqrt(a)", "conj(a)", "frob(g)",
    "(sqrt)(g)", "sqrt(g,)", "sqrt()", "sqrt(*g)", "sqrt(**g)", "sqrt(g)(g)", "a.b", "...",
)
# fragments spliced into otherwise well-formed text
ODD_FRAGMENTS = (
    "**", "//", "#", "é", "\n", "\t", ",", "(", ")", ".", "+", "-", "*", "/",
    " ", "  \n\t ", "0x1", "1_0", "1j", "007", "True", "lambda", " in ", " is ",
)
ALPHABET = "abgiqxz0123456789_.+-*/(), \n\t#é"


def _scalar(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.35:
        return rng.choice(SCALAR_ATOMS)
    if r < 0.65:
        op = rng.choice("+-*/")
        return f"{_scalar(rng, depth - 1)}{_space(rng)}{op}{_space(rng)}{_scalar(rng, depth - 1)}"
    if r < 0.75:
        return "-" + _scalar(rng, depth - 1)
    if r < 0.85:
        return f"({_scalar(rng, depth - 1)})"
    return f"{rng.choice(('sqrt', 'conj'))}({_scalar(rng, depth - 1)})"


def _operator(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return rng.choice(OPERATOR_ATOMS)
    if r < 0.5:
        op = rng.choice("+-*")
        return f"{_operator(rng, depth - 1)}{_space(rng)}{op}{_space(rng)}{_operator(rng, depth - 1)}"
    if r < 0.62:
        return f"{_scalar(rng, depth - 1)}{_space(rng)}*{_space(rng)}{_operator(rng, depth - 1)}"
    if r < 0.7:
        return f"{_operator(rng, depth - 1)}/{_scalar(rng, depth - 1)}"
    if r < 0.78:
        return "-" + _operator(rng, depth - 1)
    if r < 0.86:
        return f"({_operator(rng, depth - 1)})"
    if r < 0.94:
        return f"adjoint({_operator(rng, depth - 1)})"
    left = rng.choice(("pauli(q, x)", "identity(q)", "ketbra(lv, 1, 1)", "annihilator(mode)"))
    right = rng.choice(("identity(lv)", "a", "pauli(q, z)", "ketbra(lv, 0, 1)"))
    return f"tensor({left}, {right})"


def _space(rng):
    return rng.choice(("", "", "", " ", " ", "\n", "\t"))


def _mutate(rng, text):
    kind = rng.randrange(4)
    pos = rng.randrange(len(text) + 1)
    if kind == 0:
        return text[:pos] + rng.choice(ODD_FRAGMENTS) + text[pos:]
    if kind == 1 and text:
        pos = min(pos, len(text) - 1)
        return text[:pos] + text[pos + 1:]
    if kind == 2:
        return text[:pos] + rng.choice(ALPHABET) + text[pos:]
    op = rng.choice(("+", "*", "-", "/", "**", "//"))
    return f"{text}{op}{rng.choice(ODD_ATOMS)}"


def expressions(seed=SEED, count=COUNT):
    """The seeded expressions, in order."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        depth = rng.randrange(1, 5)
        text = _operator(rng, depth) if rng.random() < 0.6 else _scalar(rng, depth)
        if rng.random() < 0.15:
            text = rng.choice(ODD_ATOMS)
        for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
            text = _mutate(rng, text)
        out.append(text)
    return out


def _document(expr):
    return {
        "name": "grammar",
        "spaces": {
            "q": {"kind": "qubit"},
            "mode": {"kind": "fock", "n_max": 3},
            "lv": {"kind": "level", "dim": 3},
        },
        "parameters": {"g": 0.5, "h": 2, "alpha": [0.1, -0.2]},
        "operators": {"a": "annihilator(mode)", "sz": "pauli(q, z)"},
        "family": {
            "channels": 1,
            "S": [["1"]],
            "L1": ["0"],
            "L0": [expr],
            "H2": "0",
            "H1": "0",
            "H0": "0",
        },
    }


def outcome(expr):
    """("ok", sha256 of the slot's bytes), ("error", message) or ("untyped", type)."""
    try:
        doc = parse_model(json.dumps(_document(expr)))
    except ModelParseError as e:
        return ["error", str(e)]
    except Exception as e:  # noqa: BLE001 - recording what escaped is the point
        return ["untyped", type(e).__name__]
    return ["ok", hashlib.sha256(doc.family.l0[0].tobytes()).hexdigest()]


def _may_be_rejected(expr):
    """Whether the expression holds a Python keyword or a leading-zero integer."""
    words = re.findall(r"[A-Za-z_][A-Za-z_0-9]*", expr)
    return any(keyword.iskeyword(w) for w in words) or re.search(r"(?<![\w.])0+[1-9]", expr)


def _column(message):
    m = re.match(re.escape(SLOT) + r": column (\d+): ", message)
    return int(m.group(1)) if m else None


def _load_fixture():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_generator_reproduces_the_recorded_expressions():
    recorded = _load_fixture()
    assert recorded["seed"] == SEED
    assert [e for e, _, _ in recorded["outcomes"]] == expressions()


@pytest.fixture(scope="module")
def recorded_and_now():
    """(expression, recorded outcome, outcome now) for every fixture entry."""
    return [(e, [k, v], outcome(e)) for e, k, v in _load_fixture()["outcomes"]]


def test_recorded_outcomes_are_kept(recorded_and_now):
    changed = []
    for expr, then, now in recorded_and_now:
        if now == then:
            continue
        if now[0] != "error" or not now[1].startswith(SLOT + ": "):
            changed.append((expr, then, now))
        elif _may_be_rejected(expr) or then[0] == "untyped":
            continue
        elif then[0] == "ok" or not any(m in then[1] for m in SYNTAX_MESSAGES):
            changed.append((expr, then, now))
        elif not 1 <= (_column(now[1]) or 0) <= len(expr) + 1:
            changed.append((expr, then, now))
    assert not changed, f"{len(changed)} changed, first: {changed[:5]}"


def test_no_expression_escapes_as_an_untyped_exception(recorded_and_now):
    escaped = [(expr, now) for expr, _, now in recorded_and_now if now[0] == "untyped"]
    assert not escaped, f"{len(escaped)} untyped, first: {escaped[:5]}"


def test_fixture_covers_the_grammar():
    outcomes = _load_fixture()["outcomes"]
    kinds = [k for _, k, _ in outcomes]
    assert kinds.count("ok") >= 200
    assert kinds.count("error") >= 200
    text = "".join(e for e, _, _ in outcomes)
    for piece in ODD_FRAGMENTS + ("(sqrt)(g)", "sqrt(g,)"):
        assert piece in text, piece


_NAMES = st.sampled_from(
    ("g", "h", "alpha", "i", "a", "sz", "q", "lv", "mode", "x", "nope", "True")
)
_NUMBERS = st.sampled_from(("0", "1", "2.5", ".5", "3.", "1e-3", "1e400", "007", "1j"))
_CALLS = st.sampled_from(
    (
        "annihilator(mode)", "identity(lv)", "pauli(q, x)", "ketbra(lv, 1, 2)",
        "ketbra(lv, 9, 0)", "ketbra(lv, 1e400, 0)", "annihilator(q)",
    )
)


def _extend(children):
    binary = st.tuples(children, st.sampled_from("+-*/"), children).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}"
    )
    unary = children.map(lambda c: f"-{c}")
    parens = children.map(lambda c: f"({c})")
    calls = st.tuples(
        st.sampled_from(("sqrt", "conj", "adjoint", "tensor", "frob")),
        st.lists(children, min_size=0, max_size=3),
    ).map(lambda t: f"{t[0]}({', '.join(t[1])})")
    return binary | unary | parens | calls


GRAMMAR = st.recursive(_NAMES | _NUMBERS | _CALLS, _extend, max_leaves=12)


@settings(max_examples=300)
@given(expr=GRAMMAR, splice=st.sampled_from(("", "**", "//", ",", ")", "#", "\n")))
def test_expressions_parse_or_raise_model_parse_error(expr, splice):
    for text in (expr, expr + splice, splice + expr):
        try:
            parse_model(json.dumps(_document(text)))
        except ModelParseError as e:
            assert str(e).startswith(SLOT + ": ")
            col = _column(str(e))
            assert col is None or 1 <= col <= len(text) + 1


def _parse(expr, **parameters):
    raw = _document(expr)
    raw["parameters"].update(parameters)
    return parse_model(json.dumps(raw))


def test_non_finite_ketbra_index_is_a_parse_error():
    with pytest.raises(ModelParseError, match=r"column 1: ketbra expects an integer as argument 2"):
        _parse("ketbra(lv, 1e400, 0)")


def test_non_finite_slot_value_names_the_slot():
    with pytest.raises(ModelParseError, match=r"^family\.L0\[0\]: value is not finite$"):
        _parse("1e400*identity(lv)")


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), [0.0, float("-inf")], 10**400],
    ids=["nan", "inf", "pair", "huge-int"],
)
def test_non_finite_parameter_is_a_parse_error(value):
    # json writes NaN and Infinity, and reads 1e400 as inf
    with pytest.raises(ModelParseError, match=r"^parameters\.g: value is not finite$"):
        _parse("g*a", g=value)


@pytest.mark.parametrize(
    "expr, message",
    [
        ("(" * 400 + "g" + ")" * 400, "column 200: too many nested parentheses"),
        (" + ".join(["g"] * 2000), "expression nested too deeply"),
        ("-" * 2000 + "g", "expression nested too deeply"),
    ],
    ids=["parentheses", "sum", "negation"],
)
def test_deep_nesting_is_a_parse_error(expr, message):
    with pytest.raises(ModelParseError, match=rf"^family\.L0\[0\]: {message}$"):
        _parse(expr)


@pytest.mark.parametrize(
    "section, name, value",
    [("spaces", "lambda", {"kind": "qubit"}), ("parameters", "None", 1.0), ("operators", "in", "a")],
)
def test_python_keywords_are_reserved_names(section, name, value):
    raw = _document("0")
    raw[section][name] = value
    with pytest.raises(ModelParseError, match=rf"{section}: .*{name!r} is reserved"):
        parse_model(json.dumps(raw))


@pytest.mark.parametrize(
    "expr, message",
    [
        ("g + 007", "column 5: leading zeros in decimal integer literals"),
        ("g + lambda", "column 5: invalid syntax"),
        ("g + \u0663", "column 5: unexpected character"),  # a digit, but not ASCII
        ("g +", "column 4: invalid syntax"),
        ("g ** 2", "column 3: unsupported operator"),
        ("(sqrt)(g)", "column 1: only a primitive name can be called"),
        ("sqrt(g, )", "column 9: expected a value"),
    ],
)
def test_syntax_errors_name_a_column(expr, message):
    with pytest.raises(ModelParseError, match=rf"^family\.L0\[0\]: {re.escape(message)}"):
        _parse(expr)


@pytest.mark.parametrize(
    "expr, message",
    [
        # binary operators: the guards, an operator divisor before a zero one
        ("g + a", "column 3: cannot add a scalar and an operator"),
        ("a - g", "column 3: cannot add a scalar and an operator"),
        ("a / a", "column 3: cannot divide by an operator"),
        ("a / (0 * a)", "column 3: cannot divide by an operator"),
        ("a / (g - g)", "column 3: division by zero"),
        ("(g + a) / 0", "column 4: cannot add a scalar and an operator"),
        # calls: the call form, then the name, then the arity, before any argument
        ("sqrt(**g)", "column 1: sqrt takes no keyword arguments"),
        ("frob(**g)", "column 1: frob takes no keyword arguments"),
        ("sqrt(**g, )", "column 1: sqrt takes no keyword arguments"),
        ("frob(nope, )", "column 12: expected a value"),
        ("frob(nope)", "column 1: unknown primitive 'frob'"),
        ("annihilator(mode, q)", "column 1: annihilator takes 1 argument(s), got 2"),
        ("pauli(q)", "column 1: pauli takes 2 argument(s), got 1"),
        ("ketbra(lv, 0)", "column 1: ketbra takes 3 argument(s), got 2"),
        ("identity()", "column 1: identity takes 1 argument(s), got 0"),
        ("tensor(*a)", "column 1: tensor takes 2 argument(s), got 1"),
        ("adjoint(nope, a)", "column 1: adjoint takes 1 argument(s), got 2"),
        ("g * sqrt()", "column 5: sqrt takes 1 argument(s), got 0"),
        ("conj(nope, g)", "column 1: conj takes 1 argument(s), got 2"),
        # then the arguments left to right, then their kinds
        ("tensor(g, nope)", "column 11: unresolved reference 'nope'"),
        ("tensor(nope, a)", "column 8: unresolved reference 'nope'"),
        ("tensor(g, a)", "column 1: tensor expects two operators"),
        ("tensor(a, g)", "column 1: tensor expects two operators"),
        ("tensor(a, annihilator(mode))", "column 1: tensor factors overlap"),
        ("adjoint(g)", "column 1: adjoint expects an operator; use conj for scalars"),
        ("sqrt(a)", "column 1: sqrt expects a scalar"),
        ("conj(sz)", "column 1: conj expects a scalar"),
        ("sqrt(*g)", "column 6: unsupported syntax"),
        ("identity(g)", "column 1: identity expects a declared factor name as argument 1"),
        ("ketbra(nope, 9, 9)", "column 1: ketbra expects a declared factor name as argument 1"),
        ("ketbra(lv, 1.5, nope)", "column 1: ketbra expects an integer as argument 2"),
        ("ketbra(lv, 0, nope)", "column 1: ketbra expects an integer as argument 3"),
        ("ketbra(lv, 0, 3)", "column 1: ketbra indices (0, 3) out of range for dim 3"),
        ("pauli(lv, w)", "column 1: pauli needs a dimension-2 factor, 'lv' has dim 3"),
        ("pauli(q, w)", "column 1: pauli axis must be x, y or z"),
        ("pauli(q, g)", "column 1: pauli axis must be x, y or z"),
        ("annihilator(q)", "column 1: annihilator expects a fock factor, 'q' is 'qubit'"),
    ],
)
def test_evaluation_errors_keep_their_text_order_and_column(expr, message):
    with pytest.raises(ModelParseError, match=rf"^family\.L0\[0\]: {re.escape(message)}$"):
        _parse(expr)


def _record():
    outcomes = [[e, *outcome(e)] for e in expressions()]
    payload = {"seed": SEED, "outcomes": outcomes}
    FIXTURE.write_text(json.dumps(payload, indent=0, ensure_ascii=True) + "\n", encoding="utf-8")


if __name__ == "__main__":  # PYTHONPATH=src python tests/test_modelfile_grammar.py
    _record()
