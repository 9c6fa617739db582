import json
import re

import numpy as np
import pytest

from zenoslh import ModelParseError, load_model, parse_model, zeno_eliminate
from zenoslh import modelfile
from zenoslh.modelfile import canonical_text, model_digest

from common import (
    MODELS,
    alkali_family,
    entrymax,
    kerr_family,
    lambda_family,
)


def test_kerr_fixture_matches_hand_built_family():
    doc = load_model(MODELS / "kerr_qubit.model")
    fam, _ = kerr_family()
    assert doc.space.factor_dims == (6,)
    for built, ref in zip(doc.family.L0, fam.L0):
        assert entrymax(built, ref) < 1e-15
    assert entrymax(doc.family.H2, fam.H2) < 1e-15
    assert entrymax(doc.family.H0, fam.H0) < 1e-15
    assert doc.zeno_indices == (0, 1)


def test_alkali_fixture_matches_hand_built_family():
    doc = load_model(MODELS / "alkali.model")
    fam, _ = alkali_family()
    for built, ref in zip(doc.family.L1, fam.L1):
        assert entrymax(built, ref) < 1e-15
    assert entrymax(doc.family.H2, fam.H2) < 1e-15
    assert entrymax(doc.family.H0, fam.H0) < 1e-15


def test_lambda_fixture_matches_hand_built_family():
    doc = load_model(MODELS / "lambda_system.model")
    fam = lambda_family()
    assert entrymax(doc.family.H2, fam.H2) < 1e-15
    assert entrymax(doc.family.H1, fam.H1) < 1e-15
    assert doc.auto_subspace


def test_all_fixtures_parse_and_check_clean():
    for name in ("kerr_qubit.model", "alkali.model", "lambda_system.model"):
        doc = load_model(MODELS / name)
        res = zeno_eliminate(doc.family, doc.split())
        assert res.residuals["scaling_residual"] < 1e-9
        assert res.residuals["decoupling_residual"] < 1e-9


def test_round_trip_resolved_table_is_identical():
    doc = load_model(MODELS / "lambda_system.model")
    doc2 = parse_model(canonical_text(doc))
    assert set(doc.operators) == set(doc2.operators)
    for name in doc.operators:
        assert entrymax(doc.operators[name], doc2.operators[name]) == 0.0
    assert model_digest(doc) == model_digest(doc2)


def _base_doc():
    return {
        "name": "tiny",
        "spaces": {"mode": {"kind": "fock", "n_max": 3}},
        "parameters": {"g": 0.5},
        "operators": {"a": "annihilator(mode)"},
        "family": {
            "channels": 1,
            "S": [["1"]],
            "L1": ["0"],
            "L0": ["g*a"],
            "H2": "adjoint(a)*a",
            "H1": "0",
            "H0": "0",
        },
    }


def test_minimal_document_parses():
    doc = parse_model(json.dumps(_base_doc()))
    assert doc.family.n == 1
    a = doc.operators["a"]
    assert entrymax(doc.family.L0[0], 0.5 * a.mat) == 0.0


def test_json_error_reports_line_and_column():
    with pytest.raises(ModelParseError, match=r"line \d+, column \d+"):
        parse_model('{"spaces": }')


def test_missing_family_slots_are_listed():
    raw = _base_doc()
    del raw["family"]["H2"]
    del raw["family"]["L1"]
    with pytest.raises(ModelParseError, match=r"missing slots.*(L1|H2)"):
        parse_model(json.dumps(raw))


def test_unknown_primitive():
    raw = _base_doc()
    raw["operators"]["b"] = "annihilate(mode)"
    with pytest.raises(ModelParseError, match="unknown primitive"):
        parse_model(json.dumps(raw))


def test_unresolved_reference_and_column():
    raw = _base_doc()
    raw["family"]["H0"] = "g * missing_name"
    with pytest.raises(ModelParseError, match=r"column \d+: unresolved reference"):
        parse_model(json.dumps(raw))


def test_non_hermitian_hamiltonian_slot():
    raw = _base_doc()
    raw["family"]["H0"] = "a"
    with pytest.raises(ModelParseError, match="Hermitian"):
        parse_model(json.dumps(raw))


def test_tensor_dimension_checks():
    raw = _base_doc()
    raw["operators"]["bad"] = "tensor(a, a)"
    with pytest.raises(ModelParseError, match="overlap"):
        parse_model(json.dumps(raw))


def test_pauli_requires_two_level_factor():
    raw = _base_doc()
    raw["operators"]["bad"] = "pauli(mode, x)"
    with pytest.raises(ModelParseError, match="dimension-2"):
        parse_model(json.dumps(raw))


def test_scalar_slot_coerces_to_identity():
    raw = _base_doc()
    raw["family"]["H0"] = "0.25"
    doc = parse_model(json.dumps(raw))
    assert entrymax(doc.family.H0, 0.25 * np.eye(3)) == 0.0


@pytest.mark.parametrize(
    "kind, shown",
    [(["qubit"], "['qubit']"), ({"qubit": 2}, "{'qubit': 2}"), (2, "2"), (None, "None"),
     ("Qubit", "'Qubit'")],
)
def test_unknown_space_kind_is_a_parse_error(kind, shown):
    # a list or object must not reach a lookup that hashes it
    raw = _base_doc()
    raw["spaces"]["q"] = {"kind": kind}
    with pytest.raises(ModelParseError, match=rf"^spaces\.q: unknown kind {re.escape(shown)}$"):
        parse_model(json.dumps(raw))


@pytest.mark.parametrize(
    "decl, message",
    [
        ({"kind": "level"}, "spaces.q: level needs dim >= 2"),
        ({"kind": "level", "dim": 1}, "spaces.q: level needs dim >= 2"),
        ({"kind": "fock", "dim": 3}, "spaces.q: fock needs n_max >= 2"),
        ({"kind": "fock", "n_max": True}, "spaces.q: fock needs n_max >= 2"),
        ({"kind": "qubit", "dim": 3, "size": 1}, "spaces.q: unknown keys ['size']"),
        ({"dim": 3}, "spaces.q: need a kind"),
    ],
)
def test_space_declarations_are_checked(decl, message):
    raw = _base_doc()
    raw["spaces"]["q"] = decl
    with pytest.raises(ModelParseError, match=rf"^{re.escape(message)}$"):
        parse_model(json.dumps(raw))


def test_readme_lists_each_primitive_with_its_arguments():
    readme = (MODELS.parent / "README.md").read_text(encoding="utf-8")
    for name, params in modelfile._PRIMITIVES.items():
        assert f"`{name}({', '.join(params)})`" in readme, name


def test_annihilator_needs_fock_factor():
    raw = _base_doc()
    raw["spaces"]["q"] = {"kind": "qubit"}
    raw["operators"]["bad"] = "annihilator(q)"
    with pytest.raises(ModelParseError, match="fock factor"):
        parse_model(json.dumps(raw))


def test_multi_factor_embedding_matches_explicit_tensor():
    raw = {
        "name": "two_factor",
        "spaces": {
            "level": {"kind": "level", "dim": 3},
            "mode": {"kind": "fock", "n_max": 3},
        },
        "operators": {
            "p": "ketbra(level, 2, 2)",
            "lifted": "p*tensor(identity(level), annihilator(mode))",
            "explicit": "tensor(p, annihilator(mode))",
        },
        "family": {
            "channels": 1,
            "S": [["1"]],
            "L1": ["0"],
            "L0": ["0"],
            "H2": "0",
            "H1": "0",
            "H0": "0",
        },
    }
    doc = parse_model(json.dumps(raw))
    assert entrymax(doc.operators["lifted"], doc.operators["explicit"]) < 1e-15


def test_out_of_order_tensor_is_reordered_to_declared_layout():
    raw = {
        "name": "swap",
        "spaces": {
            "first": {"kind": "qubit"},
            "second": {"kind": "level", "dim": 3},
        },
        "operators": {
            "direct": "tensor(pauli(first, z), ketbra(second, 1, 1))",
            "swapped": "tensor(ketbra(second, 1, 1), pauli(first, z))",
        },
        "family": {
            "channels": 1,
            "S": [["1"]],
            "L1": ["0"],
            "L0": ["0"],
            "H2": "0",
            "H1": "0",
            "H0": "direct - swapped",
        },
    }
    doc = parse_model(json.dumps(raw))
    assert entrymax(doc.operators["direct"], doc.operators["swapped"]) < 1e-15
    assert entrymax(doc.family.H0) == 0.0


def test_subspace_flat_and_tuple_indices_agree():
    raw = _base_doc()
    raw["subspace"] = {"basis": [0, 1]}
    doc_flat = parse_model(json.dumps(raw))
    raw["subspace"] = {"basis": [[0], [1]]}
    doc_tuple = parse_model(json.dumps(raw))
    assert doc_flat.zeno_indices == doc_tuple.zeno_indices == (0, 1)


def test_reserved_and_colliding_names_rejected():
    raw = _base_doc()
    raw["parameters"]["i"] = 1.0
    with pytest.raises(ModelParseError, match="reserved"):
        parse_model(json.dumps(raw))
    raw = _base_doc()
    raw["operators"]["g"] = "annihilator(mode)"
    with pytest.raises(ModelParseError, match="collides"):
        parse_model(json.dumps(raw))


def test_unknown_sections_rejected():
    raw = _base_doc()
    raw["extras"] = {}
    with pytest.raises(ModelParseError, match="unknown top-level"):
        parse_model(json.dumps(raw))


def test_complex_parameters():
    raw = _base_doc()
    raw["parameters"]["alpha"] = [0.1, -0.2]
    raw["family"]["H0"] = "i*(alpha*adjoint(a) - conj(alpha)*a)"
    doc = parse_model(json.dumps(raw))
    alpha = 0.1 - 0.2j
    a = doc.operators["a"].mat
    expected = 1j * (alpha * a.conj().T - np.conj(alpha) * a)
    assert entrymax(doc.family.H0, expected) < 1e-15
