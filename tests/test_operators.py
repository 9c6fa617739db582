import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zenoslh import (
    HilbertSpace,
    LinearMeanSystem,
    Operator,
    SubspaceIsometry,
    ZenoSplit,
    adjoint,
    basis_ketbra,
    block_split,
    complement_basis,
    fock_annihilator,
    identity,
    instantiate,
    kernel_basis,
    maximally_mixed,
    pauli,
    tensor,
)
from zenoslh.random_models import random_complex_matrix, random_hermitian, random_oscillator_model

from common import entrymax, kerr_family


def test_hilbert_space_validation():
    sp = HilbertSpace((2, 3))
    assert sp.dim == 6
    with pytest.raises(ValueError):
        HilbertSpace(())
    with pytest.raises(ValueError):
        HilbertSpace((2, 0))


def test_operator_rejects_bad_matrices():
    sp = HilbertSpace((2,))
    with pytest.raises(ValueError):
        Operator(sp, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Operator(sp, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Operator(sp, [[np.nan, 0], [0, 0]])


def test_operator_is_immutable():
    a = fock_annihilator(3)
    with pytest.raises(AttributeError):
        a.mat = np.eye(3)
    with pytest.raises(ValueError):
        a.mat[0, 0] = 1.0


@pytest.mark.parametrize(
    "cls_name, make",
    [
        ("Operator", lambda: fock_annihilator(3)),
        ("SubspaceIsometry", lambda: kerr_family()[1].v_z),
        ("ZenoSplit", lambda: kerr_family()[1]),
        ("SLHTriple", lambda: instantiate(kerr_family()[0], 2.0)),
        ("ScaledSLHFamily", lambda: kerr_family()[0]),
        (
            "OscillatorModelCoeffs",
            lambda: random_oscillator_model(np.random.default_rng(0), 2, 1, 1),
        ),
        ("LinearMeanSystem", lambda: LinearMeanSystem([[-1.0]], [[1.0]], [[1.0]], [[-2.0]])),
        ("DensityMatrix", lambda: maximally_mixed(HilbertSpace((2,)))),
    ],
)
def test_value_types_refuse_assignment(cls_name, make):
    value = make()
    assert type(value).__name__ == cls_name
    slots = [s for cls in type(value).__mro__ for s in getattr(cls, "__slots__", ())]
    assert slots
    for name in [*slots, "extra"]:
        before = getattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^{cls_name} is immutable$"):
            setattr(value, name, None)
        assert getattr(value, name, None) is before


def test_fock_annihilator_two_level():
    a = fock_annihilator(2)
    assert entrymax(a, [[0, 1], [0, 0]]) == 0.0
    with pytest.raises(ValueError):
        fock_annihilator(1)


def test_fock_number_operator():
    a = fock_annihilator(4)
    num = a.dag() @ a
    assert entrymax(num, np.diag([0.0, 1.0, 2.0, 3.0])) < 1e-14


def test_fock_commutator_truncation():
    # truncation breaks the commutation relation only in the top level
    a = fock_annihilator(4)
    comm = a @ a.dag() - a.dag() @ a
    assert entrymax(comm, np.diag([1.0, 1.0, 1.0, -3.0])) < 1e-14


def test_pauli_table():
    assert entrymax(pauli("x"), [[0, 1], [1, 0]]) == 0.0
    assert entrymax(pauli("z"), [[1, 0], [0, -1]]) == 0.0
    prod = pauli("x") @ pauli("y")
    assert entrymax(prod, 1j * pauli("z").mat) == 0.0
    with pytest.raises(ValueError):
        pauli("w")


def test_tensor_identities():
    i2, i3 = identity(HilbertSpace((2,))), identity(HilbertSpace((3,)))
    t = tensor(i2, i3)
    assert t.space.factor_dims == (2, 3)
    assert entrymax(t, np.eye(6)) == 0.0
    zi = tensor(pauli("z"), i2)
    assert entrymax(zi, np.diag([1.0, 1.0, -1.0, -1.0])) == 0.0


def test_tensor_projector_rank():
    proj = tensor(basis_ketbra(2, 1, 1), identity(HilbertSpace((2,))))
    expected = np.kron(np.diag([0.0, 1.0]), np.eye(2))
    assert entrymax(proj, expected) == 0.0
    assert np.linalg.matrix_rank(proj.mat) == 2


@settings(max_examples=25, deadline=None)
@given(
    d1=st.integers(2, 3),
    d2=st.integers(2, 3),
    d3=st.integers(2, 3),
    seed=st.integers(0, 10_000),
)
def test_tensor_associative(d1, d2, d3, seed):
    rng = np.random.default_rng(seed)
    ops = [
        Operator(HilbertSpace((d,)), random_complex_matrix(rng, d)) for d in (d1, d2, d3)
    ]
    left = tensor(tensor(ops[0], ops[1]), ops[2])
    right = tensor(ops[0], tensor(ops[1], ops[2]))
    # product reassociation perturbs entries at the last bit
    assert entrymax(left, right) < 1e-14
    assert left.space.factor_dims == right.space.factor_dims


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_adjoint_involution(dim, seed):
    rng = np.random.default_rng(seed)
    x = Operator(HilbertSpace((dim,)), random_complex_matrix(rng, dim))
    assert entrymax(adjoint(adjoint(x)), x) == 0.0


def test_adjoint_examples():
    a = fock_annihilator(2)
    assert entrymax(adjoint(a), [[0, 0], [1, 0]]) == 0.0
    h = Operator(HilbertSpace((3,)), random_hermitian(np.random.default_rng(0), 3))
    assert entrymax(adjoint(h), h) == 0.0


def test_kernel_basis_kerr_levels():
    # chi0 N(N-1) on five levels annihilates exactly the bottom two
    a = fock_annihilator(5)
    num = a.dag() @ a
    an = num @ (num - identity(a.space))
    v = kernel_basis(an)
    assert v.subspace_dim == 2
    assert entrymax(v.cols, np.eye(5)[:, :2]) < 1e-12


def test_kernel_basis_ground_manifold():
    gamma, delta = 1.0, 0.5
    ee = basis_ketbra(2, 1, 1)
    a = -(1.5 * gamma + 1j * delta) * tensor(ee, identity(HilbertSpace((2,))))
    v = kernel_basis(a)
    assert v.subspace_dim == 2
    assert entrymax(v.cols, np.eye(4)[:, :2]) < 1e-12


def test_kernel_basis_invertible_and_residual():
    rng = np.random.default_rng(3)
    sp = HilbertSpace((5,))
    x = Operator(sp, random_complex_matrix(rng, 5) + 3 * np.eye(5))
    assert kernel_basis(x).subspace_dim == 0

    # vectors returned are annihilated: |A V|_2 < 10 tol sigma_max
    a = fock_annihilator(5)
    an = (a.dag() @ a) @ ((a.dag() @ a) - identity(a.space))
    v = kernel_basis(an, tol=1e-10)
    smax = np.linalg.svd(an.mat, compute_uv=False)[0]
    assert np.linalg.norm(an.mat @ v.cols, 2) < 10 * 1e-10 * smax


def test_isometry_validation():
    sp = HilbertSpace((3,))
    with pytest.raises(ValueError):
        SubspaceIsometry(sp, np.ones((3, 2)))
    v = SubspaceIsometry(sp, np.eye(3)[:, :2])
    assert entrymax(v.cols.conj().T @ v.cols, np.eye(2)) < 1e-12


def test_complement_basis_spans_rest():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(random_complex_matrix(rng, 6))
    v = SubspaceIsometry(HilbertSpace((6,)), q[:, :2])
    w = complement_basis(v)
    assert w.subspace_dim == 4
    assert entrymax(v.cols.conj().T @ w.cols) < 1e-12


def test_block_split_identity_and_annihilator():
    sp = HilbertSpace((4,))
    split = ZenoSplit.from_indices(sp, [0, 1])
    zz, zf, fz, ff = block_split(identity(sp), split)
    assert entrymax(zz, np.eye(2)) == 0.0 and entrymax(ff, np.eye(2)) == 0.0
    assert entrymax(zf) == 0.0 and entrymax(fz) == 0.0

    # the annihilator never maps the bottom two levels upward
    a = fock_annihilator(4)
    _, _, fz, _ = block_split(a, split)
    assert entrymax(fz) == 0.0


def test_block_split_hermitian_blocks_and_reassembly():
    rng = np.random.default_rng(11)
    sp = HilbertSpace((6,))
    split = ZenoSplit.from_indices(sp, [0, 2, 4])
    h = Operator(sp, random_hermitian(rng, 6))
    zz, zf, fz, ff = block_split(h, split)
    assert entrymax(zf.conj().T, fz) < 1e-14

    vz, vf = split.v_z.cols, split.v_f.cols
    for _ in range(100):
        x = Operator(sp, random_complex_matrix(rng, 6))
        zz, zf, fz, ff = block_split(x, split)
        back = (
            vz @ zz @ vz.conj().T
            + vz @ zf @ vf.conj().T
            + vf @ fz @ vz.conj().T
            + vf @ ff @ vf.conj().T
        )
        assert entrymax(back, x.mat) < 1e-12


def test_zeno_split_rejects_bad_pairs():
    sp = HilbertSpace((4,))
    v = SubspaceIsometry(sp, np.eye(4)[:, :2])
    with pytest.raises(ValueError):
        ZenoSplit(v, v)  # not orthogonal / not complete
    with pytest.raises(ValueError):
        ZenoSplit(v, SubspaceIsometry(sp, np.eye(4)[:, 2:3]))  # dims do not sum


def test_scalar_arithmetic_and_space_guard():
    a = fock_annihilator(3)
    b = 2.0 * a - a
    assert entrymax(b, a) == 0.0
    with pytest.raises(TypeError):
        a * a
    with pytest.raises(ValueError):
        a + identity(HilbertSpace((4,)))
