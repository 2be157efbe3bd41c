"""Generator-form Toeplitz types, fast matvecs, and JSON plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import gramian_generating_sequence, identity_spec, random_spec
from toepreg.toeplitz import (
    HermitianToeplitzSpec,
    ProblemSpec,
    ToeplitzSpec,
    adjoint_spec,
    materialize,
    spec_from_json,
    spec_to_json,
    toeplitz_adjoint_matvec,
    toeplitz_matvec,
    vector_from_json,
    vector_to_json,
)


def test_materialize_two_by_two():
    m = materialize(ToeplitzSpec(2, 2, [3.0, 1.0, 2.0]))
    assert np.array_equal(m, np.array([[1.0, 3.0], [2.0, 1.0]]))


def test_materialize_scalar():
    assert materialize(ToeplitzSpec(1, 1, [5.0]))[0, 0] == 5.0


def test_materialize_constant_diagonals():
    rng = np.random.default_rng(11)
    spec = random_spec(rng, 4, 3)
    m = materialize(spec)
    for i in range(4):
        for j in range(3):
            # repeated diagonal entries must be the same stored scalar
            assert m[i, j] == spec.gen[i - j + spec.cols - 1]
            assert m[i, j] == spec.entry(i, j)


def test_generator_length_checked():
    with pytest.raises(ValueError):
        ToeplitzSpec(2, 2, [1.0, 2.0])
    with pytest.raises(ValueError):
        ToeplitzSpec(0, 3, [1.0, 2.0])


def test_generator_write_protected():
    spec = ToeplitzSpec(2, 2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spec.gen[0] = 9.0


def test_matvec_identity():
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(toeplitz_matvec(identity_spec(3), x), x, atol=1e-14)


def test_matvec_scalar():
    y = toeplitz_matvec(ToeplitzSpec(1, 1, [2.0]), [7.0])
    assert np.allclose(y, [14.0], atol=1e-14)


def test_matvec_matches_dense_rectangular():
    rng = np.random.default_rng(7)
    spec = random_spec(rng, 64, 48)
    x = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    dense = materialize(spec) @ x
    fast = toeplitz_matvec(spec, x)
    assert np.abs(fast - dense).max() / np.abs(dense).max() < 1e-12


def test_matvec_matches_dense_size_sweep():
    rng = np.random.default_rng(8)
    for rows, cols in [(1, 1), (2, 5), (5, 2), (31, 31), (128, 9), (9, 128),
                       (128, 128)]:
        spec = random_spec(rng, rows, cols)
        x = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
        dense = materialize(spec) @ x
        assert np.abs(toeplitz_matvec(spec, x) - dense).max() \
            < 1e-12 * max(np.abs(dense).max(), 1.0)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 24), cols=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1))
def test_matvec_matches_dense_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, rows, cols)
    x = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
    dense = materialize(spec) @ x
    assert np.abs(toeplitz_matvec(spec, x) - dense).max() \
        < 1e-12 * max(np.abs(dense).max(), 1.0)


def test_matvec_length_checked():
    with pytest.raises(ValueError):
        toeplitz_matvec(identity_spec(3), [1.0, 2.0])


def test_adjoint_matvec_identity():
    y = np.array([4.0, 5.0])
    assert np.allclose(toeplitz_adjoint_matvec(identity_spec(2), y), y,
                       atol=1e-14)


def test_adjoint_matvec_column_case():
    # 2x1 block with entries [1, i]; the adjoint row gives conj(1) + conj(i)
    spec = ToeplitzSpec(2, 1, [1.0, 1.0j])
    out = toeplitz_adjoint_matvec(spec, [1.0, 1.0])
    assert np.allclose(out, [1.0 - 1.0j], atol=1e-14)


def test_adjoint_matvec_matches_dense():
    rng = np.random.default_rng(9)
    spec = random_spec(rng, 32, 32)
    y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    dense = materialize(spec).conj().T @ y
    assert np.abs(toeplitz_adjoint_matvec(spec, y) - dense).max() \
        < 1e-12 * np.abs(dense).max()


def test_adjoint_spec_materializes_to_conjugate_transpose():
    rng = np.random.default_rng(10)
    spec = random_spec(rng, 5, 3)
    assert np.array_equal(materialize(adjoint_spec(spec)),
                          materialize(spec).conj().T)


def test_hermitian_spec_is_exactly_hermitian():
    rng = np.random.default_rng(12)
    col = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    col[0] = col[0].real
    m = materialize(HermitianToeplitzSpec(6, col).as_toeplitz())
    assert np.array_equal(m, m.conj().T)


def test_hermitian_spec_rejects_complex_diagonal():
    with pytest.raises(ValueError):
        HermitianToeplitzSpec(3, np.array([1.0 + 1.0j, 0.0, 0.0]))


def test_gramian_sequence_identity():
    col = gramian_generating_sequence(identity_spec(3))
    assert np.allclose(col, [1.0, 0.0, 0.0], atol=1e-14)
    spec = gramian_generating_sequence(identity_spec(3), as_spec=True)
    assert np.allclose(materialize(spec.as_toeplitz()), np.eye(3), atol=1e-14)


def test_gramian_sequence_scalar():
    col = gramian_generating_sequence(ToeplitzSpec(1, 1, [2.0]))
    assert np.allclose(col, [4.0])


def test_gramian_sequence_rejects_non_toeplitz_product():
    # T^H T = diag(1, 4) has unequal diagonal entries
    t = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        gramian_generating_sequence(t, as_spec=True)


def test_problem_spec_validation():
    rng = np.random.default_rng(13)
    t = random_spec(rng, 4, 4)
    with pytest.raises(ValueError):
        ProblemSpec.general(t, random_spec(rng, 4, 5), np.ones(4))
    with pytest.raises(ValueError):
        ProblemSpec.general(t, random_spec(rng, 4, 4), np.ones(3))
    with pytest.raises(ValueError):
        ProblemSpec.l2(t, 0.0, np.ones(4))
    g = HermitianToeplitzSpec(4, np.array([2.0, 0.1, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ProblemSpec.gramian(g, random_spec(rng, 4, 3), np.ones(4))


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan)]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_toeplitz_spec_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        ToeplitzSpec(2, 2, [1.0, bad, 3.0])


@pytest.mark.parametrize("bad", NON_FINITE)
def test_hermitian_spec_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        HermitianToeplitzSpec(3, np.array([2.0, bad, 0.0]))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["b", "normal_rhs", "beta"])
def test_problem_spec_rejects_non_finite(field, bad):
    t = identity_spec(2)
    with pytest.raises(ValueError, match="finite"):
        if field == "b":
            ProblemSpec.general(t, t, [1.0, bad])
        elif field == "normal_rhs":
            ProblemSpec.gramian(HermitianToeplitzSpec(2, [2.0, 0.0]), t, [bad, 1.0])
        else:
            ProblemSpec.l2(t, bad, [1.0, 2.0])


def test_normal_rhs_vector_general_matches_dense():
    rng = np.random.default_rng(14)
    t = random_spec(rng, 6, 4)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    problem = ProblemSpec.general(t, random_spec(rng, 4, 4), b)
    assert np.allclose(problem.normal_rhs_vector(),
                       materialize(t).conj().T @ b, atol=1e-12)


def test_spec_json_round_trip():
    rng = np.random.default_rng(15)
    spec = random_spec(rng, 3, 5)
    back = spec_from_json(spec_to_json(spec))
    assert back.rows == 3 and back.cols == 5
    assert np.array_equal(back.gen, spec.gen)


def test_spec_json_field_names():
    doc = spec_to_json(ToeplitzSpec(2, 1, [1.0, 2.0]))
    assert set(doc) == {"rows", "cols", "gen_re", "gen_im"}


def test_spec_json_imaginary_part_optional():
    spec = spec_from_json({"rows": 1, "cols": 2, "gen_re": [1.0, 2.0]})
    assert np.array_equal(spec.gen, np.array([1.0 + 0.0j, 2.0 + 0.0j]))


def test_vector_json_round_trip():
    v = np.array([1.0 + 2.0j, -3.0])
    assert np.array_equal(vector_from_json(vector_to_json(v)), v)
