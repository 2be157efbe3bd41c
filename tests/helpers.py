"""Independent dense references shared by the test modules.

Everything here is deliberately naive: dense blocks, numpy solves, explicit
loops.  The point is to check the fast paths against arithmetic that cannot
share their failure modes.  The dense reference solution is the library's
``solver.dense_oracle``.  The small polynomial, Toeplitz and JSON utilities
below are used by the tests only, so they live here and not in the library.
The one-pass serial driver is the recursive driver's reference.  The
library's sweep has no second sweep to agree with: the order-basis
certificates at the end ask of a sweep's or a tree's basis what makes it a
reduced order basis for the conditions it absorbed, that they hold, that
the degree ledger counts them, that the entries end at their shifted
degrees, that the leading matrix there is nonsingular and that the pivots
kept the column degrees balanced, and of a tree's, that its determinant is
one constant between the nodes.  A change to how the sweep picks its
conditions or steps its basis keeps these true, with no reference to move
along with it.
"""

import numpy as np

from toepreg import tanint
from toepreg.extension import AssembledSystem, extended_generating_sequence
from toepreg.fftpoly import MatrixPoly, grid_eval
from toepreg.tanint import SingularSystemError
from toepreg.toeplitz import HermitianToeplitzSpec, ToeplitzSpec, materialize

# Degree of the zero polynomial.  A dedicated sentinel (never -1) keeps the
# max/sum arithmetic on degrees total.
NEG_INF = float("-inf")


def null_space_solution(system):
    """Solution read off the stacked dense conditions matrix.

    Returns (x, singular values); the conditions matrix must have a
    one-dimensional null space whose constant slot is nonzero.
    """
    a = conditions_to_dense(system)
    _, s, vh = np.linalg.svd(a)
    v = vh[-1].conj()
    return v[: system.n] / v[-1], s


def rel_err(x, ref) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def random_spec(rng, rows: int, cols: int) -> ToeplitzSpec:
    gen = (rng.standard_normal(rows + cols - 1)
           + 1j * rng.standard_normal(rows + cols - 1)) / np.sqrt(2.0)
    return ToeplitzSpec(rows, cols, gen)


# -- Toeplitz blocks ---------------------------------------------------------


def spec_to_json(spec: ToeplitzSpec) -> dict:
    """The JSON object ``toeplitz.spec_from_json`` reads."""
    return {
        "rows": spec.rows,
        "cols": spec.cols,
        "gen_re": spec.gen.real.tolist(),
        "gen_im": spec.gen.imag.tolist(),
    }


def identity_spec(n: int, scale: complex = 1.0) -> ToeplitzSpec:
    """The n x n matrix scale * I in generator form."""
    g = np.zeros(2 * n - 1, dtype=np.complex128)
    g[n - 1] = scale
    return ToeplitzSpec(n, n, g)


def gramian_generating_sequence(t, weights=None, as_spec: bool = False, tol: float = 1e-10):
    """First column of T^H W T (W diagonal, default identity), which is
    Hermitian Toeplitz only up to roundoff in general; the column is read
    from the dense product.  With ``as_spec`` a validated spec is returned.
    """
    if isinstance(t, ToeplitzSpec):
        dense = materialize(t)
    else:
        dense = np.asarray(t, dtype=np.complex128)
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        g = dense.conj().T @ (w[:, None] * dense)
    else:
        g = dense.conj().T @ dense
    col = g[:, 0].copy()
    col[0] = col[0].real
    if as_spec:
        spec = HermitianToeplitzSpec(dense.shape[1], col)
        full = materialize(spec.as_toeplitz())
        if np.abs(full - g).max() > tol * max(np.abs(g).max(), 1.0):
            raise ValueError("product is not Toeplitz to within tolerance")
        return spec
    return col


def circulant_spectrum(spec: ToeplitzSpec, order: int) -> np.ndarray:
    """Eigenvalues (in node order) of the circulant extension of the block.

    The extension places the genuine block bottom-right, so the circulant's
    first column is a cyclic shift of the extended generator putting the main
    diagonal a_0 first; the eigenvalue at node omega^j is the usual transform
    of that column.
    """
    k = order - spec.gen.size
    if k < 0:
        raise ValueError("circulant order smaller than the block generator")
    c = extended_generating_sequence(spec, k)
    return np.fft.fft(np.roll(c, -(k + spec.rows - 1)))


def conditions_to_dense(system: AssembledSystem) -> np.ndarray:
    """Dense conditions matrix, rows in node-major order.  The column count
    sums the degree bounds, so keep the order small."""
    bounds = system.degree_bounds
    total = int(bounds.sum())
    rows = system.rows * system.order
    a = np.empty((rows, total), dtype=np.complex128)
    col = 0
    for j, width in enumerate(bounds):
        powers = system.nodes[:, None] ** np.arange(width)[None, :]
        block = system.weights[:, :, j][..., None] * powers[None, :, :]
        a[:, col:col + width] = block.swapaxes(0, 1).reshape(rows, width)
        col += width
    return a


# -- polynomial degrees and interpolation references -------------------------


def poly_eval(coeffs, z: complex):
    """Evaluate at a single point; broadcasts over leading axes."""
    c = np.asarray(coeffs, dtype=np.complex128)
    powers = np.asarray(z, dtype=np.complex128) ** np.arange(c.shape[-1])
    return c @ powers


def eval_grid(poly: MatrixPoly, n_nodes: int, offset: int = 0,
              stride: int = 1) -> np.ndarray:
    """Values on a node coset with the node axis first: (count, p, p)."""
    return np.moveaxis(grid_eval(poly.coeffs, n_nodes, offset, stride), -1, 0)


def basis_residuals(system: AssembledSystem, basis: MatrixPoly) -> np.ndarray:
    """All condition values against all basis columns, shape (rows, N, p)."""
    vals = eval_grid(basis, system.order)
    return np.einsum("rki,kij->rkj", system.weights, vals)


def identity_poly(p: int) -> MatrixPoly:
    c = np.zeros((p, p, 1), dtype=np.complex128)
    c[:, :, 0] = np.eye(p)
    return MatrixPoly(c)


def entry_degrees(poly: MatrixPoly, rel_tol: float = 1e-12) -> np.ndarray:
    """Numerical degree of each entry as a float matrix (NEG_INF for zero)."""
    a = np.abs(poly.coeffs)
    mx = a.max()
    sig = a > rel_tol * (mx if mx > 0.0 else 1.0)
    has = sig.any(axis=-1)
    last = poly.length - 1 - np.argmax(sig[:, :, ::-1], axis=-1)
    return np.where(has, last.astype(float), NEG_INF)


def column_tau_degrees(poly: MatrixPoly, tau, rel_tol: float = 1e-12) -> np.ndarray:
    """Shifted degree of each column: max_i (deg entry(i, j) - tau_i)."""
    degs = entry_degrees(poly, rel_tol)
    return (degs - np.asarray(tau, dtype=float)[:, None]).max(axis=0)


def tau_degree(q, tau, rel_tol: float = 1e-12):
    """Shifted degree max_i(deg q_i - tau_i) of a vector polynomial (p, L)."""
    a = np.abs(np.asarray(q))
    mx = a.max()
    if mx == 0.0:
        return NEG_INF
    sig = a > rel_tol * mx
    has = sig.any(axis=-1)
    last = a.shape[-1] - 1 - np.argmax(sig[:, ::-1], axis=-1)
    shifted = last - np.asarray(tau)
    vals = shifted[has]
    return NEG_INF if vals.size == 0 else float(vals.max())


def residual(q, nodes, weights) -> float:
    """Worst |w . q(node)| of a vector polynomial over explicit conditions."""
    return max(abs(w @ poly_eval(q, z)) for z, w in zip(nodes, weights))


def single_point_basis(weights, node, col_degrees, pivot_threshold: float = 1e-8):
    """Elementary factor killing one condition against the identity basis.

    Returns (factor, pivot).  The factor is the identity except in the pivot
    row: (z - node) on the diagonal and -w_i / w_pivot elsewhere, so every
    column evaluates to a w-annihilated vector at the node.  Does not touch
    col_degrees; the pivot column's entry is the one to raise.
    """
    w = np.asarray(weights, dtype=np.complex128)
    p = w.size
    amax = np.abs(w).max()
    cd = np.asarray(col_degrees)
    cands = np.flatnonzero(cd == cd.min())
    j = int(cands[np.argmax(np.abs(w[cands]))])
    if amax == 0.0 or abs(w[j]) < pivot_threshold * amax:
        raise SingularSystemError("no admissible pivot for the condition")
    coeffs = np.zeros((p, p, 2), dtype=np.complex128)
    coeffs[:, :, 0] = np.eye(p)
    coeffs[j, :, 0] = -w / w[j]
    coeffs[j, j, 0] = -node
    coeffs[j, j, 1] = 1.0
    return MatrixPoly(coeffs), j


# -- the one-pass serial driver ----------------------------------------------


def all_conditions(system: AssembledSystem):
    """All conditions of a system as (nodes, weights, refs), node-major in
    natural order, as a root leaf takes them."""
    return tanint._flatten(system.weights, system.nodes, np.arange(system.order))


def serial_tan_int(nodes, weights, refs, col_degrees, defer: bool = True):
    """One-pass reference for ``rec_tan_int``: a single sweep over the
    conditions in the given order.

    ``col_degrees`` is the starting ledger (``-system.tau`` for a fresh
    system) and is not changed.  Returns (basis, col_degrees, deferred
    refs), like ``rec_tan_int``.
    """
    cd = np.array(col_degrees, dtype=np.int64)
    coeffs, _, deferred = tanint._serial_core(
        nodes, weights, refs, cd, tanint._PIVOT_THRESHOLD, defer)
    return MatrixPoly(coeffs), cd, deferred


# -- what makes a basis an order basis --------------------------------------

# Certificate bounds, each at least ten times from the worst value measured
# on the sweeps and trees that ``test_tanint.py`` certifies.
# det B at the midpoints of a tree's grid is one constant to this relative
# spread (worst measured 1.9e-9, general n=256 with a 1-row L).
DET_SPREAD = 1e-7
# The leading matrix at the final shifted degrees, each column scaled to
# unit largest entry, keeps sigma_min / sigma_max at least this (worst
# measured 2.9e-3 on a tree, l2 at n=512, and 5.5e-2 on a sweep).
REDUCED = 1e-4
# A tree basis comes out of FFT products, so its entries end at their
# shifted degrees only to rounding, this fraction of their column's largest
# coefficient (worst measured 3.5e-16); a sweep's end exactly.
TREE_TAIL = 1e-13


def order_basis_certificates(coeffs, conditions, tau, start, final, deferred,
                             grid=None) -> dict:
    """Measure what makes a (p, p, length) basis a reduced order basis for
    its absorbed conditions (Beckermann and Labahn, SIMAX 1994; Giorgi and
    Neiger, ISSAC 2018), with no second basis to compare against.

    ``conditions`` is (nodes, weights, refs); the absorbed ones are those
    whose ref is not in ``deferred``.  ``start`` and ``final`` are the
    degree ledgers before and after, for the shift ``tau``: entry (i, j)
    has degree at most ``final[j] + tau[i]``.  Returns:

    - ``holds`` (a): the largest ``|w_t . B(x_t)| / max|w_t|`` over the
      absorbed conditions and the columns of the column-normalized basis.
    - ``spread`` (b), given the ``grid`` order N of a tree whose conditions
      are every weight row at every N-th root of unity: the relative spread
      of det B at the N midpoints, where prod(z - x_t) is one constant.
    - ``reduced`` (c): sigma_min / sigma_max of the leading matrix, the
      coefficients at degree ``final[j] + tau[i]``, each column scaled to
      unit largest entry; 0 when one is all zero.
    - ``ledger`` (d): ``sum(final - start)`` less the number of absorbed
      conditions, which each raise one column by one.
    - ``tail`` (d): the largest coefficient past degree ``final[j] +
      tau[i]``, relative to its column's largest.
    - ``balance`` (e): how far above the lowest final degree the highest
      column the ledger raised ends; the pivot is always a lowest column,
      so 1 at most (0 when none was raised).
    """
    nodes, weights, refs = conditions
    p, _, length = coeffs.shape
    skipped = set(deferred)
    absorbed = np.array([ref not in skipped for ref in refs], dtype=bool)
    final, start = np.asarray(final), np.asarray(start)
    found = {"ledger": int((final - start).sum()) - int(absorbed.sum())}
    basis = coeffs.copy()
    tanint._normalize_columns(basis)
    limit = final[None, :] + np.asarray(tau)[:, None]
    past = np.arange(length)[None, None, :] > limit[:, :, None]
    found["tail"] = float(np.abs(np.where(past, basis, 0.0)).max(initial=0.0))
    inside = (limit >= 0) & (limit < length)
    lead = np.where(inside, basis[np.arange(p)[:, None], np.arange(p),
                                  np.clip(limit, 0, length - 1)], 0.0)
    colmax = np.abs(lead).max(axis=0)
    if colmax.all():
        s = np.linalg.svd(lead / colmax, compute_uv=False)
        found["reduced"] = float(s[-1] / s[0])
    else:
        found["reduced"] = 0.0
    raised = final > start
    found["balance"] = int((final[raised] - final.min()).max(initial=0))
    found["holds"] = 0.0
    if absorbed.any():
        at = np.asarray(nodes)[absorbed]
        vals = basis.reshape(p * p, length) @ (
            at[None, :] ** np.arange(length)[:, None])
        w = np.asarray(weights)[absorbed]
        phi = np.einsum("ti,ijt->tj", w, vals.reshape(p, p, -1))
        found["holds"] = float((np.abs(phi).max(axis=1)
                                / np.abs(w).max(axis=1)).max())
    if grid is not None:
        mid = grid_eval(coeffs, 2 * grid, offset=1, stride=2)
        det = np.linalg.det(np.moveaxis(mid, -1, 0))
        mean = det.mean()
        found["spread"] = float(np.abs(det - mean).max() / abs(mean))
    return found


def assert_order_basis(coeffs, conditions, tau, start, final, deferred,
                       bound: float, grid=None):
    """Assert the certificates ``order_basis_certificates`` measures: every
    absorbed condition holds to ``bound`` (a); given ``grid``, det B is one
    constant at the grid's midpoints to ``DET_SPREAD`` (b); the leading
    matrix is nonsingular to ``REDUCED`` (c); the ledger counts the
    absorbed conditions, and the entries end at their shifted degrees,
    exactly for a sweep and to ``TREE_TAIL`` for a tree (d); and every
    raised column ends at most one degree above the lowest (e)."""
    found = order_basis_certificates(coeffs, conditions, tau, start, final,
                                     deferred, grid)
    assert found["holds"] <= bound
    assert found["ledger"] == 0
    assert found["tail"] <= (0.0 if grid is None else TREE_TAIL)
    assert found["reduced"] >= REDUCED
    assert found["balance"] <= 1
    if grid is not None:
        assert found["spread"] <= DET_SPREAD
