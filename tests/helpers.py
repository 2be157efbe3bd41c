"""Independent dense references shared by the test modules.

Everything here is deliberately naive: dense blocks, numpy solves, explicit
loops.  The point is to check the fast paths against arithmetic that cannot
share their failure modes.  The small polynomial and Toeplitz utilities
below are used by the tests only, so they live here and not in the library.
"""

import numpy as np

from toepreg.extension import AssembledSystem, extended_generating_sequence
from toepreg.fftpoly import MatrixPoly, poly_eval
from toepreg.solver import dense_normal_matrix
from toepreg.tanint import SingularSystemError
from toepreg.toeplitz import HermitianToeplitzSpec, ProblemSpec, ToeplitzSpec, materialize

# Degree of the zero polynomial.  A dedicated sentinel (never -1) keeps the
# max/sum arithmetic on degrees total.
NEG_INF = float("-inf")


def dense_tikhonov(problem: ProblemSpec) -> np.ndarray:
    """Closed-form minimizer via a plain dense solve."""
    return np.linalg.solve(dense_normal_matrix(problem),
                           problem.normal_rhs_vector())


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


def circulant_spectrum(spec: ToeplitzSpec, order: int, fill: str = "zero") -> np.ndarray:
    """Eigenvalues (in node order) of the circulant extension of the block.

    The extension places the genuine block bottom-right, so the circulant's
    first column is a cyclic shift of the extended generator putting the main
    diagonal a_0 first; the eigenvalue at node omega^j is the usual transform
    of that column.
    """
    k = order - spec.gen.size
    if k < 0:
        raise ValueError("circulant order smaller than the block generator")
    c = extended_generating_sequence(spec, k, fill)
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


def residual(q, conditions) -> float:
    """Worst |w . q(node)| of a vector polynomial over explicit conditions."""
    return max(abs(c.weights @ poly_eval(q, c.node)) for c in conditions)


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
