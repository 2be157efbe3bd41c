"""Independent dense references shared by the test modules.

Everything here is deliberately naive: dense blocks, numpy solves, explicit
loops.  The point is to check the fast paths against arithmetic that cannot
share their failure modes.  The small polynomial and Toeplitz utilities
below are used by the tests only, so they live here and not in the library.
The one-pass serial driver is the recursive driver's reference, and the
serial sweep at the end is the reference semantics for the library's: a
(p, p, capacity) coefficient cube stepped by NumPy broadcasting, with NumPy
bookkeeping and every condition evaluated afresh against the current basis,
where the library builds one column-major store per sweep, stepped by BLAS,
and carries each condition as an updated residual row.  Both choose the
next condition by the same row rule, the reference on fresh values.  The
two take the same decisions, and their coefficients agree to rounding.
Only the reference can start from a given basis, as the full-basis cleanup
does.
The order-basis check at the end needs no second sweep: it asks of a
sweep's basis what makes it one, that its absorbed conditions hold, that
its degree ledger counts them and that its entries end at their shifted
degrees.
"""

import numpy as np

from toepreg import tanint
from toepreg.extension import AssembledSystem, extended_generating_sequence
from toepreg.fftpoly import MatrixPoly, grid_eval, matpoly_multiply
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


def full_basis_cleanup(engine, basis: MatrixPoly) -> MatrixPoly:
    """Reference for ``_Engine._cleanup``: the same batches, each stepped
    one condition at a time into the full-length basis by the cube
    reference, which pivots within the batch.  Costs O(deferred x basis
    length); patch it over the engine's method to compare the batched pass
    against it."""
    if not engine.deferred:
        return basis
    points = sorted(engine.deferred)
    points = [points[i] for i in tanint._stride_order(len(points))]
    coeffs = basis.coeffs
    for start in range(0, len(points), engine.n_lim):
        refs = points[start:start + engine.n_lim]
        index, row = np.array(refs).T
        coeffs, factor, _ = reference_serial_core(
            engine.nodes[index], engine.pristine[row, index], refs,
            engine.col_degrees, 1e-13, False, basis=coeffs)
        engine.diag.max_column_scale = max(engine.diag.max_column_scale, factor)
    return MatrixPoly(coeffs)


def per_batch_cleanup(engine, basis: MatrixPoly) -> MatrixPoly:
    """Reference for ``_Engine._cleanup``: the same batches, each folded
    into the full-length basis by its own product.

    Each batch's pristine weights are premultiplied by the current basis on
    the node grid, swept into a fresh leaf-sized workspace, and the batch
    basis multiplied in, after which the product's columns are normalized.
    The library's pass must take the same pivots in every batch."""
    if not engine.deferred:
        return basis
    points = sorted(engine.deferred)
    points = [points[i] for i in tanint._stride_order(len(points))]
    for start in range(0, len(points), engine.n_lim):
        refs = points[start:start + engine.n_lim]
        index, row = np.array(refs).T
        vals = grid_eval(basis.coeffs, engine.order)[:, :, index]
        weights = np.einsum("ti,ijt->tj", engine.pristine[row, index], vals)
        coeffs, factor, _ = tanint._serial_core(
            engine.nodes[index], weights, refs, engine.col_degrees, 1e-13, False)
        basis = matpoly_multiply(basis, MatrixPoly(coeffs)).trimmed()
        factor = max(factor, tanint._normalize_columns(basis.coeffs))
        engine.diag.max_column_scale = max(engine.diag.max_column_scale, factor)
    return basis


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


# -- the serial sweep on a NumPy cube ----------------------------------------


class CubeWorkspace:
    """The leaf workspace as a (p, p, capacity) coefficient cube: entry
    (i, k)'s z^l coefficient sits at ``c[i, k, l]``, and a step is one
    NumPy broadcast over the cube.  It has the ``step``, ``normalize`` and
    ``view`` of ``tanint._Workspace``, whose store it is the reference for,
    evaluates the basis afresh with ``value``, and can start from a given
    basis, every column at its full length."""

    def __init__(self, p, capacity, coeffs=None):
        self.c = np.zeros((p, p, capacity), dtype=np.complex128)
        if coeffs is None:
            self.c[:, :, 0] = np.eye(p)
            self.length = 1
        else:
            self.length = coeffs.shape[2]
            self.c[:, :, :self.length] = coeffs
        self.lens = np.full(p, self.length, dtype=np.int64)

    def step(self, j: int, node: complex, mu: np.ndarray):
        """col_i += mu_i * col_j (mu_j must be 0), then col_j *= (z - node),
        with the column lengths kept by NumPy calls."""
        lens = self.lens
        lj = int(lens[j])
        head = self.c[:, j, :lj].copy()
        self.c[:, :, :lj] += mu[None, :, None] * head[:, None, :]
        self.c[:, j, :lj] = -node * head
        self.c[:, j, 1:lj + 1] += head
        np.maximum(lens, lj, out=lens, where=mu != 0.0)
        lens[j] = lj + 1
        self.length = int(lens.max())

    def normalize(self) -> float:
        return tanint._normalize_columns(self.c[:, :, :self.length])

    def view(self) -> np.ndarray:
        return self.c[:, :, :self.length].copy()

    def value(self, node: complex, w: np.ndarray) -> np.ndarray:
        """``w . B(node)`` against every column of the current basis B."""
        length = self.length
        return w @ (self.c[:, :, :length] @ (node ** np.arange(length)))


def reference_serial_core(nodes, weights, refs, col_degrees, pivot_threshold,
                          defer, basis=None):
    """``tanint._serial_core`` on a ``CubeWorkspace``, with the row search,
    the pivot choice and the degree ledger on NumPy arrays and every
    condition evaluated afresh.  Same call shape and returns, so it can be
    patched over the module's sweep; the library's sweep must take the
    same decisions.

    The sweep starts from the identity, or from the (p, p, length)
    ``basis`` given.  Each condition is scaled by the largest magnitude of
    its value against that starting basis, and is annihilated when its
    scaled value has fallen to ``_ROW_FLOOR``.  Each trip evaluates the
    first lowest column at every pending condition and takes the first
    whose modulus is at least ``_ROW_TIE`` times the largest, or the first
    pending condition when the largest is zero; only the chosen condition
    is evaluated in full."""
    nodes = np.asarray(nodes)
    count, p = weights.shape
    ws = CubeWorkspace(p, count + (1 if basis is None else basis.shape[2]),
                       basis)
    start = np.array([ws.value(node, w) for node, w in zip(nodes, weights)])
    scale = np.abs(start.reshape(count, p)).max(axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    weights = weights / scale[:, None]
    powers = nodes[None, :] ** np.arange(ws.c.shape[2])[:, None]
    pending = np.ones(count, dtype=bool)
    deferred = []
    for _ in range(count):
        c = int(np.argmin(col_degrees))
        column = ws.c[:, c, :ws.length] @ powers[:ws.length]
        values = np.einsum("ti,it->t", weights, column)
        rank = np.where(pending, np.abs(values), 0.0)
        t = int(np.argmax(rank >= rank.max() * tanint._ROW_TIE))
        if rank[t] == 0.0:
            t = int(np.argmax(pending))
        pending[t] = False
        node = nodes[t]
        phi = ws.value(node, weights[t])
        amax = np.abs(phi).max()
        small = amax <= tanint._ROW_FLOOR
        if not small:
            cands = np.flatnonzero(col_degrees == col_degrees.min())
            j = int(cands[np.argmax(np.abs(phi[cands]))])
            small = abs(phi[j]) < pivot_threshold * amax
        if small:
            if not defer:
                raise SingularSystemError(
                    "pivot underflow while absorbing an interpolation condition"
                )
            deferred.append(refs[t])
            continue
        mu = -phi / phi[j]
        mu[j] = 0.0
        ws.step(j, node, mu)
        col_degrees[j] += 1
    factor = ws.normalize()
    return ws.view(), factor, deferred


# -- what makes a sweep's basis an order basis -------------------------------


def assert_order_basis(coeffs, conditions, tau, start, final, deferred,
                       bound: float):
    """Check a sweep's (p, p, length) basis against what an order basis for
    its absorbed conditions is (Beckermann and Labahn, SIMAX 1994), with no
    second sweep to compare against.

    ``conditions`` is the sweep's (nodes, weights, refs); the absorbed ones
    are those whose ref is not in ``deferred``.  ``start`` and ``final`` are
    the degree ledgers before and after the sweep, for the shift ``tau``.

    - Every absorbed condition holds on the column-normalized basis:
      ``|w_t . B(x_t)|`` is at most ``bound * max|w_t|`` in every column.
    - The ledger: ``sum(final - start)`` is the number of absorbed
      conditions, one degree each.
    - Entry (i, j) has exactly zero coefficients past degree
      ``final[j] + tau[i]``.
    """
    nodes, weights, refs = conditions
    p, _, length = coeffs.shape
    skipped = set(deferred)
    absorbed = np.array([ref not in skipped for ref in refs], dtype=bool)
    final, start = np.asarray(final), np.asarray(start)
    assert int((final - start).sum()) == int(absorbed.sum())
    limit = final[None, :] + np.asarray(tau)[:, None]
    past = np.arange(length)[None, None, :] > limit[:, :, None]
    assert not coeffs[past].any()
    if not absorbed.any():
        return
    basis = coeffs.copy()
    tanint._normalize_columns(basis)
    at = np.asarray(nodes)[absorbed]
    vals = basis.reshape(p * p, length) @ (at[None, :] ** np.arange(length)[:, None])
    w = np.asarray(weights)[absorbed]
    phi = np.einsum("ti,ijt->tj", w, vals.reshape(p, p, -1))
    assert (np.abs(phi).max(axis=1) <= bound * np.abs(w).max(axis=1)).all()
