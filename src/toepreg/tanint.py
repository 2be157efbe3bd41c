"""Tangential interpolation with degree control.

Builds a square matrix polynomial whose columns span all vector polynomials
satisfying a set of scalar conditions w . q(node) = 0, while keeping the
basis reduced with respect to a shifted degree vector tau.  Conditions are
absorbed one at a time by rank-one elementary factors; a divide and conquer
driver splits the nodes into root-of-unity cosets so updates ride the FFT.

The tree is the one ``opt_extend`` sized the order for, N = 2**p * M.
Every node is a pair of adjacent cosets {o, o + 1} mod a power-of-two
stride, the root the pair (0, 1) at stride 2, and one split halves a node
into the pairs (o, o + 1) and (o + s, o + s + 1) at stride 2s.  A leaf
holds at most the system's ``n_lim`` conditions: the pairs of M-node
cosets at stride 2**p, or the root alone when p <= 1.  A left basis is
carried into its right sibling's weights by one grid evaluation.

Column degree bookkeeping is exact integer arithmetic: every absorbed
condition raises exactly one column's shifted degree by one, and the pivot
always comes from the currently lowest columns, which is what keeps the
basis reduced throughout.

The serial sweep keeps the working basis in a column-major store: one
Fortran-ordered array whose column k lists entry (i, k)'s z^l coefficient
at row l*p + i of its coefficient block, so a basis column is one
contiguous vector.  The store tracks each column's coefficient length; its
``length`` is the largest of them.  An absorbed condition lengthens its
pivot column by one and no column past that, so a leaf of K conditions
over p columns returns a basis about K/(p-1) + 1 coefficients long, not
K + 1, and every evaluation and combine product downstream works on that
true length.

The leaf sweeps of a solve take thousands of trips over p-entry vectors,
where a NumPy call costs more than its arithmetic.  So each sweep builds a
store of its own, holding the identity, with every one of its conditions as
a residual row on top: row t holds the condition's value
``weights[t] . B(nodes[t])`` against every column of the current basis B,
scaled by the condition's largest starting magnitude.  The rows start as
the scaled weights, and each trip updates them with the basis instead of
evaluating the basis at the condition's node: one BLAS rank-one update
(``zgeru``, Dongarra et al., ACM TOMS 1988) mixes the pivot column into
every other column, coefficient and residual rows alike, then the pivot
column's coefficients shift by (z - node) and its residual entries are
multiplied by (nodes - node).  This is how order-basis interpolation runs
(Beckermann and Labahn, SIMAX 1994; Van Barel, Heinig and Kravanja, SIMAX
2001).  The bookkeeping (pivot choice, degree ledger, column lengths,
deferral) runs on Python scalars.  The sweep returns its basis
column-normalized, and the store does not outlive it.

Since every pending condition's current value sits in its row, the sweep
chooses the next condition as partial pivoting chooses a row of a
displacement-structured matrix (Gohberg, Kailath and Olshevsky, Math.
Comp. 1995), by the modulus of the rows in one column, so it needs no
fixed order and no second look at its finished basis.  An updated row carries
the rounding of every update since its start, uncorrected within the
sweep: the sweep takes the decisions of a NumPy loop that re-evaluates a
(p, p, length) coefficient cube at each node, and its coefficients agree
with that loop's to rounding, not bit for bit.  So a condition counts as
annihilated when its row has fallen to ``_ROW_FLOOR``, not to exactly
zero: a repeated condition, updated by a kernel that fuses its
multiply-adds, is left as rounding noise.

A condition whose pivot underflows in a leaf is deferred, and recorded as
the plain ``(index, row)`` ref naming its node and weight row.  After the
tree, the cleanup pass absorbs the deferred conditions, in sorted ref order
then stride order, in batches of at most the system's ``n_lim``.  Each
batch is swept like a leaf and multiplied into a short running product of
the batch bases; one combine product (``fftpoly``'s error-free split) then
multiplies the tree basis by it, whatever the number of batches.  A
deferred condition thus costs one more leaf-sized sweep, not a step over
the full-length basis.
Before each batch the running product is scaled as the basis was when
every batch had a full-length product of its own, so each batch takes the
pivots it took then.

The column degrees are a plain int64 array that starts at ``-tau`` and is
raised in place as conditions are absorbed.  The leaf budget is set in one
place, ``assemble``'s ``n_lim``, and read from the system it returns, so
the extension and the tree's split cannot disagree.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
import scipy.fft as _sfft
from scipy.linalg.blas import zgeru as _zgeru

from .extension import AssembledSystem
from .fftpoly import MatrixPoly, grid_eval, matpoly_multiply, next_fast_len

__all__ = [
    "SingularSystemError",
    "TanIntDiagnostics",
    "rec_tan_int",
    "extract_solution",
]

# A pivot smaller than this fraction of the largest candidate defers its
# condition; the cleanup pass accepts pivots down to 1e-13.
_PIVOT_THRESHOLD = 1e-8

# Smallest leaf store, in rows; a power of two (see ``_Workspace``).
_STORE_MIN_ROWS = 64

# A residual row, scaled to unit starting magnitude, that falls to this is
# annihilated: rounding noise, not a condition value (see ``_serial_core``).
_ROW_FLOOR = 1e-14

# Rows within this factor of the largest in a column tie (``_serial_core``).
_ROW_TIE = 1.0 - 1e-8


class SingularSystemError(RuntimeError):
    """The interpolation data does not determine a unique solution."""


@dataclass
class TanIntDiagnostics:
    conditions_total: int = 0
    difficult_points: int = 0
    recursion_depth: int = 0
    max_column_scale: float = 1.0

    def as_dict(self) -> dict:
        return asdict(self)


class _Workspace:
    """Column-major store of one sweep's working basis, built from the
    sweep's conditions ``(nodes, weights)`` with the identity as its basis.

    ``store`` is a Fortran-ordered (rows, p) array: column k holds the z^l
    coefficient of entry (i, k) at row ``res + l * p + i``, so one basis
    column is one contiguous vector and absorbing a condition is one BLAS
    rank-one update over the store.  Coefficient rows past the basis length
    are exactly zero.

    The store's top ``res`` rows are residual rows, one per condition of
    the sweep: row t holds ``weights[t] . B(nodes[t])`` for the current
    basis B, divided by the largest magnitude of ``weights[t]`` (an
    all-zero row stays zero) so that rows of different conditions compare,
    and the update that mixes the basis columns mixes every condition's
    value with them.  ``cols`` views each store column's ``count`` residual
    rows, for the row search.

    ``lens`` is a list of ints, ``lens[j]`` the coefficient length of
    column j: every coefficient row of that column at or past
    ``lens[j] * p`` is exactly zero.  ``length``, an int, is the largest
    of them, the true length of the basis, and every read stays inside
    it.  Absorbing a condition lengthens the pivot column by one and
    brings the columns mixed with it up to the pivot's old length, so the
    basis grows with its degree, not with the number of conditions.

    The coefficient block holds a power-of-two number of rows, at least
    ``_STORE_MIN_ROWS``, and doubles as the basis grows, copying its rows
    exactly, so the update's work tracks the basis length and a leaf's
    store stays below OpenBLAS's threading size.  ``cap``, the number of
    coefficients the block holds, is tracked as the block grows, not
    recomputed per step, and a step calls ``_fit`` only when the pivot
    column would outgrow it.  The residual block is padded to a multiple
    of ``_STORE_MIN_ROWS``.  Both keep the BLAS kernel's blocked and tail
    loops on the same rows whatever the store size, so a sweep's bits do
    not depend on when the store grew.
    """

    __slots__ = ("store", "cols", "count", "lens", "length", "cap", "res",
                 "res_nodes")

    def __init__(self, nodes, weights):
        count, p = weights.shape
        res = -(-count // _STORE_MIN_ROWS) * _STORE_MIN_ROWS
        self.store = np.zeros((res + _STORE_MIN_ROWS, p), dtype=np.complex128,
                              order="F")
        self.res = res
        self.count = count
        self._fit(1)
        scale = np.abs(weights).max(axis=1, initial=0.0)
        scale[scale == 0.0] = 1.0
        np.divide(weights, scale[:, None], out=self.store[:count])
        self.store[res:res + p] = np.eye(p)
        self.res_nodes = np.zeros(res, dtype=np.complex128)
        self.res_nodes[:count] = nodes
        self.lens = [1] * p
        self.length = 1

    def _fit(self, length: int):
        """Grow the coefficient block, copying the store's rows exactly,
        until it holds ``length`` coefficients; ``cap`` is what it holds."""
        rows, p = self.store.shape
        have = rows - self.res
        if have < length * p:
            while have < length * p:
                have *= 2
            grown = np.zeros((self.res + have, p), dtype=np.complex128,
                             order="F")
            grown[:rows] = self.store
            self.store = grown
        self.cap = have // p
        self.cols = [self.store[:self.count, k] for k in range(p)]

    def step(self, j: int, node: complex, mu: np.ndarray):
        """col_i += mu_i * col_j (mu_j must be 0), then col_j *= (z - node).

        The mix is one ``zgeru`` over the whole store with alpha = 1, which
        must update the store in place.  With alpha = 1 every product is
        mu_i * head_l, so OpenBLAS's threaded path for large stores gives
        the same bits as its serial one.  The pivot column's coefficients
        shift by (z - node), and its residual entries are multiplied by
        (nodes - node), both written into the column with no temporary;
        the shift keeps ``-node`` as its first operand, because NumPy's
        vectorized complex multiply rounds ``head * -node`` apart from it.
        Column lengths are raised on Python scalars: each column mixed with
        the pivot (mu_i != 0) reaches the pivot's old length, the pivot one
        more, and ``length`` follows the pivot."""
        lens = self.lens
        lj = lens[j]
        p = len(lens)
        if lj >= self.cap:
            self._fit(lj + 1)
        store = self.store
        head = store[:, j].copy()
        if _zgeru(1.0, head, mu, a=store, overwrite_a=1) is not store:
            raise RuntimeError("rank-one update did not write the store in place")
        res = self.res
        end = res + lj * p
        col = store[:, j]
        np.multiply(-node, head[res:end], out=col[res:end])
        col[res + p:end + p] += head[res:end]
        np.multiply(head[:res], self.res_nodes - node, out=col[:res])
        for i, m in enumerate(mu.tolist()):
            if m and lens[i] < lj:
                lens[i] = lj
        lens[j] = lj + 1
        if lj >= self.length:
            self.length = lj + 1

    def normalize(self) -> float:
        return _normalize_columns(self._cube())

    def _cube(self) -> np.ndarray:
        """The basis as a (p, p, length) view into the store."""
        p = len(self.lens)
        rows = self.store[self.res:self.res + self.length * p]
        rows = rows.reshape(p, self.length, p, order="F")
        return rows.transpose(0, 2, 1)

    def view(self) -> np.ndarray:
        return self._cube().copy()


def _normalize_columns(coeffs) -> float:
    """Scale each column of a (p, p, length) coefficient array in place to
    unit largest magnitude, leaving all-zero columns alone.  Returns the
    largest divisor."""
    colmax = np.abs(coeffs).max(axis=(0, 2))
    safe = np.where(colmax > 0.0, colmax, 1.0)
    coeffs /= safe[None, :, None]
    return float(safe.max())


def _transform(coeffs, length: int) -> np.ndarray:
    """A (p, p, L) coefficient array's transform at ``next_fast_len(length)``
    points, node-major: (points, p, p)."""
    return _sfft.fft(coeffs.transpose(2, 0, 1), next_fast_len(length), axis=0)


def _column_peaks(left_hat, coeffs) -> np.ndarray:
    """Largest coefficient magnitude of each column of the product A C, in
    double precision, for the A whose ``_transform`` is ``left_hat``; that
    transform must be at least the product's length.  All-zero columns give
    1, as in ``_normalize_columns``."""
    right_hat = _transform(coeffs, len(left_hat))
    prod = _sfft.ifft(left_hat @ right_hat, axis=0, overwrite_x=True)
    peaks = np.abs(prod).max(axis=(0, 1))
    return np.where(peaks > 0.0, peaks, 1.0)


def _serial_core(nodes, weights, refs, col_degrees, pivot_threshold, defer):
    """One sweep: absorb the given conditions, in the order it chooses,
    into a fresh workspace that starts from the identity.

    Returns (coeffs, factor, deferred): the column-normalized basis as a
    (p, p, length) array, the divisor of its largest column (at least 1)
    and the refs of the deferred conditions.
    Each absorbed condition lengthens one column by one, from 1, so the
    basis is at most ``len(nodes) + 1`` coefficients long.

    The row rule: each trip takes the first pending condition whose row's
    modulus in the first lowest column is at least ``_ROW_TIE`` times the
    largest.  Rows at conjugate nodes start with equal moduli, which the
    updates leave ulps apart either way; the window ranks them alike
    however the rows were computed.  The rows are scaled to unit starting
    magnitude, so the ranking compares conditions, not their weights'
    scales.  A row is retired, zeroed, once its condition is absorbed or
    deferred.  When the entry found is exactly zero, no pending condition
    sees the column, and the first pending condition goes next; so it does
    when the search returns a retired row, as a NaN can make it.

    A condition without an admissible pivot raises, or with ``defer`` is
    deferred.  The pivot comes from one scan of the lowest columns,
    starting at the first of them, in which a column takes over only when
    its magnitude in ``np.abs(phi)`` is strictly larger: the first largest
    wins, as an argmax over them picks it.  A NaN magnitude compares false
    both ways, so it neither displaces an earlier candidate nor is
    displaced once it leads, as with Python's ``max``; ``np.argmax`` would
    pick the first NaN instead.  The threshold test takes the pivot's
    scalar ``abs``.  NumPy's vectorized complex abs and the scalar one can
    round apart in the last bit, so neither stands in for the other.

    The condition value ``phi`` is the condition's residual row in the
    store, which every absorbed condition has updated along with the
    basis; nothing is evaluated per condition.  A row that has fallen to
    ``_ROW_FLOOR`` is annihilated: its condition already holds to
    rounding, and has no pivot.  The degree ledger is a list of ints,
    written back into ``col_degrees`` in place when the sweep ends or
    raises.
    """
    ws = _Workspace(nodes, weights)
    points = nodes.tolist()
    count = len(points)
    pending = [True] * count
    cd = col_degrees.tolist()
    p = len(cd)
    deferred = []
    try:
        for _ in range(count):
            low = min(cd)
            c = cd.index(low)
            mod = np.abs(ws.cols[c])
            t = int((mod >= mod[mod.argmax()] * _ROW_TIE).argmax())
            phi = ws.store[t]
            mags = np.abs(phi).tolist()
            if not (pending[t] and mags[c]):
                t = pending.index(True)
                phi = ws.store[t]
                mags = np.abs(phi).tolist()
            pending[t] = False
            amax = max(mags)
            small = amax <= _ROW_FLOOR
            if not small:
                j, top = c, mags[c]
                for i in range(c + 1, p):
                    if cd[i] == low and mags[i] > top:
                        j, top = i, mags[i]
                pj = phi[j]
                small = abs(pj) < pivot_threshold * amax
            if small:
                if not defer:
                    raise SingularSystemError(
                        "pivot underflow while absorbing an interpolation condition"
                    )
                deferred.append(refs[t])
                phi.fill(0.0)
                continue
            # -phi / phi[j] bit for bit wherever phi is nonzero, as complex
            # division is symmetric in sign, with one scalar negation in
            # place of a row's; an exact zero may take the other sign.
            mu = np.divide(phi, -pj)
            mu[j] = 0.0
            phi.fill(0.0)
            ws.step(j, points[t], mu)
            cd[j] += 1
    finally:
        col_degrees[:] = cd
    factor = ws.normalize()
    return ws.view(), factor, deferred


def _stride_order(count: int) -> np.ndarray:
    """Low-discrepancy ordering of range(count): i -> i*s mod count with a
    coprime stride s near the golden fraction of count.

    The cleanup composes its batches in this order.  Every prefix of the
    sequence is nearly equidistributed (three-distance theorem), and unlike
    an even-odd decimation consecutive entries cycle through all residue
    classes, so a batch spreads over the deferred nodes instead of taking
    an arc of adjacent ones.  Batches of sorted refs leave some batch
    without an admissible pivot: every rect problem of perfbench seeds 1
    and 2 then raises ``SingularSystemError``.
    """
    if count <= 2:
        return np.arange(count)
    s = int(round(0.6180339887498949 * count))
    while math.gcd(s, count) != 1:
        s += 1
    return (np.arange(count) * s) % count


def _flatten(weights, nodes, order):
    """Node-major flattening of the conditions at the node indices ``order``,
    taken in that order: (nodes, weights, (index, row) refs), one per
    condition."""
    rows = weights.shape[0]
    sub = weights[:, order, :].swapaxes(0, 1).reshape(len(order) * rows, -1)
    refs = [(int(k), r) for k in order for r in range(rows)]
    return np.repeat(nodes[order], rows), sub, refs


class _Engine:
    """Divide and conquer over pairs of adjacent node cosets.

    A node (o, s) holds the node indices k with k mod s equal to o or
    o + 1; the root (0, 2) holds them all.  Its left half is (o, 2s) and
    its right half (o + s, 2s).  A node is a leaf when it holds at most
    ``n_lim`` conditions, or when 2s does not divide the order; only a
    hand-built system reaches the second case, and keeps an oversized leaf.

    Weights are updated in place as left-subtree bases are produced, so a
    leaf always sees its conditions pre-multiplied by everything already
    absorbed.  The pristine originals are kept for the cleanup pass, which
    absorbs the deferred conditions after the tree in leaf-sized batches,
    gathers the batch bases in a short running product, and folds that into
    the tree basis with one combine product.
    """

    def __init__(self, system, diag):
        self.order = system.order
        self.rows = system.rows
        self.weights = system.weights.copy()
        self.pristine = system.weights
        self.nodes = system.nodes
        self.col_degrees = -system.tau
        self.n_lim = system.n_lim
        self.diag = diag
        self.deferred = []

    def run(self) -> MatrixPoly:
        self.diag.conditions_total = self.rows * self.order
        basis = self._rec(0, 2, 1)
        basis = self._cleanup(basis)
        self.diag.difficult_points = len(self.deferred)
        # Leaves, combines, and the cleanup pass each leave their output
        # column-normalized; normalizing again here would only perturb low bits
        # and break bitwise agreement with a single serial sweep below n_lim.
        return basis

    # -- tree walk ---------------------------------------------------------

    def _rec(self, o, stride, depth) -> MatrixPoly:
        self.diag.recursion_depth = max(self.diag.recursion_depth, depth)
        child = 2 * stride
        # The pair holds 2 * rows * order / stride conditions.
        if 2 * self.rows * self.order <= self.n_lim * stride or self.order % child:
            return self._serial_leaf(o, stride)
        b_left = self._rec(o, child, depth + 1)
        for c in (o + stride, o + stride + 1):
            idx = np.arange(c, self.order, child)
            self.weights[:, idx] = self._premultiplied(
                self.weights[:, idx], b_left.coeffs, c, child)
        b_right = self._rec(o + stride, child, depth + 1)
        prod = matpoly_multiply(b_left, b_right).trimmed()
        factor = _normalize_columns(prod.coeffs)
        self.diag.max_column_scale = max(self.diag.max_column_scale, factor)
        return prod

    def _premultiplied(self, weights, coeffs, offset, stride) -> np.ndarray:
        """Weights (rows, N // stride, p) at the nodes w**(offset + stride*t),
        premultiplied by the basis ``coeffs`` evaluated there."""
        vals = np.moveaxis(
            grid_eval(coeffs, self.order, offset=offset, stride=stride), -1, 0)
        return np.einsum("rji,jik->rjk", weights, vals)

    @staticmethod
    def _cosets(o, stride):
        """The node cosets (offset, stride) of the pair {o, o + 1} mod
        ``stride``; the root leaf is the whole grid, one coset at stride 1."""
        return [(0, 1)] if stride == 2 else [(o, stride), (o + 1, stride)]

    def _serial_leaf(self, o, stride) -> MatrixPoly:
        """Absorb one leaf's conditions, node indices in natural order, in
        one sweep; the sweep chooses its own order."""
        idx = np.sort(np.concatenate([np.arange(c, self.order, s)
                                      for c, s in self._cosets(o, stride)]))
        nodes, sub, refs = _flatten(self.weights, self.nodes, idx)
        coeffs, factor, deferred = _serial_core(nodes, sub, refs, self.col_degrees,
                                                _PIVOT_THRESHOLD, True)
        self.deferred.extend(deferred)
        self.diag.max_column_scale = max(self.diag.max_column_scale, factor)
        return MatrixPoly(coeffs)

    # -- deferred conditions -----------------------------------------------

    def _cleanup(self, tree: MatrixPoly) -> MatrixPoly:
        """Absorb the deferred conditions into the tree basis.

        The refs, sorted and then in stride order, go in batches of at most
        ``n_lim`` conditions; their pristine weights are premultiplied once
        by the tree basis on the node grid.  Each batch is a right subtree
        of its own: its weights, premultiplied further by the running
        product R of the batch bases so far at the batch's nodes, are swept
        into a fresh leaf-sized workspace, and the batch basis joins R
        through one short product.  One product, the only one as long as
        the tree basis, then forms tree x R, column-normalized as ``_rec``
        normalizes a combine.

        Before each batch after the first, R's columns are divided by the
        column maxima of tree x R: the divisors the basis had when each
        batch was folded in by its own full-length product, so the weights
        scale as they did then and every batch takes the same pivots.  The
        divisors come from a double-precision product that nothing else
        reads, and one transform of the tree serves them all.  Against the
        full basis the once-ambiguous pivots are decided; any residual
        underflow here is a genuinely singular system.
        """
        if not self.deferred:
            return tree
        points = sorted(self.deferred)
        points = [points[i] for i in _stride_order(len(points))]
        index, row = np.array(points).T
        vals = grid_eval(tree.coeffs, self.order)[:, :, index]
        premult = np.einsum("ti,ijt->tj", self.pristine[row, index], vals)
        run = tree_hat = None
        for start in range(0, len(points), self.n_lim):
            batch = slice(start, start + self.n_lim)
            weights = premult[batch]
            if run is not None:
                vals = grid_eval(run.coeffs, self.order)[:, :, index[batch]]
                weights = np.einsum("ti,ijt->tj", weights, vals)
            coeffs, factor, _ = _serial_core(self.nodes[index[batch]], weights,
                                             points[batch], self.col_degrees,
                                             1e-13, False)
            step = MatrixPoly(coeffs)
            run = step if run is None else matpoly_multiply(run, step)
            if batch.stop < len(points):
                # Scale as the per-batch product would be normalized.  One
                # transform of the tree serves the scale products, sized for
                # the last on the guess that no later batch basis is longer
                # than this one; a product that outgrows it transforms again.
                need = tree.length + run.length - 1
                if tree_hat is None or len(tree_hat) < need:
                    later = (len(points) - batch.stop - 1) // self.n_lim
                    tree_hat = _transform(tree.coeffs, need + later * step.length)
                peaks = _column_peaks(tree_hat, run.coeffs)
                run.coeffs /= peaks[None, :, None]
                factor = max(factor, float(peaks.max()))
            self.diag.max_column_scale = max(self.diag.max_column_scale, factor)
        basis = matpoly_multiply(tree, run).trimmed()
        factor = _normalize_columns(basis.coeffs)
        self.diag.max_column_scale = max(self.diag.max_column_scale, factor)
        return basis


def rec_tan_int(system: AssembledSystem, diagnostics: TanIntDiagnostics = None):
    """Fast driver over leaves of at most ``system.n_lim`` conditions.

    Returns (basis, col_degrees, deferred): the column-normalized basis,
    its final shifted column degrees as an int64 array that starts from
    ``-system.tau``, and the ``(index, row)`` refs of the conditions the
    leaves deferred to the cleanup pass.
    """
    if diagnostics is None:
        diagnostics = TanIntDiagnostics()
    engine = _Engine(system, diagnostics)
    basis = engine.run()
    return basis, engine.col_degrees, engine.deferred


def extract_solution(basis: MatrixPoly, col_degrees: np.ndarray, n: int) -> np.ndarray:
    """Read the solution out of the unique shifted-degree-zero column.

    ``col_degrees`` is the array ``rec_tan_int`` returns.  The column's
    constant slot (last row, degree zero) must be nonzero; the solution is
    the first row's coefficient segment divided by it, and it must come out
    finite.
    """
    zero_cols = np.flatnonzero(col_degrees == 0)
    if zero_cols.size != 1:
        raise SingularSystemError(
            f"expected one degree-zero column, found {zero_cols.size}")
    j = int(zero_cols[0])
    coeffs = basis.coeffs
    const = coeffs[-1, j, 0]
    colmax = np.abs(coeffs[:, j, :]).max()
    if abs(const) < 1e-12 * colmax:
        raise SingularSystemError("constant slot vanished; no unique solution")
    col = coeffs[0, j, :]
    x = np.zeros(n, dtype=np.complex128)
    take = min(n, col.size)
    x[:take] = col[:take]
    x /= const
    if not np.isfinite(x).all():
        raise SingularSystemError("solution has non-finite entries")
    return x
