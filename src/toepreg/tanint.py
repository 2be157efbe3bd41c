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
cosets at stride 2**p, or the root alone when p <= 1.  Each leaf basis is
checked on its own cosets by the same grid evaluation that carries a left
basis into its right sibling's weights.

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
K + 1, and every evaluation, self-check and combine product downstream
works on that true length.

The leaf sweeps of a solve take thousands of trips over p-entry vectors,
where a NumPy call costs more than its arithmetic.  So each sweep builds a
store of its own, holding the identity, with every one of its conditions as
a residual row on top: row t holds the condition's value
``weights[t] . B(nodes[t])`` against every column of the current basis B.
The rows start as the weights, and each trip updates them with the basis
instead of evaluating the basis at the condition's node: one BLAS rank-one
update (``zgeru``, Dongarra et al., ACM TOMS 1988) mixes the pivot column
into every other column, coefficient and residual rows alike, then the
pivot column's coefficients shift by (z - node) and its residual entries
are multiplied by (nodes - node).  This is how order-basis interpolation
runs (Beckermann and Labahn, SIMAX 1994; Van Barel, Heinig and Kravanja,
SIMAX 2001).  The bookkeeping (pivot choice, degree ledger, column lengths,
deferral) runs on Python scalars.  The sweep returns its basis
column-normalized, and the store does not outlive it.

An updated row carries the rounding of every update since its start, and
its drift is not corrected within the sweep; the leaf self-check, which
evaluates the finished basis afresh, is the guard against it.  The sweep
takes the decisions of a plain NumPy loop that re-evaluates a (p, p,
length) coefficient cube at each node, and its coefficients agree with
that loop's to rounding, not bit for bit.  For the same reason a condition
counts as annihilated, with no pivot, when its row has fallen to
``_ROW_FLOOR`` of its starting magnitude, not when it is exactly zero: a
repeated condition, updated by a kernel that fuses its multiply-adds, is
left as rounding noise.

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

# A residual row that falls to this fraction of its starting magnitude is
# annihilated: rounding noise, not a condition value (see ``_serial_core``).
_ROW_FLOOR = 1e-14


class SingularSystemError(RuntimeError):
    """The interpolation data does not determine a unique solution."""


@dataclass
class TanIntDiagnostics:
    conditions_total: int = 0
    difficult_points: int = 0
    recursion_depth: int = 0
    max_column_scale: float = 1.0
    # Leaf sweeps beyond the first, summed over leaves.
    leaf_retries: int = 0

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
    basis B, so the update that mixes the basis columns mixes every
    condition's value with them.  They start as the weights themselves.

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

    __slots__ = ("store", "lens", "length", "cap", "res", "res_nodes")

    def __init__(self, nodes, weights):
        count, p = weights.shape
        res = -(-count // _STORE_MIN_ROWS) * _STORE_MIN_ROWS
        self.store = np.zeros((res + _STORE_MIN_ROWS, p), dtype=np.complex128,
                              order="F")
        self.res = res
        self._fit(1)
        self.store[:count] = weights
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
    """One sweep: absorb the given conditions in order into a fresh
    workspace that starts from the identity.

    Returns (coeffs, factor, deferred): the column-normalized basis as a
    (p, p, length) array, the divisor of its largest column (at least 1)
    and the refs of the deferred conditions.
    Each absorbed condition lengthens one column by one, from 1, so the
    basis is at most ``len(nodes) + 1`` coefficients long.

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
    ``_ROW_FLOOR`` of its starting magnitude is annihilated: its condition
    already holds to rounding, and has no pivot.  The degree ledger is a
    list of ints, written back into ``col_degrees`` in place when the
    sweep ends or raises.
    """
    ws = _Workspace(nodes, weights)
    floors = (_ROW_FLOOR * np.abs(weights).max(axis=1)).tolist()
    points = nodes.tolist()
    cd = col_degrees.tolist()
    p = len(cd)
    deferred = []
    try:
        for t in range(len(points)):
            phi = ws.store[t]
            mags = np.abs(phi).tolist()
            amax = max(mags)
            small = amax <= floors[t]
            if not small:
                low = min(cd)
                j = cd.index(low)
                top = mags[j]
                for i in range(j + 1, p):
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
                continue
            # -phi / phi[j] bit for bit wherever phi is nonzero, as complex
            # division is symmetric in sign, with one scalar negation in
            # place of a row's; an exact zero may take the other sign.
            mu = np.divide(phi, -pj)
            mu[j] = 0.0
            ws.step(j, points[t], mu)
            cd[j] += 1
    finally:
        col_degrees[:] = cd
    factor = ws.normalize()
    return ws.view(), factor, deferred


def _stride_order(count: int, bump: int = 0) -> np.ndarray:
    """Low-discrepancy ordering of range(count): i -> i*s mod count with a
    coprime stride s near the golden fraction of count.

    Serial sweeps absorb nodes in this order for two reasons.  Every prefix
    of the sequence is nearly equidistributed (three-distance theorem), so
    the working basis never develops the exponential ill-conditioning that
    consuming an arc of adjacent nodes causes.  And unlike an even-odd
    decimation, consecutive entries cycle through all residue classes, so
    weight rows that nearly repeat on a subgrid (constant-modulus alignment
    spectra take few values on cosets) never arrive in long same-class runs
    while the basis is still too low-degree to tell them apart.

    A ``bump`` starts the coprime search that far past the golden stride;
    the leaf retries use it for one nearby alternative order.
    """
    if count <= 2:
        return np.arange(count)
    s = int(round(0.6180339887498949 * count)) + bump
    while math.gcd(s, count) != 1:
        s += 1
    return (np.arange(count) * s) % count


# A leaf basis whose residual on the leaf's own conditions exceeds this
# (relative to the incoming weight scale) triggers a retry; healthy leaves
# sit two orders below it.
_LEAF_CHECK_TOL = 1e-11


def _leaf_orders(count: int):
    """The default absorption order, then fallbacks for a failed self-check:
    one nearby coprime stride and the reversed default sweep."""
    yield _stride_order(count)
    if count <= 2:
        return
    yield _stride_order(count, 2)
    yield _stride_order(count)[::-1]


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
        """Absorb one leaf's conditions, retrying under alternative orders.

        The per-step pivot rule only sees conditions already absorbed, so a
        leaf can commit to a pivot that a later condition of the same leaf
        exposes as poor, and no downstream stage can repair a leaf basis.
        The basis is therefore checked against the leaf's own conditions and
        the sweep rerun under a different absorption order when the check
        fails.  The check evaluates the basis on the leaf's cosets as a
        weight update does and asks that the leaf's weights, premultiplied
        by it, vanish.  The pivot rule, threshold, and deferral policy are
        identical in every attempt; only the condition order changes.
        Conditions the attempt deferred belong to the cleanup pass and are
        left out of its check.  A NaN residual, as an overflowed attempt
        gives, ranks below every finite one.
        """
        cosets = self._cosets(o, stride)
        parts = [np.arange(c, self.order, s) for c, s in cosets]
        idx = np.sort(np.concatenate(parts))
        w_in = [self.weights[:, part] for part in parts]
        scale = max(float(np.abs(w).max()) for w in w_in)
        best = None
        for attempt, perm in enumerate(_leaf_orders(len(idx))):
            nodes, sub, refs = _flatten(self.weights, self.nodes, idx[perm])
            cd = self.col_degrees.copy()
            coeffs, factor, deferred = _serial_core(nodes, sub, refs, cd,
                                                    _PIVOT_THRESHOLD, True)
            res = self._leaf_residual(coeffs, cosets, w_in, deferred, scale)
            if math.isnan(res):
                res = math.inf
            if best is None or res < best[0]:
                best = (res, coeffs, cd, deferred, factor)
            if best[0] <= _LEAF_CHECK_TOL:
                break
        _, coeffs, cd, deferred, factor = best
        self.diag.leaf_retries += attempt
        self.col_degrees[:] = cd
        self.deferred.extend(deferred)
        self.diag.max_column_scale = max(self.diag.max_column_scale, factor)
        return MatrixPoly(coeffs)

    def _leaf_residual(self, coeffs, cosets, w_in, deferred, scale) -> float:
        """Worst of the leaf's weights ``w_in`` (one array per coset),
        premultiplied by the leaf basis, relative to ``scale``; the rows of
        the ``deferred`` refs are left out.  A NaN anywhere gives NaN."""
        if scale == 0.0:
            return 0.0
        worst = []
        for (c, s), w in zip(cosets, w_in):
            res = self._premultiplied(w, coeffs, c, s)
            for k, row in deferred:
                if (k - c) % s == 0:
                    res[row, (k - c) // s] = 0.0
            worst.append(np.abs(res).max())
        return float(np.max(worst)) / scale

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
