"""Tangential interpolation with degree control.

Builds a square matrix polynomial whose columns span all vector polynomials
satisfying a set of scalar conditions w . q(node) = 0, while keeping the
basis reduced with respect to a shifted degree vector tau.  Conditions are
absorbed one at a time by rank-one elementary factors; a divide and conquer
driver splits the nodes into root-of-unity cosets so updates ride the FFT.

The tree is the one ``opt_extend`` sized the order for, N = 2**p * M.
Every node is a pair of adjacent cosets {o, o + 1} mod a power-of-two
stride, the root the pair (0, 1) at stride 2, and one split halves a node
into the pairs (o, o + 1) and (o + s, o + s + 1) at stride 2s.  A node
at stride 2**d is at depth d, and the leaves are the nodes at the
system's ``depth``, max(p, 1): the pairs of M-node cosets at stride 2**p,
2 * rows * M conditions each, or the root alone when p <= 1.  A left
basis is carried into its right sibling's weights by one grid
evaluation.

Column degree bookkeeping is exact integer arithmetic: every absorbed
condition raises exactly one column's shifted degree by one, and the pivot
always comes from the currently lowest columns, which is what keeps the
basis reduced throughout.

The serial sweep is one function, ``_serial_core``, whose state lives in
its local variables.  It keeps the working basis in a column-major store:
one Fortran-ordered array whose column k lists entry (i, k)'s z^l
coefficient at row l*p + i of its coefficient block, so a basis column is
one contiguous vector.  The sweep tracks each column's coefficient length;
the basis length is the largest of them.  An absorbed condition lengthens its
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
sweep.  So a condition counts as annihilated when its row has fallen to
``_ROW_FLOOR``, not to exactly zero: a repeated condition, updated by a
kernel that fuses its multiply-adds, is left as rounding noise.  The tests
certify a sweep's basis by what it must be, a reduced order basis for the
conditions it absorbed: each of them holds to rounding, the degree ledger
counts them, every entry ends at its shifted degree, the leading matrix at
those degrees is nonsingular, and every raised column ends at most one
degree above the lowest.

A condition whose pivot underflows in a leaf is deferred, and recorded as
the plain ``(index, row)`` ref naming its node and weight row.  After the
tree, the cleanup pass absorbs the deferred conditions as one more right
subtree whose left sibling is the whole tree: their pristine weights,
premultiplied by the tree basis on the node grid, go through one sweep,
which pivots as a leaf's does, and one combine product folds its basis
into the tree basis.  Every trip of that sweep updates the row of every
deferred condition still pending, and the sweep drops the retired rows
each time half of them are, so the pass still grows with the square of
their number, at about two thirds of the residual-row work of keeping
them all.

The column degrees are a plain int64 array that starts at ``-tau`` and is
raised in place as conditions are absorbed.  The leaf budget is set in one
place, ``assemble``'s ``n_lim``; the tree reads only the depth the
extension was sized for, recorded on the system, so the extension and the
tree's split cannot disagree.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg.blas import zgeru as _zgeru

from .extension import AssembledSystem
from .fftpoly import MatrixPoly, grid_eval, matpoly_multiply

__all__ = [
    "SingularSystemError",
    "TanIntDiagnostics",
    "rec_tan_int",
    "extract_solution",
]

# A pivot smaller than this fraction of the largest candidate defers its
# condition in a leaf,
_PIVOT_THRESHOLD = 1e-8
# and one smaller than this raises in the cleanup pass, against the full basis.
_CLEANUP_PIVOT_THRESHOLD = 1e-13

# Smallest leaf store, in rows; a power of two (see ``_serial_core``).
_STORE_MIN_ROWS = 64

# A residual row, scaled to unit starting magnitude, that falls to this is
# annihilated: rounding noise, not a condition value (see ``_serial_core``).
_ROW_FLOOR = 1e-14

# Rows within this factor of the largest in a column tie (``_serial_core``).
_ROW_TIE = 1.0 - 1e-8

# Largest piece of a rank-one update, in store elements: OpenBLAS threads
# ``zger`` past 9216 (see ``_serial_core``).
_SERIAL_BLAS_SIZE = 8192

# A residual block of at least this many rows drops its retired rows once
# half of its conditions are retired (see ``_serial_core``).
_COMPACT_MIN_ROWS = 512


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


def _store(rows, block, have: int):
    """(store, res): a Fortran-ordered store whose top ``res`` rows are
    ``rows``, padded with zero rows to a multiple of ``_STORE_MIN_ROWS``,
    over a coefficient block of ``have`` rows that starts with ``block``,
    every row copied exactly."""
    count, p = rows.shape
    res = -(-count // _STORE_MIN_ROWS) * _STORE_MIN_ROWS
    store = np.zeros((res + have, p), dtype=np.complex128, order="F")
    store[:count] = rows
    store[res:res + len(block)] = block
    return store, res


def _views(store, res: int, count: int, mu):
    """What a sweep reads of its store, rebuilt when the store is: (cap,
    head, pieces, cols).  ``cap`` is the number of coefficients the block
    holds, ``head`` a buffer for the pivot column, ``cols`` each column's
    ``count`` residual rows, and ``pieces`` the (x, y, a) operands of the
    in-place ``zgeru`` calls that make the update ``store += head mu^T``:
    blocks of k columns by h rows, k = min(p, max(1, S // rows)) and
    h = min(rows, S) for S = ``_SERIAL_BLAS_SIZE``, so that each holds at
    most S elements.  That is the whole store when it fits, else column
    groups while one column fits, else single-column chunks of S rows."""
    rows, p = store.shape
    size = _SERIAL_BLAS_SIZE
    k, h = min(p, max(1, size // rows)), min(rows, size)
    head = np.empty(rows, dtype=np.complex128)
    pieces = [(head[r:r + h], mu[a:a + k], store[r:r + h, a:a + k])
              for a in range(0, p, k) for r in range(0, rows, h)]
    return (rows - res) // p, head, pieces, [store[:count, k] for k in range(p)]


def _normalize_columns(coeffs) -> float:
    """Scale each column of a (p, p, length) coefficient array in place to
    unit largest magnitude, leaving all-zero columns alone.  Returns the
    largest divisor."""
    colmax = np.abs(coeffs).max(axis=(0, 2))
    safe = np.where(colmax > 0.0, colmax, 1.0)
    coeffs /= safe[None, :, None]
    return float(safe.max())


def _serial_core(nodes, weights, refs, col_degrees, pivot_threshold, defer):
    """One sweep: absorb the given conditions, in the order it chooses,
    into a fresh store that starts from the identity.

    Returns (coeffs, factor, deferred): the column-normalized basis as a
    (p, p, length) array, the divisor of its largest column (at least 1)
    and the refs of the deferred conditions.  The basis is certified as a
    reduced order basis for the absorbed conditions (Beckermann and
    Labahn, SIMAX 1994), for the shift ``-col_degrees`` as given: each
    absorbed condition raises one of the lowest columns by one degree, and
    entry (i, k) ends at degree ``col_degrees[k]`` as returned less
    ``col_degrees[i]`` as given.
    Each absorbed condition lengthens one column by one, from 1, so the
    basis is at most ``len(nodes) + 1`` coefficients long.

    The store is a Fortran-ordered (rows, p) array.  Its top ``res`` rows
    are residual rows, one per condition, padded with zero rows to a
    multiple of ``_STORE_MIN_ROWS``: row t holds ``weights[t] . B(nodes[t])``
    for the current basis B, divided by the largest magnitude of
    ``weights[t]`` (an all-zero row stays zero) so that rows of different
    conditions compare.  Below them, column k holds the z^l coefficient of
    entry (i, k) at row ``res + l * p + i``, so one basis column is one
    contiguous vector, and absorbing a condition is one BLAS rank-one
    update that mixes the basis columns and every condition's value with
    them.  ``cols`` views each store column's residual rows, for the row
    search.  The store does not outlive the sweep: the basis is read from
    it once, when the sweep ends.

    ``_store`` builds every store of the sweep, copying each row exactly:
    the first from the scaled weights over the identity in a block of
    ``_STORE_MIN_ROWS`` rows, and each later one from rows of the store it
    replaces.

    Compaction: once a residual block of at least ``_COMPACT_MIN_ROWS``
    rows has retired half of its conditions, the store is rebuilt with
    only the pending rows, in their order, padded again, over the same
    coefficient block; ``points``, ``refs``, ``res_nodes``,
    ``pending``, ``cols`` and the update's pieces follow, and row t names
    the t-th pending condition from then on.  The order is kept, so the
    row rule's first row within the tie window is the same condition, and
    every row is copied exactly, so compaction moves no bit.  Only the
    cleanup's store is that large; a leaf holds 2 * rows * M rows, at most
    the ``n_lim`` that ``opt_extend`` sized M for.

    ``lens[j]``, an int, is the coefficient length of column j: every
    coefficient row of that column at or past ``lens[j] * p`` is exactly
    zero.  ``length`` is the largest of them, the true length of the
    basis, and every read stays inside it.  Absorbing a condition
    lengthens the pivot column by one and brings each column mixed with it
    (mu_i != 0) up to the pivot's old length; a column mixed with mu_i = 0
    keeps its length.  So the basis grows with its degree, not with the
    number of conditions.

    The coefficient block holds a power-of-two number of rows, at least
    ``_STORE_MIN_ROWS``, and is doubled, with all residual rows over the
    old block, only when the pivot column would outgrow ``cap``, the number
    of coefficients it holds; one doubling always makes room, as the block
    holds at least p rows (p <= ``_STORE_MIN_ROWS``) and the pivot column
    at most ``cap`` coefficients.  So the update's work tracks the basis
    length.
    The padding of both blocks keeps the BLAS kernel's blocked and tail
    loops on the same rows whatever the store size, so a sweep's bits do
    not depend on when the store grew or was compacted.

    A trip's update, ``store += head mu^T``, is made by ``zgeru`` with
    alpha = 1 in the pieces ``_views`` lists by its one rule: the whole
    store while it holds at most ``_SERIAL_BLAS_SIZE`` elements, as every
    leaf store does, else column groups (an F-ordered column slice is
    F-contiguous), else single-column chunks of ``_SERIAL_BLAS_SIZE``
    rows.  OpenBLAS threads ``zger`` past 9216 elements, which gains
    nothing on two cores and stalls beside a busy process, so no call
    reaches it.  With
    alpha = 1 each element gets mu_i * head_l added, the same product and
    sum in any piece, so the pieces leave the bits of one whole-store call.
    Each piece must be updated in place, or the sweep raises
    ``RuntimeError``.  The pieces are rebuilt only when the store is
    reallocated.  The pivot column's coefficients then shift by (z - node),
    and its residual entries are multiplied by (nodes - node), both
    written into the column with no temporary; the shift keeps ``-node``
    as its first operand, because NumPy's vectorized complex multiply
    rounds ``head * -node`` apart from it.

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
    count, p = weights.shape
    scale = np.abs(weights).max(axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    store, res = _store(weights / scale[:, None], np.eye(p), _STORE_MIN_ROWS)
    res_nodes = np.zeros(res, dtype=np.complex128)
    res_nodes[:count] = nodes
    mu = np.empty(p, dtype=np.complex128)
    cap, head, pieces, cols = _views(store, res, count, mu)
    lens = [1] * p
    length = 1
    points = nodes.tolist()
    pending = [True] * count
    left = count
    cd = col_degrees.tolist()
    deferred = []
    try:
        # The range is fixed here; compaction rebinds ``count`` below.
        for _ in range(count):
            if res >= _COMPACT_MIN_ROWS and 2 * left <= count:
                keep = [t for t in range(count) if pending[t]]
                store, res = _store(store[keep], store[res:], len(store) - res)
                res_nodes = np.append(res_nodes[keep],
                                      np.zeros(res - left, dtype=np.complex128))
                points = [points[t] for t in keep]
                refs = [refs[t] for t in keep]
                pending = [True] * left
                count = left
                cap, head, pieces, cols = _views(store, res, count, mu)
            low = min(cd)
            c = cd.index(low)
            mod = np.abs(cols[c])
            t = int((mod >= mod[mod.argmax()] * _ROW_TIE).argmax())
            phi = store[t]
            mags = np.abs(phi).tolist()
            if not (pending[t] and mags[c]):
                t = pending.index(True)
                phi = store[t]
                mags = np.abs(phi).tolist()
            pending[t] = False
            left -= 1
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
            np.divide(phi, -pj, out=mu)
            mu[j] = 0.0
            phi.fill(0.0)
            lj = lens[j]
            if lj >= cap:
                store, res = _store(store[:res], store[res:], 2 * (len(store) - res))
                cap, head, pieces, cols = _views(store, res, count, mu)
            head[:] = store[:, j]
            for x, y, a in pieces:
                if _zgeru(1.0, x, y, a=a, overwrite_a=1) is not a:
                    raise RuntimeError("rank-one update did not write the store in place")
            end = res + lj * p
            col = store[:, j]
            node = points[t]
            np.multiply(-node, head[res:end], out=col[res:end])
            col[res + p:end + p] += head[res:end]
            np.multiply(head[:res], res_nodes - node, out=col[:res])
            for i, m in enumerate(mu.tolist()):
                if m and lens[i] < lj:
                    lens[i] = lj
            lens[j] = lj + 1
            if lj >= length:
                length = lj + 1
            cd[j] += 1
    finally:
        col_degrees[:] = cd
    basis = store[res:res + length * p].reshape(p, length, p, order="F")
    basis = basis.transpose(0, 2, 1)
    factor = _normalize_columns(basis)
    return basis.copy(), factor, deferred


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
    its right half (o + s, 2s).  A node is a leaf exactly at the system's
    depth, at stride ``2 ** system.depth``; ``AssembledSystem`` checks
    that this stride divides the order whenever the root splits.

    Weights are updated in place as left-subtree bases are produced, so a
    leaf always sees its conditions pre-multiplied by everything already
    absorbed.  The pristine originals are kept for the cleanup pass, which
    absorbs the deferred conditions after the tree in one sweep, and folds
    its basis into the tree basis with one combine product.
    """

    def __init__(self, system, diag):
        self.order = system.order
        self.rows = system.rows
        self.weights = system.weights.copy()
        self.pristine = system.weights
        self.nodes = system.nodes
        self.col_degrees = -system.tau
        self.depth = system.depth
        self.diag = diag
        self.deferred = []

    def run(self) -> MatrixPoly:
        self.diag.conditions_total = self.rows * self.order
        self.diag.recursion_depth = self.depth
        basis = self._rec(0, 2)
        basis = self._cleanup(basis)
        self.diag.difficult_points = len(self.deferred)
        # Leaves, combines, and the cleanup pass each leave their output
        # column-normalized; normalizing again here would only perturb low bits
        # and break bitwise agreement with a single serial sweep at depth 1.
        return basis

    # -- tree walk ---------------------------------------------------------

    def _rec(self, o, stride) -> MatrixPoly:
        if stride == 2 ** self.depth:
            return self._serial_leaf(o, stride)
        child = 2 * stride
        b_left = self._rec(o, child)
        for c in (o + stride, o + stride + 1):
            idx = np.arange(c, self.order, child)
            self.weights[:, idx] = self._premultiplied(
                self.weights[:, idx], b_left.coeffs, c, child)
        b_right = self._rec(o + stride, child)
        return self._combine(b_left, b_right)

    def _combine(self, left, right) -> MatrixPoly:
        """The column-normalized product of a left basis and its right
        sibling's."""
        prod = matpoly_multiply(left, right).trimmed()
        factor = _normalize_columns(prod.coeffs)
        self.diag.max_column_scale = max(self.diag.max_column_scale, factor)
        return prod

    def _premultiplied(self, weights, coeffs, offset, stride) -> np.ndarray:
        """Weights (rows, N // stride, p) at the nodes w**(offset + stride*t),
        premultiplied by the basis ``coeffs`` evaluated there."""
        vals = np.moveaxis(
            grid_eval(coeffs, self.order, offset=offset, stride=stride), -1, 0)
        return np.einsum("rji,jik->rjk", weights, vals)

    def _serial_leaf(self, o, stride) -> MatrixPoly:
        """Absorb one leaf's conditions, the node indices of the pair
        {o, o + 1} mod ``stride`` in natural order, in one sweep; the sweep
        chooses its own order."""
        idx = np.flatnonzero((np.arange(self.order) - o) % stride < 2)
        nodes, sub, refs = _flatten(self.weights, self.nodes, idx)
        coeffs, factor, deferred = _serial_core(nodes, sub, refs, self.col_degrees,
                                                _PIVOT_THRESHOLD, True)
        self.deferred.extend(deferred)
        self.diag.max_column_scale = max(self.diag.max_column_scale, factor)
        return MatrixPoly(coeffs)

    # -- deferred conditions -----------------------------------------------

    def _cleanup(self, tree: MatrixPoly) -> MatrixPoly:
        """Absorb the deferred conditions into the tree basis, as one more
        right subtree whose left sibling is the whole tree.

        The sorted refs' pristine weights are premultiplied by the tree
        basis on the node grid and swept, all in one ``_serial_core``, at
        ``_CLEANUP_PIVOT_THRESHOLD``; ``_combine`` folds the sweep's basis
        into the tree basis.  Against the full basis the once-ambiguous
        pivots are decided; any underflow here is a genuinely singular
        system.
        """
        if not self.deferred:
            return tree
        points = sorted(self.deferred)
        index, row = np.array(points).T
        vals = grid_eval(tree.coeffs, self.order)[:, :, index]
        weights = np.einsum("ti,ijt->tj", self.pristine[row, index], vals)
        coeffs, factor, _ = _serial_core(self.nodes[index], weights, points,
                                         self.col_degrees,
                                         _CLEANUP_PIVOT_THRESHOLD, False)
        self.diag.max_column_scale = max(self.diag.max_column_scale, factor)
        return self._combine(tree, MatrixPoly(coeffs))


def rec_tan_int(system: AssembledSystem, diagnostics: TanIntDiagnostics = None):
    """Fast driver over the coset tree of ``system.depth`` levels.

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
