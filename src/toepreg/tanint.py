"""Tangential interpolation with degree control.

Builds a square matrix polynomial whose columns span all vector polynomials
satisfying a set of scalar conditions w . q(node) = 0, while keeping the
basis reduced with respect to a shifted degree vector tau.  Conditions are
absorbed one at a time by rank-one elementary factors; a divide and conquer
driver splits the nodes into root-of-unity cosets so updates ride the FFT.

Column degree bookkeeping is exact integer arithmetic: every absorbed
condition raises exactly one column's shifted degree by one, and the pivot
always comes from the currently lowest columns, which is what keeps the
basis reduced throughout.

The serial sweep works in a coefficient cube that tracks each column's
coefficient length; its ``length`` is the largest of them.  An absorbed
condition lengthens its pivot column by one and no column past that, so a
leaf of K conditions over p columns returns a basis about
K/(p-1) + 1 coefficients long, not K + 1, and every evaluation, self-check
and combine product downstream works on that true length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extension import AssembledSystem, InterpolationCondition
from .fftpoly import MatrixPoly, grid_eval, matpoly_multiply

__all__ = [
    "SingularSystemError",
    "TauState",
    "DifficultPoint",
    "TanIntDiagnostics",
    "basis_residuals",
    "serial_tan_int",
    "rec_tan_int",
    "extract_solution",
]

# Columns blown past this magnitude get rescaled mid-run; pure column
# scaling, so degrees and the spanned module are untouched.
_RESCALE_TRIGGER = 1e8
_RESCALE_PERIOD = 8


class SingularSystemError(RuntimeError):
    """The interpolation data does not determine a unique solution."""


@dataclass
class TauState:
    """Shifted degree ledger.  col_degrees is mutated in place as conditions
    are absorbed; it starts at -tau and ends, for a solvable system, at
    exactly one zero and ones elsewhere."""

    tau: np.ndarray
    col_degrees: np.ndarray

    @classmethod
    def from_tau(cls, tau) -> "TauState":
        t = np.asarray(tau, dtype=np.int64).copy()
        return cls(tau=t, col_degrees=-t)


@dataclass(frozen=True)
class DifficultPoint:
    """A condition skipped because no admissible pivot stood out."""

    condition: InterpolationCondition
    reason: str = "pivot-underflow"


@dataclass
class TanIntDiagnostics:
    conditions_total: int = 0
    difficult_points: int = 0
    recursion_depth: int = 0
    max_column_scale: float = 1.0
    # Leaf sweeps beyond the first, summed over leaves.
    leaf_retries: int = 0

    def as_dict(self) -> dict:
        return {
            "conditions_total": self.conditions_total,
            "difficult_points": self.difficult_points,
            "recursion_depth": self.recursion_depth,
            "max_column_scale": self.max_column_scale,
            "leaf_retries": self.leaf_retries,
        }


def basis_residuals(system: AssembledSystem, basis: MatrixPoly) -> np.ndarray:
    """All condition values against all basis columns, shape (rows, N, p)."""
    vals = basis.eval_grid(system.order)
    return np.einsum("rki,kij->rkj", system.weights, vals)


class _Workspace:
    """Mutable coefficient cube (p, p, capacity) for the working basis.

    ``lens[j]`` is the coefficient length of column j: every slot of that
    column at or past it is exactly zero.  ``length`` is the largest of them,
    the true length of the basis, and every read and write stays inside it.
    Absorbing a condition lengthens the pivot column by one and brings the
    columns mixed with it up to the pivot's old length, so the cube grows
    with the basis degree, not with the number of conditions.
    """

    __slots__ = ("c", "lens", "length")

    def __init__(self, p, capacity):
        self.c = np.zeros((p, p, capacity), dtype=np.complex128)
        self.c[:, :, 0] = np.eye(p)
        self.lens = np.ones(p, dtype=np.int64)
        self.length = 1

    @classmethod
    def from_coeffs(cls, coeffs, slack):
        p, _, length = coeffs.shape
        ws = cls.__new__(cls)
        ws.c = np.zeros((p, p, length + slack), dtype=np.complex128)
        ws.c[:, :, :length] = coeffs
        ws.lens = np.full(p, length, dtype=np.int64)
        ws.length = length
        return ws

    def eval(self, z: complex) -> np.ndarray:
        length = self.length
        return self.c[:, :, :length] @ (z ** np.arange(length))

    def step(self, j: int, node: complex, mu: np.ndarray):
        """col_i += mu_i * col_j (mu_j must be 0), then col_j *= (z - node)."""
        lens = self.lens
        lj = int(lens[j])
        if lj >= self.c.shape[2]:
            raise RuntimeError("workspace capacity exceeded")
        head = self.c[:, j, :lj].copy()
        self.c[:, :, :lj] += mu[None, :, None] * head[:, None, :]
        self.c[:, j, :lj] = -node * head
        self.c[:, j, 1:lj + 1] += head
        np.maximum(lens, lj, out=lens, where=mu != 0.0)
        lens[j] = lj + 1
        self.length = int(lens.max())

    def rescale(self, trigger: float = _RESCALE_TRIGGER):
        colmax = np.abs(self.c[:, :, :self.length]).max(axis=(0, 2))
        big = colmax > trigger
        if not big.any():
            return None
        self.c[:, big, :self.length] /= colmax[big][None, :, None]
        return float(colmax[big].max())

    def normalize(self):
        colmax = np.abs(self.c[:, :, :self.length]).max(axis=(0, 2))
        safe = np.where(colmax > 0.0, colmax, 1.0)
        self.c[:, :, :self.length] /= safe[None, :, None]
        return float(safe.max())

    def view(self) -> np.ndarray:
        return self.c[:, :, :self.length].copy()


def _serial_core(ws, nodes, weights, refs, col_degrees, pivot_threshold,
                 defer, deferred, diag):
    """Absorb the given conditions in order into the workspace."""
    for t in range(len(nodes)):
        node = nodes[t]
        phi = weights[t] @ ws.eval(node)
        amax = np.abs(phi).max()
        small = amax == 0.0
        if not small:
            cands = np.flatnonzero(col_degrees == col_degrees.min())
            j = int(cands[np.argmax(np.abs(phi[cands]))])
            small = abs(phi[j]) < pivot_threshold * amax
        if small:
            if not defer:
                raise SingularSystemError(
                    "pivot underflow while absorbing an interpolation condition"
                )
            k, row = refs[t]
            deferred.append(DifficultPoint(
                InterpolationCondition(node, np.array(weights[t]), row, k)))
            continue
        mu = -phi / phi[j]
        mu[j] = 0.0
        ws.step(j, node, mu)
        col_degrees[j] += 1
        if (t + 1) % _RESCALE_PERIOD == 0:
            factor = ws.rescale()
            if factor is not None and diag is not None:
                diag.max_column_scale = max(diag.max_column_scale, factor)


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
    leaf retries use it for nearby alternative orders.
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
    nearby coprime strides and the reversed default sweep."""
    yield _stride_order(count)
    if count <= 2:
        return
    for bump in (2, 5):
        yield _stride_order(count, bump)
    yield _stride_order(count)[::-1]


def _self_residual(coeffs, nodes, w_in, scale: float) -> float:
    """Worst residual of a basis over the given conditions, relative to the
    weight scale.  Direct evaluation; intended for leaf-sized node sets."""
    if scale == 0.0:
        return 0.0
    zp = nodes[:, None] ** np.arange(coeffs.shape[2])[None, :]
    vals = np.einsum("ijl,kl->kij", coeffs, zp)
    res = np.einsum("rki,kij->rkj", w_in, vals)
    return float(np.abs(res).max() / scale)


def _flatten(weights, nodes, order):
    """Node-major flattening of the conditions at the node indices ``order``,
    taken in that order: (nodes, weights, (index, row) refs), one per
    condition."""
    rows = weights.shape[0]
    sub = weights[:, order, :].swapaxes(0, 1).reshape(len(order) * rows, -1)
    refs = [(int(k), r) for k in order for r in range(rows)]
    return np.repeat(nodes[order], rows), sub, refs


def serial_tan_int(source, tau_state: TauState = None,
                   pivot_threshold: float = 1e-8, defer: bool = True):
    """One-pass reference driver.  Returns (basis, deferred conditions).

    ``source`` is an AssembledSystem (all conditions, node-major) or an
    explicit sequence of InterpolationCondition.  tau_state.col_degrees is
    mutated; pass a fresh state to re-run.
    """
    if isinstance(source, AssembledSystem):
        if tau_state is None:
            tau_state = TauState.from_tau(source.tau)
        nodes, weights, refs = _flatten(source.weights, source.nodes,
                                        _stride_order(source.order))
    else:
        conds = list(source)
        if tau_state is None:
            raise ValueError("tau_state is required with explicit conditions")
        nodes = np.array([c.node for c in conds])
        weights = np.array([c.weights for c in conds])
        refs = [(c.index, c.row_tag) for c in conds]
    p = tau_state.col_degrees.size
    ws = _Workspace(p, len(nodes) + 1)
    deferred = []
    _serial_core(ws, nodes, weights, refs, tau_state.col_degrees,
                 pivot_threshold, defer, deferred, None)
    ws.normalize()
    return MatrixPoly(ws.view()), deferred


class _Engine:
    """Divide and conquer over node cosets with paired interleaving.

    Weights are updated in place as left-subtree bases are produced, so a
    leaf always sees its conditions pre-multiplied by everything already
    absorbed; the pristine originals are kept for the final pass over any
    deferred conditions.
    """

    def __init__(self, system, tau_state, n_lim, pivot_threshold, diag):
        self.system = system
        self.order = system.order
        self.rows = system.rows
        self.weights = system.weights.copy()
        self.pristine = system.weights
        self.nodes = system.nodes
        self.col_degrees = tau_state.col_degrees
        self.n_lim = n_lim
        self.pivot_threshold = pivot_threshold
        self.diag = diag
        self.deferred = []

    def run(self) -> MatrixPoly:
        self.diag.conditions_total = self.rows * self.order
        basis = self._rec((0,), 1, 1)
        basis = self._cleanup(basis)
        self.diag.difficult_points = len(self.deferred)
        # Leaves, combines, and the cleanup pass each leave their output
        # column-normalized; rescaling again here would only perturb low bits
        # and break bitwise agreement with the serial driver below n_lim.
        return basis

    # -- tree walk ---------------------------------------------------------

    def _count(self, offsets, stride) -> int:
        return self.rows * len(offsets) * (self.order // stride)

    def _indices(self, offsets, stride) -> np.ndarray:
        parts = [np.arange(o, self.order, stride) for o in offsets]
        return parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))

    def _split(self, offsets, stride):
        n = self.order
        if len(offsets) == 1:
            o = offsets[0]
            if n % (4 * stride) == 0:
                return (o, o + stride), (o + 2 * stride, o + 3 * stride), 4 * stride
            if n % (2 * stride) == 0:
                return (o,), (o + stride,), 2 * stride
            return None
        o1, o2 = offsets
        if n % (2 * stride) == 0:
            return (o1, o2), (o1 + stride, o2 + stride), 2 * stride
        return (o1,), (o2,), stride

    def _rec(self, offsets, stride, depth) -> MatrixPoly:
        self.diag.recursion_depth = max(self.diag.recursion_depth, depth)
        split = None
        if self._count(offsets, stride) > self.n_lim:
            split = self._split(offsets, stride)
        if split is None:
            return self._serial_leaf(offsets, stride)
        left, right, new_stride = split
        b_left = self._rec(left, new_stride, depth + 1)
        self._update_weights(right, new_stride, b_left)
        b_right = self._rec(right, new_stride, depth + 1)
        prod = matpoly_multiply(b_left, b_right, extended=True).trimmed()
        coeffs = prod.coeffs
        colmax = np.abs(coeffs).max(axis=(0, 2))
        safe = np.where(colmax > 0.0, colmax, 1.0)
        coeffs /= safe[None, :, None]
        self.diag.max_column_scale = max(self.diag.max_column_scale, float(safe.max()))
        return MatrixPoly(coeffs)

    def _update_weights(self, offsets, stride, basis: MatrixPoly):
        for o in offsets:
            idx = np.arange(o, self.order, stride)
            vals = np.moveaxis(
                grid_eval(basis.coeffs, self.order, offset=o, stride=stride), -1, 0)
            self.weights[:, idx, :] = np.einsum(
                "rji,jik->rjk", self.weights[:, idx, :], vals)

    def _serial_leaf(self, offsets, stride) -> MatrixPoly:
        """Absorb one leaf's conditions, retrying under alternative orders.

        The per-step pivot rule only sees conditions already absorbed, so a
        leaf can commit to a pivot that a later condition of the same leaf
        exposes as poor, and no downstream stage can repair a leaf basis.
        The basis is therefore checked against the leaf's own conditions and
        the sweep rerun under a different absorption order when the check
        fails.  The pivot rule, threshold, and deferral policy are identical
        in every attempt; only the condition order changes.
        """
        idx = self._indices(offsets, stride)
        w_in = self.weights[:, idx, :]
        scale = float(np.abs(w_in).max())
        best = None
        for attempt, perm in enumerate(_leaf_orders(len(idx))):
            nodes, sub, refs = _flatten(self.weights, self.nodes, idx[perm])
            ws = _Workspace(self.weights.shape[2], len(nodes) + 1)
            cd = self.col_degrees.copy()
            deferred = []
            scratch = TanIntDiagnostics()
            _serial_core(ws, nodes, sub, refs, cd, self.pivot_threshold,
                         True, deferred, scratch)
            factor = max(ws.normalize(), scratch.max_column_scale)
            coeffs = ws.view()
            res = _self_residual(coeffs, self.nodes[idx], w_in, scale)
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

    # -- deferred conditions -----------------------------------------------

    def _cleanup(self, basis: MatrixPoly) -> MatrixPoly:
        if not self.deferred:
            return basis
        points = sorted(self.deferred,
                        key=lambda d: (d.condition.index, d.condition.row_tag))
        points = [points[i] for i in _stride_order(len(points))]
        ws = _Workspace.from_coeffs(basis.coeffs, len(points) + 1)
        nodes = np.array([d.condition.node for d in points])
        weights = np.array([self.pristine[d.condition.row_tag, d.condition.index]
                            for d in points])
        refs = [(d.condition.index, d.condition.row_tag) for d in points]
        # Against the full basis the once-ambiguous pivots are decided; any
        # residual underflow here is a genuinely singular system.
        _serial_core(ws, nodes, weights, refs, self.col_degrees,
                     min(1e-13, self.pivot_threshold), False, [], self.diag)
        ws.normalize()
        return MatrixPoly(ws.view())


def rec_tan_int(system: AssembledSystem, tau_state: TauState = None,
                n_lim: int = 256, pivot_threshold: float = 1e-8,
                diagnostics: TanIntDiagnostics = None):
    """Fast driver.  Returns (basis, difficult points encountered)."""
    if tau_state is None:
        tau_state = TauState.from_tau(system.tau)
    if diagnostics is None:
        diagnostics = TanIntDiagnostics()
    engine = _Engine(system, tau_state, n_lim, pivot_threshold, diagnostics)
    basis = engine.run()
    return basis, engine.deferred


def extract_solution(basis: MatrixPoly, tau_state: TauState, n: int) -> np.ndarray:
    """Read the solution out of the unique shifted-degree-zero column.

    The column's constant slot (last row, degree zero) must be nonzero; the
    solution is the first row's coefficient segment divided by it.
    """
    cd = tau_state.col_degrees
    zero_cols = np.flatnonzero(cd == 0)
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
    return x / const
