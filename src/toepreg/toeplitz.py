"""Toeplitz matrices in generator form, fast matvecs, and problem containers.

A rows x cols Toeplitz matrix is stored as its generating sequence of length
rows + cols - 1, ordered from the top-right entry to the bottom-left entry:
entry (i, j) equals gen[i - j + cols - 1].  Matrix-vector products embed the
matrix in a circulant of 7-smooth order and use the FFT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fftpoly import next_fast_len

__all__ = [
    "ToeplitzSpec",
    "HermitianToeplitzSpec",
    "materialize",
    "embedded_first_column",
    "toeplitz_matvec",
    "adjoint_spec",
    "toeplitz_adjoint_matvec",
    "ProblemSpec",
    "spec_from_json",
    "vector_to_json",
    "vector_from_json",
]


def _check_finite(name: str, value) -> None:
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite (no NaN or Inf)")


@dataclass(frozen=True)
class ToeplitzSpec:
    """Generator-form description of a rows x cols Toeplitz matrix."""

    rows: int
    cols: int
    gen: np.ndarray

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        g = np.ascontiguousarray(self.gen, dtype=np.complex128)
        if g.ndim != 1 or g.size != self.rows + self.cols - 1:
            raise ValueError(
                f"generator must have length rows + cols - 1 = "
                f"{self.rows + self.cols - 1}, got {g.size}"
            )
        _check_finite("generator", g)
        g.setflags(write=False)
        object.__setattr__(self, "gen", g)

    @property
    def shape(self):
        return (self.rows, self.cols)


def materialize(spec: ToeplitzSpec) -> np.ndarray:
    """Dense array for a generator-form Toeplitz matrix."""
    i = np.arange(spec.rows)[:, None]
    j = np.arange(spec.cols)[None, :]
    return spec.gen[i - j + spec.cols - 1]


def embedded_first_column(spec: ToeplitzSpec, order: int) -> np.ndarray:
    """First column of a circulant of the given order whose leading
    rows x cols corner is the Toeplitz matrix.  Requires
    order >= rows + cols - 1."""
    m, n = spec.rows, spec.cols
    if order < m + n - 1:
        raise ValueError("circulant order too small for embedding")
    c = np.zeros(order, dtype=np.complex128)
    c[:m] = spec.gen[n - 1 :]
    if n > 1:
        c[order - (n - 1) :] = spec.gen[: n - 1]
    return c


def toeplitz_matvec(spec: ToeplitzSpec, x: np.ndarray) -> np.ndarray:
    """T @ x by circulant embedding; O((m+n) log (m+n))."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (spec.cols,):
        raise ValueError(f"expected a vector of length {spec.cols}")
    q = next_fast_len(spec.rows + spec.cols - 1)
    c = embedded_first_column(spec, q)
    y = np.fft.ifft(np.fft.fft(c) * np.fft.fft(x, q))
    return y[: spec.rows]


def adjoint_spec(spec: ToeplitzSpec) -> ToeplitzSpec:
    """Generator form of the conjugate transpose."""
    return ToeplitzSpec(spec.cols, spec.rows, np.conj(spec.gen)[::-1])


def toeplitz_adjoint_matvec(spec: ToeplitzSpec, y: np.ndarray) -> np.ndarray:
    """T^H @ y without materializing anything."""
    return toeplitz_matvec(adjoint_spec(spec), y)


@dataclass(frozen=True)
class HermitianToeplitzSpec:
    """Hermitian Toeplitz matrix given by its first column (a_0 real)."""

    order: int
    gen: np.ndarray

    def __post_init__(self):
        g = np.ascontiguousarray(self.gen, dtype=np.complex128)
        if g.ndim != 1 or g.size != self.order:
            raise ValueError("first column must have length equal to the order")
        _check_finite("first column", g)
        scale = max(np.abs(g).max(), 1.0)
        if abs(g[0].imag) > 1e-12 * scale:
            raise ValueError("diagonal entry of a Hermitian matrix must be real")
        g = g.copy()
        g[0] = g[0].real
        g.setflags(write=False)
        object.__setattr__(self, "gen", g)

    @property
    def full_gen(self) -> np.ndarray:
        """Generator running top-right to bottom-left, length 2*order - 1."""
        return np.concatenate([np.conj(self.gen[:0:-1]), self.gen])

    def as_toeplitz(self) -> ToeplitzSpec:
        return ToeplitzSpec(self.order, self.order, self.full_gen)


@dataclass(frozen=True)
class ProblemSpec:
    """One regularized least-squares instance in one of three forms.

    general:  min ||T x - b||^2 + ||L x||^2       (T m x n, L p x n)
    l2:       min ||T x - b||^2 + beta_sq ||x||^2
    gramian:  solve (G + L^H L) x = y with G Hermitian Toeplitz
    """

    variant: str
    T: Optional[ToeplitzSpec] = None
    L: Optional[ToeplitzSpec] = None
    G: Optional[HermitianToeplitzSpec] = None
    beta: Optional[complex] = None
    b: Optional[np.ndarray] = None
    normal_rhs: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        for name in ("beta", "b", "normal_rhs"):
            value = getattr(self, name)
            if value is not None:
                _check_finite(name, value)
        if self.beta is not None:
            try:
                abs(complex(self.beta)) ** 2
            except OverflowError:
                raise ValueError("beta is too large: its square overflows") from None

    @classmethod
    def general(cls, T: ToeplitzSpec, L: ToeplitzSpec, b) -> "ProblemSpec":
        if T.cols != L.cols:
            raise ValueError("data and regularizer must share a column count")
        b = np.asarray(b, dtype=np.complex128)
        if b.shape != (T.rows,):
            raise ValueError("right-hand side length must match the data rows")
        if T.rows + L.rows < T.cols:
            raise ValueError(
                f"general problem is singular by shape: rank(T^H T + L^H L) <= "
                f"m + p = {T.rows + L.rows} < n = {T.cols}")
        return cls(variant="general", T=T, L=L, b=b)

    @classmethod
    def l2(cls, T: ToeplitzSpec, beta: complex, b) -> "ProblemSpec":
        b = np.asarray(b, dtype=np.complex128)
        if b.shape != (T.rows,):
            raise ValueError("right-hand side length must match the data rows")
        if beta == 0:
            raise ValueError("ridge weight must be nonzero")
        return cls(variant="l2", T=T, beta=complex(beta), b=b)

    @classmethod
    def gramian(cls, G: HermitianToeplitzSpec, L: ToeplitzSpec, rhs) -> "ProblemSpec":
        if L.cols != G.order:
            raise ValueError("regularizer columns must match the Gramian order")
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.shape != (G.order,):
            raise ValueError("right-hand side length must match the order")
        return cls(variant="gramian", G=G, L=L, normal_rhs=rhs)

    @property
    def factors(self) -> tuple:
        """The Toeplitz blocks B whose Gram terms B^H B sum, together with
        the ridge or Gramian diagonal term, into the normal matrix."""
        if self.variant == "general":
            return (self.T, self.L)
        if self.variant == "l2":
            return (self.T,)
        if self.variant == "gramian":
            return (self.L,)
        raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def n_tilde(self) -> int:
        """Rows of the tallest block (G counts as n x n) plus n: the order of
        the augmented system before its circulant extension."""
        rows = [block.rows for block in self.factors]
        if self.G is not None:
            rows.append(self.G.order)
        return max(rows) + self.n

    @property
    def n(self) -> int:
        return self.factors[0].cols

    @property
    def m(self) -> int:
        return self.n if self.variant == "gramian" else self.T.rows

    @property
    def reg_rows(self) -> int:
        if self.variant == "l2":
            return self.n
        return self.L.rows

    @property
    def beta_sq(self) -> float:
        return abs(self.beta) ** 2

    def normal_rhs_vector(self) -> np.ndarray:
        """Right-hand side of the normal equations, T^H b when needed."""
        if self.normal_rhs is not None:
            return np.asarray(self.normal_rhs, dtype=np.complex128)
        return toeplitz_adjoint_matvec(self.T, self.b)


def _json_object(obj) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _json_field(obj: dict, key: str, convert, default=None):
    """convert(obj[key]), or the default when the key is absent.  A missing
    required key or a value of the wrong type raises a ValueError naming
    the key."""
    if key not in obj:
        if default is None:
            raise ValueError(f"JSON object lacks the key {key!r}")
        return default
    try:
        return convert(obj[key])
    except (TypeError, ValueError):
        raise ValueError(f"JSON key {key!r} has the wrong type") from None


def _complex_from_json(obj: dict, re_key: str, im_key: str) -> np.ndarray:
    """Real part from re_key, imaginary part (zero if absent) from im_key."""
    def real(value):
        return np.asarray(value, dtype=np.float64)

    re = _json_field(obj, re_key, real)
    im = _json_field(obj, im_key, real, np.zeros_like(re))
    if im.shape != re.shape:
        raise ValueError(f"JSON key {im_key!r} must match {re_key!r} in shape")
    return re + 1j * im


def _json_int(value) -> int:
    """A JSON integer as is; floats, bools and strings are the wrong type."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(value)
    return value


def spec_from_json(obj) -> ToeplitzSpec:
    obj = _json_object(obj)
    gen = _complex_from_json(obj, "gen_re", "gen_im")
    return ToeplitzSpec(_json_field(obj, "rows", _json_int),
                        _json_field(obj, "cols", _json_int), gen)


def vector_to_json(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=np.complex128)
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def vector_from_json(obj) -> np.ndarray:
    return _complex_from_json(_json_object(obj), "re", "im")
