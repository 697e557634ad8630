"""Norms with convex unit balls (Finsler norms) and their dual geometry.

A norm H here is an even, positively 1-homogeneous convex function on R^n
with H(xi) >= c|xi| for some c > 0.  The dual norm is

    H_dual(x) = sup { <xi, x> : H(xi) <= 1 },

and for smooth strictly convex H the pair satisfies the exchange
identities H(grad H_dual(x)) = 1 and H_dual(grad H(x)) = 1 away from the
origin.  Sublevel sets of H_dual are the "Wulff" balls on which the
anisotropic radial solutions of the rest of the package are constant;
sublevel sets of H itself form the dual (Frank) diagram.

Supported kinds:

  * ``euclidean``              H(xi) = |xi|
  * ``ellipsoidal``            H(xi) = sqrt(xi^T A xi), A symmetric positive definite
  * ``lp``                     H(xi) = (sum |xi_i|^q)^(1/q), q > 1

All evaluators accept a single vector ``(n,)`` or a batch ``(m, n)``.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import random

import numpy as np

from .errors import NumericError

TOL_SHAPE = 1e-10   # boundary point on-level-set tolerance


def _as_batch(xi, dim):
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        if xi.shape[0] != dim:
            raise ValueError(f"expected vector of length {dim}, got {xi.shape}")
        return xi[None, :], True
    if xi.ndim != 2 or xi.shape[1] != dim:
        raise ValueError(f"expected array of shape (m, {dim}), got {xi.shape}")
    return xi, False


class _Draws:
    """Seeded uniform and normal doubles from the standard library's
    Mersenne Twister (random.Random; Matsumoto and Nishimura, ACM Trans.
    Model. Comput. Simul. 8, 1998), shaped with numpy.  numpy.random is not
    used: importing it loads OpenSSL through secrets, several MB of
    resident memory that every run would carry for one sampling pass."""

    def __init__(self, seed):
        # an integer, numpy's included: random.Random would seed other
        # types from their hash
        self._twister = random.Random(operator.index(seed))

    def uniform(self, count):
        """``count`` doubles in (0, 1]: the top 53 bits of each 64-bit draw,
        plus one, times 2^-53."""
        bits = self._twister.getrandbits(64 * count).to_bytes(8 * count, "little")
        words = np.frombuffer(bits, dtype="<u8")
        return ((words >> 11) + 1).astype(float) * 2.0 ** -53

    def normal(self, shape):
        """Standard normal doubles of ``shape`` by the Box-Muller transform
        (Box and Muller, Ann. Math. Stat. 29, 1958): one pair per pair of
        uniforms, the cosine halves first."""
        count = math.prod(shape)
        half = (count + 1) // 2
        u = self.uniform(2 * half)
        radius = np.sqrt(-2.0 * np.log(u[:half]))
        angle = 2.0 * np.pi * u[half:]
        pairs = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return pairs[:count].reshape(shape)


def _column_sum(v):
    """Sum of the columns of v, (m, n) -> (m,)."""
    out = v[:, 0].copy()
    for i in range(1, v.shape[1]):
        out += v[:, i]
    return out


def _scale_rows(v, c):
    """v * c[:, None], column by column."""
    out = np.empty_like(v)
    for i in range(v.shape[1]):
        np.multiply(v[:, i], c, out=out[:, i])
    return out


def _symmetric(m, n, entry):
    """(m, n, n) batch of symmetric matrices; entry(i, j) gives the (m,)
    entries at (i, j) for j <= i, mirrored to (j, i).  Stored entry-major:
    the result is a transposed view of an (n, n, m) array."""
    out = np.empty((n, n, m))
    for i in range(n):
        for j in range(i + 1):
            out[i, j] = entry(i, j)
            out[j, i] = out[i, j]
    return out.transpose(2, 0, 1)


class FinslerNorm:
    """A norm on R^n with closed-form evaluation, derivatives and dual."""

    def __init__(self, kind, dim, *, a=None, q=None):
        if kind not in ("euclidean", "ellipsoidal", "lp"):
            raise ValueError(f"unknown norm kind {kind!r}")
        if dim < 2:
            raise ValueError("dimension must be at least 2")
        self.kind = kind
        self.dim = int(dim)
        self._a = None
        self._q = None
        self._dual = None
        if kind == "ellipsoidal":
            a = np.asarray(a, dtype=float)
            if a.shape != (dim, dim):
                raise ValueError(f"matrix must be ({dim}, {dim})")
            if not np.allclose(a, a.T, atol=1e-12):
                raise ValueError("matrix must be symmetric")
            if np.linalg.eigvalsh(a).min() <= 0:
                raise ValueError("matrix must be positive definite")
            self._a = 0.5 * (a + a.T)
        elif kind == "lp":
            if q is None or not q > 1:
                raise ValueError("lp norm requires exponent q > 1")
            self._q = float(q)

    # -- constructors ------------------------------------------------------

    @classmethod
    def euclidean(cls, dim=2):
        return cls("euclidean", dim)

    @classmethod
    def ellipsoidal(cls, a):
        a = np.asarray(a, dtype=float)
        return cls("ellipsoidal", a.shape[0], a=a)

    @classmethod
    def lp(cls, q, dim=2):
        return cls("lp", dim, q=q)

    @property
    def matrix(self):
        return None if self._a is None else self._a.copy()

    @property
    def exponent(self):
        return self._q

    def __repr__(self):
        if self.kind == "ellipsoidal":
            return f"FinslerNorm(ellipsoidal, dim={self.dim})"
        if self.kind == "lp":
            return f"FinslerNorm(lp, q={self._q}, dim={self.dim})"
        return f"FinslerNorm({self.kind}, dim={self.dim})"

    # -- evaluation --------------------------------------------------------

    def eval(self, xi):
        """H(xi).  Accepts (n,) or (m, n)."""
        x, single = _as_batch(xi, self.dim)
        if self.kind == "euclidean":
            h = np.sqrt(_column_sum(x * x))
        elif self.kind == "ellipsoidal":
            h = np.sqrt(_column_sum(x * (x @ self._a)))
        else:
            h = np.power(_column_sum(np.abs(x) ** self._q), 1.0 / self._q)
        return float(h[0]) if single else h

    __call__ = eval

    def grad(self, xi):
        """grad H(xi); undefined (raises) at the origin."""
        _, g = self.jet(xi, order=1)
        return g

    def hess(self, xi):
        """Hessian of H at xi; undefined (raises) at the origin.

        Returns (n, n) for a single vector, (m, n, n) for a batch.  For lp
        kinds with q < 2 the entries blow up on the coordinate axes; callers
        sampling the unit sphere should offset their grids accordingly.
        """
        return self.jet(xi)[2]

    def jet(self, xi, order=2):
        """(H, grad H, D2H) at xi from one set of powers; (H, grad H) for
        order 1.  Shaped like eval, grad and hess; undefined (raises) at the
        origin.

        For lp, with a = |xi_i| and S = sum a^q = H^q, one power a^(q-1)
        gives u = sign(xi) a^(q-1), grad H = u H / S and, divided by a, the
        a^(q-2) of D2H = (q-1) (diag(a^(q-2)) H / S - grad H grad H^T / H), not
        u u^T H / S^2, whose S^2 underflows at large q.  The work runs column
        by column: numpy is slow along an axis of length n.
        """
        x, single = _as_batch(xi, self.dim)
        at_origin = x[:, 0] == 0.0
        for i in range(1, self.dim):
            at_origin &= x[:, i] == 0.0
        if np.any(at_origin):
            raise ValueError("norm derivatives undefined at the origin")
        n = self.dim
        if self.kind == "lp":
            q = self._q
            a = np.abs(x)
            a_q1 = a ** (q - 1.0)
            s = _column_sum(a_q1 * a)
            h = s ** (1.0 / q)
            u = np.copysign(a_q1, x)
            scale = h / s
            g = _scale_rows(u, scale)
            if order == 2:
                a_q2 = np.divide(a_q1, a, where=a > 0.0, out=np.full_like(
                    a, np.inf if q < 2.0 else float(q == 2.0)))
                c_gg = (1.0 - q) / h
                c_diag = (q - 1.0) * scale
                hmat = _symmetric(len(h), n, lambda i, j: c_gg * g[:, i] * g[:, j] + (
                    c_diag * a_q2[:, i] if i == j else 0.0))
        else:
            ax = x if self.kind == "euclidean" else x @ self._a
            h = np.sqrt(_column_sum(x * ax))
            g = _scale_rows(ax, 1.0 / h)
            if order == 2:
                mat = np.eye(n) if self.kind == "euclidean" else self._a
                hmat = _symmetric(len(h), n, lambda i, j: (mat[i, j] - g[:, i] * g[:, j]) / h)
        out = (h, g) if order == 1 else (h, g, hmat)
        return tuple(v[0] for v in out) if single else out

    # -- duality -----------------------------------------------------------

    @property
    def dual(self):
        """The dual norm, in closed form.

        euclidean is self-dual, ellipsoidal maps A to A^-1, lp maps q to its
        conjugate exponent.
        """
        if self._dual is None:
            if self.kind == "euclidean":
                self._dual = FinslerNorm.euclidean(self.dim)
            elif self.kind == "ellipsoidal":
                self._dual = FinslerNorm.ellipsoidal(np.linalg.inv(self._a))
            else:
                self._dual = FinslerNorm.lp(self._q / (self._q - 1.0), self.dim)
        return self._dual


def verify_duality_identities(h, samples):
    """Largest residual of the exchange identities on the given samples.

    Returns max over samples x of |H(grad H_dual(x)) - 1| and
    |H_dual(grad H(x)) - 1|.  Samples must be nonzero.
    """
    pts, _ = _as_batch(samples, h.dim)
    hdual = h.dual
    r1 = np.abs(h.eval(hdual.grad(pts)) - 1.0)
    r2 = np.abs(hdual.eval(h.grad(pts)) - 1.0)
    return float(max(r1.max(), r2.max()))


def ellipticity_constant(h, n_samples=4096, seed=0):
    """Sampled uniform-ellipticity constant of the unit sphere of H.

    Minimum over sampled xi with H(xi) = 1 of <D2H(xi) v, v> for unit v
    orthogonal to grad H(xi).  In dim 2 the sphere is swept with a
    half-step-offset angular grid (avoiding the coordinate axes, where
    lp Hessians degenerate or blow up); in higher dimension it is sampled
    from seeded normal draws (_Draws).  A sampled minimum <= 0 means the
    ball has a flat or crystalline spot and the norm is not admissible for
    the estimates downstream.
    """
    if h.dim == 2:
        thetas = (np.arange(n_samples) + 0.5) * (2.0 * np.pi / n_samples)
        dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    else:
        dirs = _Draws(seed).normal((n_samples, h.dim))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    xi = dirs / h.eval(dirs)[:, None]
    _, g, d2 = h.jet(xi)
    if h.dim == 2:
        t = np.column_stack([-g[:, 1], g[:, 0]])
        t /= np.linalg.norm(t, axis=-1, keepdims=True)
    else:
        t = _Draws(seed + 1).normal(xi.shape)
        t -= g * (np.einsum("ij,ij->i", t, g) / np.einsum("ij,ij->i", g, g))[:, None]
        t /= np.linalg.norm(t, axis=-1, keepdims=True)
    lam = np.einsum("ij,ijk,ik->i", t, d2, t)
    return float(lam.min())


def ellipticity_verdict(h):
    """Closed-form verdict on the uniform ellipticity of the unit sphere of H.

    ``uniform`` for the euclidean and ellipsoidal kinds and lp with q = 2.
    On the coordinate axes the lp Hessian carries a factor a^(q-2), a the
    off-axis coordinate: it vanishes there for q > 2 (``degenerate on the
    coordinate axes``) and blows up for q < 2 (``unbounded on the
    coordinate axes``).  ellipticity_constant samples off the axes, so its
    positive minimum does not show either.
    """
    if h.kind != "lp" or h.exponent == 2.0:
        return "uniform"
    if h.exponent > 2.0:
        return "degenerate on the coordinate axes"
    return "unbounded on the coordinate axes"


@dataclasses.dataclass
class WulffShape:
    """Polygonal trace of a norm ball boundary.

    ``norm_side`` is "H_dual" for the ball {H_dual(x - center) <= radius}
    (the shape radial solutions level on) or "H" for the primal ball.
    Boundary points are stored in angular order.
    """

    center: np.ndarray
    radius: float
    norm_side: str
    thetas: np.ndarray
    boundary: np.ndarray


def check_wulff_args(h, radius, n_samples, norm_side):
    """Reject wulff_boundary arguments that describe no traceable boundary."""
    if h.dim != 2:
        raise ValueError("boundary tracing is implemented for dim 2 only")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if norm_side not in ("H", "H_dual"):
        raise ValueError(f"norm_side must be 'H' or 'H_dual', got {norm_side!r}")


def wulff_boundary(h, center=(0.0, 0.0), radius=1.0, n_samples=512, norm_side="H_dual"):
    """Trace {N(x - center) = radius} at n_samples angles (dim 2).

    N is the dual norm for the default side, the primal norm otherwise.
    N is 1-homogeneous, so the point along direction d is radius d / N(d),
    and the residual is taken on the unit ball, where no radius overflows N.
    """
    check_wulff_args(h, radius, n_samples, norm_side)
    n = h.dual if norm_side == "H_dual" else h
    center = np.asarray(center, dtype=float)
    thetas = np.arange(n_samples) * (2.0 * np.pi / n_samples)
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    t = radius / n.eval(dirs)
    pts = center[None, :] + t[:, None] * dirs
    resid = radius * np.abs(n.eval((pts - center[None, :]) / radius) - 1.0).max()
    if resid > TOL_SHAPE * max(1.0, radius):
        raise NumericError(f"boundary residual {resid:.3e} above tolerance")
    return WulffShape(center=center, radius=float(radius), norm_side=norm_side,
                      thetas=thetas, boundary=pts)
