"""Scalar stress profiles B and source terms, with admissibility checks.

The operator is -div(B'(H(grad u)) grad H(grad u)).  Two profile families
are shipped:

  * ``power``    B(t) = t^p / p                      (k = 0)
  * ``shifted``  B'(t) = (k + t)^(p-2) t, k in (0, 1]

Both sit inside the growth envelope of hypothesis (iii) with
gamma = min(1, p-1) and Gamma = max(1, p-1).  The checks in this module
estimate the constants that make the downstream estimates run: the
ellipticity/boundedness pair (C1, C2) of the linearized tensor

    M(xi) = B''(H(xi)) grad H (x) grad H + B'(H(xi)) D^2 H(xi),

the flux growth constant, the flux monotonicity constant, and the
Keller-Osserman admissibility of an absorption term g.  All of them are
sampled estimates, not certificates; seeds make them reproducible.

The source f and the absorption g are specified on [0, inf) only; SourceTerm
evaluates both at max(s, 0), in array and in scalar form alike.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .errors import AdmissibilityError
from .finsler import _as_batch, _Draws, _scale_rows
from .hypotheses import violation

# Verdicts for the barrier admissibility of g.
G_ZERO_NEAR_0 = "g_zero_near_0"
OSSERMAN_CHECKED = "osserman_checked"
UNCHECKED = "unchecked"

_RADIUS_RANGE = (1e-4, 1e2)   # log-uniform sampling radii for the checks
ADMISSIBILITY_SAMPLES = 2048  # sample count of the checks the CLI and solve run
_OSSERMAN_LEVELS = 20         # dyadic halvings in the divergence probe
_SERIES_TAU = 0.1             # shifted B: binomial series below t / k = this
_SERIES_TERMS = 400           # cap on the terms of that series
_DOUBLINGS = 200              # invert_increasing: bracket tops 1, 2, ..., 2^199
_NEWTON_RTOL = 2.0 * np.finfo(float).eps  # invert_increasing: a Newton step this small ends it
_NEWTON_STEPS = 200           # invert_increasing: more than bisection alone needs


class MaterialProfile:
    """Profile B with exponent p > 1 and shift k in [0, 1]."""

    def __init__(self, p, k=0.0, kind="power"):
        if kind not in ("power", "shifted"):
            raise ValueError(f"unknown profile kind {kind!r}")
        if not p > 1.0:
            raise AdmissibilityError(violation("iii", f"got p = {p}"))
        if not 0.0 <= k <= 1.0:
            raise AdmissibilityError(violation("iii", f"got k = {k}, need k in [0, 1]"))
        if kind == "power" and k != 0.0:
            raise ValueError("power kind requires k = 0")
        self.p = float(p)
        self.k = float(k)
        self.kind = kind

    def __repr__(self):
        return f"MaterialProfile(p={self.p}, k={self.k}, kind={self.kind!r})"

    # B and derivatives; all accept scalars or arrays, t >= 0.

    def b(self, t):
        t = np.asarray(t, dtype=float)
        p, k = self.p, self.k
        if k == 0.0:
            out = t ** p / p
        else:
            out = self._b_shifted(np.atleast_1d(t)).reshape(t.shape)
        return float(out) if out.ndim == 0 else out

    def _b_shifted(self, t):
        """B(t) = int_0^t (k+s)^(p-2) s ds without cancellation, t a 1-d array.

        With tau = t / k, B = k^p G(tau), G(tau) = int_0^tau (1+x)^(p-2) x dx
        ~ tau^2 / 2.  Below tau = _SERIES_TAU, G is its binomial series
        sum_n binom(p-2, n) tau^(n+2) / (n+2).  Above, the closed form
        ((k+t)^p - k^p) / p - k ((k+t)^(p-1) - k^(p-1)) / (p-1) is taken with
        each difference as (k+t)^a (1 - (1+tau)^-a), the bracket from
        expm1 and log1p; the two terms then cancel by at most 4 / tau.
        """
        p, k = self.p, self.k
        tau = t / k
        out = np.empty_like(t)
        low = tau < _SERIES_TAU
        x = tau[low]
        total = np.zeros_like(x)
        coef = np.ones_like(x)            # binom(p-2, n) tau^n
        for n in range(_SERIES_TERMS):
            term = coef / (n + 2)
            total += term
            if np.all(np.abs(term) <= 1e-17 * total):
                break
            coef = coef * x * ((p - 2.0 - n) / (n + 1))
        out[low] = t[low] ** 2 * k ** (p - 2.0) * total
        th = t[~low]
        log_ratio = np.log1p(tau[~low])   # log((k + t) / k)
        out[~low] = (k + th) ** (p - 1.0) * (
            (k + th) * -np.expm1(-p * log_ratio) / p
            - k * -np.expm1(-(p - 1.0) * log_ratio) / (p - 1.0))
        return out

    def b_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self.k == 0.0:
            # (k+t)^(p-2) t collapses to t^(p-1); avoids 0^(negative) at t = 0
            out = t ** (self.p - 1.0)
        else:
            out = (self.k + t) ** (self.p - 2.0) * t
        return float(out) if out.ndim == 0 else out

    def b_second(self, t):
        t = np.asarray(t, dtype=float)
        if self.k == 0.0 and self.p < 2.0 and np.any(t == 0.0):
            raise ValueError("B'' is singular at t = 0 for p < 2 with k = 0")
        out = self.b_derivatives(t)[1]
        return float(out) if out.ndim == 0 else out

    def b_derivatives(self, t):
        """(B'(t), B''(t)) for t > 0, from one power of t (or of k + t)."""
        t = np.asarray(t, dtype=float)
        p, k = self.p, self.k
        if k == 0.0:
            c = t ** (p - 2.0)
            return c * t, (p - 1.0) * c
        c = (k + t) ** (p - 3.0)
        return c * (k + t) * t, c * ((p - 1.0) * t + k)

    def ell(self, s):
        """L(s) = s B'(s) - B(s), the barrier Legendre-type transform."""
        s = np.asarray(s, dtype=float)
        out = s * self.b_prime(s) - self.b(s)
        return float(out) if out.ndim == 0 else out

    def ell_inverse(self, y):
        """Inverse of the increasing function L.

        Closed form for the power family, L(s) = (1 - 1/p) s^p.  Shifted
        profiles go through invert_increasing with L'(s) = s B''(s), which
        keeps the relative accuracy however small y is; a y above L(2^199)
        maps to +inf, as an overflow of the closed form does.
        """
        y = np.asarray(y, dtype=float)
        single = y.ndim == 0
        vals = np.atleast_1d(y).astype(float)
        if np.any(vals < 0.0):
            raise ValueError("L is nonnegative; cannot invert a negative value")
        if self.k == 0.0:
            out = (self.p * vals / (self.p - 1.0)) ** (1.0 / self.p)
            return float(out[0]) if single else out
        out = invert_increasing(self.ell, lambda s: s * self.b_second(s), vals)
        return float(out[0]) if single else out


def invert_increasing(fun, deriv, y):
    """t >= 0 with fun(t) = y, elementwise, for an increasing fun with fun(0) = 0.

    y is a 1-d array of nonnegative values, fun and deriv = fun' act
    elementwise on 1-d arrays of t > 0.  Each bracket is geometric: from
    t = 1 it doubles until fun(hi) >= y, at most up to 2^199, then halves
    until fun(lo) < y or lo reaches 1e-320.  Newton's method on fun(t) = y
    then starts from the upper end; a step that would leave the bracket is
    replaced by a geometric bisection step, so the relative accuracy
    survives tiny roots.  A step, or a bracket, below 2 eps relative ends
    it (the bracket test stops a Newton iteration that rounding in fun
    keeps from taking that small a step).  0 maps to 0, and a y that fun
    does not reach below 2^199 maps to +inf.
    """
    out = np.zeros_like(y)
    idx = np.flatnonzero(y != 0.0)
    target = y[idx]
    with np.errstate(over="ignore", invalid="ignore"):
        hi = np.ones_like(target)
        short = np.ones(target.shape, dtype=bool)
        for _ in range(_DOUBLINGS):
            short[short] = ~(fun(hi[short]) >= target[short])
            if not np.any(short):
                break
            hi[short] *= 2.0
        out[idx[short]] = np.inf
        idx, target, hi = idx[~short], target[~short], hi[~short]
        lo = hi.copy()
        over = np.ones(target.shape, dtype=bool)
        while True:
            over[over] = (fun(lo[over]) >= target[over]) & (lo[over] > 1e-320)
            if not np.any(over):
                break
            hi[over] = lo[over]
            lo[over] *= 0.5
        t = hi
        for _ in range(_NEWTON_STEPS):
            excess = fun(t) - target
            lo = np.where(excess < 0.0, t, lo)
            hi = np.where(excess > 0.0, t, hi)
            step = excess / deriv(t)
            nxt = t - step
            done = (np.abs(step) <= _NEWTON_RTOL * t) | (hi - lo <= _NEWTON_RTOL * t)
            t = np.where(done | ((lo < nxt) & (nxt < hi)), nxt, np.sqrt(lo * hi))
            out[idx[done]] = t[done]
            live = ~done
            if not np.any(live):
                break
            idx, target, t, lo, hi = idx[live], target[live], t[live], lo[live], hi[live]
        else:
            out[idx] = t
    return out


@dataclasses.dataclass
class SourceTerm:
    """Right-hand side f and optional absorption g for barriers.

    Both are specified on [0, inf) and evaluated at max(s, 0).
    """

    f: Callable
    g: Callable = staticmethod(lambda s: np.zeros_like(np.asarray(s, dtype=float)))

    def f_vals(self, s):
        return np.asarray(self.f(np.maximum(np.asarray(s, dtype=float), 0.0)), dtype=float)

    def g_vals(self, s):
        return np.asarray(self.g(np.maximum(np.asarray(s, dtype=float), 0.0)), dtype=float)

    def constant(self, part):
        """The value of f (part "f") or g ("g") when it takes one value on a
        wide probe of [0, 1e6] (0.0 when it vanishes there), else None.  The
        radial march computes constant-source profiles as arrays."""
        fun = {"f": self.f, "g": self.g}[part]
        probe = np.concatenate([np.linspace(0.0, 10.0, 33), np.geomspace(1e-3, 1e6, 65)])
        vals = np.asarray(fun(probe), dtype=float)
        return float(vals[0]) if np.all(vals == vals[0]) else None

    def scalar(self, part):
        """Float evaluator of f (part "f") or g ("g") for the scalar RK4 loop.
        It clamps with max(w, 0.0) in Python: an np.maximum per one-element
        call slows the march."""
        fun = {"f": self.f, "g": self.g}[part]

        def call(w):
            return float(np.asarray(fun(np.array([max(w, 0.0)])), dtype=float)[0])
        return call


def sample_vectors(dim, count, seed, r_range=_RADIUS_RANGE):
    """Seeded nonzero sample vectors: log-uniform radius in ``r_range``,
    uniform direction.  One stream of finsler._Draws (the standard library's
    Mersenne Twister) gives the ``count`` log radii, uniform on the log of
    the range, then the ``count`` x ``dim`` normals whose directions are
    taken."""
    draws = _Draws(seed)
    lo, hi = math.log(r_range[0]), math.log(r_range[1])
    radii = np.exp(lo + (hi - lo) * draws.uniform(count))
    dirs = draws.normal((count, dim))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return radii[:, None] * dirs


def linearized_tensor(material, h, xi):
    """M(xi) = B''(H) gradH (x) gradH + B'(H) D2H, batched over rows of xi.

    H and its derivatives come from one set of powers (FinslerNorm.jet),
    B' and B'' from one more (MaterialProfile.b_derivatives).
    """
    pts, single = _as_batch(xi, h.dim)
    hv, g, mats = h.jet(pts)
    b1, b2 = material.b_derivatives(hv)
    # entry by entry (numpy is slow along axes of length 2); exactly symmetric
    for i in range(h.dim):
        for j in range(i + 1):
            mats[:, i, j] = b1 * mats[:, i, j] + b2 * g[:, i] * g[:, j]
            mats[:, j, i] = mats[:, i, j]
    return mats[0] if single else mats


def _finite(name, value, tag):
    """A sampled constant, which must be finite: a profile or norm that
    overflows on the samples (p = 1e6, or lp from q of about 75) makes it
    NaN or infinite, and that is inadmissible, whatever its sign."""
    if not np.isfinite(value):
        raise AdmissibilityError(violation(tag, f"sampled {name} is {value}, not a finite number"))
    return value


def check_structural_bounds(material, h, n_samples=10000, seed=0):
    """Sampled ellipticity/boundedness constants of the linearized tensor.

    Returns (C1_est, C2_est) with

        C1_est = min <M(xi) v, v> / ((k + |xi|)^(p-2) |v|^2)
        C2_est = max |M(xi)|_F   /  (k + |xi|)^(p-2)

    over n_samples seeded (xi, v) pairs, v of unit length.  A nonpositive
    C1_est is an admissibility failure and raises, naming the witnessing
    sample; a constant that is not finite raises, naming the constant.
    """
    xi = sample_vectors(h.dim, n_samples, seed)
    v = sample_vectors(h.dim, n_samples, seed + 1, r_range=(1.0, 1.0))
    mats = linearized_tensor(material, h, xi)
    quad = np.einsum("ij,ijk,ik->i", v, mats, v)
    weight = (material.k + np.linalg.norm(xi, axis=-1)) ** (material.p - 2.0)
    ratios = quad / (weight * np.einsum("ij,ij->i", v, v))
    c1 = _finite("C1_est", float(ratios.min()), "vi")
    if c1 <= 0.0:
        bad = int(np.argmin(ratios))
        raise AdmissibilityError(violation(
            "vi", f"linearized tensor not positive along v = {v[bad]} at xi = {xi[bad]} "
                  f"(ratio {c1:.3e})"))
    frob = np.sqrt(np.einsum("ijk,ijk->i", mats, mats))
    c2 = _finite("C2_est", float((frob / weight).max()), "vi")
    return c1, c2


def check_flux_bound(material, h, n_samples=10000, seed=0):
    """Sampled growth constant of the flux magnitude:

        C_flux = max B'(H(xi)) / (k + |xi|)^(p-1)

    over n_samples seeded vectors xi; a C_flux that is not finite raises.
    """
    xi = sample_vectors(h.dim, n_samples, seed)
    num = material.b_prime(h.eval(xi))
    den = (material.k + np.linalg.norm(xi, axis=-1)) ** (material.p - 1.0)
    return _finite("C_flux", float((num / den).max()), "iii")


def flux(material, h, xi):
    """a(xi) = B'(H(xi)) grad H(xi), extended by 0 at xi = 0."""
    pts, single = _as_batch(xi, h.dim)
    nz = pts[:, 0] != 0.0
    for i in range(1, pts.shape[1]):
        nz |= pts[:, i] != 0.0
    out = np.zeros_like(pts)
    if np.any(nz):
        # a mask of (T, n) rows costs as much as the norm: take all rows when none is 0
        rows = slice(None) if np.all(nz) else nz
        hv, g = h.jet(pts[rows], order=1)
        out[rows] = _scale_rows(g, material.b_prime(hv))
    return out[0] if single else out


def check_flux_monotonicity(material, h, n_pairs=10000, seed=0):
    """Sampled monotonicity constant of the flux:

        C_monotone = min <a(x) - a(y), x - y> / ((|x| + |y|)^(p-2) |x - y|^2)

    over distinct sample pairs.  Nonpositive values raise, naming the pair;
    a C_monotone that is not finite raises, naming the constant.
    """
    x = sample_vectors(h.dim, n_pairs, seed)
    y = sample_vectors(h.dim, n_pairs, seed + 1)
    keep = np.linalg.norm(x - y, axis=-1) > 0.0
    x, y = x[keep], y[keep]
    diff = flux(material, h, x) - flux(material, h, y)
    num = np.einsum("ij,ij->i", diff, x - y)
    den = (np.linalg.norm(x, axis=-1) + np.linalg.norm(y, axis=-1)) ** (material.p - 2.0)
    den = den * np.einsum("ij,ij->i", x - y, x - y)
    ratios = num / den
    cmin = _finite("C_monotone", float(ratios.min()), "ii")
    if cmin <= 0.0:
        bad = int(np.argmin(ratios))
        raise AdmissibilityError(violation(
            "ii", f"flux not monotone between x = {x[bad]} and y = {y[bad]} "
                  f"(ratio {cmin:.3e})"))
    return cmin


def check_source_signs(source):
    """Reject sources with f <= 0 somewhere (hypothesis (vii)) or
    f + g < 0 somewhere (hypothesis (viii)), probing [0, 10].  A value
    that overflows (or f = s^-1 at 0) raises no floating-point warning."""
    probe = np.linspace(0.0, 10.0, 257)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fv, gv = source.f_vals(probe), source.g_vals(probe)
    if np.any(fv <= 0.0):
        s_bad = probe[np.argmin(fv)]
        raise AdmissibilityError(
            violation("vii", f"f({s_bad:.4g}) = {fv.min():.4g} <= 0"))
    if np.any(fv + gv < 0.0):
        raise AdmissibilityError(violation("viii", "f + g takes negative values"))


def check_osserman(source, material):
    """Barrier admissibility of g on [0, 1] (hypothesis (viii)).

    Returns ``g_zero_near_0`` when g vanishes on a positive interval at 0,
    ``osserman_checked`` when the probe integral

        I(eps) = int_eps^1 ds / L^{-1}(G(s)),   G(s) = int_0^s g,

    keeps growing under dyadic shrinking of eps (increments over 20
    halvings stay comparable to the first), and ``unchecked`` otherwise,
    or when L^{-1}(G) is not finite on the probe: past L(2^199) the
    integrand is below 2^-199, which the dyadic test cannot resolve.
    The dyadic doubling test is a heuristic divergence probe, not a proof.
    """
    grid = np.linspace(0.0, 1.0, 1025)
    gvals = source.g_vals(grid)
    scale = np.abs(gvals).max()
    tiny = 1e-14 * max(1.0, scale)
    nonzero = np.nonzero(np.abs(gvals) > tiny)[0]
    if nonzero.size == 0 or nonzero[0] >= 2:
        # g == 0 identically, or on the positive prefix [0, grid[idx-1]]
        return G_ZERO_NEAR_0

    nodes, weights = np.polynomial.legendre.leggauss(32)
    big_nodes, big_weights = np.polynomial.legendre.leggauss(64)

    def primitive(points):
        # G(s) = int_0^s g via 64-point Gauss-Legendre on [0, s] per point
        half = 0.5 * points
        sq = half[:, None] * (big_nodes[None, :] + 1.0)
        gv = source.g_vals(sq.ravel()).reshape(sq.shape)
        return half * (gv @ big_weights)

    increments = []
    for level in range(_OSSERMAN_LEVELS):
        a = 1.0 / 2.0 ** (level + 1)
        b = 1.0 / 2.0 ** level
        pts = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        gprim = primitive(pts)
        linv = material.ell_inverse(gprim)
        if not np.all(np.isfinite(linv)):
            return UNCHECKED
        with np.errstate(divide="ignore"):
            integrand = 1.0 / linv
        increments.append(0.5 * (b - a) * float(integrand @ weights))
    increments = np.asarray(increments)
    if not np.all(np.isfinite(increments)):
        return OSSERMAN_CHECKED
    if increments[-1] >= 0.25 * increments[0]:
        return OSSERMAN_CHECKED
    return UNCHECKED


def admissibility_report(material, h, source, n_samples=10000, seed=0):
    """Dict with the sampled constants and the Osserman verdict.

    This is the payload the CLI writes as admissibility.json.  Overflow in
    the samples raises no floating-point warning: the checks reject the
    constants it makes non-finite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c1, c2 = check_structural_bounds(material, h, n_samples=n_samples, seed=seed)
        c_flux = check_flux_bound(material, h, n_samples=n_samples, seed=seed)
        c_mono = check_flux_monotonicity(material, h, n_pairs=n_samples, seed=seed)
        verdict = check_osserman(source, material)
    return {
        "profile": {"kind": material.kind, "p": material.p, "k": material.k},
        "norm": h.kind,
        "C1_est": c1,
        "C2_est": c2,
        "C_flux": c_flux,
        "C_monotone": c_mono,
        "osserman_verdict": verdict,
    }
