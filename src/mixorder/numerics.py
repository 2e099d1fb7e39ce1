"""Small numerical kernels: the support mask, compensated sums, quadrature, roots.

Everything here is deterministic and stateless. ``on_support`` is the one
mask rule of every baseline, component and mixture ``cdf``/``pdf``, and it
gives a scalar the bits of a grid point. The adaptive Simpson rule
uses interval halving with a per-panel absolute tolerance, so the total
error scales with the number of accepted panels. Its integrand maps a 1-D
float array to a 1-D float array and is called once per bisection depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: absolute floor under which a denominator is treated as undefined
DENOM_FLOOR = 1e-12

#: relative x tolerance and iteration cap of ``brent_root``, as in scipy's brentq
_BRENT_RTOL, _BRENT_MAXITER = 4 * math.ulp(1.0), 100


def on_support(x, start, fn, curves=0):
    """``fn`` at the points of ``x`` above ``start``, zero elsewhere (NaN included).

    A scalar gives a float, computed by ``fn`` on a length-1 array view, so it
    takes the same vector arithmetic as an array point; numpy's scalar power
    rounds differently from its vector loop. ``fn`` gets the whole array when
    every point lies above ``start``, only a mixed array is scattered, and
    ``fn`` is not called when no point lies above ``start``. With ``curves``
    > 0, ``fn`` returns a tuple of that many arrays, and so does this (of
    floats for a scalar), each masked the same way.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if not arr > start:
            return (0.0,) * curves if curves else 0.0
        values = fn(arr.reshape(1))
        return tuple(float(v[0]) for v in values) if curves else float(values[0])
    mask = arr > start
    if mask.all() and arr.size:
        return fn(arr)
    outs = tuple(np.zeros(arr.shape) for _ in range(curves or 1))
    if mask.any():
        values = fn(arr[mask])
        for out, value in zip(outs, values if curves else (values,)):
            out[mask] = value
    return outs if curves else outs[0]


def kahan_add(total, comp, term):
    """One compensated-summation step; returns updated (total, comp).

    Works elementwise on arrays as well as on scalars.
    """
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    converged: bool
    panels: int
    unconverged_panels: int


def _simpson(x, fx):
    """Simpson estimates of panels whose last axis holds (a, m, b) and f there."""
    return (x[..., 2] - x[..., 0]) / 6.0 * (fx[..., 0] + 4.0 * fx[..., 1] + fx[..., 2])


def adaptive_simpson(f, a, b, abs_tol=1e-9, max_depth=40):
    """Adaptive Simpson quadrature of the array integrand ``f`` on [a, b].

    Each panel is halved until the classic Richardson estimate
    |S(fine) - S(coarse)| <= 15 * abs_tol holds or ``max_depth`` is hit.
    Panels that never meet the tolerance are counted but still contribute
    their best fine estimate. All open panels of one depth are tested after
    one call of ``f`` on their midpoints (at most ``max_depth + 2`` calls),
    and accepted contributions are Kahan-summed right to left, as in a
    depth-first recursion that splits the right half first.
    """
    if a == b:
        return QuadratureResult(0.0, True, 0, 0)
    tol = 15.0 * abs_tol
    # open panels, left to right: rows (a, m, b), f there, coarse estimates
    x = np.array([[a, 0.5 * (a + b), b]])
    fx = f(x[0]).reshape(1, 3)
    coarse = _simpson(x, fx)
    # accepted contributions, left to right; open panel i lies just before done[slot[i]]
    done, slot, bad = np.empty(0), np.zeros(1, dtype=np.intp), 0
    for depth in range(max_depth + 1):
        # halves of every panel, shape (n, 2, 3), last axis (a, m, b)
        mid = 0.5 * (x[:, :2] + x[:, 1:])
        xh = np.stack((x[:, :2], mid, x[:, 1:]), axis=-1)
        fh = np.stack((fx[:, :2], f(mid.T.ravel()).reshape(2, -1).T, fx[:, 1:]), axis=-1)
        fine = _simpson(xh, fh)
        both = fine[:, 0] + fine[:, 1]
        err = both - coarse
        accept = (np.abs(err) <= tol) | (depth >= max_depth)
        bad += int(np.count_nonzero(accept & (np.abs(err) > tol)))
        done = np.insert(done, slot[accept], (both + err / 15.0)[accept])
        if accept.all():
            break
        split = ~accept
        slot = np.repeat((slot + np.cumsum(accept))[split], 2)
        x, fx = xh[split].reshape(-1, 3), fh[split].reshape(-1, 3)
        coarse = fine[split].ravel()
    total = comp = 0.0
    for term in done[::-1].tolist():
        total, comp = kahan_add(total, comp, term)
    return QuadratureResult(total, bad == 0, len(done), bad)


def bisect_nondecreasing(fn, target, lo, hi, xtol=1e-10, max_iter=200):
    """Smallest-x solution of fn(x) >= target for nondecreasing ``fn`` by plain
    bisection; ``lo`` must satisfy fn(lo) <= target <= fn(hi)."""
    flo, fhi = fn(lo), fn(hi)
    if flo >= target:
        return lo
    if fhi < target:
        raise ValueError(f"bracket does not contain target: f({hi})={fhi} < {target}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= xtol:
            break
    return hi


def brent_root(fn, a, b, xtol, fa=None, fb=None):
    """Root of ``fn`` on [a, b] by Brent's method (Brent 1973, ch. 4): a port of
    scipy's ``brentq`` with its iterates, tolerances and 100-iteration cap.
    ``fa``/``fb`` are fn(a)/fn(b) when known. DomainError if no root is found."""
    xpre, xcur = a, b
    fpre = fn(a) if fa is None else fa
    fcur = fn(b) if fb is None else fb
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if not (fpre < 0.0 < fcur or fcur < 0.0 < fpre):
        raise DomainError(f"no sign change on [{a!r}, {b!r}]: f = {fpre!r}, {fcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fn(xcur)
        if math.isnan(fcur):
            raise DomainError(f"function value is NaN at {xcur!r}")
    raise DomainError(f"no convergence after {_BRENT_MAXITER} iterations, last x = {xcur!r}")


def expand_upper_bracket(fn, target, lo, step=1.0, max_doublings=200):
    """Find hi > lo with fn(hi) >= target by doubling; returns (hi, fn(hi))."""
    hi = lo + step
    for _ in range(max_doublings):
        f_hi = fn(hi)
        if f_hi >= target:
            return hi, f_hi
        hi = lo + (hi - lo) * 2.0
    raise DomainError(f"could not bracket target {target} above {lo}")


def central_difference(fn, t, h=None):
    """Central difference with the package-wide step h = 1e-5 * max(1, |t|)."""
    t = np.asarray(t, dtype=float)
    if h is None:
        h = 1e-5 * np.maximum(1.0, np.abs(t))
    return (fn(t + h) - fn(t - h)) / (2.0 * h)
