"""Small numerical kernels: the support mask, the compensated sum, quadrature, roots.

Everything here is deterministic and stateless. ``on_grid`` hands a scalar
to its function as a Python float: the closed forms keep the bits of a grid
point by doing +, -, * and / in Python, which rounds as numpy's array loops
do, and sending every power of the point to ``np.power``. ``on_support``
is the mask rule of every baseline ``cdf``/``pdf`` and of the component
offset density; component and mixture curves take the two-comparison mask
of ``els.sample_groups``. ``compensated_sum`` is the one Kahan loop: the
mixture curves and the quadrature's per-interval sums both take it. The
adaptive Simpson rule uses interval halving with a per-panel absolute
tolerance, so the total error scales with the number of accepted panels.
It integrates several intervals in one pass and calls its integrand one
bisection depth ahead, so at every other depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError

#: absolute floor under which a denominator is treated as undefined
DENOM_FLOOR = 1e-12

#: relative x tolerance and iteration cap of ``brent_root``, as in scipy's brentq
_BRENT_RTOL, _BRENT_MAXITER = 4 * math.ulp(1.0), 100


def on_grid(fn, x):
    """``fn`` of the array ``x``; a scalar x runs as a Python float and gives a
    float. ``fn`` keeps the bits of a grid point by sending every power to
    ``np.power`` (Python's ``**`` on a float rounds otherwise)."""
    if isinstance(x, float) or not (arr := np.asarray(x, dtype=float)).ndim:
        return float(fn(float(x)))
    return fn(arr)


def on_support(x, start, fn):
    """``fn`` at the points of ``x`` above ``start``, zero elsewhere (NaN included).

    A scalar is compared as a float and runs through ``on_grid``. ``fn``
    gets the whole array when every point is kept and is not called when
    none is; a mixed array is scattered.
    """
    if isinstance(x, float) or not (arr := np.asarray(x, dtype=float)).ndim:
        return on_grid(fn, t) if (t := float(x)) > start else 0.0
    mask = arr > start
    if mask.all() and arr.size:
        return fn(arr)
    out = np.zeros(arr.shape)
    if (kept := arr[mask]).size:
        out[mask] = fn(kept)
    return out


def compensated_sum(terms, out=None):
    """Kahan sum of ``terms`` in their order, Python floats or arrays, the
    latter written into ``out``. It starts from the first term and leaves
    out two steps of the textbook loop that cannot change a bit: the first
    step's ``term - 0.0``, which is exact, and the last step's compensation
    update, which nothing reads. So two terms take one add. Where an
    infinite term makes it NaN, the plain sum is taken: +inf for
    nonnegative terms in any order, NaN only from a NaN term. The caller of
    an array sum silences numpy's invalid flag."""
    total, comp, last = terms[0], 0.0, len(terms) - 1
    for k, term in enumerate(terms[1:], 1):
        y = term - comp if k > 1 else term
        if k < last:
            t = total + y
            comp = t - total
            comp -= y
            total = t
        else:
            total = total + y if out is None else np.add(total, y, out=out)
    if out is None:
        return sum(terms) if math.isnan(total) else total
    if not last:
        out[...] = total
    if (bad := np.isnan(out)).any():
        out[bad] = sum(term[bad] for term in terms)
    return out


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    converged: bool
    panels: int
    unconverged_panels: int
    values: tuple
    unconverged: tuple


#: row r of a half panel comes from rows _HALVES[r] (left, right) of a depth's table: the
#: open panels (a, m, b, f(a), f(m), f(b), coarse, quarter points, f there), fine estimates
_HALVES = np.array([[0, 1], [7, 8], [1, 2], [3, 4], [9, 10], [4, 5], [11, 12]])
#: the same after a look-ahead call, from the open panels (a, m, b, f(a), f(m), f(b),
#: coarse), the points evaluated (quarter points, the halves' quarter points), f there
#: and the fine estimates, with the halves' quarter points and f there as the last rows
_AHEAD = np.array([[0, 1], [7, 8], [1, 2], [3, 4], [13, 14], [4, 5], [19, 20],
                   [9, 11], [10, 12], [15, 17], [16, 18]])


def adaptive_simpson(f, a, b, abs_tol=1e-9, max_depth=40):
    """Adaptive Simpson quadrature on the intervals [a[i], b[i]] (floats or k-sequences).

    Each panel is halved until |S(fine) - S(coarse)| <= 15 * abs_tol or
    ``max_depth``; panels that never meet the tolerance are counted and give
    their best fine estimate. ``f`` takes one argument, a pair of arrays
    (interval index, x), and is called one depth ahead: once on the starting
    nodes and their quarter points, then at every other depth on the quarter
    points of every open panel and of both its halves (its own only at
    ``max_depth``), at most ``(max_depth + 1) // 2 + 1`` calls. Every point a
    depth-first recursion evaluates is evaluated once, with the same bits; the
    only others are the halves' points of panels accepted at a call's depth.
    Each interval's sum in ``values`` (0.0 for zero width) is the
    ``compensated_sum`` of its accepted panel terms right to left, the order
    of a depth-first recursion splitting the right half first; ``value`` adds
    them in order. ``perfbench/tracing.py`` wraps this
    function where callers look it up, wraps ``f`` as a one-argument callable
    and reads the int totals ``panels`` and ``unconverged_panels``.
    """
    lo, hi = np.array([a, b], dtype=float).reshape(2, -1)
    tol = 15.0 * abs_tol
    key = np.flatnonzero(lo != hi)  # the interval of each open panel
    # per depth, of every tested panel: interval, left end, contribution, accepted
    tested = [(key[:0], lo[:0], lo[:0], np.zeros(0, dtype=bool))]
    unconverged = np.zeros(lo.size, dtype=int)
    if key.size:
        mid = 0.5 * (lo[key] + hi[key])
        x = np.stack((lo[key], mid, hi[key], 0.5 * (lo[key] + mid), 0.5 * (mid + hi[key])))
        fx = f((np.concatenate([key] * 5), x.ravel())).reshape(5, -1)
        coarse = (x[2] - x[0]) / 6.0 * (fx[0] + 4.0 * fx[1] + fx[2])
        panel = np.concatenate((x[:3], fx[:3], [coarse], x[3:], fx[3:]))
    for depth in range(max_depth + 1 if key.size else 0):
        if len(panel) > 7:  # its quarter points were evaluated a depth ago
            fq, evaluated, halves = panel[9:11], (), _HALVES
        else:
            points = quarter = 0.5 * (panel[0:2] + panel[1:3])
            if depth < max_depth:  # and the halves' quarter points, for the next depth
                five = np.empty((5, key.size))
                five[0::2], five[1::2] = panel[0:3], quarter
                points = np.concatenate((quarter, 0.5 * (five[:-1] + five[1:])))
            fx = f((np.concatenate([key] * len(points)), points.ravel())).reshape(len(points), -1)
            fq, evaluated, halves = fx[:2], (points, fx), _AHEAD
        fine = (panel[1:3] - panel[0:2]) / 6.0 * (panel[3:5] + 4.0 * fq + panel[4:6])
        both = fine[0] + fine[1]
        err = both - panel[6]
        if depth >= max_depth:  # every panel is accepted, converged or not
            tested.append((key, panel[0], both + err / 15.0, np.ones(key.size, dtype=bool)))
            unconverged = np.bincount(key[np.abs(err) > tol], minlength=lo.size)
            break
        accept = np.abs(err) <= tol
        tested.append((key, panel[0], both + err / 15.0, accept))
        if accept.all():
            break
        table = np.concatenate((panel, *evaluated, fine))[:, ~accept]
        panel = table[halves].reshape(len(halves), -1)
        key = np.concatenate([key[~accept]] * 2)
    keys, lefts, terms, accepted = (np.concatenate(parts) for parts in zip(*tested))
    keys, lefts, terms = keys[accepted], lefts[accepted], terms[accepted]
    order = np.lexsort((lefts, keys))  # by interval, left to right in each
    runs = np.split(terms[order], np.cumsum(np.bincount(keys, minlength=lo.size))[:-1])
    sums = [compensated_sum(run[::-1].tolist()) if run.size else 0.0 for run in runs]
    *_, value = accumulate(sums, initial=0.0)  # plain sum in interval order
    return QuadratureResult(value, not unconverged.any(), keys.size, int(unconverged.sum()),
                            tuple(sums), tuple(unconverged.tolist()))


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
