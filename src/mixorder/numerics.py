"""Small numerical kernels: compensated sums, quadrature, bisection.

Everything here is deterministic and stateless. The adaptive Simpson rule
uses interval halving with a per-panel absolute tolerance, so the total
error scales with the number of accepted panels. Its integrand maps a 1-D
float array to a 1-D float array and is called once per bisection depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: absolute floor under which a denominator is treated as undefined
DENOM_FLOOR = 1e-12


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
    """Smallest-x solution of fn(x) >= target for nondecreasing ``fn``.

    Plain bisection; ``lo`` must satisfy fn(lo) <= target <= fn(hi).
    """
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


def expand_upper_bracket(fn, target, lo, step=1.0, max_doublings=200):
    """Find hi > lo with fn(hi) >= target by repeated doubling."""
    hi = lo + step
    for _ in range(max_doublings):
        if fn(hi) >= target:
            return hi
        hi = lo + (hi - lo) * 2.0
    raise ValueError(f"could not bracket target {target} above {lo}")


def central_difference(fn, t, h=None):
    """Central difference with the package-wide step h = 1e-5 * max(1, |t|)."""
    t = np.asarray(t, dtype=float)
    if h is None:
        h = 1e-5 * np.maximum(1.0, np.abs(t))
    return (fn(t + h) - fn(t - h)) / (2.0 * h)
