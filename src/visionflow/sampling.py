"""Bilinear sampling on regular grids, one convention shared everywhere.

A grid with ``h`` rows and ``w`` columns covers the continuous rectangle
``[0, h] x [0, w]`` in cell units: cell ``(i, j)`` occupies
``[i, i+1) x [j, j+1)`` and its value sits at the center ``(i+0.5, j+0.5)``.
Sampling at a continuous point ``(y, x)`` interpolates the four nearest cell
centers; coordinates are clamped to the center range (clamp-to-edge), so the
interpolation is always a convex combination of stored values.

Resizing maps output cell center ``i + 0.5`` to source coordinate
``(i + 0.5) * src_extent / out_extent`` (align_corners=False semantics,
no antialiasing). Bilinear resizing is separable, so :func:`resize`
interpolates rows, then columns, with two taps per axis. The per-point read
:func:`sample_grid` is the definition the oracles check against: over
:func:`center_points` it is the per-cell gather :func:`resize` replaced, over
:func:`box_sample_points` the per-box RoI read. Image resizing, pyramid
upsampling, and box feature sampling all go through this module so their
conventions cannot drift.
"""

from __future__ import annotations

import numpy as np


def _axis_taps(coords: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamped lower/upper cell indices and upper-cell fraction along one axis."""
    p = np.clip(coords - 0.5, 0.0, float(n - 1))
    i0 = np.minimum(np.floor(p).astype(np.int64), n - 1)
    return i0, np.minimum(i0 + 1, n - 1), p - i0


def corner_weights(
    h: int, w: int, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Corner indices and weights for bilinear sampling at ``points``.

    ``points`` is ``[P, 2]`` of (y, x) in cell units. Returns
    ``(i0, i1, j0, j1, weights)`` with ``weights`` of shape ``[P, 4]``
    ordered (w00, w01, w10, w11) for corners (i0,j0), (i0,j1), (i1,j0),
    (i1,j1). Weights are nonnegative and sum to 1 per point.
    """
    points = np.asarray(points, dtype=np.float64)
    i0, i1, fy = _axis_taps(points[:, 0], h)
    j0, j1, fx = _axis_taps(points[:, 1], w)
    weights = np.stack(
        [(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx], axis=1
    )
    return i0, i1, j0, j1, weights


def sample_grid(grid: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Bilinearly sample ``grid`` ([h, w, C]) at ``points`` ([P, 2]) -> [P, C]:
    the weighted sum of the four corner reads from :func:`corner_weights`."""
    i0, i1, j0, j1, weights = corner_weights(grid.shape[0], grid.shape[1], points)
    return (
        grid[i0, j0] * weights[:, 0:1]
        + grid[i0, j1] * weights[:, 1:2]
        + grid[i1, j0] * weights[:, 2:3]
        + grid[i1, j1] * weights[:, 3:4]
    )


def center_points(out_h: int, out_w: int, scale_y: float, scale_x: float) -> np.ndarray:
    """Source-space sample points for a resized grid, row-major [out_h*out_w, 2].

    With :func:`sample_grid` this is the per-cell gather definition of
    :func:`resize`, kept as its oracle.
    """
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * scale_y
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * scale_x
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    return np.stack([yy.ravel(), xx.ravel()], axis=1)


def _resize_taps(src: int, out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis taps ``(i0, i1, frac)`` mapping ``out`` cells onto ``src`` cells.

    Output cell ``k`` reads ``(1 - frac[k]) * src[i0[k]] + frac[k] * src[i1[k]]``
    along this axis; the source coordinate is the one :func:`center_points`
    gives, so the taps and the gather share one convention.
    """
    return _axis_taps((np.arange(out, dtype=np.float64) + 0.5) * (src / out), src)


def mean_tap_weights(coords: np.ndarray, n: int) -> np.ndarray:
    """``[B, m]`` coordinates on an ``n``-cell axis -> ``[B, n]``: row ``b`` averages
    its ``m`` points' two-tap weights, so ``weights @ values`` is the mean of
    those ``m`` bilinear reads along this axis."""
    i0, i1, frac = _axis_taps(coords, n)
    cells = np.arange(coords.shape[0])[:, None] * n + np.stack([i0, i1])  # flat [row, cell] ids
    weights = np.bincount(cells.ravel(), np.stack([1.0 - frac, frac]).ravel(), minlength=coords.shape[0] * n)
    return weights.reshape(-1, n) / coords.shape[1]


def _interpolate_axis(grid: np.ndarray, axis: int, taps) -> np.ndarray:
    i0, i1, frac = taps
    f = frac.reshape((-1,) + (1,) * (grid.ndim - 1 - axis))
    out = np.take(grid, i0, axis=axis)
    out *= 1.0 - f
    upper = np.take(grid, i1, axis=axis)
    upper *= f
    out += upper
    return out


def _resize_separable(grid: np.ndarray, row_taps, col_taps) -> np.ndarray:
    """Two-tap interpolation of ``grid`` ([h, w, C]): rows first, then columns.

    Each output cell depends only on its own row and column taps, so any
    subset of taps gives exactly the matching cells of the full result.
    """
    return _interpolate_axis(_interpolate_axis(grid, 0, row_taps), 1, col_taps)


def resize(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinearly resize ``grid`` ([h, w, C]) to ``[out_h, out_w, C]``."""
    h, w = grid.shape[0], grid.shape[1]
    return _resize_separable(grid, _resize_taps(h, out_h), _resize_taps(w, out_w))


def box_axis_coords(lo, hi, bins: int, samples: int) -> np.ndarray:
    """Sample coordinates along one box axis, ``[..., bins*samples]`` in (bin, sample)
    order: ``lo + (hi - lo) / bins * (b + (s + 0.5) / samples)``. ``lo``/``hi`` may
    be arrays of extents, in grid cell units."""
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    step = (np.asarray(hi, dtype=np.float64)[..., None] - lo) / bins
    offs = (np.arange(samples, dtype=np.float64) + 0.5) / samples
    return lo + step * (np.arange(bins, dtype=np.float64)[:, None] + offs[None, :]).ravel()


def box_sample_points(
    x0: float, y0: float, x1: float, y1: float, bins: tuple[int, int], samples: int
) -> np.ndarray:
    """Sample points for box feature extraction, in grid cell units.

    Each of the ``bins = (b_h, b_w)`` equal bins is sampled at the
    ``samples x samples`` lattice of :func:`box_axis_coords`, so a 1x1 bin with
    one sample reads exactly the box center. Points are ordered
    (bi, bj, si, sj) row-major, shape ``[b_h*b_w*samples*samples, 2]``.
    """
    b_h, b_w = bins
    yy, xx = np.broadcast_arrays(box_axis_coords(y0, y1, b_h, samples).reshape(b_h, 1, samples, 1),
                                 box_axis_coords(x0, x1, b_w, samples).reshape(1, b_w, 1, samples))
    return np.stack([yy.ravel(), xx.ravel()], axis=1)
