"""Multi-scale pyramid assembly and per-box pooled feature extraction.

Stages from the high-resolution encoder are bilinearly upsampled to the
stride-4 grid and channel-concatenated, on demand and only for the rows and
columns a read touches. Each detection is then read out of that pyramid
with quantization-free bilinear sampling (boxes mapped to grid units by
dividing by the pyramid stride, clipped, never rejected unless they collapse
to zero area) and average-pooled to one vector per box. The encoders are
frozen; only ``roi_align`` on a tracked grid carries gradients to the pyramid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import sampling
from .boxes import Detection, DetectionSet
from .tensor import Tensor, bilinear_sample


class DegenerateBoxError(ValueError):
    """A box has zero area after clipping to the image."""

    def __init__(self, box: Detection, box_index: int | None = None):
        where = f" (box {box_index})" if box_index is not None else ""
        super().__init__(
            f"box ({box.x0:.3f}, {box.y0:.3f}, {box.x1:.3f}, {box.y1:.3f}) "
            f"has zero area after clipping{where}"
        )
        self.box = box
        self.box_index = box_index


class MultiScalePyramid:
    """All stages upsampled to stride 4 and concatenated along channels.

    The stages are kept as given, in stride order, the first at stride 4;
    :meth:`window` upsamples only the requested rows and columns of the
    stride-4 grid, and ``grid`` is the full window, built on first use.

    ``image_height``/``image_width`` name the coordinate frame boxes live in
    (the original image); when that frame equals the encoder input, mapping a
    box onto the grid is exactly a division by the stride.
    """

    stride = 4

    def __init__(self, stages: list[np.ndarray], image_height: int, image_width: int):
        self.stages = stages
        self.height, self.width = stages[0].shape[:2]
        self.image_height = image_height
        self.image_width = image_width

    @property
    def channels(self) -> int:
        return sum(s.shape[2] for s in self.stages)

    def window(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The stride-4 cells at ``rows`` x ``cols``, equal to ``grid[np.ix_(rows, cols)]``."""
        planes = []
        for stage in self.stages:
            h, w = stage.shape[0], stage.shape[1]
            if (h, w) == (self.height, self.width):
                planes.append(stage[np.ix_(rows, cols)])
                continue
            row_taps = [t[rows] for t in sampling._resize_taps(h, self.height)]
            col_taps = [t[cols] for t in sampling._resize_taps(w, self.width)]
            planes.append(sampling._resize_separable(stage, row_taps, col_taps))
        return np.concatenate(planes, axis=2)

    @functools.cached_property
    def grid(self) -> np.ndarray:  # [H/4, W/4, sum of stage widths]
        return self.window(np.arange(self.height), np.arange(self.width))


def build_pyramid(stages: list[np.ndarray], image_height: int | None = None,
                  image_width: int | None = None) -> MultiScalePyramid:
    """A pyramid over [h, w, C] stages in stride order, the first at stride 4.

    Pass the original image extent when it differs from the encoder input
    (boxes are expressed in original pixels and must land on this grid);
    it defaults to the stride-4 stage's extent times 4.
    """
    h, w = stages[0].shape[:2]
    return MultiScalePyramid(stages, image_height if image_height is not None else 4 * h,
                             image_width if image_width is not None else 4 * w)


@dataclass(frozen=True)
class RoiConfig:
    bins: tuple[int, int] = (7, 7)
    samples_per_bin: int = 2


def _clip_box_to_grid(pyramid: MultiScalePyramid, box: Detection) -> tuple[float, float, float, float]:
    gh, gw = pyramid.height, pyramid.width
    sx = gw / float(pyramid.image_width)
    sy = gh / float(pyramid.image_height)
    x0 = min(max(box.x0 * sx, 0.0), float(gw))
    y0 = min(max(box.y0 * sy, 0.0), float(gh))
    x1 = min(max(box.x1 * sx, 0.0), float(gw))
    y1 = min(max(box.y1 * sy, 0.0), float(gh))
    return x0, y0, x1, y1


def _box_points(pyramid: MultiScalePyramid, box: Detection, cfg: RoiConfig,
                box_index: int | None = None) -> np.ndarray:
    """The box's bin sample points in grid cells; a box clipped to nothing raises."""
    x0, y0, x1, y1 = _clip_box_to_grid(pyramid, box)
    if x1 <= x0 or y1 <= y0:
        raise DegenerateBoxError(box, box_index)
    return sampling.box_sample_points(x0, y0, x1, y1, cfg.bins, cfg.samples_per_bin)


def roi_align(
    pyramid: MultiScalePyramid,
    box: Detection,
    cfg: RoiConfig = RoiConfig(),
    grid_tensor: Tensor | None = None,
) -> Tensor:
    """Continuous per-bin sampling of the pyramid under one box -> [b_h, b_w, C].

    Each bin averages samples_per_bin^2 bilinear reads at regularly spaced
    interior points; box edges are never quantized. Pass ``grid_tensor`` to
    reuse a tracked wrapper of ``pyramid.grid`` (e.g. during gradient checks).
    """
    b_h, b_w = cfg.bins
    s = cfg.samples_per_bin
    points = _box_points(pyramid, box, cfg)
    grid = grid_tensor if grid_tensor is not None else Tensor(pyramid.grid)
    sampled = bilinear_sample(grid, points)  # [b_h*b_w*s*s, C]
    per_bin = sampled.reshape(b_h, b_w, s * s, pyramid.channels)
    return per_bin.mean(axis=2)


def extract_object_features(
    pyramid: MultiScalePyramid,
    dets: DetectionSet,
    cfg: RoiConfig = RoiConfig(),
) -> np.ndarray:
    """RoI-align each box then average-pool: a [k, C] array, rows in detection order.

    All boxes are read at once from one pyramid window spanning the rows and
    columns their samples touch, with the same arithmetic as
    :func:`roi_align`, so rows are bit-identical to it.
    """
    c = pyramid.channels
    if len(dets) == 0:
        return np.zeros((0, c))
    points = np.concatenate([_box_points(pyramid, det, cfg, i) for i, det in enumerate(dets.detections)])
    i0, i1, j0, j1, wts = sampling.corner_weights(pyramid.height, pyramid.width, points)
    rows, cols = np.union1d(i0, i1), np.union1d(j0, j1)
    sampled = sampling.blend_corners(  # corner indices remapped into the window
        pyramid.window(rows, cols), np.searchsorted(rows, i0), np.searchsorted(rows, i1),
        np.searchsorted(cols, j0), np.searchsorted(cols, j1), wts)
    b_h, b_w = cfg.bins
    s = cfg.samples_per_bin
    per_bin = np.mean(sampled.reshape(len(dets), b_h, b_w, s * s, c), axis=3)
    return np.mean(per_bin, axis=(1, 2))
