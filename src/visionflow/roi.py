"""Multi-scale pyramid assembly and per-box pooled feature extraction.

The pyramid is every high-resolution encoder stage bilinearly upsampled to the
stride-4 grid and channel-concatenated. Each detection is read out of it with
quantization-free bilinear sampling (boxes mapped to grid units by dividing by
the pyramid stride, clipped, never rejected unless they collapse to zero area)
and average-pooled to one vector per box. Reads and upsamples are linear and
separable, so :func:`extract_object_features` pools each box in closed form
from the stages and never builds the grid. The encoders are frozen, so the
read is plain numpy; the per-box sampler over the dense grid that checks it
lives in :mod:`visionflow.verify`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import sampling
from .boxes import Detection, DetectionSet
from .encoders import DataError


class DegenerateBoxError(DataError):
    """A box has zero area after clipping to the grid. In the pipeline every box
    comes from a scene or box file, so this marks malformed input: a sliver
    narrower than the grid's float resolution."""

    def __init__(self, box: Detection, box_index: int | None = None):
        where = f" (box {box_index})" if box_index is not None else ""
        super().__init__(
            f"box ({box.x0:.3f}, {box.y0:.3f}, {box.x1:.3f}, {box.y1:.3f}) "
            f"has zero area after clipping{where}"
        )
        self.box = box
        self.box_index = box_index


class MultiScalePyramid:
    """Encoder stages, kept as given in stride order, the first at stride 4.

    ``grid`` is the dense pyramid (all stages upsampled to stride 4 and
    concatenated along channels), built on first use for the oracle checks;
    :func:`extract_object_features` reads the stages.

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

    @functools.cached_property
    def grid(self) -> np.ndarray:  # [H/4, W/4, sum of stage widths]
        return np.concatenate([sampling._resize_separable(stage, sampling._resize_taps(stage.shape[0], self.height),
                                                          sampling._resize_taps(stage.shape[1], self.width))
                               for stage in self.stages], axis=2)


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

    def __post_init__(self):
        if len(self.bins) != 2 or min(self.bins) < 1:
            raise ValueError(f"bins must be two integers >= 1, got {list(self.bins)}")
        if self.samples_per_bin < 1:
            raise ValueError(f"samples_per_bin must be >= 1, got {self.samples_per_bin}")


def _clip_box_to_grid(pyramid: MultiScalePyramid, box: Detection,
                      box_index: int | None = None) -> tuple[float, float, float, float]:
    """The box in grid cells, clipped to the grid; a box clipped to nothing raises."""
    gh, gw = pyramid.height, pyramid.width
    sx = gw / float(pyramid.image_width)
    sy = gh / float(pyramid.image_height)
    x0 = min(max(box.x0 * sx, 0.0), float(gw))
    y0 = min(max(box.y0 * sy, 0.0), float(gh))
    x1 = min(max(box.x1 * sx, 0.0), float(gw))
    y1 = min(max(box.y1 * sy, 0.0), float(gh))
    if x1 <= x0 or y1 <= y0:
        raise DegenerateBoxError(box, box_index)
    return x0, y0, x1, y1


def extract_object_features(
    pyramid: MultiScalePyramid,
    dets: DetectionSet,
    cfg: RoiConfig = RoiConfig(),
) -> np.ndarray:
    """RoI-align each box then average-pool: a [k, C] array, rows in detection order.

    The pooled read is separable: per stage it is ``(WY @ R) @ stage @ (WX @ C)^T``,
    with ``WY``/``WX`` each box's mean bilinear weight per stride-4 row/column
    and ``R``/``C`` the stage's upsample matrices, so no stride-4 cell is built.
    Rows equal the per-box sampler over ``pyramid.grid`` up to summation order.
    """
    extents = [_clip_box_to_grid(pyramid, d, i) for i, d in enumerate(dets.detections)]
    x0, y0, x1, y1 = np.array(extents).reshape(-1, 4).T
    s = cfg.samples_per_bin
    wy = sampling.mean_tap_weights(sampling.box_axis_coords(y0, y1, cfg.bins[0], s), pyramid.height)
    wx = sampling.mean_tap_weights(sampling.box_axis_coords(x0, x1, cfg.bins[1], s), pyramid.width)
    blocks = []
    for stage in pyramid.stages:
        h, w, c = stage.shape
        # upsample matrices: output cell i reads the center of bin i of the stage's extent
        rows = wy @ sampling.mean_tap_weights(sampling.box_axis_coords(0.0, h, pyramid.height, 1)[:, None], h)
        cols = wx @ sampling.mean_tap_weights(sampling.box_axis_coords(0.0, w, pyramid.width, 1)[:, None], w)
        blocks.append(np.einsum("bq,bqc->bc", cols, (rows @ stage.reshape(h, w * c)).reshape(-1, w, c)))
    return np.concatenate(blocks, axis=1)
