"""Independent oracles and the invariant battery behind `visionflow verify`.

Each oracle re-implements its target's definition along a different path
(pure-Python greedy suppression, nested-loop bilinear sampling, central
finite differences, the fused tensor ops written with the generic ones) so
a shared bug cannot hide. Suites report one named
check per property; `inject_fault` deliberately perturbs one analytic
gradient to prove the battery can fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng, sampling
from .assembly import (
    SEGMENT_TEXT,
    AssemblyConfig,
    ScorerParams,
    TokenSequence,
    assemble,
    assemble_video,
    greedy_decode,
    scorer_logits,
    sinusoidal_positions,
)
from .boxes import Detection, DetectionSet, nms_indices
from .config import RunConfig, config_from_dict
from .datagen import generate_dataset, small_training_config
from .encoders import EncoderConfig, generate_scene
from .pipeline import build_components, encode_frame, prepare_sample, run_image
from .roi import MultiScalePyramid, RoiConfig, _clip_box_to_grid, build_pyramid, extract_object_features
from .tensor import Tensor, affine, attention, causal_attention, concat, conv1d, gelu, one_hot
from .training import PreparedSample, TrainConfig, sample_loss, train_two_stage

FD_TOLERANCE = 1e-4
FD_STEP = 1e-5


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteResult:
    name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))


# -- finite differences ---------------------------------------------------------


def numeric_gradient(f: Callable[[], float], t: Tensor, coords: list[tuple], h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of f with respect to t.data at coords."""
    out = np.empty(len(coords))
    for n, idx in enumerate(coords):
        orig = t.data[idx]
        t.data[idx] = orig + h
        up = f()
        t.data[idx] = orig - h
        down = f()
        t.data[idx] = orig
        out[n] = (up - down) / (2.0 * h)
    return out


def relative_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Max elementwise |a - fd| / max(|a|, |fd|, 1e-3)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-3)
    return float(np.max(np.abs(analytic - fd) / denom)) if analytic.size else 0.0


def fd_check(
    loss_fn: Callable[[], Tensor],
    params: list[tuple[str, Tensor]],
    gen: np.random.Generator,
    max_coords: int = 16,
    h: float = FD_STEP,
    perturb: str | None = None,
) -> dict[str, float]:
    """Compare analytic grads of loss_fn against central differences.

    Returns max relative error per named parameter. ``perturb`` names one
    parameter whose analytic gradient is corrupted (fault-injection hook).
    """
    for _, t in params:
        t.zero_grad()
    loss = loss_fn()
    loss.backward()
    errors: dict[str, float] = {}
    for name, t in params:
        analytic_full = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat_indices = np.arange(t.size)
        if t.size > max_coords:
            flat_indices = gen.choice(t.size, size=max_coords, replace=False)
        coords = [np.unravel_index(i, t.shape) for i in sorted(flat_indices)]
        analytic = np.array([analytic_full[c] for c in coords])
        if perturb == name and analytic.size:
            analytic = analytic + 0.5
        fd = numeric_gradient(lambda: loss_fn().item(), t, coords, h=h)
        errors[name] = relative_error(analytic, fd)
    return errors


# -- independent oracles ----------------------------------------------------------


def naive_nms(dets: list[Detection], iou_threshold: float, class_aware: bool = True) -> list[int]:
    """Greedy suppression written directly from the definition, no numpy."""
    order = sorted(range(len(dets)),
                   key=lambda i: (-dets[i].score, dets[i].x0, dets[i].y0, i))
    kept: list[int] = []
    for i in order:
        a = dets[i]
        suppressed = False
        for j in kept:
            b = dets[j]
            if class_aware and a.label != b.label:
                continue
            ix = min(a.x1, b.x1) - max(a.x0, b.x0)
            iy = min(a.y1, b.y1) - max(a.y0, b.y0)
            if ix <= 0.0 or iy <= 0.0:
                continue
            inter = ix * iy
            area_a = (a.x1 - a.x0) * (a.y1 - a.y0)
            area_b = (b.x1 - b.x0) * (b.y1 - b.y0)
            if inter / (area_a + area_b - inter) > iou_threshold:
                suppressed = True
                break
        if not suppressed:
            kept.append(i)
    return kept


def naive_bilinear(grid: np.ndarray, y: float, x: float) -> np.ndarray:
    """Scalar-path bilinear read; same documented convention, separate code."""
    h, w = grid.shape[0], grid.shape[1]
    py = min(max(y - 0.5, 0.0), float(h - 1))
    px = min(max(x - 0.5, 0.0), float(w - 1))
    i0 = min(int(math.floor(py)), h - 1)
    j0 = min(int(math.floor(px)), w - 1)
    i1 = min(i0 + 1, h - 1)
    j1 = min(j0 + 1, w - 1)
    fy = py - i0
    fx = px - j0
    return ((1 - fy) * (1 - fx) * grid[i0, j0] + (1 - fy) * fx * grid[i0, j1]
            + fy * (1 - fx) * grid[i1, j0] + fy * fx * grid[i1, j1])


def naive_roi_align(grid: np.ndarray, box: tuple[float, float, float, float],
                    bins: tuple[int, int], samples: int) -> np.ndarray:
    """Nested-loop sampler over (bin, sample) positions; box in grid units."""
    x0, y0, x1, y1 = box
    b_h, b_w = bins
    bin_h = (y1 - y0) / b_h
    bin_w = (x1 - x0) / b_w
    out = np.zeros((b_h, b_w, grid.shape[2]))
    for bi in range(b_h):
        for bj in range(b_w):
            acc = np.zeros(grid.shape[2])
            for si in range(samples):
                for sj in range(samples):
                    y = y0 + bin_h * (bi + (si + 0.5) / samples)
                    x = x0 + bin_w * (bj + (sj + 0.5) / samples)
                    acc += naive_bilinear(grid, y, x)
            out[bi, bj] = acc / (samples * samples)
    return out


def per_box_roi_align(pyramid: MultiScalePyramid, box: Detection, cfg: RoiConfig = RoiConfig()) -> np.ndarray:
    """RoIAlign of one box over the dense ``pyramid.grid`` -> [b_h, b_w, C]: each
    bin averages its ``samples_per_bin^2`` bilinear reads. This is the per-box
    definition that :func:`extract_object_features` pools in closed form."""
    b_h, b_w = cfg.bins
    s = cfg.samples_per_bin
    points = sampling.box_sample_points(*_clip_box_to_grid(pyramid, box), cfg.bins, s)
    return sampling.sample_grid(pyramid.grid, points).reshape(b_h, b_w, s * s, -1).mean(axis=2)


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, kk = a.shape
    _, p = b.shape
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            s = 0.0
            for k in range(kk):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def naive_conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, c_in = x.shape
    c_out, _, k = w.shape
    pad = k // 2
    out = np.zeros((n, c_out))
    for t in range(n):
        for o in range(c_out):
            s = b[o]
            for j in range(k):
                src = t + j - pad
                if 0 <= src < n:
                    for c in range(c_in):
                        s += x[src, c] * w[o, c, j]
            out[t, o] = s
    return out


def composed_affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` without broadcasting: the bias row is expanded by a
    constant ones-column matmul."""
    ones = Tensor(np.ones((x.shape[0], 1), dtype=x.data.dtype))
    return x @ w + ones @ b.reshape(1, b.shape[0])


def composed_gelu(x: Tensor) -> Tensor:
    """The tanh-approximate GELU written with the elementwise ops."""
    inner = (x + (x * x * x) * 0.044715) * math.sqrt(2.0 / math.pi)
    return x * 0.5 * (inner.tanh() + 1.0)


def composed_causal_attention(q: Tensor, k: Tensor, v: Tensor, first: int) -> Tensor:
    """Causal attention from the generic ops: a -1e9 mask on the keys after
    ``first + i`` is added to the scores before the softmax."""
    scores = (q @ k.T) * (1.0 / math.sqrt(q.shape[1]))
    mask = np.triu(np.full((q.shape[0], k.shape[0]), -1e9), k=first + 1)
    return (scores + Tensor(mask)).softmax(axis=-1) @ v


def composed_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Non-causal attention from the generic ops, as the cross-attentions
    were written before the fused op: ``(q @ k^T) * scale``, softmax, ``@ v``."""
    return ((q @ k.T) * (1.0 / math.sqrt(q.shape[1]))).softmax(axis=-1) @ v


def full_scorer_logits(prefix: Tensor, answer_ids: list[int], p: ScorerParams) -> Tensor:
    """The scorer over the whole sequence, built from the composed ops: every
    row of [prefix; answer] is a query under a [T, T] mask, then the
    prediction rows are narrowed out."""
    full = concat([prefix, one_hot(answer_ids, p.embed.shape[0]) @ p.embed], axis=0)
    full = full + Tensor(sinusoidal_positions(full.shape[0], full.shape[1]))
    x = full + composed_causal_attention(full @ p.wq, full @ p.wk, full @ p.wv, 0)
    hidden = x + composed_affine(composed_gelu(composed_affine(x, p.ffn_w1, p.ffn_b1)), p.ffn_w2, p.ffn_b2)
    return composed_affine(hidden.narrow(0, prefix.shape[0] - 1, len(answer_ids)), p.out_w, p.out_b)


def full_greedy_decode(prefix: Tensor, p: ScorerParams, max_new: int) -> list[int]:
    """Argmax decoding through ``full_scorer_logits``, one whole pass per token."""
    generated: list[int] = []
    for _ in range(max_new):
        logits = full_scorer_logits(prefix, generated + [0], p)
        generated.append(int(np.argmax(logits.data[-1])))
    return generated


# -- reusable tiny fixtures --------------------------------------------------------


def tiny_config(seed: int = 0, fusion_strategy: str = "conv_gate",
                merge: str = "concat") -> RunConfig:
    """Smallest valid config: 4 tokens, narrow channels, 2x2 RoI bins."""
    return config_from_dict({
        "seed": seed,
        "encoder": {"low_res": 28, "channels_low": 6, "stage_channels": [2, 3, 4, 8]},
        "fusion": {"strategy": fusion_strategy, "channels_low": 6,
                   "channels_high": 8, "gate_channels": 4},
        "roi": {"bins": [2, 2], "samples_per_bin": 2},
        "assembly": {"merge": merge, "model_dim": 10, "vocab_size": 13, "scorer_hidden": 12},
    })


def random_detections(gen: np.random.Generator, n: int, extent: float = 100.0,
                      n_labels: int = 3, tie_fraction: float = 0.0) -> list[Detection]:
    dets = []
    scores = gen.uniform(0.05, 1.0, size=n)
    if tie_fraction > 0 and n > 1:
        # engineered ties: quantize scores so duplicates are common
        ties = max(2, int(1 / tie_fraction))
        scores = np.round(scores * ties) / ties
    for i in range(n):
        x0, y0 = gen.uniform(0, extent * 0.8, size=2)
        w, h = gen.uniform(extent * 0.05, extent * 0.4, size=2)
        dets.append(Detection(float(x0), float(y0), float(min(x0 + w, extent)),
                              float(min(y0 + h, extent)), float(scores[i]),
                              f"label{int(gen.integers(0, n_labels))}"))
    return dets


def full_pipeline_loss_builder(cfg: RunConfig, seed: int):
    """Differentiable closure over the model params for FD checks.

    The frozen side runs for real: a rendered scene goes through both
    encoders, the box pipeline and the RoI read, and their features enter
    the graph as constants, as in training.
    """
    comp = build_components(cfg)
    scene = generate_scene(seed, n_objects=3,
                           height=cfg.encoder.high_res, width=cfg.encoder.high_res)
    e_low, e_high, e_objects, _, _ = encode_frame(comp, scene)
    gen = rng.stream(seed, "verify.pipeline")
    text_emb = gen.normal(0.0, 1.0, size=(4, cfg.assembly.model_dim))
    answer = [int(v) for v in gen.integers(0, cfg.assembly.vocab_size, size=3)]
    sample = PreparedSample(e_low, e_high, e_objects, text_emb, answer)

    def loss_fn() -> Tensor:
        return sample_loss(comp.model, [sample], cfg.assembly.merge, cfg.assembly.text_first)

    return loss_fn, comp.model.named_tensors()


# -- suites -----------------------------------------------------------------------


def _op_gradient_cases(gen: np.random.Generator):
    """(name, loss builder, leaf tensors) triples covering every op."""
    def t(shape, scale=1.0, shift=0.0):
        return Tensor(gen.normal(shift, scale, size=shape), requires_grad=True)

    a = t((3, 4))
    b = t((3, 4))
    m1 = t((3, 5))
    m2 = t((5, 2))
    x = t((6, 3))
    w = t((4, 3, 3), scale=0.5)
    bias = t((4,), scale=0.1)
    aff_x, aff_w, aff_b = t((4, 3)), t((3, 5)), t((5,))
    att_q, att_k, att_v, att_row = t((3, 4)), t((5, 4)), t((5, 2)), t((1, 4))
    row_w = Tensor(gen.normal(size=(4,)))  # constants: weights for reductions
    col_w = Tensor(gen.normal(size=(3,)))
    att_w = Tensor(gen.normal(size=(3, 2)))

    # two packed segments: conv rows 0-1 | 2-4; attention queries 0-1 | 2-3
    # over keys 0-2 | 3-5, so every segment edge is crossed by some window
    seg_x, seg_q, seg_k, seg_v = t((5, 3)), t((4, 4)), t((6, 4)), t((6, 2))
    seg_conv_w = Tensor(gen.normal(size=(5, 4)))
    seg_att_w = Tensor(gen.normal(size=(4, 2)))
    seg_leaves = [("q", seg_q), ("k", seg_k), ("v", seg_v)]

    def attention_case(q: Tensor, first: int) -> Tensor:
        out = causal_attention(q, att_k, att_v, [first])
        return (out * att_w.narrow(0, 0, q.shape[0])).sum()

    attention_leaves = [("k", att_k), ("v", att_v)]

    return [
        ("add", lambda: (a + b).sum(), [("a", a), ("b", b)]),
        ("mul", lambda: (a * b).sum(), [("a", a), ("b", b)]),
        ("neg_sub", lambda: (a - b * 2.0).mean(), [("a", a), ("b", b)]),
        ("matmul", lambda: (m1 @ m2).sum(), [("m1", m1), ("m2", m2)]),
        ("transpose", lambda: (m1.T @ a).sum(), [("m1", m1), ("a", a)]),
        ("conv1d", lambda: conv1d(x, w, bias).sum(), [("x", x), ("w", w), ("bias", bias)]),
        ("sigmoid", lambda: a.sigmoid().sum(), [("a", a)]),
        ("tanh", lambda: a.tanh().sum(), [("a", a)]),
        ("gelu", lambda: (gelu(a) * b).sum(), [("a", a), ("b", b)]),
        ("softmax", lambda: (a.softmax(axis=-1) * b).sum(), [("a", a), ("b", b)]),
        ("log_softmax", lambda: (a.log_softmax(axis=-1) * b).sum(), [("a", a), ("b", b)]),
        ("sum_axis", lambda: (a.sum(axis=0) * row_w).sum(), [("a", a)]),
        ("mean_axis", lambda: (a.mean(axis=1) * col_w).sum(), [("a", a)]),
        ("reshape_narrow", lambda: a.reshape(12, 1).narrow(0, 2, 6).sum(), [("a", a)]),
        ("concat", lambda: concat([a, b], axis=1).mean(), [("a", a), ("b", b)]),
        ("affine", lambda: affine(aff_x, aff_w, aff_b).sum(),
         [("x", aff_x), ("w", aff_w), ("b", aff_b)]),
        ("causal_attention_first_0", lambda: attention_case(att_q, 0), [("q", att_q)] + attention_leaves),
        ("causal_attention_first_t_minus_l", lambda: attention_case(att_q, 2), [("q", att_q)] + attention_leaves),
        ("causal_attention_one_row", lambda: attention_case(att_row, 1), [("q", att_row)] + attention_leaves),
        ("conv1d_two_segments", lambda: (conv1d(seg_x, w, bias, (0, 2, 5)) * seg_conv_w).sum(),
         [("x", seg_x), ("w", w), ("bias", bias)]),
        ("causal_attention_two_segments",
         lambda: (causal_attention(seg_q, seg_k, seg_v, (1, 0), (0, 2, 4), (0, 3, 6)) * seg_att_w).sum(),
         seg_leaves),
        ("attention_two_segments",
         lambda: (attention(seg_q, seg_k, seg_v, (0, 2, 4), (0, 3, 6)) * seg_att_w).sum(), seg_leaves),
        ("onehot_pick", lambda: (one_hot([1, 0, 2], 3) @ a).sum(), [("a", a)]),
    ]


def suite_gradients(instances: int = 20, seed: int = 0, inject_fault: bool = False,
                    strategies: tuple[str, ...] = ("conv_gate",),
                    merges: tuple[str, ...] = ("concat",)) -> SuiteResult:
    suite = SuiteResult("gradients")
    for inst in range(instances):
        gen = rng.stream(seed, f"verify.grad.ops.{inst}")
        worst = 0.0
        worst_name = ""
        for name, loss_fn, params in _op_gradient_cases(gen):
            errors = fd_check(loss_fn, params, gen)
            for pname, err in errors.items():
                if err > worst:
                    worst, worst_name = err, f"{name}/{pname}"
        suite.add(f"ops_instance_{inst}", worst < FD_TOLERANCE,
                  f"max rel err {worst:.3g} at {worst_name}")
    inst = 0
    for strategy in strategies:
        for merge in merges:
            for rep in range(max(1, instances // (len(strategies) * len(merges)))):
                cfg = tiny_config(seed=seed + 101 + inst, fusion_strategy=strategy, merge=merge)
                loss_fn, params = full_pipeline_loss_builder(cfg, seed + inst)
                gen = rng.stream(seed, f"verify.grad.pipe.{inst}")
                perturb = params[0][0] if (inject_fault and inst == 0) else None
                errors = fd_check(loss_fn, params, gen, max_coords=6, perturb=perturb)
                worst_name, worst = max(errors.items(), key=lambda kv: kv[1])
                suite.add(f"pipeline_{strategy}_{merge}_{rep}", worst < FD_TOLERANCE,
                          f"max rel err {worst:.3g} at {worst_name}")
                inst += 1
    return suite


def suite_nms(trials: int = 1000, max_boxes: int = 200, seed: int = 0) -> SuiteResult:
    suite = SuiteResult("nms")
    mismatches = 0
    first = ""
    for trial in range(trials):
        gen = rng.stream(seed, f"verify.nms.{trial}")
        n = int(gen.integers(1, max_boxes + 1))
        tie_fraction = 0.5 if trial % 5 == 0 else 0.0
        dets = random_detections(gen, n, tie_fraction=tie_fraction)
        thr = float(gen.uniform(0.2, 0.8))
        class_aware = bool(gen.integers(0, 2))
        fast = nms_indices(dets, thr, class_aware)
        slow = naive_nms(dets, thr, class_aware)
        if fast != slow:
            mismatches += 1
            if not first:
                first = f"trial {trial}: {fast[:5]}... vs {slow[:5]}..."
    suite.add("oracle_equivalence", mismatches == 0,
              f"{mismatches}/{trials} mismatches" + (f"; first: {first}" if first else ""))
    # idempotence spot check on a fresh batch
    gen = rng.stream(seed, "verify.nms.idem")
    dets = random_detections(gen, 150)
    keep = nms_indices(dets, 0.5)
    survivors = [dets[i] for i in keep]
    again = nms_indices(survivors, 0.5)
    suite.add("idempotent", again == list(range(len(survivors))),
              "nms(nms(X)) == nms(X)")
    return suite


def suite_roi(pairs: int = 500, seed: int = 0) -> SuiteResult:
    suite = SuiteResult("roi")
    worst = 0.0
    for pair in range(pairs):
        gen = rng.stream(seed, f"verify.roi.{pair}")
        h, w = int(gen.integers(4, 14)), int(gen.integers(4, 14))
        c = int(gen.integers(1, 6))
        grid = gen.normal(0.0, 1.0, size=(h, w, c))
        pyramid = build_pyramid([grid])
        bx0 = float(gen.uniform(0, w * 4 * 0.6))
        by0 = float(gen.uniform(0, h * 4 * 0.6))
        bx1 = float(min(bx0 + gen.uniform(1.0, w * 4 * 0.5), w * 4))
        by1 = float(min(by0 + gen.uniform(1.0, h * 4 * 0.5), h * 4))
        bins = (int(gen.integers(1, 5)), int(gen.integers(1, 5)))
        samples = int(gen.integers(1, 4))
        det = Detection(bx0, by0, bx1, by1, 0.9, "obj")
        got = per_box_roi_align(pyramid, det, RoiConfig(bins=bins, samples_per_bin=samples))
        want = naive_roi_align(grid, (bx0 / 4, by0 / 4, bx1 / 4, by1 / 4), bins, samples)
        worst = max(worst, float(np.max(np.abs(got - want))))
    suite.add("oracle_equivalence", worst < 1e-9, f"max abs diff {worst:.3g} over {pairs} pairs")
    # constant-map property
    gen = rng.stream(seed, "verify.roi.const")
    cval = float(gen.normal())
    pyramid = build_pyramid([np.full((8, 8, 3), cval)])
    det = Detection(3.0, 5.0, 27.0, 29.0, 0.9, "obj")
    got = per_box_roi_align(pyramid, det, RoiConfig(bins=(7, 7), samples_per_bin=2))
    dev = float(np.max(np.abs(got - cval)))
    suite.add("constant_map", dev < 1e-9, f"max deviation from constant {dev:.3g}")
    _check_resize_oracle(suite, seed)
    _check_separable_read(suite, seed, pyramids=max(4, pairs // 10))
    return suite


def _check_resize_oracle(suite: SuiteResult, seed: int, shapes: int = 40) -> None:
    """Separable ``sampling.resize`` against the per-cell gather it replaced."""
    gen = rng.stream(seed, "verify.roi.resize")
    worst, upsampled = 0.0, 0
    for _ in range(shapes):
        h, w, out_h, out_w = (int(v) for v in gen.integers(1, 48, size=4))
        c = int(gen.integers(1, 5))
        grid = gen.normal(0.0, 1.0, size=(h, w, c))
        pts = sampling.center_points(out_h, out_w, h / out_h, w / out_w)
        want = sampling.sample_grid(grid, pts).reshape(out_h, out_w, c)
        worst = max(worst, float(np.max(np.abs(sampling.resize(grid, out_h, out_w) - want))))
        upsampled += out_h * out_w > h * w
    suite.add("resize_oracle", worst < 1e-12,
              f"max abs diff {worst:.3g} over {shapes} shapes, {upsampled} of them enlarging")


def _check_separable_read(suite: SuiteResult, seed: int, pyramids: int) -> None:
    """The separable ``extract_object_features`` against ``per_box_roi_align``
    on real encoder stages, and against the nested-loop sampler over the dense
    grid of seeded random multi-stage pyramids."""
    cfg = RunConfig(seed=seed)
    scene = generate_scene(seed, n_objects=3)
    _, _, features, dets, pyramid = encode_frame(build_components(cfg), scene)
    gen = rng.stream(seed, "verify.roi.crowd")
    crowd = []
    while len(crowd) < 100:  # overlapping boxes, some past the image edge
        x0, y0 = float(gen.uniform(-0.1, 0.9) * scene.width), float(gen.uniform(-0.1, 0.9) * scene.height)
        x1, y1 = x0 + float(gen.uniform(2.0, 0.5 * scene.width)), y0 + float(gen.uniform(2.0, 0.5 * scene.height))
        if x1 > 0.0 and y1 > 0.0:
            crowd.append(Detection(x0, y0, x1, y1, 0.5, "obj"))
    crowd_features = extract_object_features(pyramid, DetectionSet(scene.image_id, crowd), cfg.roi)
    worst = 0.0
    for boxes, got in ((dets.detections, features), (crowd, crowd_features)):
        for d, row in zip(boxes, got):
            worst = max(worst, float(np.max(np.abs(row - per_box_roi_align(pyramid, d, cfg.roi).mean(axis=(0, 1))))))
    suite.add("separable_equals_per_box", worst < 1e-12 and len(features) == len(dets),
              f"max abs diff {worst:.3g}, {len(dets)} scene boxes and {len(crowd)} crowded boxes")
    worst = 0.0
    for case in range(pyramids):
        gen = rng.stream(seed, f"verify.roi.separable.{case}")
        gh, gw = (int(v) for v in gen.integers(2, 16, size=2))
        extents = [(gh, gw)] + [(int(gen.integers(1, gh + 1)), int(gen.integers(1, gw + 1)))
                                for _ in range(int(gen.integers(0, 4)))]
        stages = [gen.normal(0.0, 1.0, size=(h, w, int(gen.integers(1, 4)))) for h, w in extents]
        img_h, img_w = (int(v) for v in gen.integers(8, 120, size=2))
        pyramid = build_pyramid(stages, image_height=img_h, image_width=img_w)
        roi_cfg = RoiConfig(bins=(1, 1), samples_per_bin=1) if case == 0 else RoiConfig(
            bins=(int(gen.integers(1, 5)), int(gen.integers(1, 5))), samples_per_bin=int(gen.integers(1, 4)))
        boxes = []
        for k in range(4):  # box 0 is narrower than one cell, box 1 shorter; any may cross an edge
            w = float(gen.uniform(0.1, 1.0) * img_w / gw if k == 0 else gen.uniform(1.0, img_w))
            h = float(gen.uniform(0.1, 1.0) * img_h / gh if k == 1 else gen.uniform(1.0, img_h))
            x0, y0 = float(gen.uniform(-w, img_w)), float(gen.uniform(-h, img_h))
            boxes.append(Detection(x0, y0, x0 + w, y0 + h, 0.5, "obj"))
        got = extract_object_features(pyramid, DetectionSet("case", boxes), roi_cfg)
        sx, sy = gw / img_w, gh / img_h
        for d, row in zip(boxes, got):
            grid_box = (max(d.x0, 0.0) * sx, max(d.y0, 0.0) * sy, min(d.x1, img_w) * sx, min(d.y1, img_h) * sy)
            want = naive_roi_align(pyramid.grid, grid_box, roi_cfg.bins, roi_cfg.samples_per_bin)
            worst = max(worst, float(np.max(np.abs(row - want.mean(axis=(0, 1))))))
    suite.add("separable_oracle", worst < 1e-12,
              f"max abs diff {worst:.3g} over {pyramids} random multi-stage pyramids")


def _scorer_cases(seed: int, cases: int):
    """Seeded (prefix, answer ids, scorer) triples. The first four are the
    edges: a one-row prefix with L = 1 and L = 5, L = 1 after a longer
    prefix, and T = 700 with L = 16."""
    dim = 16
    cfg = AssemblyConfig(model_dim=dim, vocab_size=24, scorer_hidden=2 * dim)
    edges = [(1, 1), (1, 5), (9, 1), (684, 16)]
    for case in range(cases):
        gen = rng.stream(seed, f"verify.scorer.{case}")
        s, n = edges[case] if case < len(edges) else (int(gen.integers(1, 301)), int(gen.integers(1, 17)))
        prefix = Tensor(gen.normal(0.0, 1.0, size=(s, dim)))
        answer = [int(v) for v in gen.integers(0, cfg.vocab_size, size=n)]
        yield prefix, answer, ScorerParams.build(cfg, gen)


def suite_scorer(seed: int = 0, cases: int = 40) -> SuiteResult:
    """The scorer's L query rows against the full [T, T] pass it replaced;
    the first twelve cases also decode L tokens both ways."""
    suite = SuiteResult("scorer")
    decodes = 12
    worst, identical, mismatched = 0.0, 0, []
    for case, (prefix, answer, p) in enumerate(_scorer_cases(seed, cases)):
        got = scorer_logits(prefix, [answer], p).data
        want = full_scorer_logits(prefix, answer, p).data
        worst = max(worst, float(np.max(np.abs(got - want))))
        identical += got.tobytes() == want.tobytes()
        if case < decodes:
            rows = prefix.shape[0]
            seq = TokenSequence(prefix, (SEGMENT_TEXT,) * rows)
            if greedy_decode(seq, p, len(answer)) != full_greedy_decode(prefix, p, len(answer)):
                mismatched.append(case)
    suite.add("rows_equal_full", worst < 1e-12,
              f"max abs diff {worst:.3g} over {cases} cases, {identical} bit-identical")
    suite.add("decode_equals_full", not mismatched,
              f"{min(cases, decodes)} decodes" + (f"; ids differ in cases {mismatched}" if mismatched else ""))
    return suite


def suite_ops(seed: int = 0, cases: int = 40) -> SuiteResult:
    """The fused ``affine``, ``gelu``, ``causal_attention`` and ``attention``
    against the compositions they replaced: forwards equal, and gradients within
    ``FD_TOLERANCE`` of the composition's. The first five cases are the
    attention edges (T, L, first): one key, L = 1 at first = 0 and at
    first = T - 1, and L = 3 at first = 0 and at first = T - L."""
    suite = SuiteResult("ops")
    edges = [(1, 1, 0), (7, 1, 0), (7, 1, 6), (7, 3, 0), (7, 3, 4)]
    differ: list[str] = []
    worst, worst_name = 0.0, ""
    for case in range(cases):
        gen = rng.stream(seed, f"verify.ops.{case}")
        if case < len(edges):
            t_len, ell, first = edges[case]
        else:
            t_len = int(gen.integers(1, 40))
            ell = int(gen.integers(1, t_len + 1))
            first = int(gen.integers(0, t_len - ell + 1))
        rows, d, d_v = (int(n) for n in gen.integers(1, 9, size=3))
        x, w, b, q, k, v = (Tensor(gen.normal(size=shape), requires_grad=True) for shape in
                            ((rows, d), (d, d_v), (d_v,), (ell, d), (t_len, d), (t_len, d_v)))
        for name, fused, composed, args in (
            ("affine", affine, composed_affine, (x, w, b)),
            ("gelu", gelu, composed_gelu, (x,)),
            ("causal_attention", lambda *a: causal_attention(*a, [first]),
             lambda *a: composed_causal_attention(*a, first), (q, k, v)),
            ("attention", attention, composed_attention, (q, k, v)),
        ):
            outs = (fused(*args), composed(*args))
            if not np.array_equal(outs[0].data, outs[1].data):
                differ.append(f"{name} case {case}")
            weights = Tensor(gen.normal(size=outs[0].shape))
            grads = []
            for out in outs:
                for a in args:
                    a.zero_grad()
                (out * weights).sum().backward()
                grads.append([a.grad for a in args])
            for n, (g_fused, g_composed) in enumerate(zip(*grads)):
                err = relative_error(g_fused, g_composed)
                if err > worst:
                    worst, worst_name = err, f"{name} input {n}, case {case}"
    suite.add("fused_equals_composed", not differ and worst < FD_TOLERANCE,
              f"{cases} cases x 4 ops: forwards " + (f"differ in {differ[:3]}" if differ else "equal")
              + f"; max gradient rel err {worst:.3g}" + (f" at {worst_name}" if worst_name else ""))
    return suite


def suite_tokens(seed: int = 0, draws: int = 60) -> SuiteResult:
    suite = SuiteResult("tokens")
    gen = rng.stream(seed, "verify.tokens")
    d = 8
    bad = ""
    ok = True
    for _ in range(draws):
        low = int(gen.choice([224, 336]))
        n = EncoderConfig(low_res=low, channels_low=4, stage_channels=(2, 2, 2, 4)).num_tokens
        k = int(gen.integers(0, 101))
        l_t = int(gen.integers(1, 33))
        seq = assemble(Tensor(gen.normal(size=(n, d))), Tensor(gen.normal(size=(k, d))),
                       Tensor(gen.normal(size=(l_t, d))))
        if len(seq) != n + k + l_t:
            ok = False
            bad = f"N={n} k={k} L={l_t} -> {len(seq)}"
            break
    suite.add("image_accounting", ok, bad or f"{draws} draws, S == N + k + L_T")
    frames = []
    ks = []
    n = 576
    for _ in range(8):
        k = int(gen.integers(0, 12))
        ks.append(k)
        frames.append((Tensor(gen.normal(size=(n, d))), Tensor(gen.normal(size=(k, d)))))
    l_t = 4
    seq = assemble_video(frames, Tensor(gen.normal(size=(l_t, d))))
    expect = sum(n + k for k in ks) + l_t
    suite.add("video_accounting", len(seq) == expect,
              f"8 frames: S={len(seq)} expect {expect}")
    return suite


def suite_freeze(seed: int = 0, steps: int = 20) -> SuiteResult:
    suite = SuiteResult("freeze")
    cfg = tiny_config(seed=seed, merge="b_to_f_xattn")
    comp = build_components(cfg)
    gen = rng.stream(seed, "verify.freeze")
    dataset = []
    for _ in range(4):
        n = cfg.encoder.num_tokens
        dataset.append(PreparedSample(
            e_low=gen.normal(size=(n, cfg.encoder.channels_low)),
            e_high=gen.normal(size=(n, cfg.encoder.channels_high)),
            e_objects=gen.normal(size=(2, cfg.object_channels)),
            text_emb=gen.normal(size=(3, cfg.assembly.model_dim)),
            answer_ids=[1, 2],
        ))
    model = comp.model
    before = {g: model.group_bytes(g) for g in model.groups()}
    tc = TrainConfig(stage1_steps=steps, stage2_steps=0, batch_size=2)
    train_two_stage(model, dataset, tc, merge=cfg.assembly.merge)
    for group in ("scorer", "merge"):
        unchanged = model.group_bytes(group) == before[group]
        suite.add(f"stage1_frozen_{group}", unchanged, "bytes identical across stage 1")
    for group in ("fusion", "proj_F", "proj_B"):
        changed = model.group_bytes(group) != before[group]
        suite.add(f"stage1_trains_{group}", changed, "bytes moved during stage 1")
    before2 = {g: model.group_bytes(g) for g in model.groups()}
    tc2 = TrainConfig(stage1_steps=0, stage2_steps=steps, batch_size=2)
    train_two_stage(model, dataset, tc2, merge=cfg.assembly.merge)
    for group in ("fusion", "proj_F", "proj_B", "scorer", "merge"):
        changed = model.group_bytes(group) != before2[group]
        suite.add(f"stage2_trains_{group}", changed, "bytes moved during stage 2")
    return suite


def suite_determinism(seed: int = 0) -> SuiteResult:
    suite = SuiteResult("determinism")
    cfg = tiny_config(seed=seed)
    scene = generate_scene(seed + 7, n_objects=2)
    r1 = run_image(cfg, scene, text_ids=[1, 2, 3], answer_ids=[4, 5])
    r2 = run_image(cfg, scene, text_ids=[1, 2, 3], answer_ids=[4, 5])
    suite.add("infer_rerun", r1["result_hash"] == r2["result_hash"],
              f"hashes {r1['result_hash'][:12]} vs {r2['result_hash'][:12]}")

    def short_train() -> bytes:
        scfg = small_training_config(seed)
        comp = build_components(scfg)
        raw = generate_dataset(scfg, n_samples=4)
        prepared = [prepare_sample(comp, s.scene, s.text_ids, s.answer_ids) for s in raw]
        tc = TrainConfig(stage1_steps=3, stage2_steps=3, batch_size=2)
        curve = train_two_stage(comp.model, prepared, tc)
        blob = comp.model.flat.tobytes()
        tail = ",".join(f"{p.loss:.17g}" for p in curve)
        return blob + tail.encode()

    suite.add("train_rerun", short_train() == short_train(), "params and curve bit-identical")
    return suite


SUITE_BUILDERS: dict[str, Callable[..., SuiteResult]] = {
    "gradients": suite_gradients,
    "nms": suite_nms,
    "roi": suite_roi,
    "ops": suite_ops,
    "scorer": suite_scorer,
    "tokens": suite_tokens,
    "freeze": suite_freeze,
    "determinism": suite_determinism,
}


def run_suites(names: list[str] | None = None, seed: int = 0, fast: bool = False,
               inject_fault: bool = False) -> list[SuiteResult]:
    chosen = names or list(SUITE_BUILDERS)
    unknown = [n for n in chosen if n not in SUITE_BUILDERS]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; available: {sorted(SUITE_BUILDERS)}")
    results = []
    for name in chosen:
        kwargs: dict = {"seed": seed}
        if name == "gradients":
            kwargs["instances"] = 4 if fast else 20
            kwargs["inject_fault"] = inject_fault
        elif name == "nms":
            kwargs["trials"] = 100 if fast else 1000
        elif name == "roi":
            kwargs["pairs"] = 50 if fast else 500
        elif name in ("ops", "scorer"):
            kwargs["cases"] = 16 if fast else 40
        results.append(SUITE_BUILDERS[name](**kwargs))
    return results
