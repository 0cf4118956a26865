"""Dense tensors with a fixed differentiable op set and reverse-mode gradients.

The op set: add, neg, mul, sigmoid, tanh, softmax, log_softmax, sum, mean,
reshape, transpose, narrow, concat, matmul and conv1d, plus fused primitives
that each record one tape node with an analytic backward: ``affine``
(``x @ w + b``), ``gelu`` (tanh approximation), ``causal_attention`` and
``attention`` (``softmax(q k^T / sqrt(d)) v`` over the keys each query may
see, causal or not) and ``segment_mean``. ``one_hot`` builds constant rows.
Only the trainable side (fusion, projectors, merge, scorer) records ops; the
frozen encoders and the RoI read are plain numpy and enter a graph as
constants.

Segments. A batch of samples runs as one graph by packing their rows back to
back. The ops that mix rows take segment bounds ``(0, n0, n0 + n1, ...)``
(see ``segment_bounds``): ``conv1d`` zero-pads at every segment edge, the
attentions pair each query segment with its own key segment and compute one
score block per segment, ``segment_mean`` averages per segment, and
``concat`` can reorder rows to interleave packed streams. Every other op is
row-wise, so no segment reads another's rows. With one segment each op
computes what it computed before segments existed, bit for bit.

Values are row-major float64 numpy arrays (gradient checks demand double
precision). Ops allocate fresh output arrays and never write into their
inputs. Model parameters are views into one buffer, which the optimizer
updates in place between steps (``training.ModelParams``). There is no
broadcasting beyond scalar-with-tensor (``affine`` adds its bias row inside
the op); any other shape mismatch raises ``ShapeError`` naming both shapes.

Each op records its inputs and a backward closure on the output node, so the
graph reachable from a loss is an op tape in topological order;
``Tensor.backward`` linearizes it and visits every node exactly once.
Concurrent reads of tensors are safe; a graph/tape belongs to one logical
thread, and parallel evaluation needs independent graphs.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class GraphError(ValueError):
    """Backward was invoked on an unusable graph (non-scalar loss, no tape)."""


class Tensor:
    """A dense multi-dimensional array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self._op = "leaf"

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, op: str) -> Tensor:
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        # untracked subgraphs are pruned so backward never visits them
        out._parents = parents if out.requires_grad else ()
        out._backward_fn = backward_fn if out.requires_grad else None
        out._op = op
        return out

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def is_leaf(self) -> bool:
        return self._backward_fn is None

    # -- gradient machinery ----------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad = self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    def linearize(self) -> list[Tensor]:
        """Tracked nodes reachable from self, inputs before consumers."""
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad:
                    stack.append((parent, False))
        return order

    def backward(self) -> None:
        """Populate ``grad`` on every requires_grad leaf below this scalar.

        Leaves that do not require gradients are left untouched. Leaf grads
        accumulate across calls; intermediate grads are reset per call.
        """
        if self.shape != ():
            raise GraphError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise GraphError("loss does not depend on any tensor with requires_grad")
        order = self.linearize()
        for node in order:
            if not node.is_leaf():
                node.grad = None
        self._accumulate(np.ones((), dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward_fn is None or node.grad is None:
                continue
            node._backward_fn(node.grad)

    # -- elementwise ops ---------------------------------------------------

    def __add__(self, other) -> Tensor:
        other = _coerce(other)
        _check_elementwise("add", self, other)
        out_data = self.data + other.data

        def backward(g):
            _accum_maybe_scalar(self, g)
            _accum_maybe_scalar(other, g)

        return Tensor._from_op(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> Tensor:
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._from_op(-self.data, (self,), backward, "neg")

    def __sub__(self, other) -> Tensor:
        return self + (-_coerce(other))

    def __rsub__(self, other) -> Tensor:
        return _coerce(other) + (-self)

    def __mul__(self, other) -> Tensor:
        other = _coerce(other)
        _check_elementwise("mul", self, other)
        a_data, b_data = self.data, other.data
        out_data = a_data * b_data

        def backward(g):
            _accum_maybe_scalar(self, g * b_data)
            _accum_maybe_scalar(other, g * a_data)

        return Tensor._from_op(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def sigmoid(self) -> Tensor:
        x = self.data
        y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

        def backward(g):
            self._accumulate(g * y * (1.0 - y))

        return Tensor._from_op(y, (self,), backward, "sigmoid")

    def tanh(self) -> Tensor:
        y = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - y * y))

        return Tensor._from_op(y, (self,), backward, "tanh")

    def softmax(self, axis: int = -1) -> Tensor:
        shifted = self.data - np.max(self.data, axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / np.sum(e, axis=axis, keepdims=True)

        def backward(g):
            inner = np.sum(g * y, axis=axis, keepdims=True)
            self._accumulate(y * (g - inner))

        return Tensor._from_op(y, (self,), backward, "softmax")

    def log_softmax(self, axis: int = -1) -> Tensor:
        """Fused softmax-then-log; stays finite where the composition would not."""
        shifted = self.data - np.max(self.data, axis=axis, keepdims=True)
        lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
        y = shifted - lse

        def backward(g):
            soft = np.exp(y)
            self._accumulate(g - soft * np.sum(g, axis=axis, keepdims=True))

        return Tensor._from_op(y, (self,), backward, "log_softmax")

    # -- reductions --------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None) -> Tensor:
        axes = _normalize_axes(axis, self.ndim)
        out_data = np.sum(self.data, axis=axes)
        in_shape = self.shape

        def backward(g):
            self._accumulate(_expand_reduced(g, in_shape, axes))

        return Tensor._from_op(out_data, (self,), backward, "sum")

    def mean(self, axis: int | tuple[int, ...] | None = None) -> Tensor:
        axes = _normalize_axes(axis, self.ndim)
        out_data = np.mean(self.data, axis=axes)
        in_shape = self.shape
        count = self.size if axes is None else int(np.prod([in_shape[a] for a in axes]))

        def backward(g):
            self._accumulate(_expand_reduced(g, in_shape, axes) / count)

        return Tensor._from_op(out_data, (self,), backward, "mean")

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape) -> Tensor:
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape).copy()

        def backward(g):
            self._accumulate(g.reshape(old_shape))

        return Tensor._from_op(out_data, (self,), backward, "reshape")

    def transpose(self) -> Tensor:
        if self.ndim != 2:
            raise ShapeError(f"transpose expects a matrix, got shape {self.shape}")
        out_data = self.data.T.copy()

        def backward(g):
            self._accumulate(g.T)

        return Tensor._from_op(out_data, (self,), backward, "transpose")

    @property
    def T(self) -> Tensor:
        return self.transpose()

    def narrow(self, axis: int, start: int, length: int) -> Tensor:
        """Contiguous slice of ``length`` entries along ``axis``."""
        if not 0 <= axis < self.ndim:
            raise ShapeError(f"narrow axis {axis} out of range for shape {self.shape}")
        if start < 0 or length < 0 or start + length > self.shape[axis]:
            raise ShapeError(
                f"narrow range [{start}, {start + length}) exceeds extent {self.shape[axis]}"
            )
        index = tuple(slice(None) if d != axis else slice(start, start + length) for d in range(self.ndim))
        out_data = self.data[index].copy()
        in_shape = self.shape

        def backward(g):
            full = np.zeros(in_shape, dtype=g.dtype)
            full[index] = g
            self._accumulate(full)

        return Tensor._from_op(out_data, (self,), backward, "narrow")

    # -- matrix ops ----------------------------------------------------------

    def __matmul__(self, other: Tensor) -> Tensor:
        other = _coerce(other)
        _check_matmul(self, other)
        a_data, b_data = self.data, other.data
        out_data = a_data @ b_data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ b_data.T)
            if other.requires_grad:
                other._accumulate(a_data.T @ g)

        return Tensor._from_op(out_data, (self, other), backward, "matmul")


class Params:
    """Base of the parameter dataclasses: one walk names every tensor."""

    def tensors(self) -> dict[str, Tensor]:
        """Each ``Tensor`` field under its field name and each nested
        ``Params`` field's tensors as ``<field>_<name>``; ``None`` is skipped."""
        out: dict[str, Tensor] = {}
        for field, value in vars(self).items():
            if isinstance(value, Tensor):
                out[field] = value
            elif isinstance(value, Params):
                out.update({f"{field}_{name}": t for name, t in value.tensors().items()})
        return out


def _coerce(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    if isinstance(value, (int, float, np.floating, np.integer)):
        return Tensor(np.float64(value))
    raise TypeError(f"cannot use {type(value).__name__} as a tensor operand")


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape or a.shape == () or b.shape == ():
        return
    raise ShapeError(f"{op} requires equal shapes (or a scalar), got {a.shape} and {b.shape}")


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")


def _accum_maybe_scalar(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.shape == () and np.ndim(g) != 0:
        t._accumulate(np.sum(g))
    else:
        t._accumulate(g)


def _normalize_axes(axis, ndim) -> tuple[int, ...] | None:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    axes = tuple(sorted(a % ndim for a in axis))
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axis}")
    return axes


def _expand_reduced(g: np.ndarray, in_shape: tuple[int, ...], axes) -> np.ndarray:
    if axes is None:
        return np.broadcast_to(g, in_shape)
    expanded = g
    for a in axes:
        expanded = np.expand_dims(expanded, a)
    return np.broadcast_to(expanded, in_shape)


# -- module-level ops ----------------------------------------------------------


def segment_bounds(lengths: Iterable[int]) -> tuple[int, ...]:
    """Row offsets ``(0, n0, n0 + n1, ...)`` of segments with these lengths."""
    return tuple(accumulate(lengths, initial=0))


def _check_bounds(bounds: Sequence[int] | None, n: int, what: str) -> tuple[int, ...]:
    """``bounds``, or ``(0, n)`` when None; they must rise from 0 to n."""
    if bounds is None:
        return (0, n)
    b = tuple(bounds)
    if len(b) < 2 or b[0] != 0 or b[-1] != n or list(b) != sorted(b):
        raise ShapeError(f"{what} segment bounds {list(b)} must rise from 0 to {n}")
    return b


def _lengths(bounds: tuple[int, ...]) -> list[int]:
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


def concat(tensors: Sequence[Tensor], axis: int = 0, order: Sequence[int] | None = None) -> Tensor:
    """Concatenate along ``axis``; all other extents must agree.

    With ``order`` (axis 0 only) the op then picks rows: output row i is row
    ``order[i]`` of the concatenation. No row may be picked twice; rows not
    picked are dropped. Packed sequences interleave their streams this way.
    """
    if not tensors:
        raise ShapeError("concat of an empty tensor list")
    ndim = tensors[0].ndim
    axis = axis % ndim
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != ndim or any(other[d] != base[d] for d in range(ndim) if d != axis):
            raise ShapeError(f"concat shapes disagree off axis {axis}: {tensors[0].shape} vs {t.shape}")
    extents = [t.shape[axis] for t in tensors]
    if order is not None and len(tensors) == 1:
        out_data = tensors[0].data  # only the picked rows get copied
    else:
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
    full_shape = out_data.shape
    if order is not None:
        order = np.asarray(order, dtype=np.int64)
        if axis != 0 or order.ndim != 1:
            raise ShapeError(f"concat order must be a row index vector on axis 0, got shape {order.shape}")
        if order.size and (order.min() < 0 or order.max() >= full_shape[0]
                           or np.bincount(order).max() > 1):
            raise ShapeError(f"concat order must pick distinct rows of [0, {full_shape[0]})")
        out_data = out_data[order]

    def backward(g):
        if order is not None:
            full = np.zeros(full_shape, dtype=g.dtype)
            full[order] = g
            g = full
        offset = 0
        for t, ext in zip(tensors, extents):
            if t.requires_grad and ext > 0:
                index = tuple(
                    slice(None) if d != axis else slice(offset, offset + ext) for d in range(ndim)
                )
                t._accumulate(g[index])
            offset += ext

    return Tensor._from_op(out_data, tuple(tensors), backward, "concat")


def conv1d(x: Tensor, w: Tensor, bias: Tensor, bounds: Sequence[int] | None = None) -> Tensor:
    """Same-padded 1D convolution along the token axis.

    ``x`` is [N, C_in], ``w`` is [C_out, C_in, k] with odd k, ``bias`` is
    [C_out]; output is [N, C_out]. ``bounds`` splits the rows into segments
    (segment i is rows ``bounds[i]..bounds[i+1]-1``; None is one segment).
    Each segment is zero-padded at both ends, so no output row reads a row of
    another segment, and kernel size 1 degenerates to a per-token linear map.
    """
    if x.ndim != 2 or w.ndim != 3 or bias.ndim != 1:
        raise ShapeError(f"conv1d expects x[N,Cin], w[Cout,Cin,k], bias[Cout]; got {x.shape}, {w.shape}, {bias.shape}")
    n, c_in = x.shape
    c_out, w_cin, k = w.shape
    if w_cin != c_in:
        raise ShapeError(f"conv1d channel mismatch: x has {c_in}, w has {w_cin}")
    if bias.shape[0] != c_out:
        raise ShapeError(f"conv1d bias width {bias.shape[0]} != C_out {c_out}")
    if k % 2 == 0:
        raise ShapeError(f"conv1d kernel size must be odd, got {k}")
    b = _check_bounds(bounds, n, "conv1d")
    pad = k // 2
    # one buffer gives every segment its own k//2 zero rows on either side:
    # segment i starts at buffer row starts[i] + pad, acc row c is the window
    # over buffer rows c..c+k-1, and segment i's outputs are acc rows
    # starts[i] onwards; without pads the buffer rows are x's rows
    spans = [(lo + 2 * pad * i, lo, hi - lo) for i, (lo, hi) in enumerate(zip(b, b[1:]))]
    m = n + 2 * pad * (len(b) - 2)
    x_data, w_data, b_data = x.data, w.data, bias.data
    xpad = np.zeros((m + 2 * pad, c_in), dtype=x_data.dtype)
    for start, lo, rows in spans:
        xpad[start + pad: start + pad + rows] = x_data[lo: lo + rows]
    acc = np.zeros((m, c_out), dtype=x_data.dtype)
    for j in range(k):
        acc += xpad[j: j + m] @ w_data[:, :, j].T
    out_data = _unpadded(acc, spans, 0, pad) + b_data

    def backward(g):
        gacc = g
        if pad:
            gacc = np.zeros((m, c_out), dtype=g.dtype)
            for start, lo, rows in spans:
                gacc[start: start + rows] = g[lo: lo + rows]
        if x.requires_grad:
            gpad = np.zeros((m + 2 * pad, c_in), dtype=g.dtype)
            for j in range(k):
                gpad[j: j + m] += gacc @ w_data[:, :, j]
            x._accumulate(_unpadded(gpad, spans, pad, pad))
        if w.requires_grad:
            gw = np.empty_like(w_data)
            for j in range(k):
                gw[:, :, j] = gacc.T @ xpad[j: j + m]
            w._accumulate(gw)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))

    return Tensor._from_op(out_data, (x, w, bias), backward, "conv1d")


def _unpadded(buffer: np.ndarray, spans, offset: int, pad: int) -> np.ndarray:
    """The segments' rows of a conv1d buffer, back to back."""
    if not pad:
        return buffer[offset: offset + sum(rows for _, _, rows in spans)]
    return np.concatenate([buffer[start + offset: start + offset + rows] for start, _, rows in spans])


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w`` plus the bias vector ``b`` on every row, as one node; the
    bias gradient is the per-column sum of the output gradient."""
    _check_matmul(x, w)
    if b.ndim != 1 or b.shape[0] != w.shape[1]:
        raise ShapeError(f"affine bias must be a vector of width {w.shape[1]}, got shape {b.shape}")
    x_data, w_data = x.data, w.data
    out_data = x_data @ w_data + b.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ w_data.T)
        if w.requires_grad:
            w._accumulate(x_data.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return Tensor._from_op(out_data, (x, w, b), backward, "affine")


def gelu(x: Tensor) -> Tensor:
    """tanh-approximate GELU, ``0.5 x (1 + tanh(c (x + 0.044715 x^3)))`` with
    ``c = sqrt(2 / pi)``, evaluated in this order so it matches the same
    formula written with the elementwise ops bit for bit."""
    c = math.sqrt(2.0 / math.pi)
    x_data = x.data
    t = np.tanh((x_data + (x_data * x_data * x_data) * 0.044715) * c)
    half = x_data * 0.5
    out_data = half * (t + 1.0)

    def backward(g):
        slope = c * (1.0 + 3.0 * 0.044715 * (x_data * x_data))
        x._accumulate(g * (0.5 * (t + 1.0) + half * (1.0 - t * t) * slope))

    return Tensor._from_op(out_data, (x,), backward, "gelu")


def causal_attention(q: Tensor, k: Tensor, v: Tensor, firsts: Sequence[int],
                     q_bounds: Sequence[int] | None = None,
                     k_bounds: Sequence[int] | None = None) -> Tensor:
    """``softmax(q k^T / sqrt(d)) v`` where segment s's query row i sees its
    keys ``0..firsts[s] + i``.

    ``q`` is [L, d], ``k`` is [T, d] and ``v`` is [T, d_v]. The rows are
    segments packed back to back (None bounds are one segment): segment s
    pairs query rows ``q_bounds[s]..q_bounds[s+1]-1`` with key rows
    ``k_bounds[s]..k_bounds[s+1]-1``, with ``0 <= firsts[s]`` and
    ``firsts[s] + L_s <= T_s``, and no query sees a key of another segment.
    Later keys get weight exactly zero inside the op; no mask array is added
    to the scores. Scores are computed per segment, so they cost the sum of
    L_s x T_s.
    """
    return _attention(q, k, v, q_bounds, k_bounds, list(firsts), "causal_attention")


def attention(q: Tensor, k: Tensor, v: Tensor, q_bounds: Sequence[int] | None = None,
              k_bounds: Sequence[int] | None = None) -> Tensor:
    """Non-causal ``softmax(q k^T / sqrt(d)) v``: each query sees every key of
    its segment (segments as in ``causal_attention``). A segment with queries
    but no keys yields zero rows. With one segment the output equals
    ``(q @ k.T * scale).softmax() @ v`` from the generic ops bit for bit."""
    return _attention(q, k, v, q_bounds, k_bounds, None, "attention")


def _attention(q: Tensor, k: Tensor, v: Tensor, q_bounds, k_bounds, firsts, op: str) -> Tensor:
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(f"{op} expects matrices, got {q.shape}, {k.shape}, {v.shape}")
    ell, d = q.shape
    t = k.shape[0]
    if k.shape[1] != d or v.shape[0] != t:
        raise ShapeError(f"{op} shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    qb = _check_bounds(q_bounds, ell, f"{op} query")
    kb = _check_bounds(k_bounds, t, f"{op} key")
    if len(qb) != len(kb):
        raise ShapeError(f"{op} has {len(qb) - 1} query and {len(kb) - 1} key segments")
    if firsts is not None:
        if len(firsts) != len(qb) - 1:
            raise ShapeError(f"{op} needs one first per segment, got {len(firsts)} for {len(qb) - 1}")
        for f, n_q, n_k in zip(firsts, _lengths(qb), _lengths(kb)):
            if f < 0 or f + n_q > n_k:
                raise ShapeError(f"{op} rows {f}..{f + n_q - 1} exceed {n_k} keys")
    q_data, k_data, v_data = q.data, k.data, v.data
    scale = 1.0 / math.sqrt(d)
    out_data = np.zeros((ell, v.shape[1]), dtype=q_data.dtype)
    blocks = []  # (query rows, key rows, softmax weights) per segment
    for s in range(len(qb) - 1):
        rows, keys = slice(qb[s], qb[s + 1]), slice(kb[s], kb[s + 1])
        if qb[s] == qb[s + 1] or kb[s] == kb[s + 1]:
            continue
        # a contiguous k^T, as the transpose op made, keeps the scores bit-identical
        scores = (q_data[rows] @ k_data[keys].T.copy()) * scale
        if firsts is not None:
            n_q, n_k = qb[s + 1] - qb[s], kb[s + 1] - kb[s]
            scores[np.arange(n_k) > firsts[s] + np.arange(n_q)[:, None]] = -np.inf
        e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
        y = e / np.sum(e, axis=-1, keepdims=True)
        out_data[rows] = y @ v_data[keys]
        blocks.append((rows, keys, y))

    def backward(g):
        gq = np.zeros_like(q_data) if q.requires_grad else None
        gk = np.zeros_like(k_data) if k.requires_grad else None
        gv = np.zeros_like(v_data) if v.requires_grad else None
        for rows, keys, y in blocks:
            g_rows = g[rows]
            if gv is not None:
                gv[keys] = y.T @ g_rows
            if gq is not None or gk is not None:
                gy = g_rows @ v_data[keys].T
                gs = (y * (gy - np.sum(gy * y, axis=-1, keepdims=True))) * scale
                if gq is not None:
                    gq[rows] = gs @ k_data[keys]
                if gk is not None:
                    gk[keys] = gs.T @ q_data[rows]
        for tensor, grad in ((v, gv), (q, gq), (k, gk)):
            if grad is not None:
                tensor._accumulate(grad)

    return Tensor._from_op(out_data, (q, k, v), backward, op)


def segment_mean(x: Tensor, bounds: Sequence[int]) -> Tensor:
    """The mean over segments of each segment's mean, as a scalar: the loss
    of packed samples that weighs every sample alike, however many rows it
    has. ``x`` is a vector; segment i is ``x[bounds[i]:bounds[i+1]]`` and may
    not be empty. One segment gives ``x.mean()`` bit for bit."""
    if x.ndim != 1:
        raise ShapeError(f"segment_mean expects a vector, got shape {x.shape}")
    b = _check_bounds(bounds, x.shape[0], "segment_mean")
    counts = np.array(_lengths(b))
    if np.any(counts == 0):
        raise ShapeError(f"segment_mean segments must not be empty, got bounds {list(b)}")
    out_data = np.mean(np.array([x.data[b0:b1].mean() for b0, b1 in zip(b[:-1], b[1:])]))

    def backward(g):
        x._accumulate(np.repeat((g / counts.size) / counts, counts))

    return Tensor._from_op(out_data, (x,), backward, "segment_mean")


def one_hot(indices: Iterable[int], depth: int) -> Tensor:
    """Constant one-hot rows; the in-vocabulary route to embedding lookups."""
    idx = np.asarray(list(indices), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= depth):
        raise ValueError(f"one_hot indices out of range [0, {depth})")
    rows = np.zeros((idx.size, depth), dtype=np.float64)
    if idx.size:
        rows[np.arange(idx.size), idx] = 1.0
    return Tensor(rows)

