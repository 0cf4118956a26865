"""Tensor core: op values, reverse-mode gradients vs finite differences,
tape structure, strict shape rules, determinism."""

import numpy as np
import pytest

from visionflow import rng
from visionflow.tensor import (
    GraphError,
    ShapeError,
    Tensor,
    affine,
    causal_attention,
    concat,
    conv1d,
    gelu,
    one_hot,
)
from visionflow.verify import (
    FD_TOLERANCE,
    composed_affine,
    composed_causal_attention,
    composed_gelu,
    fd_check,
    naive_conv1d,
    naive_matmul,
    relative_error,
)


def test_add_values():
    out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_sigmoid_at_zero():
    assert Tensor(0.0).sigmoid().item() == 0.5


def test_mul_gradient_matches_central_difference():
    a = Tensor([2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    (a * b).sum().backward()
    np.testing.assert_array_equal(a.grad, [3.0])
    np.testing.assert_array_equal(b.grad, [2.0])
    # central difference on the same product
    h = 1e-6
    fd = ((2.0 + h) * 3.0 - (2.0 - h) * 3.0) / (2 * h)
    assert abs(a.grad[0] - fd) / abs(fd) < 1e-6


def test_matmul_identity():
    x = Tensor([[1.5, -2.0], [0.25, 7.0]])
    out = Tensor(np.eye(2)) @ x
    np.testing.assert_array_equal(out.data, x.data)


def test_matmul_hand_value():
    out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_against_naive_loop():
    gen = rng.stream(0, "test.matmul")
    a = gen.normal(size=(4, 5))
    b = gen.normal(size=(5, 3))
    out = Tensor(a) @ Tensor(b)
    # BLAS and the naive loop sum in different orders; agreement is to the ulp
    np.testing.assert_allclose(out.data, naive_matmul(a, b), rtol=0, atol=1e-12)


def test_matmul_dim_mismatch():
    with pytest.raises(ShapeError, match=r"\(2, 3\) @ \(2, 3\)"):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_elementwise_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\) and \(3,\)"):
        Tensor(np.ones((2, 3))) + Tensor(np.ones(3))


def test_scalar_broadcast_is_allowed():
    out = Tensor([1.0, 2.0]) * 2.0
    np.testing.assert_array_equal(out.data, [2.0, 4.0])
    x = Tensor([1.0, 2.0], requires_grad=True)
    s = Tensor(3.0, requires_grad=True)
    (x * s).sum().backward()
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])
    assert s.grad == pytest.approx(3.0)  # sum-reduced onto the scalar


def test_conv1d_identity_kernel():
    x = Tensor(rng.stream(0, "test.conv.id").normal(size=(5, 3)))
    w = Tensor(np.eye(3).reshape(3, 3, 1))
    out = conv1d(x, w, Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv1d_constant_input_all_ones_kernel():
    const, c_in, n = 0.5, 4, 6
    bias_val = 0.25
    x = Tensor(np.full((n, c_in), const))
    w = Tensor(np.ones((2, c_in, 3)))
    out = conv1d(x, w, Tensor(np.full(2, bias_val)))
    interior = 3 * c_in * const + bias_val
    ends = 2 * c_in * const + bias_val  # zero padding drops one tap
    np.testing.assert_allclose(out.data[1:-1], interior)
    np.testing.assert_allclose(out.data[0], ends)
    np.testing.assert_allclose(out.data[-1], ends)


def test_conv1d_against_naive_loop():
    gen = rng.stream(0, "test.conv.rand")
    x = gen.normal(size=(7, 3))
    w = gen.normal(size=(4, 3, 3))
    b = gen.normal(size=4)
    out = conv1d(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, naive_conv1d(x, w, b), atol=1e-12)


def test_conv1d_even_kernel_rejected():
    with pytest.raises(ShapeError, match="odd"):
        conv1d(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2, 2))), Tensor(np.zeros(2)))


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 4.0, -2.0], requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError, match="scalar"):
        (x * 2.0).backward()


def test_backward_requires_tracked_graph():
    with pytest.raises(GraphError, match="requires_grad"):
        Tensor(3.0).backward()


def test_detached_leaves_keep_no_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    frozen = Tensor([3.0, 4.0])  # no requires_grad: stays untouched
    (x * frozen).sum().backward()
    assert frozen.grad is None
    assert x.grad is not None


def test_tape_topological_order_and_single_visit():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 2.0
    z = y + x  # diamond: x feeds both paths
    loss = (z * y).sum()
    order = loss.linearize()
    pos = {id(node): i for i, node in enumerate(order)}
    assert len(pos) == len(order)  # each node appears exactly once
    for node in order:
        for parent in node._parents:
            if parent.requires_grad:
                assert pos[id(parent)] < pos[id(node)]
    loss.backward()
    # d/dx of sum((2x + x) * 2x) = 12x
    np.testing.assert_allclose(x.grad, 12.0 * x.data)


def test_grad_accumulates_across_backward_calls():
    x = Tensor([1.0], requires_grad=True)
    x.sum().backward()
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0])


def test_softmax_rows_sum_to_one_and_grad():
    gen = rng.stream(1, "test.softmax")
    x = Tensor(gen.normal(size=(3, 5)), requires_grad=True)
    y = x.softmax(axis=-1)
    np.testing.assert_allclose(y.data.sum(axis=1), 1.0)
    weights = Tensor(gen.normal(size=(3, 5)))
    errors = fd_check(lambda: (x.softmax(axis=-1) * weights).sum(), [("x", x)], gen)
    assert errors["x"] < 1e-4


def test_log_softmax_stays_finite_under_extreme_logits():
    x = Tensor(np.array([[0.0, -800.0, 900.0]]))
    out = x.log_softmax(axis=-1)
    assert np.all(np.isfinite(out.data))
    # the naive composition underflows here
    with np.errstate(divide="ignore"):
        composed = np.log(x.softmax(axis=-1).data)
    assert not np.all(np.isfinite(composed))


def test_log_softmax_matches_composition_in_safe_range():
    gen = rng.stream(2, "test.logsoftmax")
    x = Tensor(gen.normal(size=(4, 6)))
    np.testing.assert_allclose(x.log_softmax(axis=-1).data,
                               np.log(x.softmax(axis=-1).data), atol=1e-12)


@pytest.mark.parametrize("instance", range(5))
def test_per_op_gradients_match_finite_differences(instance):
    from visionflow.verify import _op_gradient_cases

    gen = rng.stream(instance, "test.ops.fd")
    for name, loss_fn, params in _op_gradient_cases(gen):
        errors = fd_check(loss_fn, params, gen)
        worst = max(errors.values())
        assert worst < 1e-4, f"{name}: max rel err {worst}"


def test_concat_and_narrow_roundtrip():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.arange(6.0, 14.0).reshape(2, 4), requires_grad=True)
    joined = concat([a, b], axis=1)
    assert joined.shape == (2, 7)
    back = joined.narrow(1, 0, 3)
    np.testing.assert_array_equal(back.data, a.data)
    back.sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    assert b.grad is None or not b.grad.any()


def test_concat_shape_mismatch():
    with pytest.raises(ShapeError, match="concat"):
        concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)


def test_affine_bias_gradient_is_column_sum():
    x = Tensor(np.ones((4, 2)))
    w = Tensor(np.ones((2, 3)))
    b = Tensor(np.zeros(3), requires_grad=True)
    affine(x, w, b).sum().backward()
    np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])


def _fused_and_composed(op, gen, t_len=5, ell=3, first=2):
    """(fused, composed, leaves) for one fused op on seeded inputs."""
    def leaf(*shape):
        return Tensor(gen.normal(size=shape), requires_grad=True)

    if op == "affine":
        leaves = [leaf(4, 3), leaf(3, 5), leaf(5)]
        return affine, composed_affine, leaves
    if op == "gelu":
        return gelu, composed_gelu, [leaf(4, 3)]
    leaves = [leaf(ell, 4), leaf(t_len, 4), leaf(t_len, 2)]
    return (lambda *a: causal_attention(*a, [first]),
            lambda *a: composed_causal_attention(*a, first), leaves)


@pytest.mark.parametrize("op, t_len, ell, first", [
    ("affine", 0, 0, 0),
    ("gelu", 0, 0, 0),
    ("causal_attention", 1, 1, 0),  # one key
    ("causal_attention", 5, 1, 0),  # L = 1, first = 0
    ("causal_attention", 5, 1, 4),  # L = 1, first = T - L
    ("causal_attention", 5, 3, 0),  # first = 0
    ("causal_attention", 5, 3, 2),  # first = T - L
])
def test_fused_op_equals_composition_and_passes_fd(op, t_len, ell, first):
    gen = rng.stream(t_len * 100 + ell * 10 + first, f"test.fused.{op}")
    fused, composed, leaves = _fused_and_composed(op, gen, t_len, ell, first)
    out = fused(*leaves)
    np.testing.assert_array_equal(out.data, composed(*leaves).data)
    weights = Tensor(gen.normal(size=out.shape))
    grads = []
    for fn in (fused, composed):
        for leaf in leaves:
            leaf.zero_grad()
        (fn(*leaves) * weights).sum().backward()
        grads.append([leaf.grad for leaf in leaves])
    for g_fused, g_composed in zip(*grads):
        assert relative_error(g_fused, g_composed) < FD_TOLERANCE
    named = [(f"in{n}", leaf) for n, leaf in enumerate(leaves)]
    errors = fd_check(lambda: (fused(*leaves) * weights).sum(), named, gen)
    assert max(errors.values()) < FD_TOLERANCE, errors


def test_fused_ops_record_one_tape_node():
    gen = rng.stream(0, "test.fused.nodes")
    for op in ("affine", "gelu", "causal_attention"):
        fused, _, leaves = _fused_and_composed(op, gen)
        order = fused(*leaves).sum().linearize()
        assert [n._op for n in order if not n.is_leaf()] == [op, "sum"]


def test_causal_attention_rejects_rows_past_the_keys():
    q, kv = Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2)))
    with pytest.raises(ShapeError, match="exceed 4 keys"):
        causal_attention(q, kv, kv, [2])


def test_one_hot_bounds():
    with pytest.raises(ValueError, match="out of range"):
        one_hot([0, 7], 4)


def test_deterministic_replay_is_bit_identical():
    def compute():
        gen = rng.stream(7, "test.replay")
        a = Tensor(gen.normal(size=(6, 6)))
        b = Tensor(gen.normal(size=(6, 6)))
        return ((a @ b).tanh().softmax(axis=-1) * a).sum().item()

    assert compute() == compute()


def test_outputs_stay_finite_on_finite_inputs():
    gen = rng.stream(3, "test.finite")
    x = Tensor(gen.normal(scale=30.0, size=(50,)))
    for out in (x.sigmoid(), x.tanh(), x.softmax(axis=-1)):
        assert np.all(np.isfinite(out.data))
