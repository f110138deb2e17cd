import weakref

import numpy as np
import pytest

import cartmech.autodiff as ad
from cartmech.autodiff import (
    ParamStore,
    Tape,
    finite_difference_check,
    grad,
    mlp_apply,
    mlp_init,
)
from cartmech.dataset import load_checkpoint, save_checkpoint
from cartmech.dynamics import constrained_hamiltonian_field, constrained_lagrangian_field
from cartmech.errors import FormatError, ShapeError
from cartmech.systems import build_system
from reference_fields import input_gradient


def test_elementwise_chain():
    tape = Tape()
    x = tape.constant(np.array([0.3, -0.7, 1.2]))
    y = ad.reduce_sum(ad.tanh(x) * ad.exp(x) + x * x)
    (gx,) = grad(y, [x])
    v = x.value
    expected = (1 - np.tanh(v) ** 2) * np.exp(v) + np.tanh(v) * np.exp(v) + 2 * v
    np.testing.assert_allclose(gx.value, expected, atol=1e-12)


def test_grad_matches_fd_on_messy_scalar():
    rng = np.random.default_rng(20)
    A = rng.normal(size=(4, 4))

    def f(x):
        tape = Tape()
        xn = tape.constant(x)
        return float(_messy(tape, xn, A).value)

    def g(x):
        tape = Tape()
        xn = tape.constant(x)
        return grad(_messy(tape, xn, A), [xn])[0].value

    err = finite_difference_check(f, g, rng.uniform(0.5, 1.5, size=4))
    assert err < 1e-7


def _messy(tape, xn, A):
    xm = ad.reshape(xn, (1, 4))
    q = ad.matmul(ad.matmul(xm, A), ad.transpose(xm))
    s = ad.reduce_sum(ad.sin(xn) * ad.cos(xn)) + ad.reduce_sum(xn * xn)
    r = ad.reduce_sum(ad.div(1.0, xn * xn + 1.0)) + ad.reduce_sum(ad.absolute(ad.sub(xn, 1.0)))
    return ad.reduce_sum(q) + s + r


def test_unused_input_gets_zero():
    tape = Tape()
    x = tape.constant(np.array([1.0, 2.0]))
    z = tape.constant(np.array([3.0]))
    y = ad.reduce_sum(x * x)
    gx, gz = grad(y, [x, z])
    np.testing.assert_array_equal(gz.value, [0.0])
    np.testing.assert_allclose(gx.value, [2.0, 4.0])


def test_grad_requires_scalar():
    tape = Tape()
    x = tape.constant(np.array([1.0, 2.0]))
    with pytest.raises(ShapeError):
        grad(x * x, [x])


def test_bias_add_broadcast_backward():
    tape = Tape()
    W = tape.constant(np.ones((2, 4)))
    b = tape.constant(np.zeros(4))
    x = tape.constant(np.arange(6.0).reshape(3, 2))
    y = ad.reduce_sum(ad.matmul(x, W) + b)
    gW, gb = grad(y, [W, b])
    np.testing.assert_allclose(gb.value, [3.0, 3.0, 3.0, 3.0])
    np.testing.assert_allclose(gW.value, np.tile(x.value.sum(0)[:, None], (1, 4)))


def _spd_stack(rng, batch, k):
    R = rng.normal(size=(batch, k, k))
    return R @ R.swapaxes(-1, -2) + k * np.eye(k)


def _spd_solve_loss(theta, A0, S, b_shape):
    """sum(x * x) + sum(x) for A x = B, with A = A0 + theta[0] S and B = theta[1:]."""
    tape = Tape()
    th = tape.constant(theta)
    t = ad.reshape(ad.narrow(th, 0, 0, 1), (1, 1, 1))
    A = ad.add(A0, ad.mul(t, S))
    B = ad.reshape(ad.narrow(th, 0, 1, theta.size - 1), b_shape)
    x = ad.spd_solve(A, B)
    return th, ad.add(ad.reduce_sum(x * x), ad.reduce_sum(x))


def test_batched_matmul_and_solve_backward():
    # first and second order through spd_solve of a stack of SPD matrices,
    # against central differences in the matrix (a symmetric direction S)
    # and in every right-hand side entry
    rng = np.random.default_rng(21)
    A0 = _spd_stack(rng, 5, 3)
    S = _spd_stack(rng, 5, 3) / 10.0
    b_shape = (5, 3, 2)
    theta0 = np.concatenate([[0.3], rng.normal(size=30)])
    w = rng.normal(size=theta0.size)

    def f(theta):
        return float(_spd_solve_loss(theta, A0, S, b_shape)[1].value)

    def g(theta):
        th, y = _spd_solve_loss(theta, A0, S, b_shape)
        return grad(y, [th])[0].value

    def gw(theta):
        return float(g(theta) @ w)

    def hw(theta):
        th, y = _spd_solve_loss(theta, A0, S, b_shape)
        (g1,) = grad(y, [th])
        return grad(ad.reduce_sum(ad.mul(g1, w)), [th])[0].value

    assert finite_difference_check(f, g, theta0) < 1e-6
    assert finite_difference_check(gw, hw, theta0) < 1e-6
    # the matrix broadcast over the stack: its adjoint sums the stack away
    tape = Tape()
    K = tape.constant(A0[0])
    x = ad.spd_solve(K, tape.constant(rng.normal(size=b_shape)))
    (gK,) = grad(ad.reduce_sum(x * x), [K])
    assert gK.value.shape == (3, 3)


def test_spd_solve_checks_its_pivots_once_per_forward_solve(monkeypatch):
    # the backward pass solves with the K the forward pass checked, at first
    # and second order, so it does not check again
    checked = []
    original = ad.check_pivots
    monkeypatch.setattr(ad, "check_pivots", lambda K: checked.append(K) or original(K))
    rng = np.random.default_rng(22)
    tape = Tape()
    K = tape.constant(_spd_stack(rng, 4, 3))
    B = tape.constant(rng.normal(size=(4, 3, 2)))
    x = ad.spd_solve(K, B)
    assert len(checked) == 1 and checked[0] is K.value
    gK, gB = grad(ad.reduce_sum(x * x), [K, B])
    grad(ad.reduce_sum(gK * gK) + ad.reduce_sum(gB * gB), [K, B])
    assert [n.op for n in tape.nodes].count("spd_solve") > 3
    assert len(checked) == 1
    ad.spd_solve(K, B)
    assert len(checked) == 2


def test_concat_narrow_backward():
    tape = Tape()
    a = tape.constant(np.array([1.0, 2.0]))
    b = tape.constant(np.array([3.0, 4.0, 5.0]))
    joined = ad.concat([a, b])
    middle = ad.narrow(joined, 0, 1, 3)
    y = ad.reduce_sum(middle * middle)
    ga, gb = grad(y, [a, b])
    np.testing.assert_allclose(ga.value, [0.0, 4.0])
    np.testing.assert_allclose(gb.value, [6.0, 8.0, 0.0])


def test_second_order_through_gradient():
    # y = sum(tanh(x)); d2y/dx2 = -2 tanh(x) (1 - tanh(x)^2)
    tape = Tape()
    x = tape.constant(np.array([0.4, -0.9]))
    y = ad.reduce_sum(ad.tanh(x))
    (g1,) = grad(y, [x])
    (g2,) = grad(ad.reduce_sum(g1), [x])
    t = np.tanh(x.value)
    np.testing.assert_allclose(g2.value, -2 * t * (1 - t * t), atol=1e-12)


def test_second_order_hessian_vs_fd():
    rng = np.random.default_rng(22)

    def hess_diag(x):
        tape = Tape()
        xn = tape.constant(x)
        y = ad.reduce_sum(ad.exp(ad.sin(xn)) * xn)
        (g1,) = grad(y, [xn])
        rows = []
        for i in range(x.size):
            gi = ad.narrow(g1, 0, i, 1)
            rows.append(grad(ad.reduce_sum(gi), [xn])[0].value)
        return np.stack(rows)

    def grad_val(x):
        tape = Tape()
        xn = tape.constant(x)
        y = ad.reduce_sum(ad.exp(ad.sin(xn)) * xn)
        return grad(y, [xn])[0].value

    x0 = rng.normal(size=3)
    assert finite_difference_check(grad_val, hess_diag, x0, h=1e-5) < 1e-6


def test_input_gradient_of_mlp_and_second_order():
    rng = np.random.default_rng(23)
    params_np = mlp_init(rng, 3, (8, 8), 1)
    store = ParamStore(params_np)
    X0 = rng.normal(size=(4, 3))

    def v(x):
        tape = Tape()
        leaves = store.leaves(tape)
        return float(ad.reduce_sum(mlp_apply(leaves, tape.constant(x.reshape(4, 3)))).value)

    def dv(x):
        tape = Tape()
        leaves = store.leaves(tape)
        xn = tape.constant(x.reshape(4, 3))
        return input_gradient(lambda q: mlp_apply(leaves, q), xn).value.reshape(-1)

    assert finite_difference_check(v, dv, X0.reshape(-1)) < 1e-6

    # Parameter gradient of a loss built on the input gradient (second order).
    def loss(w0flat):
        tape = Tape()
        leaves = store.leaves(tape)
        leaves["mlp.w0"] = tape.constant(w0flat.reshape(store["mlp.w0"].shape))
        xn = tape.constant(X0)
        gX = input_gradient(lambda q: mlp_apply(leaves, q), xn)
        return float(ad.reduce_sum(gX * gX).value)

    def dloss(w0flat):
        tape = Tape()
        leaves = store.leaves(tape)
        w0 = tape.constant(w0flat.reshape(store["mlp.w0"].shape))
        leaves["mlp.w0"] = w0
        xn = tape.constant(X0)
        gX = input_gradient(lambda q: mlp_apply(leaves, q), xn)
        return grad(ad.reduce_sum(gX * gX), [w0])[0].value.reshape(-1)

    assert finite_difference_check(loss, dloss, store["mlp.w0"].reshape(-1).copy(), h=1e-5) < 1e-5


def test_mlp_init_shapes_and_glorot_bound():
    rng = np.random.default_rng(24)
    params = mlp_init(rng, 4, (256, 256, 256), 1)
    assert params["mlp.w0"].shape == (4, 256)
    assert params["mlp.w3"].shape == (256, 1)
    assert np.all(params["mlp.b2"] == 0)
    bound = np.sqrt(6.0 / (256 + 256))
    assert np.abs(params["mlp.w1"]).max() <= bound


def test_backward_visits_each_node_once():
    # Diamond graph: y = (x*x) + (x*x reused); adjoint of the shared node
    # must be accumulated, not recomputed.
    tape = Tape()
    x = tape.constant(np.array(2.0))
    sq = x * x
    y = sq + sq
    (gx,) = grad(y, [x])
    assert gx.value == pytest.approx(8.0)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(25)
    store = ParamStore({"a.w": rng.normal(size=(3, 2)), "b": rng.normal(size=5),
                        "scalar": np.array(1.5)})
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    loaded = load_checkpoint(path)
    assert loaded.names() == store.names()
    for name in store.names():
        assert loaded[name].shape == store[name].shape  # a 0-d value stays 0-d
        np.testing.assert_array_equal(loaded[name], store[name])
    # Byte-identical on re-save.
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    assert path.read_bytes()[:4] == b"CMK1"


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_truncated_anywhere_is_a_format_error(tmp_path):
    rng = np.random.default_rng(26)
    store = ParamStore({"a.w": rng.normal(size=(3, 2)), "b": rng.normal(size=5),
                        "scalar": np.array(1.5)})
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(FormatError):
            load_checkpoint(cut)
    cut.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError):
        load_checkpoint(cut)


def test_grad_wrt_interior_node_is_retained():
    # asking for the adjoint of a non-leaf node must not lose it while the
    # sweep still propagates through it to earlier leaves
    tape = Tape()
    x = tape.constant(np.array([3.0]))
    y = ad.mul(x, 2.0)
    out = ad.reduce_sum(ad.mul(y, y))
    gx, gy = grad(out, [x, y])
    assert gx.value == pytest.approx(24.0)  # d(4x^2)/dx
    assert gy.value == pytest.approx(12.0)  # d(y^2)/dy


def test_clear_frees_the_graph_of_nodes_still_held():
    # a node held after clear() keeps its value bit for bit and pins nothing
    # else: the mlp node's kept hidden activation, reached only through the
    # graph, is freed at once
    vals = _mlp_problem((8, 8))
    tape = Tape()
    leaves = {name: tape.constant(value) for name, value in vals.items()}
    y = mlp_apply(leaves, leaves["x"])
    out = ad.reduce_sum(ad.mul(y, leaves["G"]))
    (gx,) = grad(out, [leaves["x"]])
    hidden = weakref.ref(y.extra[0])
    held = {node: node.value.copy() for node in (out, gx)}
    tape.clear()
    assert len(tape) == 0
    assert hidden() is None
    for node, value in held.items():
        assert node.value.tobytes() == value.tobytes()


def test_grad_of_a_cleared_tape_raises_value_error():
    tape = Tape()
    x = tape.constant(np.array([1.0, 2.0]))
    out = ad.reduce_sum(ad.mul(x, x))
    tape.clear()
    with pytest.raises(ValueError, match="cleared"):
        grad(out, [x])
    # the tape records again, and out's index now names another node
    ad.reduce_sum(ad.mul(tape.constant(np.ones(2)), 3.0))
    with pytest.raises(ValueError, match="cleared"):
        grad(out, [x])


def test_input_gradient_of_sliced_batch():
    tape = Tape()
    z = tape.constant(np.arange(10.0).reshape(5, 2))
    x = ad.narrow(z, 1, 0, 1)
    g = input_gradient(lambda xx: ad.mul(xx, xx), x)
    np.testing.assert_allclose(g.value, 2.0 * z.value[:, :1])


# -- the fused MLP primitive against finite differences and a composed oracle --

def _composed_mlp(params, x, prefix="mlp"):
    """The tanh MLP as generic matmul/add/tanh nodes: the oracle for mlp_apply."""
    n_layers = sum(1 for name in params if name.startswith(f"{prefix}.w"))
    h = x
    for k in range(n_layers):
        h = ad.add(ad.matmul(h, params[f"{prefix}.w{k}"]), params[f"{prefix}.b{k}"])
        if k < n_layers - 1:
            h = ad.tanh(h)
    return h


MLP_DEPTHS = [(), (8,), (8, 8), (8, 8, 8)]


def _every_rule_loss(tape, vals):
    """A scalar through every op with a rule, the MLP's input gradient among
    them; returns it with the leaves ("U" is unused)."""
    leaves = {name: tape.constant(value) for name, value in vals.items()}
    x, b0 = leaves["x"], leaves["mlp.b0"]
    y, pullback = ad.mlp_pullback(leaves, x)
    gx = pullback(leaves["G"])
    K = ad.add(ad.matmul(ad.transpose(y), y), np.eye(4))
    rhs = ad.transpose(ad.narrow(ad.concat([gx, x], axis=1), 1, 1, 4))
    terms = [ad.reduce_sum(ad.absolute(ad.spd_solve(K, rhs))),
             ad.reduce_sum(ad.div(ad.sin(gx), ad.exp(ad.cos(x))), axis=1),
             ad.neg(ad.reduce_sum(ad.tanh(ad.reshape(y, (20,))))),
             ad.reduce_sum(ad.sub(ad.expand(b0, (5, *b0.shape)), 0.5) * 3.0)]
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, ad.reduce_sum(term))
    return total, leaves


def test_first_order_tape_returns_the_graphs_gradients_as_arrays_and_does_not_grow():
    # at every depth; at (8,) the rules rebuild both residuals the MLP's nodes
    # drop, h_1 and the top backward error
    for hidden in MLP_DEPTHS:
        vals = _mlp_problem(hidden)
        graph_tape = Tape()
        out, leaves = _every_rule_loss(graph_tape, vals)
        want = [g.value for g in grad(out, list(leaves.values()))]

        tape = Tape(graph=False)
        out, leaves = _every_rule_loss(tape, vals)
        before = len(tape)
        got = grad(out, list(leaves.values()))
        assert len(tape) == before
        assert all(type(g) is np.ndarray for g in got)
        for name, g, w in zip(leaves, got, want):
            assert _same_bits(g, w), (hidden, name)
        assert not got[list(leaves).index("U")].any()
        tape.clear()
        with pytest.raises(ValueError, match="cleared"):
            grad(out, list(leaves.values()))


def _mlp_problem(hidden):
    """Parameters with nonzero biases, inputs x, an output cotangent G and a
    cotangent U for the input gradient; vector outputs, as HNN2D's Cholesky
    network has."""
    rng = np.random.default_rng(30 + len(hidden))
    vals = mlp_init(rng, 3, hidden, 4)
    for name in vals:
        if ".b" in name:
            vals[name] = 0.3 * rng.normal(size=vals[name].shape)
    vals.update(x=rng.normal(size=(5, 3)), G=rng.normal(size=(5, 4)), U=rng.normal(size=(5, 3)))
    return vals


def _first_order_loss(vals, net=mlp_apply):
    tape = Tape()
    leaves = {name: tape.constant(value) for name, value in vals.items()}
    return ad.reduce_sum(net(leaves, leaves["x"]) * leaves["G"]), leaves


def _second_order_loss(vals, net=mlp_apply):
    """sum(U * d/dx sum(G * mlp(x))): the cotangent G reaches the MLP as a node."""
    out, leaves = _first_order_loss(vals, net)
    (gx,) = grad(out, [leaves["x"]])
    return ad.reduce_sum(gx * leaves["U"]), leaves


def _check_adjoints(vals, loss_fn, names, tol):
    for name in names:
        def f(v, name=name):
            return float(loss_fn(dict(vals, **{name: v.reshape(vals[name].shape)}))[0].value)

        def g(v, name=name):
            out, leaves = loss_fn(dict(vals, **{name: v.reshape(vals[name].shape)}))
            return grad(out, [leaves[name]])[0].value

        assert finite_difference_check(f, g, vals[name]) < tol, name


@pytest.mark.parametrize("hidden", MLP_DEPTHS)
def test_mlp_apply_is_one_node_equal_to_the_composed_network(hidden):
    vals = _mlp_problem(hidden)
    tape = Tape()
    leaves = {name: tape.constant(value) for name, value in vals.items()}
    start = len(tape)
    y = mlp_apply(leaves, leaves["x"])
    assert len(tape) == start + 1 and y.op == "mlp"
    reference = _composed_mlp(leaves, leaves["x"]).value
    assert np.max(np.abs(y.value - reference)) <= 1e-15 * np.max(np.abs(reference))


@pytest.mark.parametrize("hidden", MLP_DEPTHS)
def test_mlp_first_order_adjoints_match_finite_differences(hidden):
    vals = _mlp_problem(hidden)
    names = [name for name in vals if name.startswith("mlp.")]
    _check_adjoints(vals, _first_order_loss, ["x", *names], 1e-6)
    out, leaves = _first_order_loss(vals)
    (gx,) = grad(out, [leaves["x"]])
    assert gx.op == "mlp_vjp"


@pytest.mark.parametrize("hidden", MLP_DEPTHS)
def test_mlp_second_order_adjoints_match_finite_differences(hidden):
    vals = _mlp_problem(hidden)
    names = ["x", "G", *(name for name in vals if name.startswith("mlp."))]
    _check_adjoints(vals, _second_order_loss, names, 1e-6)
    # every adjoint, asked for together, agrees with the composed network's tape
    fused, fused_leaves = _second_order_loss(vals)
    composed, composed_leaves = _second_order_loss(vals, _composed_mlp)
    for name, a, b in zip(names, grad(fused, [fused_leaves[n] for n in names]),
                          grad(composed, [composed_leaves[n] for n in names])):
        np.testing.assert_allclose(a.value, b.value, rtol=1e-12, atol=1e-14, err_msg=name)


def _pullback_loss(vals):
    """sum(U * pullback(G)) through mlp_pullback: the cotangent G is a node."""
    tape = Tape()
    leaves = {name: tape.constant(value) for name, value in vals.items()}
    _, pullback = ad.mlp_pullback(leaves, leaves["x"])
    return ad.reduce_sum(pullback(leaves["G"]) * leaves["U"]), leaves


@pytest.mark.parametrize("hidden", MLP_DEPTHS)
def test_mlp_pullback_matches_finite_differences_to_second_order(hidden):
    vals = _mlp_problem(hidden)
    params = {name: value for name, value in vals.items() if name.startswith("mlp.")}
    # on arrays: the x-adjoint of sum(G * mlp(x)) for a cotangent G that is not all ones
    def first(x):
        return float(np.sum(vals["G"] * mlp_apply(params, x.reshape(vals["x"].shape))))

    def first_grad(x):
        return ad.mlp_pullback(params, x.reshape(vals["x"].shape))[1](vals["G"])

    assert finite_difference_check(first, first_grad, vals["x"]) < 1e-6
    # on nodes: the array's bits, grad()'s loss, and second order in the
    # cotangent, in x and in every parameter
    loss, leaves = _pullback_loss(vals)
    (gx,) = [node for node in leaves["x"].tape.nodes if node.op == "mlp_vjp"]
    assert _same_bits(gx.value, first_grad(vals["x"]))
    assert _same_bits(loss.value, _second_order_loss(vals)[0].value)
    _check_adjoints(vals, _pullback_loss, ["G", "x", *params], 1e-6)


def test_mlp_third_order_raises_instead_of_returning_zeros():
    rng = np.random.default_rng(27)
    store = ParamStore(mlp_init(rng, 3, (8,), 1))
    tape = Tape()
    leaves = store.leaves(tape)
    x = tape.constant(rng.normal(size=(4, 3)))

    def dv(q):
        return input_gradient(lambda r: mlp_apply(leaves, r), q)

    def d2v(q):
        return input_gradient(lambda r: dv(r) * dv(r), q)

    assert np.all(np.isfinite(d2v(x).value))
    with pytest.raises(NotImplementedError, match="mlp_second_order"):
        input_gradient(lambda r: d2v(r) * d2v(r), x)
    (gw,) = grad(ad.reduce_sum(mlp_apply(leaves, x)), [leaves["mlp.w0"]])
    with pytest.raises(NotImplementedError, match="mlp_param_adjoint"):
        grad(ad.reduce_sum(gw * gw), [leaves["mlp.w0"]])


def test_spd_solve_raises_on_degenerate_input_with_the_ratio():
    from cartmech.errors import DegenerateConfigurationError

    good = np.eye(2)
    thin = np.diag([1.0, 1e-14])        # pivot ratio 1e-14
    singular = np.ones((2, 2))           # positive semidefinite, rank 1
    rhs = np.ones((2, 1))
    for K, ratio in ((thin, 1e-14), (singular, None), (np.stack([good, thin]), 1e-14)):
        for make in (lambda a: a, lambda a: Tape().constant(a)):
            with pytest.raises(DegenerateConfigurationError) as info:
                ad.spd_solve(make(K), np.broadcast_to(rhs, K.shape[:-1] + (1,)))
            if ratio is None:
                assert info.value.ratio < ad.PIVOT_RATIO_LIMIT
            else:
                assert info.value.ratio == pytest.approx(ratio)
            assert "pivot ratio" in str(info.value)
    with pytest.raises(DegenerateConfigurationError) as info:
        ad.spd_solve(np.full((2, 2), np.nan), rhs)
    assert np.isnan(info.value.ratio)
    # above the limit (ratio 2.5e-10) the solve goes through
    np.testing.assert_allclose(ad.spd_solve(np.diag([4.0, 1e-9]), rhs)[:, 0], [0.25, 1e9], rtol=1e-15)


def test_check_pivots_tells_a_non_finite_system_from_a_degenerate_one():
    from cartmech.errors import DegenerateConfigurationError, NonFiniteStateError

    for bad in (np.nan, np.inf):
        K = np.stack([np.eye(2), np.eye(2)])
        K[1, 0, 1] = K[1, 1, 0] = bad
        with pytest.raises(NonFiniteStateError, match="not finite") as info:
            ad.check_pivots(K)
        # still the singular-system error, for callers that catch that
        assert isinstance(info.value, DegenerateConfigurationError)
        assert np.isnan(info.value.ratio) and "pivot ratio" not in str(info.value)
    with pytest.raises(DegenerateConfigurationError) as info:
        ad.check_pivots(np.ones((2, 2)))
    assert not isinstance(info.value, NonFiniteStateError)


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def test_ops_on_plain_arrays_return_numpy_results_and_record_nothing(monkeypatch):
    rng = np.random.default_rng(27)
    a, c, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    L = rng.normal(size=(2, 3, 3))
    K, B = L @ L.mT + 3.0 * np.eye(3), rng.normal(size=(2, 3, 2))
    # (function form, operator form or None, numpy expression, operands)
    binary = [
        (ad.matmul, lambda x, y: x @ y, np.matmul, (a, b)),
        (ad.add, lambda x, y: x + y, np.add, (a, c)),
        (ad.sub, None, np.subtract, (a, c)),
        (ad.mul, lambda x, y: x * y, np.multiply, (a, c)),
        (ad.div, None, np.divide, (a, c)),
        (lambda x, y: ad.concat([x, y], axis=-1), None,
         lambda x, y: np.concatenate([x, y], axis=-1), (a, c)),
        (ad.spd_solve, None, np.linalg.solve, (K, B)),
    ]
    unary = [
        (ad.neg, None, np.negative),
        (ad.transpose, None, lambda x: x.swapaxes(-1, -2)),
        (lambda x: ad.reshape(x, (4, 3)), lambda x: x.reshape((4, 3)), lambda x: x.reshape(4, 3)),
        (lambda x: ad.narrow(x, -1, 1, 2), None, lambda x: x[..., 1:3]),
        (lambda x: ad.reduce_sum(x, 1), None, lambda x: x.sum(axis=1)),
        (ad.tanh, None, np.tanh),
        (ad.sin, None, np.sin),
        (ad.cos, None, np.cos),
    ]
    cases = binary + [(f, op, expected, (a,)) for f, op, expected in unary]

    tapes = []

    class CountingTape(Tape):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            tapes.append(1)

    monkeypatch.setattr(ad, "Tape", CountingTape)
    for f, op, expected, args in cases:
        want = expected(*args)
        for form in (f, op) if op is not None else (f,):
            plain = form(*args)
            assert isinstance(plain, np.ndarray)
            assert _same_bits(plain, want)
    assert not tapes
    monkeypatch.undo()

    # a node with an array, in both orders: the operator records what the
    # function form records (array @ node reaches the node, not numpy), as
    # one node whose array operand stays an array among its parents
    for f, op, expected, args in cases:
        for at in range(len(args)):
            tape = Tape()
            mixed = list(args)
            mixed[at] = tape.constant(args[at])
            for form in (f, op) if op is not None else (f,):
                before = len(tape)
                out = form(*mixed)
                assert len(tape) - before == 1
                assert isinstance(out, ad.Node)
                assert out.op == f(*mixed).op
                assert out.parents[at] is mixed[at]
                assert all(parent is arg for i, (parent, arg) in enumerate(zip(out.parents, args))
                           if i != at)
                assert _same_bits(out.value, expected(*args))

    # the fused MLP and its pullback at every depth: plain numpy without a
    # tape on arrays, the same bits as the `mlp` and `mlp_vjp` nodes
    g = rng.normal(size=(3, 1))
    for hidden in MLP_DEPTHS:
        params = mlp_init(rng, 4, hidden, 1)
        monkeypatch.setattr(ad, "Tape", CountingTape)
        plain, pullback = ad.mlp_pullback(params, a)
        gx = pullback(g)
        assert isinstance(plain, np.ndarray) and isinstance(gx, np.ndarray)
        assert not tapes
        monkeypatch.undo()
        tape = Tape()
        leaves = {k: tape.constant(v) for k, v in params.items()}
        node, node_pullback = ad.mlp_pullback(leaves, tape.constant(a))
        assert _same_bits(plain, node.value) and _same_bits(plain, mlp_apply(params, a))
        gx_node = node_pullback(g)
        assert gx_node.op == "mlp_vjp" and gx_node.parents[1:] == node.parents
        assert gx_node.parents[0] is g
        assert _same_bits(gx, gx_node.value), hidden

    # fused ops: the two-pendulum's constrained fields on arrays open no tape
    # and give the bits of the one fused node they record on the tape
    system = build_system("npendulum", n=2)
    ctx, cs = system.context(), system.topology.constraint_set
    Z = system.sample(np.random.default_rng(29), 3)
    dn = Z.shape[-1] // 2
    x, v = Z[:, :dn], Z[:, dn:]
    operands = (ctx.mass.inverse.T, ctx.grad_potential(x), v, cs.dphi(x), cs.dphidot_x(v))
    fields = {"hamiltonian_field": constrained_hamiltonian_field,
              "lagrangian_field": lambda *args: constrained_lagrangian_field(*args)[0]}
    for op, field in fields.items():
        monkeypatch.setattr(ad, "Tape", CountingTape)
        plain = field(*operands)
        assert isinstance(plain, np.ndarray)
        assert not tapes
        monkeypatch.undo()
        tape = Tape()
        node = field(tape.constant(operands[0]), *operands[1:])
        assert node.op == op and len(tape) == 2
        assert _same_bits(plain, node.value), op


def test_gradients_through_narrow_of_concat_match_finite_differences():
    # a learned potential's input gradient at x = narrow(concat(x0, u)), with
    # x0 an array operand of the concat, differentiated twice
    rng = np.random.default_rng(28)
    params = mlp_init(rng, 3, (6,), 1)
    x0, u0, c = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

    def build(u, leaves_np, wrt_joined=False):
        tape = Tape()
        leaves = {k: tape.constant(v) for k, v in leaves_np.items()}
        un = tape.constant(u)
        joined = ad.concat([x0, un], axis=1)
        x = ad.narrow(joined, 1, 0, 3)
        gx = input_gradient(lambda xx: mlp_apply(leaves, xx), x)
        loss = ad.reduce_sum(ad.mul(ad.mul(gx, ad.narrow(joined, 1, 3, 3)), c))
        wrt = [joined] if wrt_joined else [un] + [leaves[k] for k in leaves_np]
        return tape, loss, grad(loss, wrt)

    tape, loss, grads = build(u0, params)
    assert [n.op for n in tape.nodes].count("mlp_vjp") == 1

    def f(u):
        return float(build(u.reshape(4, 3), params)[1].value)

    assert finite_difference_check(f, lambda u: build(u.reshape(4, 3), params)[2][0].value.ravel(),
                                   u0.ravel()) < 1e-6
    for i, name in enumerate(params):
        def fp(w, name=name):
            trial = dict(params)
            trial[name] = w.reshape(params[name].shape)
            return float(build(u0, trial)[1].value)

        assert finite_difference_check(fp, lambda w, i=i: grads[1 + i].value.ravel(),
                                       params[name].ravel()) < 1e-6

    # requested itself, the concat gets the adjoint of both blocks
    tape, loss, (gj,) = build(u0, params, wrt_joined=True)
    assert "mlp_second_order" in [n.op for n in tape.nodes]

    def fj(z):
        z = z.reshape(4, 6)
        t2 = Tape()
        leaves = {k: t2.constant(v) for k, v in params.items()}
        zn = t2.constant(z)
        gx = input_gradient(lambda xx: mlp_apply(leaves, xx), ad.narrow(zn, 1, 0, 3))
        return float(ad.reduce_sum(ad.mul(ad.mul(gx, ad.narrow(zn, 1, 3, 3)), c)).value)

    assert finite_difference_check(fj, lambda z: gj.value.ravel(),
                                   np.concatenate([x0, u0], axis=1).ravel()) < 1e-6
