"""Reverse-mode automatic differentiation on an explicit tape.

Nodes hold eagerly computed numpy values.  An operation with a node among its
operands appends one node recording its kind and parents; its array operands
stay arrays among those parents, and only a parent that is a node leading to
a requested input gets an adjoint.  grad() runs a single reverse-topological
sweep and, on a graph tape (the default), emits each primitive's backward
pass as new forward nodes, so gradients are themselves differentiable (second
order comes from calling grad on a graph that already contains a gradient,
e.g. the input gradient of a learned potential).  On a graph=False tape it
runs the same rules on the nodes' values and returns arrays with the graph's
bits, appending nothing (training's backward pass).  The generic ops support
any order.  The fused tanh MLP is one `mlp` node whose derivatives are written
in closed form; mlp_pullback returns its output with a pullback for any output
cotangent, which records the x-adjoint as one `mlp_vjp` node.  Both keep only
what needs a hidden x hidden product to rebuild, the hidden activations but
the first and the backward errors but the top one; their rules rebuild the
rest bit for bit.  The MLP supports exactly second order: its second-order
outputs and parameter adjoints have no backward rule, and grad() raises
NotImplementedError naming such an op.  fused() and define_vjp() let other
modules record a composite function as one node with a closed-form first-order
VJP (the constrained fields of dynamics); its adjoints have no rule either.

Every op also takes plain arrays: with no node among its operands it returns
the numpy result and records nothing, so the same code runs on arrays
(evaluation, ground truth) and on nodes (training).  fused() and the MLP's
pullback are no exception: they run the same forward and backward code on
both, which returns arrays when no operand is a node, so no evaluation opens
a tape.  Node has the operators +, * and @ and the method .reshape(shape),
each recording the op its function form records: the constraint Jacobians,
bodies.apply_on_points and RK4 are written with them, and numpy runs the
same expressions in C on arrays, without a Python call per op.  Node sets
__array_ufunc__ = None, so numpy hands `array @ node` to the node.
Broadcasting works where numpy allows it; backward passes sum the broadcast
axes away.  The one linear solve, spd_solve, is for SPD systems and carries
the package's one degeneracy test (check_pivots, a Cholesky pivot ratio).

Tape.clear() frees the graph even while some of its nodes are still
referenced: each node keeps its value and drops its parents and saved
arrays.  A training step clears its tape when it ends, so it holds one
step's graph, never two.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateConfigurationError, NonFiniteStateError, ShapeError


class Tape:
    """Append-only record of operations for one differentiable computation;
    with graph=False grad() records no backward pass on it (see grad)."""

    __slots__ = ("nodes", "graph")

    def __init__(self, graph: bool = True):
        self.nodes: list[Node] = []
        self.graph = graph

    def _append(self, value, op, parents, extra=None) -> "Node":
        node = Node(self, np.asarray(value, dtype=float), op, parents, extra, len(self.nodes))
        self.nodes.append(node)
        return node

    def constant(self, value) -> "Node":
        """An input node; grad() differentiates with respect to any node."""
        return self._append(value, None, ())

    def clear(self) -> None:
        """Drop every node and free the graph, even while some of its nodes
        are still referenced: each keeps its value and loses its parents and
        saved arrays, so it pins nothing but its own value, and grad() of it
        raises ValueError.  Nodes refer back to their tape, so a tape nobody
        clears is freed only by a full garbage collection."""
        for node in self.nodes:
            node.parents = ()
            node.extra = None
        self.nodes.clear()

    def __len__(self):
        return len(self.nodes)


class Node:
    """One recorded value; its operators record ops (see the module docstring)."""

    __slots__ = ("tape", "value", "op", "parents", "extra", "idx")
    __array_ufunc__ = None

    def __init__(self, tape, value, op, parents, extra, idx):
        self.tape = tape
        self.value = value
        self.op = op
        self.parents = parents
        self.extra = extra
        self.idx = idx

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node#{self.idx}({self.op or 'leaf'}, shape={self.value.shape})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def reshape(self, shape):
        return reshape(self, shape)


def _value(a):
    return a.value if isinstance(a, Node) else a


def _record(op, fn, operands, extra=None):
    """fn of the operands' values as an `op` node of their tape, with the
    operands as its parents (arrays stay arrays), or the plain result when
    none is a node."""
    for a in operands:
        if isinstance(a, Node):
            return a.tape._append(fn(*[_value(b) for b in operands]), op, tuple(operands), extra)
    return fn(*operands)


def fused(op, forward, operands):
    """A composite function as one node: forward(*values) -> (value, saved).
    With a node among the operands, value becomes one `op` node of their tape
    (arrays among its parents stay arrays) that keeps saved for op's rule (see
    define_vjp); otherwise it stays the plain value.  Returns (value, saved).
    """
    value, saved = forward(*[_value(a) for a in operands])
    return _record(op, lambda *_: value, operands, saved), saved


# -- primitives ---------------------------------------------------------------

def _primitive(op, fn):
    def primitive(*operands):
        return _record(op, fn, operands)
    primitive.__name__ = primitive.__qualname__ = op
    return primitive


add = _primitive("add", np.add)
sub = _primitive("sub", np.subtract)
mul = _primitive("mul", np.multiply)
div = _primitive("div", np.divide)
neg = _primitive("neg", np.negative)
tanh = _primitive("tanh", np.tanh)
exp = _primitive("exp", np.exp)
sin = _primitive("sin", np.sin)
cos = _primitive("cos", np.cos)
absolute = _primitive("abs", np.abs)


def matmul(a, b):
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return np.matmul(a, b)
    if np.ndim(_value(a)) < 2 or np.ndim(_value(b)) < 2:
        raise ShapeError("matmul operands must be at least 2-d; reshape vectors explicitly")
    return _record("matmul", np.matmul, (a, b))


def transpose(a):
    return _record("transpose", lambda v: v.swapaxes(-1, -2), (a,))


def reduce_sum(a, axis=None, keepdims: bool = False):
    axis = (axis,) if isinstance(axis, int) else axis
    return _record("sum", lambda v: np.sum(v, axis=axis, keepdims=keepdims), (a,),
                   (axis, keepdims, np.shape(_value(a))))


def concat(parts, axis: int = 0):
    parts = tuple(parts)
    for part in parts:
        if isinstance(part, Node):
            break
    else:
        return np.concatenate(parts, axis=axis)
    sizes = tuple(np.shape(_value(p))[axis] for p in parts)
    return _record("concat", lambda *vs: np.concatenate(vs, axis=axis), parts, (axis, sizes))


def narrow(a, axis: int, start: int, length: int):
    value = _value(a)
    axis %= value.ndim
    index = (slice(None),) * axis + (slice(start, start + length),)
    if not isinstance(a, Node):
        return value[index]
    return a.tape._append(value[index], "narrow", (a,), (axis, start, length, value.shape[axis]))


def reshape(a, shape):
    if not isinstance(a, Node):
        return np.asarray(a).reshape(shape)
    return a.tape._append(a.value.reshape(shape), "reshape", (a,), a.value.shape)


def expand(a, shape):
    return _record("expand", lambda v: np.broadcast_to(v, shape).copy(), (a,), np.shape(_value(a)))


# The squared pivots diag(L)^2 of an SPD K = L L^T lie between its extreme
# eigenvalues, so their ratio is at least 1 / cond(K): the test fires only
# where cond(K) > 1e10, and wherever cond(K) > 1e12 while the ratio
# overestimates 1 / cond(K) less than 100-fold.
PIVOT_RATIO_LIMIT = 1e-10


def check_pivots(K: np.ndarray) -> None:
    """The one degeneracy test, on a stack K (..., k, k) of symmetric matrices.

    A failed Cholesky factorization (of the lower triangle) or a pivot ratio
    (min diag L / max diag L)^2 below PIVOT_RATIO_LIMIT raises
    DegenerateConfigurationError with the worst ratio (0 for a failed
    factorization), or NonFiniteStateError where K holds a nan or an inf.
    Only a failing K is tested for finiteness, so a sound one pays nothing.
    """
    if not K.shape[-1]:
        return
    try:
        pivots = np.linalg.cholesky(K).diagonal(axis1=-2, axis2=-1)
        ratio = (np.minimum.reduce(pivots, axis=-1) / np.maximum.reduce(pivots, axis=-1)) ** 2
    except np.linalg.LinAlgError:
        ratio = np.zeros(K.shape[:-2])
    if not (ratio >= PIVOT_RATIO_LIMIT).all():  # also catches nan
        if not np.isfinite(K).all():
            raise NonFiniteStateError("positive definite system is not finite: "
                                      "its state left the finite numbers")
        raise DegenerateConfigurationError("positive definite system is numerically singular",
                                           ratio=float(np.min(ratio)))


def spd_solve(K, B):
    """x with K x = B for SPD K (..., k, k), after check_pivots(K), once per
    call.  numpy has no stacked triangular solve, so x comes from a stacked
    LU solve, each matrix on its own.  The constrained fields call it on
    arrays, in their forward pass; on nodes it serves HNN2D's momentum solve.
    The VJP is written with `spd_solve` nodes and matmul, so it is
    differentiable again; its solves skip the check, which K passed here.
    """
    if np.ndim(_value(B)) < 2:
        raise ShapeError("spd_solve right-hand side must be at least 2-d")
    check_pivots(_value(K))
    return _record("spd_solve", np.linalg.solve, (K, B))


# -- backward rules -----------------------------------------------------------
#
# A rule maps (out, args, extra, g, need) to one contribution per parent: the
# node's output, its parents and saved extra, the output adjoint g, and
# need[i], whether parent i is a node that leads to a requested input (a rule
# may return None for a parent that does not; an array parent never does).
# On a graph=False tape out, args and g are arrays, where the ad ops and
# _adjoint record nothing.

def _adjoint(value, op, g, args, extra=None):
    """A closed-form adjoint: an `op` node with parents (g, *args) when any of
    them is a node, the array itself when none is."""
    return _record(op, lambda *_: value, (g, *args), extra)


def _unbroadcast(g, shape: tuple):
    """Sum g's broadcast axes away so it matches the parent's shape; g is a
    node or an array."""
    if g.shape == shape:
        return g
    while len(g.shape) > len(shape):
        g = reduce_sum(g, axis=0)
    axes = tuple(i for i, (have, want) in enumerate(zip(g.shape, shape)) if want == 1 and have != 1)
    if axes:
        g = reduce_sum(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


def _vjp_add(out, args, extra, g, need):
    a, b = args
    return (_unbroadcast(g, a.shape) if need[0] else None,
            _unbroadcast(g, b.shape) if need[1] else None)


def _vjp_sub(out, args, extra, g, need):
    a, b = args
    return (_unbroadcast(g, a.shape) if need[0] else None,
            _unbroadcast(neg(g), b.shape) if need[1] else None)


def _vjp_mul(out, args, extra, g, need):
    a, b = args
    return (_unbroadcast(mul(g, b), a.shape) if need[0] else None,
            _unbroadcast(mul(g, a), b.shape) if need[1] else None)


def _vjp_div(out, args, extra, g, need):
    a, b = args
    ga = _unbroadcast(div(g, b), a.shape) if need[0] else None
    gb = _unbroadcast(neg(mul(g, div(out, b))), b.shape) if need[1] else None
    return ga, gb


def _vjp_matmul(out, args, extra, g, need):
    a, b = args
    ga = _unbroadcast(matmul(g, transpose(b)), a.shape) if need[0] else None
    gb = _unbroadcast(matmul(transpose(a), g), b.shape) if need[1] else None
    return ga, gb


def _vjp_spd_solve(out, args, extra, g, need):
    # K is symmetric, so K^-T g = K^-1 g
    K, B = args
    gb = _record("spd_solve", np.linalg.solve, (K, g))
    gk = _unbroadcast(neg(matmul(gb, transpose(out))), K.shape) if need[0] else None
    return gk, _unbroadcast(gb, B.shape) if need[1] else None


def _vjp_sum(out, args, extra, g, need):
    axis, keepdims, shape = extra
    if axis is not None and not keepdims:
        kshape = list(shape)
        for ax in axis:
            kshape[ax] = 1
        g = reshape(g, tuple(kshape))
    return (expand(g, shape),)


def _vjp_concat(out, args, extra, g, need):
    axis, sizes = extra
    grads = []
    at = 0
    for size, wanted in zip(sizes, need):
        grads.append(narrow(g, axis, at, size) if wanted else None)
        at += size
    return tuple(grads)


def _vjp_narrow(out, args, extra, g, need):
    axis, start, length, total = extra
    before, after = list(g.shape), list(g.shape)
    before[axis], after[axis] = start, total - start - length
    parts = [np.zeros(before), g, np.zeros(after)]
    return (concat([p for p in parts if p.shape[axis]], axis=axis),)


_VJP = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "mul": _vjp_mul,
    "div": _vjp_div,
    "neg": lambda out, args, extra, g, need: (neg(g),),
    "matmul": _vjp_matmul,
    "transpose": lambda out, args, extra, g, need: (transpose(g),),
    "sum": _vjp_sum,
    "tanh": lambda out, args, extra, g, need: (mul(g, sub(1.0, mul(out, out))),),
    "exp": lambda out, args, extra, g, need: (mul(g, out),),
    "sin": lambda out, args, extra, g, need: (mul(g, cos(args[0])),),
    "cos": lambda out, args, extra, g, need: (neg(mul(g, sin(args[0]))),),
    # sign treated as locally constant: exact a.e., zero curvature.
    "abs": lambda out, args, extra, g, need: (mul(g, np.sign(_value(args[0]))),),
    "concat": _vjp_concat,
    "narrow": _vjp_narrow,
    "reshape": lambda out, args, extra, g, need: (reshape(g, extra),),
    "expand": lambda out, args, extra, g, need: (_unbroadcast(g, extra),),
    "spd_solve": _vjp_spd_solve,
}


def grad(output: Node, wrt) -> list:
    """Adjoints of a scalar output for each node in wrt; zeros when unused.

    The backward pass visits nodes in reverse creation order (a valid reverse
    topological order) exactly once.  Each rule is told which parents are
    nodes that lead to a requested input and builds only their adjoints.  On
    a graph tape (the default) it emits the adjoint math as tape nodes, which
    can be differentiated again; on a graph=False tape it returns numpy
    arrays with the same bits, and the tape does not grow.
    """
    if output.value.size != 1:
        raise ShapeError(f"grad needs a scalar output, got shape {output.value.shape}")
    wrt = list(wrt)
    tape = output.tape
    nodes = tape.nodes
    if output.idx >= len(nodes) or nodes[output.idx] is not output:
        raise ValueError(f"grad of {output!r}: its tape was cleared")
    graph = tape.graph
    limit = output.idx + 1
    # nodes created before every wrt node cannot depend on them
    floor = min((w.idx for w in wrt if w.idx < limit), default=limit)
    wrt_ids = {w.idx for w in wrt if w.idx < limit}
    needs = bytearray(limit)
    for i in wrt_ids:
        needs[i] = 1
    for i in range(floor, limit):
        node = nodes[i]
        if not needs[i]:
            for p in node.parents:
                if isinstance(p, Node) and needs[p.idx]:
                    needs[i] = 1
                    break
    seed = np.ones(output.value.shape)
    adjoint = {output.idx: tape.constant(seed) if graph else seed}
    for i in range(limit - 1, floor - 1, -1):
        node = nodes[i]
        if not node.parents or not needs[i]:
            continue
        # keep the adjoint of a requested interior node; it is a result too
        g = adjoint.get(i) if i in wrt_ids else adjoint.pop(i, None)
        if g is None:
            continue
        rule = _VJP.get(node.op)
        if rule is None:
            raise NotImplementedError(f"op {node.op!r} has no backward rule: it cannot be differentiated")
        args = node.parents if graph else [_value(p) for p in node.parents]
        need = [isinstance(p, Node) and needs[p.idx] for p in node.parents]
        contribs = rule(node if graph else node.value, args, node.extra, g, need)
        for parent, contrib, wanted in zip(node.parents, contribs, need):
            if contrib is None or not wanted:
                continue
            seen = adjoint.get(parent.idx)
            adjoint[parent.idx] = contrib if seen is None else add(seen, contrib)
    grads = [adjoint.get(w.idx) for w in wrt]
    if graph:
        return [tape.constant(np.zeros(w.value.shape)) if g is None else g for g, w in zip(grads, wrt)]
    return [np.zeros(w.value.shape) if g is None else np.asarray(g) for g, w in zip(grads, wrt)]


# -- parameters and networks --------------------------------------------------

class ParamStore:
    """Named parameter arrays with deterministic ordering."""

    def __init__(self, params: dict[str, np.ndarray] | None = None):
        self._params: dict[str, np.ndarray] = {}
        for name, val in (params or {}).items():
            self.add(name, val)

    def add(self, name: str, value) -> None:
        if name in self._params:
            raise ShapeError(f"duplicate parameter {name!r}")
        self._params[name] = np.asarray(value, dtype=float).copy()

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __setitem__(self, name: str, value) -> None:
        if name not in self._params:
            raise KeyError(name)
        if self._params[name].shape != np.shape(value):
            raise ShapeError(f"shape change for parameter {name!r}")
        self._params[name] = np.asarray(value, dtype=float)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def leaves(self, tape: Tape) -> dict[str, Node]:
        return {name: tape.constant(value) for name, value in self._params.items()}


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def mlp_init(rng: np.random.Generator, in_dim: int, hidden, out_dim: int,
             prefix: str = "mlp") -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, tanh hidden activations assumed."""
    sizes = [in_dim, *hidden, out_dim]
    params = {}
    for k in range(len(sizes) - 1):
        params[f"{prefix}.w{k}"] = glorot_uniform(rng, sizes[k], sizes[k + 1])
        params[f"{prefix}.b{k}"] = np.zeros(sizes[k + 1])
    return params


# -- the fused tanh MLP -------------------------------------------------------
#
# Layer k = 0..L-1 computes a_k = h_k W_k + b_k from h_0 = x, with
# h_{k+1} = tanh(a_k) and output a_{L-1}.  With s_k = 1 - h_k^2, the backward
# pass for an output cotangent g is delta_{L-1} = g, e_k = delta_k W_k^T (the
# adjoint of h_k) and delta_{k-1} = e_k s_k; the adjoint of x is delta_0 W_0^T.

def _times_transpose(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a W^T; a broadcast product where the inner dimension is 1, which gives
    the same bits as the rank-1 gemm at a fraction of its cost."""
    return a * w.T if w.shape[-1] == 1 else np.matmul(a, w.T)


def _mlp_backward(weights: list, hidden: list, g: np.ndarray) -> tuple:
    """(deltas, errs) of the backward pass for the output cotangent g, all
    arrays; an `mlp_vjp` node keeps errs[:-1] (see _vjp_mlp_vjp)."""
    deltas, errs = [g], []
    for k in range(len(weights) - 1, 0, -1):
        errs.insert(0, _times_transpose(deltas[0], weights[k]))
        deltas.insert(0, errs[0] * (1.0 - hidden[k - 1] * hidden[k - 1]))
    return deltas, errs


def mlp_pullback(params: dict, x, prefix: str = "mlp"):
    """(y, pullback): the tanh MLP on rows of x (linear final layer) and the
    map from an output cotangent g, shaped like y, to the adjoint of x.

    y is one `mlp` node for any depth, keeping hidden[1:] (see _hidden), and
    pullback(g) runs that node's backward rule for x on the full list, which
    records one `mlp_vjp` node on any tape, as grad() does on a graph tape (an
    array g stays an array among its parents).  On plain arrays, as for every
    op, both are numpy and nothing is recorded.  The `mlp_vjp` node is
    differentiable once more in closed form: a JVP in the cotangent and a
    Hessian-vector product in x and in every parameter.  Those second-order
    outputs, and the parameter adjoints of the `mlp` node, are plain numpy:
    differentiating them again raises NotImplementedError.
    """
    n_layers = sum(1 for name in params if name.startswith(f"{prefix}.w"))
    if not n_layers:
        raise ShapeError(f"no {prefix}.w0 parameter")
    inputs = [x]
    for k in range(n_layers):
        inputs += [params[f"{prefix}.w{k}"], params[f"{prefix}.b{k}"]]
    values = [np.asarray(_value(n), dtype=float) for n in inputs]
    h, hidden = values[0], []
    if h.ndim < 2:
        raise ShapeError("mlp input must be at least 2-d; reshape vectors explicitly")
    for k in range(n_layers):
        y = np.matmul(h, values[1 + 2 * k])
        y += values[2 + 2 * k]
        if k < n_layers - 1:
            h = np.tanh(y, out=y)
            hidden.append(h)
    kept = hidden[1:]
    node = _record("mlp", lambda *_: y, inputs, kept)
    need_x = (1,) + (0,) * (2 * n_layers)

    def pullback(g):
        return _vjp_mlp(node, inputs, kept, g, need_x, hidden)[0]

    return node, pullback


def mlp_apply(params: dict, x, prefix: str = "mlp"):
    """The output of mlp_pullback alone: an `mlp` node, or an array."""
    return mlp_pullback(params, x, prefix)[0]


def _rows(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


def _hidden(args, kept) -> list:
    """[h_1, *kept] for an `mlp` node with operands (x, W_0, b_0, ...): h_1 is
    rebuilt with the forward's conversion and ops, so bit for bit."""
    if len(args) < 5:  # one layer, no hidden activation
        return []
    x, w, b = (np.asarray(_value(a), dtype=float) for a in args[:3])
    y = np.matmul(x, w)
    y += b
    return [np.tanh(y, out=y), *kept]


def _vjp_mlp(out, args, kept, g, need, hidden=None):
    """x-adjoint as an `mlp_vjp` node keeping (kept, errs[:-1]), kept the `mlp`
    node's own hidden[1:]; parameter adjoints from the same pass (arrays when
    g and args are).  hidden is rebuilt unless the caller holds it."""
    weights = [_value(w) for w in args[1::2]]
    if hidden is None:
        hidden = _hidden(args, kept)
    deltas, errs = _mlp_backward(weights, hidden, _value(g))
    grads = [None] * len(args)
    if need[0]:
        grads[0] = _adjoint(_times_transpose(deltas[0], weights[0]), "mlp_vjp", g, args,
                            (kept, errs[:-1]))
    acts = [_value(args[0]), *hidden]
    for k, delta in enumerate(deltas):
        if need[1 + 2 * k]:
            grads[1 + 2 * k] = _adjoint(_rows(acts[k]).T @ _rows(delta), "mlp_param_adjoint", g, args)
        if need[2 + 2 * k]:
            grads[2 + 2 * k] = _adjoint(_rows(delta).sum(axis=0), "mlp_param_adjoint", g, args)
    return grads


def _vjp_mlp_vjp(out, args, saved, u, need):
    """Closed-form second order: the VJP of (g, x, W, b) -> delta_0 W_0^T.

    Forward over the backward pass, the tangent of delta_k along u is
    t_k = (t_{k-1} s_k) W_k with t_0 = u W_0; t_{L-1} is the adjoint of g.
    The adjoint of W_k gathers (t_{k-1} s_k)^T delta_k (u^T delta_0 for k = 0)
    and, since delta_{k-1} = e_k s_k reads s_k = 1 - h_k^2, the adjoint
    -2 h_k t_{k-1} e_k of h_k flows back through the forward pass to x and
    the parameters below layer k.  The node keeps (hidden[1:], errs[:-1]):
    h_1, e_{L-1} = g W_{L-1}^T (_mlp_backward's first op), s_k and delta_k =
    e_k s_k are rebuilt bit for bit, and delta_{L-1} is g, args[0].
    """
    kept, errs = saved
    hidden = _hidden(args[1:], kept)
    weights = [_value(w) for w in args[2::2]]
    if hidden:
        errs = [*errs, _times_transpose(_value(args[0]), weights[-1])]
    slopes = [1.0 - h * h for h in hidden]
    acts = [_value(args[1]), *hidden]
    n_layers = len(weights)
    grads = [None] * len(args)
    ebar = _value(u)
    tangents = [np.matmul(ebar, weights[0])]
    for k in range(n_layers):
        if need[2 + 2 * k]:
            delta = errs[k] * slopes[k] if k + 1 < n_layers else _value(args[0])
            grads[2 + 2 * k] = _rows(ebar).T @ _rows(delta)
        if k + 1 < n_layers:
            ebar = tangents[k] * slopes[k]
            if k + 2 < n_layers or need[0]:
                tangents.append(np.matmul(ebar, weights[k + 1]))
    if need[0]:
        grads[0] = tangents[-1]
    abar = None
    for k in range(n_layers - 1, 0, -1):
        hbar = -2.0 * hidden[k - 1]
        hbar *= tangents[k - 1]
        hbar *= errs[k - 1]
        if abar is not None:
            hbar += _times_transpose(abar, weights[k])
        abar = np.multiply(hbar, slopes[k - 1], out=hbar)
        if need[2 * k]:
            grads[2 * k] += _rows(acts[k - 1]).T @ _rows(abar)
        if need[2 * k + 1]:
            grads[2 * k + 1] = _rows(abar).sum(axis=0)
    if need[1] and abar is not None:
        grads[1] = _times_transpose(abar, weights[0])
    return [None if value is None else _adjoint(value, "mlp_second_order", u, args)
            for value in grads]


_VJP["mlp"] = _vjp_mlp
_VJP["mlp_vjp"] = _vjp_mlp_vjp


def define_vjp(op: str, rule) -> None:
    """Register the closed-form VJP of a fused op.  rule(args, saved, g) takes
    the operands' values, what the forward saved and the output adjoint g,
    all arrays, and returns one array per operand, in the broadcast shape.
    Each that the backward pass needs is summed to its operand's shape; on a
    graph tape it is recorded as an `{op}_adjoint` node, which has no rule, so
    it cannot be differentiated again."""
    adjoint_op = f"{op}_adjoint"

    def vjp(out, args, saved, g, need):
        values = [_value(a) for a in args]
        return [_adjoint(_unbroadcast(a, value.shape), adjoint_op, g, args) if wanted else None
                for a, value, wanted in zip(rule(values, saved, _value(g)), values, need)]

    _VJP[op] = vjp


def finite_difference_check(f, grad_fn, x: np.ndarray, h: float = 1e-5) -> float:
    """Worst relative error between grad_fn(x) and central differences of f.

    f maps an array to a scalar or vector; grad_fn returns the analytic
    gradient/Jacobian with trailing input axes.  The relative error uses an
    absolute floor of 1e-8 in the denominator.
    """
    x = np.asarray(x, dtype=float)
    analytic = np.asarray(grad_fn(x), dtype=float)
    cols = []
    for m in range(x.size):
        e = np.zeros_like(x)
        e[np.unravel_index(m, x.shape)] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h))
    fd = np.stack(cols, axis=-1).reshape(analytic.shape)
    denom = np.maximum(1e-8, np.maximum(np.abs(fd), np.abs(analytic)))
    return float(np.max(np.abs(fd - analytic) / denom))

