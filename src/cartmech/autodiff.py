"""Reverse-mode automatic differentiation on an explicit tape.

Nodes hold eagerly computed numpy values; every operation appends one node
recording its kind and parents.  grad() runs a single reverse-topological
sweep and emits each primitive's backward pass as new forward nodes, so
gradients are themselves differentiable (second order comes from calling
grad on a graph that already contains a gradient, e.g. through
input_gradient of a learned potential).

Scalars are 0-d arrays.  Broadcasting is supported where numpy allows it
(bias-add, scalar scaling, batched matmul/solve); backward passes sum the
broadcast axes away.  solve() backpropagates through the factorization
without ever forming an explicit inverse.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError, ShapeError

CHECKPOINT_MAGIC = b"CMK1"
CHECKPOINT_VERSION = 1


class Tape:
    """Append-only record of operations for one differentiable computation."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Node] = []

    def _append(self, value, op, parents, extra=None) -> "Node":
        node = Node(self, np.asarray(value, dtype=float), op, parents, extra, len(self.nodes))
        self.nodes.append(node)
        return node

    def constant(self, value) -> "Node":
        """An input node; grad() differentiates with respect to any node."""
        return self._append(value, None, ())

    def __len__(self):
        return len(self.nodes)


class Node:
    __slots__ = ("tape", "value", "op", "parents", "extra", "idx")

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

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__
    # + and * are all that rk4_step needs; other ops are module functions


def _pair(a, b) -> tuple[Node, Node]:
    """Both operands as nodes of one tape; a plain array becomes a constant."""
    if isinstance(a, Node):
        return a, b if isinstance(b, Node) else a.tape.constant(b)
    if isinstance(b, Node):
        return b.tape.constant(a), b
    raise ShapeError("at least one operand must be a tape node")


# -- primitives ---------------------------------------------------------------

def add(a, b) -> Node:
    a, b = _pair(a, b)
    return a.tape._append(a.value + b.value, "add", (a, b))


def sub(a, b) -> Node:
    a, b = _pair(a, b)
    return a.tape._append(a.value - b.value, "sub", (a, b))


def mul(a, b) -> Node:
    a, b = _pair(a, b)
    return a.tape._append(a.value * b.value, "mul", (a, b))


def div(a, b) -> Node:
    a, b = _pair(a, b)
    return a.tape._append(a.value / b.value, "div", (a, b))


def neg(a: Node) -> Node:
    return a.tape._append(-a.value, "neg", (a,))


def matmul(a, b) -> Node:
    a, b = _pair(a, b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-d; reshape vectors explicitly")
    return a.tape._append(np.matmul(a.value, b.value), "matmul", (a, b))


def transpose(a: Node) -> Node:
    return a.tape._append(np.swapaxes(a.value, -1, -2), "transpose", (a,))


def reduce_sum(a: Node, axis=None, keepdims: bool = False) -> Node:
    if isinstance(axis, int):
        axis = (axis,)
    value = np.sum(a.value, axis=axis, keepdims=keepdims)
    return a.tape._append(value, "sum", (a,), (axis, keepdims, a.value.shape))


def tanh(a: Node) -> Node:
    return a.tape._append(np.tanh(a.value), "tanh", (a,))


def exp(a: Node) -> Node:
    return a.tape._append(np.exp(a.value), "exp", (a,))


def sin(a: Node) -> Node:
    return a.tape._append(np.sin(a.value), "sin", (a,))


def cos(a: Node) -> Node:
    return a.tape._append(np.cos(a.value), "cos", (a,))


def absolute(a: Node) -> Node:
    return a.tape._append(np.abs(a.value), "abs", (a,))


def concat(nodes, axis: int = 0) -> Node:
    nodes = tuple(nodes)
    tape = nodes[0].tape
    value = np.concatenate([n.value for n in nodes], axis=axis)
    sizes = tuple(n.value.shape[axis] for n in nodes)
    return tape._append(value, "concat", nodes, (axis, sizes))


def narrow(a: Node, axis: int, start: int, length: int) -> Node:
    index = [slice(None)] * a.value.ndim
    index[axis] = slice(start, start + length)
    value = a.value[tuple(index)]
    return a.tape._append(value, "narrow", (a,), (axis, start, length, a.value.shape[axis]))


def reshape(a: Node, shape) -> Node:
    return a.tape._append(a.value.reshape(shape), "reshape", (a,), a.value.shape)


def expand(a: Node, shape) -> Node:
    return a.tape._append(np.broadcast_to(a.value, shape).copy(), "expand", (a,), a.value.shape)


def solve(a, b) -> Node:
    """x with a x = b; a is (.., k, k), b at least 2-d.  LU under the hood."""
    a, b = _pair(a, b)
    if b.value.ndim < 2:
        raise ShapeError("solve right-hand side must be at least 2-d")
    return a.tape._append(np.linalg.solve(a.value, b.value), "solve", (a, b))


# -- backward rules -----------------------------------------------------------

def _unbroadcast(g: Node, shape: tuple) -> Node:
    """Sum g's broadcast axes away so it matches the parent's shape."""
    if g.value.shape == shape:
        return g
    while g.value.ndim > len(shape):
        g = reduce_sum(g, axis=0)
    axes = tuple(i for i, (have, want) in enumerate(zip(g.value.shape, shape)) if want == 1 and have != 1)
    if axes:
        g = reduce_sum(g, axis=axes, keepdims=True)
    if g.value.shape != shape:
        g = reshape(g, shape)
    return g


def _ones_like(node: Node) -> Node:
    return node.tape.constant(np.ones(node.value.shape))


def _vjp_add(node, g):
    a, b = node.parents
    return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)


def _vjp_sub(node, g):
    a, b = node.parents
    return _unbroadcast(g, a.shape), _unbroadcast(neg(g), b.shape)


def _vjp_mul(node, g):
    a, b = node.parents
    return _unbroadcast(mul(g, b), a.shape), _unbroadcast(mul(g, a), b.shape)


def _vjp_div(node, g):
    a, b = node.parents
    ga = _unbroadcast(div(g, b), a.shape)
    gb = _unbroadcast(neg(mul(g, div(node, b))), b.shape)
    return ga, gb


def _vjp_matmul(node, g):
    a, b = node.parents
    ga = _unbroadcast(matmul(g, transpose(b)), a.shape)
    gb = _unbroadcast(matmul(transpose(a), g), b.shape)
    return ga, gb


def _vjp_solve(node, g):
    a, b = node.parents
    gb = solve(transpose(a), g)
    ga = neg(matmul(gb, transpose(node)))
    return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)


def _vjp_sum(node, g):
    axis, keepdims, shape = node.extra
    if axis is not None and not keepdims:
        kshape = list(shape)
        for ax in axis:
            kshape[ax] = 1
        g = reshape(g, tuple(kshape))
    return (expand(g, shape),)


_VJP = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "mul": _vjp_mul,
    "div": _vjp_div,
    "neg": lambda node, g: (neg(g),),
    "matmul": _vjp_matmul,
    "transpose": lambda node, g: (transpose(g),),
    "sum": _vjp_sum,
    "tanh": lambda node, g: (mul(g, sub(_ones_like(node), mul(node, node))),),
    "exp": lambda node, g: (mul(g, node),),
    "sin": lambda node, g: (mul(g, cos(node.parents[0])),),
    "cos": lambda node, g: (neg(mul(g, sin(node.parents[0]))),),
    # sign treated as locally constant: exact a.e., zero curvature.
    "abs": lambda node, g: (mul(g, node.tape.constant(np.sign(node.parents[0].value))),),
    "concat": None,  # handled inline (variadic)
    "narrow": None,
    "reshape": lambda node, g: (reshape(g, node.extra),),
    "expand": lambda node, g: (_unbroadcast(g, node.extra),),
    "solve": _vjp_solve,
}


def _vjp_concat(node, g):
    axis, sizes = node.extra
    out = []
    at = 0
    for size in sizes:
        out.append(narrow(g, axis, at, size))
        at += size
    return tuple(out)


def _vjp_narrow(node, g):
    axis, start, length, total = node.extra
    parts = []
    pre, post = start, total - start - length
    shape = list(g.value.shape)
    if pre:
        shape[axis] = pre
        parts.append(g.tape.constant(np.zeros(shape)))
    parts.append(g)
    if post:
        shape[axis] = post
        parts.append(g.tape.constant(np.zeros(shape)))
    return (concat(parts, axis=axis),)


_VJP["concat"] = _vjp_concat
_VJP["narrow"] = _vjp_narrow


def grad(output: Node, wrt) -> list[Node]:
    """Adjoints of a scalar output for each node in wrt; zeros when unused.

    The backward pass visits nodes in reverse creation order (a valid reverse
    topological order) exactly once, emitting adjoint math as new tape nodes,
    so the returned gradients can be differentiated again.
    """
    if output.value.size != 1:
        raise ShapeError(f"grad needs a scalar output, got shape {output.value.shape}")
    wrt = list(wrt)
    tape = output.tape
    limit = output.idx + 1
    # nodes created before every wrt node cannot depend on them
    floor = min((w.idx for w in wrt if w.idx < limit), default=limit)
    wrt_ids = {w.idx for w in wrt if w.idx < limit}
    needs = bytearray(limit)
    for i in wrt_ids:
        needs[i] = 1
    nodes = tape.nodes
    for i in range(floor, limit):
        node = nodes[i]
        if node.parents and not needs[i]:
            for p in node.parents:
                if needs[p.idx]:
                    needs[i] = 1
                    break
    adjoint: dict[int, Node] = {output.idx: tape.constant(np.ones(output.value.shape))}
    for i in range(limit - 1, floor - 1, -1):
        node = nodes[i]
        if not node.parents or not needs[i]:
            continue
        # keep the adjoint of a requested interior node; it is a result too
        g = adjoint.get(i) if i in wrt_ids else adjoint.pop(i, None)
        if g is None:
            continue
        contribs = _VJP[node.op](node, g)
        for parent, contrib in zip(node.parents, contribs):
            if contrib is None or not needs[parent.idx]:
                continue
            seen = adjoint.get(parent.idx)
            adjoint[parent.idx] = contrib if seen is None else add(seen, contrib)
    out = []
    for w in wrt:
        g = adjoint.get(w.idx)
        out.append(g if g is not None else tape.constant(np.zeros(w.value.shape)))
    return out


def input_gradient(f, X: Node) -> Node:
    """dV/dX for a scalar-per-row function f, as differentiable tape nodes.

    Rows of a batched input are independent, so the gradient of the summed
    output recovers every per-row input gradient at once.
    """
    out = f(X)
    total = reduce_sum(out) if out.value.size != 1 else out
    return grad(total, [X])[0]


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

    def __contains__(self, name):
        return name in self._params

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


def mlp_apply(params: dict[str, Node], x: Node, prefix: str = "mlp") -> Node:
    """Forward pass of the tanh MLP on rows of x; linear final layer."""
    n_layers = sum(1 for name in params if name.startswith(f"{prefix}.w"))
    h = x
    for k in range(n_layers):
        h = add(matmul(h, params[f"{prefix}.w{k}"]), params[f"{prefix}.b{k}"])
        if k < n_layers - 1:
            h = tanh(h)
    return h


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


# -- checkpoints --------------------------------------------------------------

def save_checkpoint(store: ParamStore, path) -> None:
    """Write parameters: magic, version, name table, then name/shape/float64 data."""
    with open(path, "wb") as fh:
        names = store.names()
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(names)))
        for name in names:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        for name in names:
            value = np.ascontiguousarray(store[name], dtype="<f8")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", value.ndim))
            fh.write(struct.pack(f"<{value.ndim}I", *value.shape))
            fh.write(value.tobytes())


def load_checkpoint(path) -> ParamStore:
    """Parameters written by save_checkpoint; a malformed file raises FormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a CMK1 checkpoint")
    at = 4

    def take(size: int) -> bytes:
        nonlocal at
        if at + size > len(raw):
            raise FormatError(f"{path}: truncated at byte {len(raw)}, needs {at + size}")
        at += size
        return raw[at - size:at]

    def uints(count: int) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", take(4 * count))

    def name() -> str:
        try:
            return take(uints(1)[0]).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: parameter name is not UTF-8") from None

    version, count = uints(2)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    table = [name() for _ in range(count)]
    if len(set(table)) != len(table):
        raise FormatError(f"{path}: duplicate names in the name table")
    store = ParamStore()
    for expected in table:
        found = name()
        if found != expected:
            raise FormatError(f"{path}: name table mismatch ({found!r} != {expected!r})")
        shape = uints(uints(1)[0])
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        store.add(found, data)
    if at != len(raw):
        raise FormatError(f"{path}: trailing bytes")
    return store
