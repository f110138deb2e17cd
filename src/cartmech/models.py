"""Learnable dynamics models trained by backprop through fixed-step rollouts.

Everything runs batched on the autodiff tape: a state batch is a (B, D) node
and one tape hosts a whole loss evaluation.  CHNN and CLNN keep the system's
constraints (known, not learned) and learn per-body mass parameters plus an
MLP potential; NODE learns the flat vector field directly; HNN2D learns a
generalized-coordinate Hamiltonian with a Cholesky-parametrized inverse mass
matrix (pendulum chains only).  Training data is Cartesian (x, xdot) states,
so each model converts into and out of its own state space on the tape.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .oracles import pendulum_angles
from .states import unflatten_matrix


class DynamicsModel:
    """Shared plumbing: parameter init, tape conversions, numpy evaluation."""

    kind = "base"

    def __init__(self, system, hidden=(256, 256, 256)):
        self.system = system
        self.hidden = tuple(int(h) for h in hidden)
        self.cartesian_dim = 2 * system.topology.dn
        self.state_dim = self.cartesian_dim

    # -- implemented by subclasses (tape side) --
    def init_params(self, rng: np.random.Generator) -> ad.ParamStore:
        raise NotImplementedError

    def dynamics_node(self, leaves: dict, w: ad.Node) -> ad.Node:
        raise NotImplementedError

    def to_state_node(self, leaves: dict, raw: ad.Node) -> ad.Node:
        return raw

    def decode_node(self, leaves: dict, w: ad.Node) -> ad.Node:
        return w

    # -- numpy side --
    def encode(self, xv: np.ndarray) -> np.ndarray:
        """Cartesian (B, 2dn) states to the raw input of to_state_node."""
        return xv

    def dynamics_fn(self, store: ad.ParamStore):
        """Plain-array batched dynamics for evaluation rollouts."""
        return lambda w: self._apply_np(store, self.dynamics_node, w)

    def _apply_np(self, store: ad.ParamStore, fn, array: np.ndarray) -> np.ndarray:
        tape = ad.Tape()
        leaves = store.leaves(tape)
        return fn(leaves, tape.constant(np.asarray(array, dtype=float))).value

    def rollout(self, store: ad.ParamStore, xv0: np.ndarray, times,
                substeps: int = 1) -> np.ndarray:
        """Cartesian predictions (B, T, 2dn) from Cartesian initial states."""
        from .integrators import rollout_fixed

        xv0 = np.atleast_2d(np.asarray(xv0, dtype=float))
        w0 = self._apply_np(store, self.to_state_node, self.encode(xv0))
        states = rollout_fixed(self.dynamics_fn(store), w0, np.asarray(times, dtype=float),
                               substeps=substeps)
        return np.stack([self._apply_np(store, self.decode_node, w) for w in states], axis=1)


# -- learned mass blocks (CHNN / CLNN) ------------------------------------------------

def _mass_param_init(store: ad.ParamStore, bodies) -> None:
    for k, body in enumerate(bodies):
        store.add(f"mass.log_m{k}", np.zeros(()))
        if body.ndim:
            store.add(f"mass.log_lam{k}", np.zeros(body.ndim))


def _block_diag(tape: ad.Tape, blocks: list[ad.Node]) -> ad.Node:
    if len(blocks) == 1:
        return blocks[0]
    sizes = [b.value.shape[0] for b in blocks]
    total = sum(sizes)
    rows = []
    at = 0
    for block, s in zip(blocks, sizes):
        parts = []
        if at:
            parts.append(tape.constant(np.zeros((s, at))))
        parts.append(block)
        if total - at - s:
            parts.append(tape.constant(np.zeros((s, total - at - s))))
        rows.append(ad.concat(parts, axis=1) if len(parts) > 1 else block)
        at += s
    return ad.concat(rows, axis=0)


def _mass_nodes(tape: ad.Tape, leaves: dict, bodies) -> tuple[ad.Node, ad.Node]:
    """Learned (M, M^-1) from per-body log-mass and log-moment parameters.

    Extended bodies use the same closed forms as the ground-truth assembly,
    so both matrices are SPD for any parameter values.
    """
    blocks, inv_blocks = [], []
    for k, body in enumerate(bodies):
        m = ad.exp(leaves[f"mass.log_m{k}"])
        if body.ndim == 0:
            blocks.append(ad.reshape(m, (1, 1)))
            inv_blocks.append(ad.reshape(ad.div(1.0, m), (1, 1)))
            continue
        d = body.ndim
        lam = ad.exp(leaves[f"mass.log_lam{k}"])
        top = ad.concat([ad.reshape(ad.add(1.0, ad.reduce_sum(lam)), (1, 1)),
                         ad.reshape(ad.neg(lam), (1, d))], axis=1)
        bottom = ad.concat([ad.reshape(ad.neg(lam), (d, 1)),
                            ad.mul(lam, np.eye(d))], axis=1)
        blocks.append(ad.mul(ad.concat([top, bottom], axis=0), m))
        inv_diag = ad.concat([tape.constant(np.zeros(1)), ad.div(1.0, lam)], axis=0)
        inv = ad.add(np.ones((d + 1, d + 1)), ad.mul(inv_diag, np.eye(d + 1)))
        inv_blocks.append(ad.div(inv, m))
    return _block_diag(tape, blocks), _block_diag(tape, inv_blocks)


def _point_transform(matrix: ad.Node, flat: ad.Node, n: int, d: int) -> ad.Node:
    """Apply an (n, n) matrix on the point index of flat (..., n*d) vectors."""
    shape = flat.value.shape
    pts = ad.reshape(flat, shape[:-1] + (n, d))
    return ad.reshape(ad.matmul(matrix, pts), shape)


class _ConstrainedModel(DynamicsModel):
    """Common machinery for CHNN/CLNN: learned mass + MLP potential + known DPhi."""

    def __init__(self, system, hidden=(256, 256, 256), potential=None):
        super().__init__(system, hidden)
        topo = system.topology
        self.n, self.d, self.dn = topo.n_points, topo.dim, topo.dn
        A, b = topo.constraint_set.affine_maps()
        self.n_phi = topo.constraint_set.n_rows
        self._A_T = A.T.copy()
        self._b = b
        self._potential = potential

    def init_params(self, rng: np.random.Generator) -> ad.ParamStore:
        store = ad.ParamStore()
        _mass_param_init(store, self.system.topology.bodies)
        if self._potential is None:
            store_mlp = ad.mlp_init(rng, self.dn, self.hidden, 1, prefix="potential")
            for name, value in store_mlp.items():
                store.add(name, value)
        return store

    def _mass(self, leaves: dict) -> tuple[ad.Node, ad.Node]:
        """(M, M^-1), built once per tape and set of mass leaves."""
        key = ("mass",) + tuple(node for name, node in leaves.items() if name.startswith("mass."))
        tape = key[1].tape
        return tape.memo(key, lambda: _mass_nodes(tape, leaves, self.system.topology.bodies))

    def _potential_node(self, leaves: dict, x: ad.Node) -> ad.Node:
        if self._potential is not None:
            return self._potential(leaves, x)
        return ad.mlp_apply(leaves, x, prefix="potential")

    def _grad_potential(self, leaves: dict, x: ad.Node) -> ad.Node:
        return ad.input_gradient(lambda xx: self._potential_node(leaves, xx), x)

    def _dphi(self, x: ad.Node) -> ad.Node:
        """Known constraint Jacobian rows, affine in x: (B, C, dn)."""
        B = x.value.shape[0]
        flat = ad.add(ad.matmul(x, self._A_T), self._b)
        return ad.reshape(flat, (B, self.n_phi, self.dn))

    def _dphidot_x(self, xdot: ad.Node) -> ad.Node:
        # d(Phidot)/dx reuses the same affine map by Hessian symmetry
        B = xdot.value.shape[0]
        return ad.reshape(ad.matmul(xdot, self._A_T), (B, self.n_phi, self.dn))


class CHNN(_ConstrainedModel):
    """Constrained Hamiltonian model: zdot = J grad H plus multiplier correction."""

    kind = "chnn"

    def dynamics_node(self, leaves: dict, z: ad.Node) -> ad.Node:
        B = z.value.shape[0]
        n, d, dn = self.n, self.d, self.dn
        x = ad.narrow(z, 1, 0, dn)
        p = ad.narrow(z, 1, dn, dn)
        _, Minv = self._mass(leaves)
        xdot = _point_transform(Minv, p, n, d)
        jgrad = ad.concat([xdot, ad.neg(self._grad_potential(leaves, x))], axis=1)
        if self.n_phi == 0:
            return jgrad
        dphi = self._dphi(x)
        zeros = z.tape.constant(np.zeros((B, self.n_phi, dn)))
        dpsi = ad.concat([
            ad.concat([dphi, zeros], axis=2),
            ad.concat([self._dphidot_x(xdot),
                       _point_transform(Minv, dphi, n, d)], axis=2),
        ], axis=1)
        dpsi_t = ad.transpose(dpsi)
        j_dpsi_t = ad.concat([ad.narrow(dpsi_t, 1, dn, dn),
                              ad.neg(ad.narrow(dpsi_t, 1, 0, dn))], axis=1)
        amat = ad.matmul(dpsi, j_dpsi_t)
        rhs = ad.matmul(dpsi, ad.reshape(jgrad, (B, 2 * dn, 1)))
        lam = ad.solve(amat, rhs)
        return ad.sub(jgrad, ad.reshape(ad.matmul(j_dpsi_t, lam), (B, 2 * dn)))

    def to_state_node(self, leaves: dict, raw: ad.Node) -> ad.Node:
        x = ad.narrow(raw, 1, 0, self.dn)
        v = ad.narrow(raw, 1, self.dn, self.dn)
        M, _ = self._mass(leaves)
        return ad.concat([x, _point_transform(M, v, self.n, self.d)], axis=1)

    def decode_node(self, leaves: dict, w: ad.Node) -> ad.Node:
        x = ad.narrow(w, 1, 0, self.dn)
        p = ad.narrow(w, 1, self.dn, self.dn)
        _, Minv = self._mass(leaves)
        return ad.concat([x, _point_transform(Minv, p, self.n, self.d)], axis=1)


class CLNN(_ConstrainedModel):
    """Constrained Lagrangian model in (x, xdot) with multiplier elimination."""

    kind = "clnn"

    def dynamics_node(self, leaves: dict, w: ad.Node) -> ad.Node:
        B = w.value.shape[0]
        n, d, dn = self.n, self.d, self.dn
        x = ad.narrow(w, 1, 0, dn)
        v = ad.narrow(w, 1, dn, dn)
        _, Minv = self._mass(leaves)
        f = ad.neg(self._grad_potential(leaves, x))
        minv_f = _point_transform(Minv, f, n, d)
        if self.n_phi == 0:
            return ad.concat([v, minv_f], axis=1)
        dphi = self._dphi(x)
        g_minv = _point_transform(Minv, dphi, n, d)
        amat = ad.matmul(g_minv, ad.transpose(dphi))
        rhs = ad.add(ad.matmul(g_minv, ad.reshape(f, (B, dn, 1))),
                     ad.matmul(self._dphidot_x(v), ad.reshape(v, (B, dn, 1))))
        lam = ad.solve(amat, rhs)
        force = ad.reshape(ad.matmul(ad.transpose(dphi), lam), (B, dn))
        xddot = ad.sub(minv_f, _point_transform(Minv, force, n, d))
        return ad.concat([v, xddot], axis=1)


class NODE(DynamicsModel):
    """Unstructured neural ODE on the flat Cartesian state."""

    kind = "node"

    def init_params(self, rng: np.random.Generator) -> ad.ParamStore:
        return ad.ParamStore(ad.mlp_init(rng, self.cartesian_dim, self.hidden,
                                         self.cartesian_dim, prefix="field"))

    def dynamics_node(self, leaves: dict, z: ad.Node) -> ad.Node:
        return ad.mlp_apply(leaves, z, prefix="field")


class _AngularModel(DynamicsModel):
    """Shared angle chart for the pendulum-chain baselines."""

    def __init__(self, system, hidden=(256, 256, 256)):
        if system.name != "npendulum":
            raise ValueError(f"{self.kind} requires a pendulum chain, got {system.name!r}")
        super().__init__(system, hidden)
        self.n_angles = system.config.n
        self.state_dim = 2 * self.n_angles
        self._lengths = np.asarray(system.config.lengths)
        # prefix-sum matrix: chain position j sums contributions of joints <= j
        self._cumsum_T = np.tril(np.ones((self.n_angles, self.n_angles))).T.copy()

    def encode(self, xv: np.ndarray) -> np.ndarray:
        xv = np.atleast_2d(xv)
        dn = xv.shape[1] // 2
        out = np.empty((xv.shape[0], self.state_dim))
        for i, row in enumerate(xv):
            X = unflatten_matrix(row[:dn], 2)
            V = unflatten_matrix(row[dn:], 2)
            q, qdot = pendulum_angles(X, V, self._lengths)
            out[i, :self.n_angles] = q
            out[i, self.n_angles:] = qdot
        return out

    def _embed_node(self, q: ad.Node, qdot: ad.Node) -> ad.Node:
        """Differentiable chain embedding (q, qdot) -> flat (x, xdot)."""
        B = q.value.shape[0]
        N = self.n_angles
        l = self._lengths
        s, c = ad.sin(q), ad.cos(q)
        xs = ad.matmul(ad.mul(s, l), self._cumsum_T)
        ys = ad.neg(ad.matmul(ad.mul(c, l), self._cumsum_T))
        vxs = ad.matmul(ad.mul(ad.mul(c, l), qdot), self._cumsum_T)
        vys = ad.matmul(ad.mul(ad.mul(s, l), qdot), self._cumsum_T)

        def interleave(a, b):
            stacked = ad.concat([ad.reshape(a, (B, N, 1)), ad.reshape(b, (B, N, 1))], axis=2)
            return ad.reshape(stacked, (B, 2 * N))

        return ad.concat([interleave(xs, ys), interleave(vxs, vys)], axis=1)


class NODEAngular(_AngularModel):
    """Neural ODE on (q, qdot) with periodic (sin, cos) network inputs."""

    kind = "node-angular"

    def init_params(self, rng: np.random.Generator) -> ad.ParamStore:
        return ad.ParamStore(ad.mlp_init(rng, 3 * self.n_angles, self.hidden,
                                         2 * self.n_angles, prefix="field"))

    def dynamics_node(self, leaves: dict, w: ad.Node) -> ad.Node:
        N = self.n_angles
        q = ad.narrow(w, 1, 0, N)
        qdot = ad.narrow(w, 1, N, N)
        inp = ad.concat([ad.sin(q), ad.cos(q), qdot], axis=1)
        return ad.mlp_apply(leaves, inp, prefix="field")

    def decode_node(self, leaves: dict, w: ad.Node) -> ad.Node:
        N = self.n_angles
        return self._embed_node(ad.narrow(w, 1, 0, N), ad.narrow(w, 1, N, N))


class HNN2D(_AngularModel):
    """Hamiltonian baseline in joint angles: H = p^T L L^T p / 2 + V(q).

    L(q) is a lower-triangular network output offset by the identity, so
    M^-1 = L L^T stays positive definite at initialization.
    """

    kind = "hnn2d"

    def __init__(self, system, hidden=(256, 256, 256)):
        super().__init__(system, hidden)
        N = self.n_angles
        pairs = [(i, j) for i in range(N) for j in range(i + 1)]
        scatter = np.zeros((N * N, len(pairs)))
        for col, (i, j) in enumerate(pairs):
            scatter[i * N + j, col] = 1.0
        self._scatter_T = scatter.T.copy()

    def init_params(self, rng: np.random.Generator) -> ad.ParamStore:
        N = self.n_angles
        params = ad.mlp_init(rng, 2 * N, self.hidden, 1, prefix="potential")
        params.update(ad.mlp_init(rng, 2 * N, self.hidden, N * (N + 1) // 2,
                                  prefix="cholesky"))
        return ad.ParamStore(params)

    def _cholesky_node(self, leaves: dict, q: ad.Node) -> ad.Node:
        B, N = q.value.shape[0], self.n_angles
        inp = ad.concat([ad.sin(q), ad.cos(q)], axis=1)
        packed = ad.mlp_apply(leaves, inp, prefix="cholesky")
        L = ad.reshape(ad.matmul(packed, self._scatter_T), (B, N, N))
        return ad.add(L, np.eye(N))

    def _hamiltonian_node(self, leaves: dict, w: ad.Node) -> ad.Node:
        B, N = w.value.shape[0], self.n_angles
        q = ad.narrow(w, 1, 0, N)
        p = ad.narrow(w, 1, N, N)
        L = self._cholesky_node(leaves, q)
        u = ad.reshape(ad.matmul(ad.transpose(L), ad.reshape(p, (B, N, 1))), (B, N))
        kinetic = ad.mul(0.5, ad.reduce_sum(ad.mul(u, u), axis=1))
        inp = ad.concat([ad.sin(q), ad.cos(q)], axis=1)
        potential = ad.reshape(ad.mlp_apply(leaves, inp, prefix="potential"), (B,))
        return ad.add(kinetic, potential)

    def dynamics_node(self, leaves: dict, w: ad.Node) -> ad.Node:
        N = self.n_angles
        g = ad.input_gradient(lambda ww: self._hamiltonian_node(leaves, ww), w)
        return ad.concat([ad.narrow(g, 1, N, N), ad.neg(ad.narrow(g, 1, 0, N))], axis=1)

    def to_state_node(self, leaves: dict, raw: ad.Node) -> ad.Node:
        B, N = raw.value.shape[0], self.n_angles
        q = ad.narrow(raw, 1, 0, N)
        qdot = ad.narrow(raw, 1, N, N)
        L = self._cholesky_node(leaves, q)
        minv = ad.matmul(L, ad.transpose(L))
        p = ad.reshape(ad.solve(minv, ad.reshape(qdot, (B, N, 1))), (B, N))
        return ad.concat([q, p], axis=1)

    def decode_node(self, leaves: dict, w: ad.Node) -> ad.Node:
        B, N = w.value.shape[0], self.n_angles
        q = ad.narrow(w, 1, 0, N)
        p = ad.narrow(w, 1, N, N)
        L = self._cholesky_node(leaves, q)
        minv = ad.matmul(L, ad.transpose(L))
        qdot = ad.reshape(ad.matmul(minv, ad.reshape(p, (B, N, 1))), (B, N))
        return self._embed_node(q, qdot)


MODEL_KINDS = ("chnn", "clnn", "node", "node-angular", "hnn2d")

_MODEL_CLASSES = {
    "chnn": CHNN,
    "clnn": CLNN,
    "node": NODE,
    "node-angular": NODEAngular,
    "hnn2d": HNN2D,
}


def build_model(kind: str, system, hidden=(256, 256, 256), potential=None) -> DynamicsModel:
    try:
        cls = _MODEL_CLASSES[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}") from None
    if potential is not None:
        if not issubclass(cls, _ConstrainedModel):
            raise ValueError(f"{kind} does not take an injected potential")
        return cls(system, hidden, potential=potential)
    return cls(system, hidden)
