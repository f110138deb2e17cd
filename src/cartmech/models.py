"""Learnable dynamics models trained by backprop through fixed-step rollouts.

Every method takes `leaves` (parameter name -> tape node or array) and a
(B, D) state batch and is written with the autodiff ops, so one code path
runs on the tape (training: one tape per loss) and on plain arrays
(evaluation: no tape but input_gradient's private one).  CHNN and CLNN keep
the system's known constraints, learn per-body masses plus an MLP potential,
and use the ground truth's own mass blocks and constrained fields; NODE
learns the flat vector field; HNN2D learns a Hamiltonian in joint angles with
a Cholesky-parametrized inverse mass (pendulum chains only).  Data is
Cartesian (x, xdot), so each model converts into and out of its own state;
the angle models decode through the ground truth's chain embedding.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .bodies import apply_on_points, block_diag, mass_blocks
from .dynamics import constrained_hamiltonian_field, constrained_lagrangian_field
from .errors import ParameterDomainError
from .oracles import pendulum_angles, pendulum_embed
from .states import unflatten_matrix


class _RolloutLeaves(dict):
    """The parameter arrays of one rollout.  They stay fixed while it runs, so
    what is built from them alone (the learned mass) is built once, in memo."""

    def __init__(self, store: ad.ParamStore):
        super().__init__(store.items())
        self.memo = {}


def _memo(build, leaves: dict, prefix: str, *nodes):
    """build() once per tape for the nodes and leaves named prefix*.  On
    arrays: once per rollout when it reads leaves alone, else on every call."""
    key = (prefix,) + nodes + tuple(v for k, v in leaves.items() if k.startswith(prefix))
    if all(isinstance(node, ad.Node) for node in key[1:]):
        return key[1].tape.memo(key, build)
    if nodes or not isinstance(leaves, _RolloutLeaves):
        return build()
    if prefix not in leaves.memo:
        leaves.memo[prefix] = build()
    return leaves.memo[prefix]


class DynamicsModel:
    """Shared plumbing: parameter init, state conversions, evaluation rollouts."""

    kind = "base"

    def __init__(self, system, hidden=(256, 256, 256)):
        self.system = system
        self.hidden = tuple(int(h) for h in hidden)
        if not all(h >= 1 for h in self.hidden):
            raise ParameterDomainError(f"hidden widths must be at least 1, got {list(self.hidden)}")
        self.cartesian_dim = 2 * system.topology.dn

    # -- implemented by subclasses; nodes or arrays --
    def init_params(self, rng: np.random.Generator) -> ad.ParamStore:
        raise NotImplementedError

    def dynamics_node(self, leaves: dict, w):
        raise NotImplementedError

    def to_state_node(self, leaves: dict, raw):
        return raw

    def decode_node(self, leaves: dict, w):
        return w

    def encode(self, xv: np.ndarray) -> np.ndarray:
        """Cartesian (B, 2dn) states to the raw input of to_state_node."""
        return xv

    def rollout(self, store: ad.ParamStore, xv0: np.ndarray, times,
                substeps: int = 1) -> np.ndarray:
        """Cartesian predictions (B, T, 2dn) from Cartesian initial states, on
        the store's arrays."""
        from .integrators import rollout_fixed

        params = _RolloutLeaves(store)
        xv0 = np.atleast_2d(np.asarray(xv0, dtype=float))
        w0 = self.to_state_node(params, self.encode(xv0))
        states = rollout_fixed(lambda w: self.dynamics_node(params, w), w0,
                               np.asarray(times, dtype=float), substeps=substeps)
        return np.stack([self.decode_node(params, w) for w in states], axis=1)


# -- learned mass blocks (CHNN / CLNN) ------------------------------------------------

def _mass_param_init(store: ad.ParamStore, bodies) -> None:
    for k, body in enumerate(bodies):
        store.add(f"mass.log_m{k}", np.zeros(()))
        if body.ndim:
            store.add(f"mass.log_lam{k}", np.zeros(body.ndim))


def _mass_nodes(leaves: dict, bodies) -> tuple:
    """Learned (M, M^-1): bodies.mass_blocks of exp of each body's log-mass and
    log-moment parameters, so both matrices are SPD for any parameter values."""
    blocks = [mass_blocks(ad.exp(leaves[f"mass.log_m{k}"]),
                          ad.exp(leaves[f"mass.log_lam{k}"]) if body.ndim else None)
              for k, body in enumerate(bodies)]
    return tuple(block_diag(side) for side in zip(*blocks))


class _ConstrainedModel(DynamicsModel):
    """Common machinery for CHNN/CLNN: learned mass + MLP potential + known DPhi."""

    def __init__(self, system, hidden=(256, 256, 256), potential=None):
        super().__init__(system, hidden)
        topo = system.topology
        self.dn = topo.dn
        self._constraints = topo.constraint_set
        self._potential = potential

    def init_params(self, rng: np.random.Generator) -> ad.ParamStore:
        store = ad.ParamStore()
        _mass_param_init(store, self.system.topology.bodies)
        if self._potential is None:
            for name, value in ad.mlp_init(rng, self.dn, self.hidden, 1, prefix="potential").items():
                store.add(name, value)
        return store

    def _mass(self, leaves: dict) -> tuple:
        """(M, M^-1), built once per tape and set of mass leaves."""
        return _memo(lambda: _mass_nodes(leaves, self.system.topology.bodies), leaves, "mass.")

    def _field(self, field, leaves: dict, Minv, x, v):
        """A constrained field at positions x and velocities v."""
        potential = self._potential or (lambda lv, xx: ad.mlp_apply(lv, xx, prefix="potential"))
        grad_V = ad.input_gradient(lambda xx: potential(leaves, xx), x)
        cs = self._constraints
        return field(Minv, grad_V, v, cs.dphi(x), cs.dphidot_x(v))


class CHNN(_ConstrainedModel):
    """Constrained Hamiltonian model in (x, p): the projected flow of H = T(p) + V(x)."""

    kind = "chnn"

    def dynamics_node(self, leaves: dict, z):
        _, Minv = self._mass(leaves)
        x, p = ad.narrow(z, 1, 0, self.dn), ad.narrow(z, 1, self.dn, self.dn)
        return self._field(constrained_hamiltonian_field, leaves, Minv, x, apply_on_points(Minv, p))

    def to_state_node(self, leaves: dict, raw):
        M, _ = self._mass(leaves)
        v = ad.narrow(raw, 1, self.dn, self.dn)
        return ad.concat([ad.narrow(raw, 1, 0, self.dn), apply_on_points(M, v)], axis=1)

    def decode_node(self, leaves: dict, w):
        _, Minv = self._mass(leaves)
        p = ad.narrow(w, 1, self.dn, self.dn)
        return ad.concat([ad.narrow(w, 1, 0, self.dn), apply_on_points(Minv, p)], axis=1)


class CLNN(_ConstrainedModel):
    """Constrained Lagrangian model in (x, xdot) with multiplier elimination."""

    kind = "clnn"

    def dynamics_node(self, leaves: dict, w):
        x, v = ad.narrow(w, 1, 0, self.dn), ad.narrow(w, 1, self.dn, self.dn)
        xddot, _ = self._field(constrained_lagrangian_field, leaves, self._mass(leaves)[1], x, v)
        return ad.concat([v, xddot], axis=1)


class NODE(DynamicsModel):
    """Unstructured neural ODE on the flat Cartesian state."""

    kind = "node"

    def init_params(self, rng: np.random.Generator) -> ad.ParamStore:
        return ad.ParamStore(ad.mlp_init(rng, self.cartesian_dim, self.hidden,
                                         self.cartesian_dim, prefix="field"))

    def dynamics_node(self, leaves: dict, z):
        return ad.mlp_apply(leaves, z, prefix="field")


class _AngularModel(DynamicsModel):
    """Shared angle chart for the pendulum-chain baselines."""

    def __init__(self, system, hidden=(256, 256, 256)):
        if system.name != "npendulum":
            raise ValueError(f"{self.kind} requires a pendulum chain, got {system.name!r}")
        super().__init__(system, hidden)
        self.n_angles = system.config.n
        self._lengths = np.asarray(system.config.lengths)

    def encode(self, xv: np.ndarray) -> np.ndarray:
        xv = np.atleast_2d(xv)
        dn = xv.shape[-1] // 2
        q, qdot = pendulum_angles(unflatten_matrix(xv[..., :dn], 2),
                                  unflatten_matrix(xv[..., dn:], 2), self._lengths)
        return np.concatenate([q, qdot], axis=-1)

    def _embed_node(self, q, qdot):
        """Differentiable chain embedding (q, qdot) (B, N) -> flat (x, xdot) (B, 4N)."""
        flat = (q.shape[0], 2 * self.n_angles)
        return ad.concat([ad.reshape(ad.transpose(A), flat)
                          for A in pendulum_embed(q, qdot, self._lengths)], axis=1)


class NODEAngular(_AngularModel):
    """Neural ODE on (q, qdot) with periodic (sin, cos) network inputs."""

    kind = "node-angular"

    def init_params(self, rng: np.random.Generator) -> ad.ParamStore:
        return ad.ParamStore(ad.mlp_init(rng, 3 * self.n_angles, self.hidden,
                                         2 * self.n_angles, prefix="field"))

    def dynamics_node(self, leaves: dict, w):
        N = self.n_angles
        q = ad.narrow(w, 1, 0, N)
        qdot = ad.narrow(w, 1, N, N)
        inp = ad.concat([ad.sin(q), ad.cos(q), qdot], axis=1)
        return ad.mlp_apply(leaves, inp, prefix="field")

    def decode_node(self, leaves: dict, w):
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

    def _chart(self, leaves: dict, w) -> tuple:
        """Network input (sin q, cos q) and factor L(q) at a state w = (q, .),
        once per tape and state node: decode_node(states[t]) reuses the first
        RK stage's.  Keyed on w, so L is always created after w, inside the
        range input_gradient(H, w) differentiates."""
        def build():
            B, N = w.shape[0], self.n_angles
            q = ad.narrow(w, 1, 0, N)
            inp = ad.concat([ad.sin(q), ad.cos(q)], axis=1)
            packed = ad.mlp_apply(leaves, inp, prefix="cholesky")
            L = ad.reshape(ad.matmul(packed, self._scatter_T), (B, N, N))
            return inp, ad.add(L, np.eye(N))

        return _memo(build, leaves, "cholesky.", w)

    def _hamiltonian_node(self, leaves: dict, w):
        B, N = w.shape[0], self.n_angles
        inp, L = self._chart(leaves, w)
        p = ad.narrow(w, 1, N, N)
        u = ad.reshape(ad.matmul(ad.transpose(L), ad.reshape(p, (B, N, 1))), (B, N))
        kinetic = ad.mul(0.5, ad.reduce_sum(ad.mul(u, u), axis=1))
        potential = ad.reshape(ad.mlp_apply(leaves, inp, prefix="potential"), (B,))
        return ad.add(kinetic, potential)

    def dynamics_node(self, leaves: dict, w):
        N = self.n_angles
        g = ad.input_gradient(lambda ww: self._hamiltonian_node(leaves, ww), w)
        return ad.concat([ad.narrow(g, 1, N, N), ad.neg(ad.narrow(g, 1, 0, N))], axis=1)

    def to_state_node(self, leaves: dict, raw):
        B, N = raw.shape[0], self.n_angles
        _, L = self._chart(leaves, raw)
        minv = ad.matmul(L, ad.transpose(L))
        qdot = ad.reshape(ad.narrow(raw, 1, N, N), (B, N, 1))
        p = ad.reshape(ad.spd_solve(minv, qdot), (B, N))
        return ad.concat([ad.narrow(raw, 1, 0, N), p], axis=1)

    def decode_node(self, leaves: dict, w):
        B, N = w.shape[0], self.n_angles
        _, L = self._chart(leaves, w)
        minv = ad.matmul(L, ad.transpose(L))
        qdot = ad.reshape(ad.matmul(minv, ad.reshape(ad.narrow(w, 1, N, N), (B, N, 1))), (B, N))
        return self._embed_node(ad.narrow(w, 1, 0, N), qdot)


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
