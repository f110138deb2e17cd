"""Learnable dynamics models trained by backprop through fixed-step rollouts.

bind(leaves) adds to the parameters (name -> tape node or array) what a
model builds from them alone; every other method takes the bound leaves and
a (B, D) state batch and is written with the autodiff ops, so one code path
runs on the tape (training: one tape per loss) and on plain arrays
(evaluation: no tape at all).  Input gradients of the networks come from
autodiff.mlp_pullback, on nodes and on arrays alike.  CHNN and CLNN keep the
system's known constraints, learn per-body masses plus an MLP potential,
build that mass from the ground truth's own mass blocks and run its own
constrained flows and flavor change; NODE learns the flat vector field;
HNN2D learns a Hamiltonian in joint angles with a Cholesky-parametrized
inverse mass (pendulum chains only), and its field is that Hamiltonian's
gradient written out around the pullbacks of its two networks.  Data is
Cartesian (x, xdot): to_state_node takes Cartesian (B, 2dn) arrays into the
model's own state and decode_node takes states back; the angle models decode
through the ground truth's chain embedding.  A rollout or a loss binds once
and decodes all of its states in one batched call, so CHNN and CLNN build
their learned mass once per rollout or loss, and nothing built from a state
is kept.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .bodies import block_diag, mass_blocks
from .dynamics import change_flavor, hamiltonian_flow, lagrangian_flow
from .errors import ParameterDomainError, RolloutDivergedError, ShapeError
from .oracles import pendulum_angles, pendulum_embed
from .states import unflatten_matrix


class DynamicsModel:
    """Shared plumbing: parameter init, state conversions, evaluation rollouts."""

    kind = "base"

    def __init__(self, system, hidden):
        self.system = system
        self.hidden = tuple(int(h) for h in hidden)
        if not all(h >= 1 for h in self.hidden):
            raise ParameterDomainError(f"hidden widths must be at least 1, got {list(self.hidden)}")
        self.cartesian_dim = 2 * system.topology.dn

    # -- implemented by subclasses; nodes or arrays --
    def init_params(self, rng: np.random.Generator) -> ad.ParamStore:
        raise NotImplementedError

    def bind(self, leaves: dict) -> dict:
        """The leaves the other methods take: the parameters plus what the
        model builds from them alone, once per rollout or loss."""
        return leaves

    def dynamics_node(self, leaves: dict, w):
        raise NotImplementedError

    def to_state_node(self, leaves: dict, xv: np.ndarray):
        """Cartesian (B, 2dn) states, an array, to the model's own state."""
        return xv

    def decode_node(self, leaves: dict, w):
        return w

    def check_params(self, store: ad.ParamStore) -> None:
        """ShapeError unless the store's parameter names and each parameter's
        shape are the ones init_params creates."""
        want = self.init_params(np.random.default_rng(0))
        have, need = set(store.names()), set(want.names())
        if have != need:
            raise ShapeError(f"parameters do not fit the {self.kind} model of this system "
                             f"(missing {sorted(need - have)}, unexpected {sorted(have - need)})")
        for name, value in want.items():
            if store[name].shape != value.shape:
                raise ShapeError(f"parameter {name!r} has shape {store[name].shape}, "
                                 f"the {self.kind} model needs {value.shape}")

    def rollout(self, store: ad.ParamStore, xv0: np.ndarray, times,
                substeps: int = 1) -> np.ndarray:
        """Cartesian predictions (B, T, 2dn) from Cartesian initial states, on
        the store's arrays.  The states of all T times are decoded in one
        call, time-major.  check_params vets the store first;
        RolloutDivergedError names the first trajectory and time that are
        not finite."""
        from .integrators import rollout_fixed

        self.check_params(store)
        params = self.bind(dict(store.items()))
        xv0 = np.atleast_2d(np.asarray(xv0, dtype=float))
        times = np.asarray(times, dtype=float)
        w0 = self.to_state_node(params, xv0)
        states = rollout_fixed(lambda w: self.dynamics_node(params, w), w0, times,
                               substeps=substeps)
        xv = self.decode_node(params, np.concatenate(states, axis=0))
        preds = np.ascontiguousarray(xv.reshape(len(states), len(xv0), -1).swapaxes(0, 1))
        if not np.isfinite(preds).all():
            row, t = np.argwhere(~np.isfinite(preds))[0, :2]
            raise RolloutDivergedError(f"trajectory {row} is not finite at t = {times[t]:.6g}")
        return preds


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
                          ad.exp(leaves.get(f"mass.log_lam{k}", np.zeros(0))))
              for k in range(len(bodies))]
    return tuple(block_diag(side) for side in zip(*blocks))


def _mlp_potential_gradient(leaves: dict, x):
    """grad_x V of the learned potential network: its pullback of ones."""
    V, pullback = ad.mlp_pullback(leaves, x, prefix="potential")
    return pullback(np.ones(V.shape))


class _ConstrainedModel(DynamicsModel):
    """Common machinery for CHNN/CLNN: learned mass + MLP potential + known DPhi.

    grad_potential(leaves, x) -> grad_x V, when given, replaces the potential
    network (a known potential's gradient, say); the default is the
    network's."""

    def __init__(self, system, hidden, grad_potential=None):
        super().__init__(system, hidden)
        topo = system.topology
        self.dn = topo.dn
        self._constraints = topo.constraint_set
        self._grad_potential = grad_potential or _mlp_potential_gradient

    def init_params(self, rng: np.random.Generator) -> ad.ParamStore:
        store = ad.ParamStore()
        _mass_param_init(store, self.system.topology.bodies)
        if self._grad_potential is _mlp_potential_gradient:
            for name, value in ad.mlp_init(rng, self.dn, self.hidden, 1, prefix="potential").items():
                store.add(name, value)
        return store

    def bind(self, leaves: dict) -> dict:
        """The leaves plus the learned (M, M^-1) under "mass"."""
        return {**leaves, "mass": _mass_nodes(leaves, self.system.topology.bodies)}


class CHNN(_ConstrainedModel):
    """Constrained Hamiltonian model in (x, p): the projected flow of H = T(p) + V(x)."""

    kind = "chnn"

    def dynamics_node(self, leaves: dict, z):
        return hamiltonian_flow(self._constraints, leaves["mass"][1],
                                lambda x: self._grad_potential(leaves, x), z)

    def to_state_node(self, leaves: dict, xv):
        return change_flavor(leaves["mass"][0], xv)

    def decode_node(self, leaves: dict, w):
        return change_flavor(leaves["mass"][1], w)


class CLNN(_ConstrainedModel):
    """Constrained Lagrangian model in (x, xdot) with multiplier elimination."""

    kind = "clnn"

    def dynamics_node(self, leaves: dict, w):
        return lagrangian_flow(self._constraints, leaves["mass"][1],
                               lambda x: self._grad_potential(leaves, x), w)


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

    def __init__(self, system, hidden):
        if system.name != "npendulum":
            raise ValueError(f"{self.kind} requires a pendulum chain, got {system.name!r}")
        super().__init__(system, hidden)
        self.n_angles = system.config.n
        self._lengths = np.asarray(system.config.lengths)

    def _angles(self, xv: np.ndarray) -> np.ndarray:
        """Cartesian (B, 4N) states to (q, qdot) (B, 2N)."""
        dn = xv.shape[-1] // 2
        q, qdot = pendulum_angles(unflatten_matrix(xv[..., :dn], 2),
                                  unflatten_matrix(xv[..., dn:], 2), self._lengths)
        return np.concatenate([q, qdot], axis=-1)

    def to_state_node(self, leaves: dict, xv):
        return self._angles(xv)

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
    M^-1 = L L^T stays positive definite at initialization.  Both networks
    read (sin q, cos q).  The field is grad H written out around their
    pullbacks, so it needs no tape of its own: see dynamics_node.
    """

    kind = "hnn2d"

    def __init__(self, system, hidden):
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
        """(sin q, cos q, the network input (sin q, cos q), L(q), the Cholesky
        network's pullback) at states w = (q, .), built on every call.  A
        rollout or a loss decodes all of its states in one call, so that costs
        one batched network forward beyond the field's, not one per state."""
        B, N = w.shape[0], self.n_angles
        q = ad.narrow(w, 1, 0, N)
        sin_q, cos_q = ad.sin(q), ad.cos(q)
        inp = ad.concat([sin_q, cos_q], axis=1)
        packed, pullback = ad.mlp_pullback(leaves, inp, prefix="cholesky")
        L = ad.reshape(ad.matmul(packed, self._scatter_T), (B, N, N))
        return sin_q, cos_q, inp, ad.add(L, np.eye(N)), pullback

    def dynamics_node(self, leaves: dict, w):
        """(dH/dp, -dH/dq).  With u = L^T p: dH/dp = L u, dH/dL = p u^T, whose
        packed lower triangle c is the Cholesky network's output cotangent, so
        dH/d(sin q, cos q) = grad V + J^T c from the two pullbacks, and the
        chain rule through (sin q, cos q) gives dH/dq."""
        B, N = w.shape[0], self.n_angles
        sin_q, cos_q, inp, L, cholesky_pullback = self._chart(leaves, w)
        p = ad.reshape(ad.narrow(w, 1, N, N), (B, N, 1))
        u = ad.matmul(ad.transpose(L), p)
        qdot = ad.reshape(ad.matmul(L, u), (B, N))
        V, potential_pullback = ad.mlp_pullback(leaves, inp, prefix="potential")
        c = ad.matmul(ad.reshape(ad.matmul(p, ad.transpose(u)), (B, N * N)), self._scatter_T.T)
        d_inp = ad.add(potential_pullback(np.ones(V.shape)), cholesky_pullback(c))
        pdot = ad.sub(ad.mul(ad.narrow(d_inp, 1, N, N), sin_q),
                      ad.mul(ad.narrow(d_inp, 1, 0, N), cos_q))
        return ad.concat([qdot, pdot], axis=1)

    def to_state_node(self, leaves: dict, xv):
        raw = self._angles(xv)
        B, N = raw.shape[0], self.n_angles
        _, _, _, L, _ = self._chart(leaves, raw)
        minv = ad.matmul(L, ad.transpose(L))
        qdot = ad.reshape(ad.narrow(raw, 1, N, N), (B, N, 1))
        p = ad.reshape(ad.spd_solve(minv, qdot), (B, N))
        return ad.concat([ad.narrow(raw, 1, 0, N), p], axis=1)

    def decode_node(self, leaves: dict, w):
        B, N = w.shape[0], self.n_angles
        _, _, _, L, _ = self._chart(leaves, w)
        minv = ad.matmul(L, ad.transpose(L))
        qdot = ad.reshape(ad.matmul(minv, ad.reshape(ad.narrow(w, 1, N, N), (B, N, 1))), (B, N))
        return self._embed_node(ad.narrow(w, 1, 0, N), qdot)


_MODEL_CLASSES = {cls.kind: cls for cls in (CHNN, CLNN, NODE, NODEAngular, HNN2D)}
MODEL_KINDS = tuple(_MODEL_CLASSES)

DEFAULT_HIDDEN = (256, 256, 256)


def build_model(kind: str, system, hidden=DEFAULT_HIDDEN,
                grad_potential=None) -> DynamicsModel:
    try:
        cls = _MODEL_CLASSES[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}") from None
    if grad_potential is not None:
        if not issubclass(cls, _ConstrainedModel):
            raise ValueError(f"{kind} does not take an injected potential gradient")
        return cls(system, hidden, grad_potential=grad_potential)
    return cls(system, hidden)
