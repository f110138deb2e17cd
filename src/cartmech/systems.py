"""Benchmark systems: configs, potentials, builders, and on-manifold samplers.

Five ground-truth systems share one recipe: a topology of point masses or
extended bodies, a block-diagonal mass model, a potential with value and grad
of positions (..., d, n) with any leading batch axes (value has shape (...),
a scalar for one (d, n) matrix), and a seeded sampler that embeds
joint angles or a rotation so every sampled state satisfies Phi = 0 and
Phid = 0 by construction.  The reference dynamics in angle coordinates are
in oracles; tests call them directly.

A config holds a system's physical parameters and dt, nothing else: the
initial-state draws are constants in each builder's sampler, and the coupled
springs' rest length is |pivot|.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, asdict, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .bodies import (
    BodySpec,
    MassModel,
    assemble_mass_matrix,
    mass_blocks,
    velocity_to_momentum,
)
from .constraints import Joint, Link, anchor, point
from .dynamics import DynamicsContext, constrained_dynamics, energy
from .errors import (
    FieldSingularityError,
    GradientSingularityError,
    ParameterDomainError,
    SchemaError,
    check_like,
    finite_positive,
)
from .oracles import pendulum_embed, rotation_zxz, skew
from .states import HAMILTONIAN, flatten_matrix
from .topology import SystemTopology

EPS_SPRING = 1e-9
EPS_FIELD = 1e-6


def _flat_state(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    return np.concatenate([flatten_matrix(X), flatten_matrix(P)], axis=-1)


# -- potentials ------------------------------------------------------------------

class LinearGravity:
    """V(X) = g * sum_i w_i X[axis, i]; the gradient is constant."""

    def __init__(self, weights, axis: int, g: float = 1.0):
        self.weights = np.asarray(weights, dtype=float)
        self.axis = int(axis)
        self.g = float(g)
        self._row = self.g * self.weights

    def value(self, X: np.ndarray):
        return np.vecdot(X[..., self.axis, :], self._row)

    def grad(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros_like(X)
        out[..., self.axis, :] = self._row
        return out


class SpringChain:
    """Sum of 1/2 k (|x_i - x_j| - rest)^2 over the given point pairs."""

    def __init__(self, pairs, k: float = 1.0, rest: float = 1.0):
        self.pairs = tuple((int(i), int(j)) for i, j in pairs)
        self.k = float(k)
        self.rest = float(rest)

    def value(self, X: np.ndarray):
        total = np.zeros(X.shape[:-2])
        for i, j in self.pairs:
            d = X[..., :, i] - X[..., :, j]
            total += 0.5 * self.k * np.square(np.sqrt(np.vecdot(d, d)) - self.rest)
        return total[()]

    def grad(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros_like(X)
        for i, j in self.pairs:
            d = X[..., :, i] - X[..., :, j]
            r = np.sqrt(np.vecdot(d, d))[..., None]
            if (r < EPS_SPRING).any():
                raise GradientSingularityError(
                    f"spring endpoints {i}, {j} coincide (separation {r.min():.2e})")
            f = self.k * (r - self.rest) * d / r
            out[..., :, i] += f
            out[..., :, j] -= f
        return out


def _dipole(r, rr, moment, u) -> tuple[np.ndarray, np.ndarray]:
    """Field B(r) = (3 r (r.m) - |r|^2 m) / |r|^5 of one dipole, and (dB/dr) u.

    Units with mu0/4pi = 1; r, the moment and the direction u broadcast over
    leading axes (..., 3), and rr = |r|^2 is (..., 1).  The Jacobian
    dB/dr = (3 ((r.m) I + r m^T + m r^T) - 15 (r.m) r r^T / |r|^2) / |r|^5
    is symmetric.  Callers keep r away from 0.
    """
    s = np.vecdot(r, moment)[..., None]
    ru = np.vecdot(r, u)[..., None]
    scale = rr ** -2.5
    field = (3.0 * s * r - rr * moment) * scale
    along = (3.0 * (s * u + ru * moment + np.vecdot(moment, u)[..., None] * r)
             - (15.0 * s * ru / rr) * r) * scale
    return field, along


class DipolePotential:
    """V(x) = -m0(x)^T B(x) with m0 = -q x/|x| and B the summed dipole fields.

    Only the first point column of X feels the field.  With u = x/|x| the
    gradient is q ((B - u (u.B)) / |x| + sum_k dB_k/dx^T u); evaluation
    closer than EPS_FIELD to a magnet (or the origin) raises
    FieldSingularityError.  grad takes positions over any leading axes.
    """

    def __init__(self, positions, moments, strength: float = 1.0):
        self.positions = np.atleast_2d(np.asarray(positions, dtype=float))
        self.moments = np.atleast_2d(np.asarray(moments, dtype=float))
        self.strength = float(strength)

    def _field(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """|x|, the summed field B(x) and (dB/dx) x/|x| at positions x (..., 3)."""
        xx = np.vecdot(x, x)[..., None]
        if (xx < EPS_FIELD ** 2).any():
            raise FieldSingularityError("pendulum charge at the origin")
        r = x[..., None, :] - self.positions  # (..., magnets, 3)
        rr = np.vecdot(r, r)[..., None]
        near = rr[..., 0] < EPS_FIELD ** 2
        if near.any():
            magnet = self.positions[np.nonzero(near)[-1][0]]
            raise FieldSingularityError(f"pendulum within {EPS_FIELD:g} of the magnet at {magnet}")
        norm = np.sqrt(xx)
        field, along = _dipole(r, rr, self.moments, (x / norm)[..., None, :])
        return norm, np.add.reduce(field, axis=-2), np.add.reduce(along, axis=-2)

    def value(self, X: np.ndarray):
        x = X[..., :, 0]
        norm, field, _ = self._field(x)
        return self.strength * np.vecdot(x, field) / norm[..., 0]

    def grad(self, X: np.ndarray) -> np.ndarray:
        x = X[..., :, 0]
        norm, field, along = self._field(x)
        u = x / norm
        out = np.zeros_like(X)
        out[..., :, 0] = self.strength * ((field - u * np.vecdot(u, field)[..., None]) / norm + along)
        return out


class SumPotential:
    """Pointwise sum of component potentials; the empty sum is the zero
    potential, value zeros of the batch shape and grad zeros like X."""

    def __init__(self, *parts):
        self.parts = tuple(parts)

    def value(self, X: np.ndarray):
        return sum((p.value(X) for p in self.parts), np.zeros(X.shape[:-2]))[()]

    def grad(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros_like(X)
        for p in self.parts:
            out += p.grad(X)
        return out


# -- configs ---------------------------------------------------------------------

def _finite_mass_block(key: str, mass: float, moments=()) -> None:
    """ParameterDomainError naming key unless the mass block M of a body with
    this mass and these moments, and M^-1, are finite: a positive mass or
    moment so small that its reciprocal overflows is refused here, not at the
    first field call."""
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = mass_blocks(mass, np.asarray(moments, dtype=float))
    if not all(np.isfinite(block).all() for block in blocks):
        shown = list(moments) if key == "moments" else mass
        raise ParameterDomainError(
            f"{key} must give a finite mass matrix and inverse, got {shown}")


def _chain_masses_and_lengths(cfg) -> None:
    """Check a chain config's n and fill in unit masses and lengths (n each)."""
    if not 1 <= cfg.n <= sys.maxsize:  # beyond, (1.0,) * n overflows
        raise ParameterDomainError(f"n must be 1 to {sys.maxsize} pendulums, got {cfg.n}")
    for name in ("masses", "lengths"):
        values = finite_positive(name, getattr(cfg, name) or (1.0,) * cfg.n)
        if len(values) != cfg.n:
            raise ParameterDomainError("masses and lengths must have n entries")
        object.__setattr__(cfg, name, values)
    for mass in cfg.masses:
        _finite_mass_block("masses", mass)
    # a link's constraint target is its squared length
    if not all(0.0 < l * l < math.inf for l in cfg.lengths):
        raise ParameterDomainError(
            f"lengths must have finite, positive squares, got {list(cfg.lengths)}")


@dataclass(frozen=True)
class NPendulumConfig:
    """Planar chain of point masses linked anchor -> x1 -> ... -> xN."""

    n: int = 2
    masses: tuple = ()
    lengths: tuple = ()
    gravity: float = 1.0
    dt: float = 0.03

    def __post_init__(self):
        _chain_masses_and_lengths(self)
        finite_positive("dt", (self.dt,))


@dataclass(frozen=True)
class CoupledConfig:
    """3D pendulums on pivots at k*pivot, springs between neighboring bobs."""

    n: int = 3
    masses: tuple = ()
    lengths: tuple = ()
    spring_k: float = 1.0
    pivot: tuple = (1.0, 0.0, 0.0)
    gravity: float = 1.0
    dt: float = 0.03

    def __post_init__(self):
        _chain_masses_and_lengths(self)
        object.__setattr__(self, "pivot", tuple(float(v) for v in self.pivot))
        if len(self.pivot) != 3:
            raise ParameterDomainError("pivot must be a 3-vector")
        # |pivot| is the springs' rest length, so its square must neither
        # overflow nor underflow
        if not 0.0 < sum(v * v for v in self.pivot) < math.inf:
            raise ParameterDomainError(
                f"pivot must have a finite, positive squared norm, got {list(self.pivot)}")
        finite_positive("spring_k", (self.spring_k,))
        finite_positive("dt", (self.dt,))


@dataclass(frozen=True)
class MagnetConfig:
    """Spherical pendulum carrying charge -q x/|x| over fixed dipole magnets."""

    mass: float = 1.0
    length: float = 1.0
    strength: float = 1.0
    magnet_positions: tuple = ((0.3, 0.0, -1.1), (-0.3, 0.0, -1.1))
    magnet_moments: tuple = ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    gravity: float = 1.0
    dt: float = 0.03

    def __post_init__(self):
        finite_positive("mass", (self.mass,))
        _finite_mass_block("mass", self.mass)
        (length,) = finite_positive("length", (self.length,))
        if not 0.0 < length * length < math.inf:  # the link's constraint target
            raise ParameterDomainError(f"length must have a finite, positive square, got {length}")
        finite_positive("dt", (self.dt,))
        for name in ("magnet_positions", "magnet_moments"):
            vectors = tuple(tuple(float(v) for v in r) for r in getattr(self, name))
            if not vectors or any(len(r) != 3 for r in vectors):
                raise ParameterDomainError(
                    f"{name} must be a non-empty list of 3-vectors, got {list(vectors)}")
            object.__setattr__(self, name, vectors)
        if len(self.magnet_moments) != len(self.magnet_positions):
            raise ParameterDomainError(
                f"magnet_moments must pair up with magnet_positions, got "
                f"{len(self.magnet_moments)} and {len(self.magnet_positions)}")


@dataclass(frozen=True)
class GyroscopeConfig:
    """Extended body with a body-frame point pinned to the origin, under gravity."""

    mass: float = 1.0
    moments: tuple = (0.05, 0.05, 0.09)
    gravity: float = 1.0
    dt: float = 0.03

    def __post_init__(self):
        finite_positive("mass", (self.mass,))
        object.__setattr__(self, "moments", finite_positive("moments", self.moments))
        _finite_mass_block("mass", self.mass)
        _finite_mass_block("moments", self.mass, self.moments)
        finite_positive("dt", (self.dt,))


@dataclass(frozen=True)
class RotorConfig:
    """Free extended body; pairwise-distinct moments give the unstable middle axis."""

    mass: float = 1.0
    moments: tuple = (0.03, 0.05, 0.09)
    dt: float = 0.03

    def __post_init__(self):
        finite_positive("mass", (self.mass,))
        moments = finite_positive("moments", self.moments)
        if len(set(moments)) != len(moments):
            raise ParameterDomainError(
                f"rotor moments must be pairwise distinct, got {moments}")
        object.__setattr__(self, "moments", moments)
        _finite_mass_block("mass", self.mass)
        _finite_mass_block("moments", self.mass, moments)
        finite_positive("dt", (self.dt,))


# -- the system bundle -------------------------------------------------------------

@dataclass(frozen=True)
class System:
    """A built benchmark system: topology, mass, potential, and its sampler."""

    name: str
    config: object
    topology: SystemTopology
    mass: MassModel
    potential: object
    sampler: Callable = field(repr=False, default=None)

    @property
    def dt(self) -> float:
        return self.config.dt

    def context(self, flavor: str = HAMILTONIAN) -> DynamicsContext:
        return DynamicsContext(self.topology, self.mass, self.potential, flavor)

    def sample(self, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
        if count is None:
            return self.sampler(rng)
        return np.stack([self.sampler(rng) for _ in range(count)])

    @cached_property
    def _hamiltonian(self) -> DynamicsContext:
        return self.context()

    def energy(self, z: np.ndarray):
        return energy(self._hamiltonian, z)

    def dynamics(self, z: np.ndarray) -> np.ndarray:
        return constrained_dynamics(self._hamiltonian, z)


def disable_system_constraints(system: System, indices) -> System:
    """Same system with some constraint rows switched off (ablation studies)."""
    return replace(system, topology=system.topology.disable_constraints(indices))


# -- builders ----------------------------------------------------------------------

def _chain_angles(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint angles uniform on [-pi, pi) and rates N(0, 0.5^2), n each."""
    return rng.uniform(-math.pi, math.pi, n), rng.normal(0.0, 0.5, n)


def build_n_pendulum(cfg: NPendulumConfig) -> System:
    bodies = tuple(BodySpec.point(m) for m in cfg.masses)
    links = [Link(anchor(0), point(0), cfg.lengths[0])]
    links += [Link(point(i - 1), point(i), cfg.lengths[i]) for i in range(1, cfg.n)]
    topology = SystemTopology(2, bodies, tuple(links), anchors=(np.zeros(2),))
    mass = assemble_mass_matrix(bodies)
    potential = LinearGravity(cfg.masses, axis=1, g=cfg.gravity)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        X, V = pendulum_embed(*_chain_angles(rng, cfg.n), cfg.lengths)
        return _flat_state(X, velocity_to_momentum(V, mass))

    return System("npendulum", cfg, topology, mass, potential, sampler)


def build_coupled_pendulums(cfg: CoupledConfig) -> System:
    bodies = tuple(BodySpec.point(m) for m in cfg.masses)
    pivot = np.asarray(cfg.pivot)
    anchors = tuple((k + 1.0) * pivot for k in range(cfg.n))
    links = tuple(Link(anchor(k), point(k), cfg.lengths[k]) for k in range(cfg.n))
    topology = SystemTopology(3, bodies, links, anchors=anchors)
    mass = assemble_mass_matrix(bodies)
    springs = SpringChain([(k, k + 1) for k in range(cfg.n - 1)],
                          k=cfg.spring_k, rest=float(np.linalg.norm(pivot)))
    potential = SumPotential(LinearGravity(cfg.masses, axis=1, g=cfg.gravity), springs)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        q, qdot = _chain_angles(rng, cfg.n)
        azim = rng.uniform(0.0, 2.0 * math.pi, cfg.n)
        l = np.asarray(cfg.lengths)
        # each bob swings in its own vertical plane; the state stays tangent
        X = np.stack([np.sin(q) * np.cos(azim) * l,
                      -np.cos(q) * l,
                      np.sin(q) * np.sin(azim) * l]) + np.stack(anchors, axis=1)
        V = np.stack([np.cos(q) * np.cos(azim), np.sin(q),
                      np.cos(q) * np.sin(azim)]) * (l * qdot)
        return _flat_state(X, velocity_to_momentum(V, mass))

    return System("coupled", cfg, topology, mass, potential, sampler)


def build_magnet_pendulum(cfg: MagnetConfig) -> System:
    bodies = (BodySpec.point(cfg.mass),)
    topology = SystemTopology(
        3, bodies, (Link(anchor(0), point(0), cfg.length),), anchors=(np.zeros(3),))
    mass = assemble_mass_matrix(bodies)
    dipoles = DipolePotential(cfg.magnet_positions, cfg.magnet_moments, cfg.strength)
    potential = SumPotential(LinearGravity((cfg.mass,), axis=2, g=cfg.gravity), dipoles)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        theta = rng.uniform(0.0, math.pi / 3.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        x = cfg.length * np.array([math.sin(theta) * math.cos(phi),
                                   math.sin(theta) * math.sin(phi),
                                   -math.cos(theta)])
        v = rng.normal(0.0, 0.2, 3)
        v -= (v @ x) * x / (cfg.length ** 2)
        return _flat_state(x[:, None], velocity_to_momentum(v[:, None], mass))

    return System("magnet", cfg, topology, mass, potential, sampler)


def _rigid_body_state(mass: MassModel, R: np.ndarray, x_cm, v_cm,
                      omega_body) -> np.ndarray:
    """Flat Hamiltonian state of one 3D extended body from its pose and rates."""
    Rdot = R @ skew(omega_body)
    X = np.concatenate([np.zeros((3, 1)), R], axis=1) + np.asarray(x_cm, dtype=float)[:, None]
    Xdot = np.concatenate([np.zeros((3, 1)), Rdot], axis=1) + np.asarray(v_cm, dtype=float)[:, None]
    return _flat_state(X, velocity_to_momentum(Xdot, mass))


def build_gyroscope(cfg: GyroscopeConfig) -> System:
    bodies = (BodySpec.rigid(cfg.mass, cfg.moments),)
    # the center of mass sits one unit along body axis 3 from the pivot, as
    # oracles.gyroscope_inertia assumes
    pivot = (0.0, 0.0, -1.0)
    joint = Joint(body_a=0, c_a=pivot, anchor=0)
    topology = SystemTopology(3, bodies, (joint,), anchors=(np.zeros(3),))
    mass = assemble_mass_matrix(bodies)
    potential = LinearGravity((cfg.mass, 0.0, 0.0, 0.0), axis=2, g=cfg.gravity)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        tilt = rng.uniform(0.0, 0.3)
        R = rotation_zxz(rng.uniform(0.0, 2.0 * math.pi), tilt,
                         rng.uniform(0.0, 2.0 * math.pi))
        omega_body = np.array([0.0, 0.0, rng.normal(20.0, 2.0)])
        x_cm = -R @ np.asarray(pivot)
        v_cm = -R @ skew(omega_body) @ np.asarray(pivot)
        return _rigid_body_state(mass, R, x_cm, v_cm, omega_body)

    return System("gyroscope", cfg, topology, mass, potential, sampler)


def build_rotor(cfg: RotorConfig) -> System:
    bodies = (BodySpec.rigid(cfg.mass, cfg.moments),)
    topology = SystemTopology(3, bodies)
    mass = assemble_mass_matrix(bodies)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        R = _random_rotation(rng)
        omega_body = rng.normal(0.0, 1.0, 3)
        mid = int(np.argsort(cfg.moments)[1])
        omega_body[mid] += 3.0 * math.copysign(1.0, omega_body[mid])
        return _rigid_body_state(mass, R, np.zeros(3), np.zeros(3), omega_body)

    return System("rotor", cfg, topology, mass, SumPotential(), sampler)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    Q, upper = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(upper))
    if np.linalg.det(Q) < 0.0:
        Q[:, 2] = -Q[:, 2]
    return Q


# -- registry -------------------------------------------------------------------------

SYSTEM_BUILDERS = {
    "npendulum": (NPendulumConfig, build_n_pendulum),
    "coupled": (CoupledConfig, build_coupled_pendulums),
    "magnet": (MagnetConfig, build_magnet_pendulum),
    "gyroscope": (GyroscopeConfig, build_gyroscope),
    "rotor": (RotorConfig, build_rotor),
}


def system_names() -> list[str]:
    return sorted(SYSTEM_BUILDERS)


def _finite(value) -> bool:
    """Whether every number in value, nested lists included, is a finite
    float; an integer too large for one is not."""
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def build_system(kind: str, **params) -> System:
    """The system `kind` from its config's defaults and params.  A value
    without its default's type raises SchemaError naming system.<key>, and so
    does a nan or infinite number anywhere in a value that passes the
    config's own domain checks."""
    check_like("system.kind", kind, "npendulum")
    try:
        cfg_cls, builder = SYSTEM_BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown system {kind!r}; choose from {system_names()}") from None
    defaults = vars(cfg_cls())
    bad = sorted(set(params) - set(defaults))
    if bad:
        raise ValueError(f"unknown {kind} parameters {bad}; known: {sorted(defaults)}")
    for key, value in params.items():
        check_like(f"system.{key}", value, defaults[key])
    cfg = cfg_cls(**params)
    for key, value in params.items():
        if not _finite(value):
            raise SchemaError(f"system.{key}: expected finite numbers, got {value!r}")
    return builder(cfg)


def _jsonify(value):
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    return value


def system_to_dict(system: System) -> dict:
    out = {"kind": system.name}
    out.update({k: _jsonify(v) for k, v in asdict(system.config).items()})
    return out


def system_from_dict(doc: dict) -> System:
    doc = dict(doc)
    if "kind" not in doc:
        raise ValueError("system document needs a 'kind' entry")
    return build_system(doc.pop("kind"), **doc)
