"""Benchmark systems: samplers stay on-manifold, potentials check out against
finite differences, and the Cartesian flows agree with the generalized oracles."""
import numpy as np
import pytest

import cartmech.autodiff as ad
from cartmech.constraints import phi, phidot
from cartmech.dynamics import (
    DynamicsContext,
    constrained_dynamics,
    convert_flavor,
    energy,
    unconstrained_dynamics,
)
from cartmech.errors import FieldSingularityError, GradientSingularityError, ParameterDomainError
from cartmech.integrators import Tolerances, integrate_adaptive
from cartmech.oracles import (
    gyroscope_embed,
    gyroscope_mass_matrix,
    gyroscope_oracle_dynamics,
    gyroscope_oracle_energy,
    pendulum_embed,
    pendulum_mass_matrix,
    pendulum_oracle_dynamics,
)
from cartmech.states import HAMILTONIAN, LAGRANGIAN, flatten_matrix
from cartmech.systems import (
    LinearGravity,
    SpringChain,
    _dipole,
    _rigid_body_state,
    build_system,
    system_from_dict,
    system_names,
    system_to_dict,
)

TIGHT = Tolerances(rtol=1e-10, atol=1e-12)


def _split_velocity(system, z):
    X, P = system.context().split(z)
    return X, P @ system.mass.inverse


def _flow(system):
    ctx = system.context()
    return lambda z: constrained_dynamics(ctx, z)


def _hamiltonian_state(system, X, V):
    """The flat Hamiltonian state of positions X and velocities V."""
    z = np.concatenate([flatten_matrix(X), flatten_matrix(V)])
    return convert_flavor(system.context(LAGRANGIAN), z, HAMILTONIAN)


def _chain_state(system, q, qdot):
    return _hamiltonian_state(system, *pendulum_embed(q, qdot, system.config.lengths))


def _assert_positions_track(system, z0, oracle, w0, positions, bound):
    """Integrate the Cartesian flow from z0 and the oracle from w0 over one
    second, and check that their positions stay within bound."""
    t_eval = np.linspace(0.0, 1.0, 21)
    cart = integrate_adaptive(_flow(system), z0, 1.0,
                              t_eval=t_eval, tol=Tolerances(1e-9, 1e-11))
    gen = integrate_adaptive(oracle, w0, 1.0, t_eval=t_eval,
                             tol=Tolerances(1e-9, 1e-11))
    dn = system.topology.dn
    dev = max(np.abs(zc[:dn] - flatten_matrix(positions(wo))).max()
              for zc, wo in zip(cart.states, gen.states))
    assert dev < bound


# -- registry and configs --------------------------------------------------------

def test_registry_names():
    assert system_names() == ["coupled", "gyroscope", "magnet", "npendulum", "rotor"]


def test_unknown_system_and_parameter_rejected():
    with pytest.raises(ValueError, match="unknown system"):
        build_system("spinning-wheel")
    with pytest.raises(ValueError, match="unknown npendulum parameters"):
        build_system("npendulum", masse=(1.0,))


def test_config_validation():
    with pytest.raises(ParameterDomainError):
        build_system("npendulum", n=2, masses=(1.0, -1.0))
    with pytest.raises(ParameterDomainError):
        build_system("npendulum", n=0)
    with pytest.raises(ParameterDomainError):
        build_system("rotor", moments=(0.05, 0.05, 0.09))
    # magnet vectors that are not 3-vectors or do not pair up, named before
    # numpy's broadcasting error at the first field call
    for params, key in (
            ({"magnet_positions": ((0.0, 0.0),), "magnet_moments": ((0.0, 1.0),)},
             "magnet_positions"),
            ({"magnet_positions": (), "magnet_moments": ()}, "magnet_positions"),
            ({"magnet_moments": ((0.0, 0.0, 1.0, 0.0),) * 2}, "magnet_moments"),
            ({"magnet_moments": ((0.0, 0.0, 1.0),)}, "magnet_moments")):
        with pytest.raises(ParameterDomainError, match=f"^{key} must"):
            build_system("magnet", **params)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name,key", [("npendulum", "dt"), ("coupled", "spring_k"),
                                      ("magnet", "length"), ("gyroscope", "mass")])
def test_non_finite_parameters_are_rejected_by_name(name, key, value):
    # nan passes every `<= 0` test, and an inf dt never ends a trajectory
    with pytest.raises(ParameterDomainError, match=f"{key} must be finite and positive, got"):
        build_system(name, **{key: value})
    with pytest.raises(ParameterDomainError, match="masses must be finite"):
        build_system("npendulum", n=2, masses=(1.0, value))


def test_system_dict_roundtrip():
    for name in system_names():
        system = build_system(name)
        doc = system_to_dict(system)
        clone = system_from_dict(doc)
        assert clone.config == system.config
        assert system_to_dict(clone) == doc


# -- samplers ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["coupled", "gyroscope", "magnet", "npendulum", "rotor"])
def test_samplers_stay_on_manifold(name):
    system = build_system(name)
    rng = np.random.default_rng(0)
    count = 1000 if name == "npendulum" else 200
    for z in system.sample(rng, count):
        X, V = _split_velocity(system, z)
        residual = phi(system.topology, X)
        if residual.size:
            assert np.abs(residual).max() < 1e-9
            assert np.abs(phidot(system.topology, X, V)).max() < 1e-9


def test_sampler_deterministic_per_seed():
    system = build_system("magnet")
    a = system.sample(np.random.default_rng(42), 3)
    b = system.sample(np.random.default_rng(42), 3)
    assert np.array_equal(a, b)


# -- N-pendulum ---------------------------------------------------------------------

def test_single_pendulum_hangs_at_rest():
    system = build_system("npendulum", n=1)
    z = _chain_state(system, [0.0], [0.0])
    assert np.allclose(z, [0.0, -1.0, 0.0, 0.0], atol=1e-15)
    assert np.abs(system.dynamics(z)).max() < 1e-14


def test_pendulum_unconstrained_force_pattern():
    # before projection every bob feels pdot = (0, -g m_i)
    system = build_system("npendulum", n=3, masses=(1.0, 2.0, 0.5), gravity=1.7)
    z = system.sample(np.random.default_rng(1))
    zdot = unconstrained_dynamics(system.context(), z)
    dn = z.size // 2
    force = zdot[dn:].reshape(-1, 2).T
    assert np.abs(force[0]).max() < 1e-15
    assert np.allclose(force[1], [-1.7, -3.4, -0.85], atol=1e-15)


def _chain_matches_oracle(q0, qd0):
    n = len(q0)
    system = build_system("npendulum", n=n)
    m, l, g = system.config.masses, system.config.lengths, system.config.gravity
    w0 = np.concatenate([q0, pendulum_mass_matrix(q0, m, l) @ qd0])
    _assert_positions_track(system, _chain_state(system, q0, qd0),
                            lambda w: pendulum_oracle_dynamics(w[:n], w[n:], m, l, g), w0,
                            lambda w: pendulum_embed(w[:n], np.zeros(n), l)[0], 1e-4)


def test_two_pendulum_matches_closed_form_trajectory():
    _chain_matches_oracle(np.array([0.8, -0.4]), np.array([0.3, 0.5]))


def test_three_pendulum_matches_generalized_oracle():
    _chain_matches_oracle(np.array([0.8, -0.4, 0.2]), np.array([0.3, 0.5, -0.2]))


def test_hanging_two_pendulum_embedding():
    system = build_system("npendulum", n=2)
    z = _chain_state(system, [0.0, 0.0], [0.0, 0.0])
    X, P = system.context().split(z)
    assert np.allclose(X[:, 0], [0.0, -1.0], atol=1e-15)
    assert np.allclose(X[:, 1], [0.0, -2.0], atol=1e-15)
    assert np.abs(P).max() == 0.0


# -- coupled pendulums ----------------------------------------------------------------

def test_coupled_hanging_equilibrium():
    system = build_system("coupled")
    X = np.stack([np.arange(1.0, 4.0), -np.ones(3), np.zeros(3)])
    z = np.concatenate([X.ravel(order="F"), np.zeros(9)])
    assert np.abs(system.dynamics(z)).max() < 1e-14


def test_spring_energy_and_gradient():
    spring = SpringChain([(0, 1)], k=1.0, rest=1.0)
    assert spring.value(np.array([[0.0, 2.0], [0.0, 0.0], [0.0, 0.0]])) == 0.5
    with pytest.raises(GradientSingularityError):
        spring.grad(np.zeros((3, 2)))


def test_coupled_potential_gradient_fd():
    system = build_system("coupled")
    z = system.sample(np.random.default_rng(1))
    X = system.context().split(z)[0]
    pot = system.potential
    grad = pot.grad(X)
    h = 1e-6
    fd = np.zeros_like(X)
    for i in range(3):
        for j in range(3):
            Xp, Xm = X.copy(), X.copy()
            Xp[i, j] += h
            Xm[i, j] -= h
            fd[i, j] = (pot.value(Xp) - pot.value(Xm)) / (2.0 * h)
    assert np.abs(grad - fd).max() < 1e-6


# -- magnet pendulum --------------------------------------------------------------------

def test_dipole_field_frozen_examples():
    # on-axis doubling and equatorial half-strength with opposite sign
    moment = np.array([0.0, 0.0, 1.0])
    for r, expected in (([0.0, 0.0, 2.0], [0.0, 0.0, 0.25]),
                        ([2.0, 0.0, 0.0], [0.0, 0.0, -0.125])):
        r = np.array(r)
        field = _dipole(r, np.vecdot(r, r)[..., None], moment, r)[0]
        assert np.allclose(field, expected, atol=1e-15)


def _dipole_fd_gradient(pot, X, h=1e-6):
    fd = np.zeros_like(X)
    for i in range(3):
        Xp, Xm = X.copy(), X.copy()
        Xp[i, 0] += h
        Xm[i, 0] -= h
        fd[i, 0] = (pot.value(Xp) - pot.value(Xm)) / (2.0 * h)
    return fd


def test_magnet_gradient_matches_fd():
    layouts = [
        {},
        # three dipoles with tilted moments, one of them reversed, at another strength
        {"magnet_positions": ((0.5, 0.1, -1.2), (-0.4, 0.3, -1.2), (0.0, -0.5, -1.3)),
         "magnet_moments": ((0.3, 0.0, 1.0), (0.0, -0.4, 0.8), (0.5, 0.5, -1.0)),
         "strength": 1.7},
    ]
    rng = np.random.default_rng(5)
    for layout in layouts:
        system = build_system("magnet", **layout)
        pot = system.potential
        for z in system.sample(rng, 20):
            X = system.context().split(z)[0]
            # on the sphere and 0.05 off it, where the constraint does not hold
            for Xs in (X, X + 0.05 * rng.normal(size=X.shape)):
                assert np.abs(pot.grad(Xs) - _dipole_fd_gradient(pot, Xs)).max() < 1e-6


def test_ground_truth_builds_no_tape(monkeypatch):
    # the autodiff tape serves the learned models only
    def refuse(self):
        raise AssertionError("ground-truth code built an autodiff tape")

    monkeypatch.setattr(ad.Tape, "__init__", refuse)
    rng = np.random.default_rng(6)
    for name in system_names():
        system = build_system(name)
        z = system.sample(rng)
        assert np.all(np.isfinite(system.dynamics(z)))
        X = system.context().split(z)[0]
        assert np.all(np.isfinite(system.potential.grad(X)))
    magnet = build_system("magnet")
    run = integrate_adaptive(magnet.dynamics, magnet.sample(rng), 0.3,
                             t_eval=np.linspace(0.0, 0.3, 4))
    assert np.all(np.isfinite(run.states))


def test_zero_strength_magnet_is_spherical_pendulum():
    system = build_system("magnet", strength=0.0)
    pure = DynamicsContext(system.topology, system.mass,
                           LinearGravity((1.0,), axis=2, g=1.0))
    z = system.sample(np.random.default_rng(5))
    assert np.array_equal(system.dynamics(z),
                          constrained_dynamics(pure, z))


def test_magnet_potential_singular_near_magnet():
    system = build_system("magnet")
    X = np.array([[0.3], [0.0], [-1.1]])
    with pytest.raises(FieldSingularityError):
        system.potential.value(X)


# -- gyroscope ----------------------------------------------------------------------------

def test_gyroscope_unit_mass_inverse_display():
    system = build_system("gyroscope", mass=1.0, moments=(1.0, 1.0, 1.0))
    expected = np.ones((4, 4)) + np.diag([0.0, 1.0, 1.0, 1.0])
    assert np.abs(system.mass.inverse - expected).max() < 1e-14


def test_gyroscope_matches_euler_oracle_trajectory():
    system = build_system("gyroscope")
    mass, moments, g = system.config.mass, system.config.moments, system.config.gravity
    q0, qd0 = np.array([0.3, 0.25, 0.1]), np.array([0.2, 0.1, 18.0])
    w0 = np.concatenate([q0, gyroscope_mass_matrix(q0[1], q0[2], mass, moments) @ qd0])
    z0 = _hamiltonian_state(system, *gyroscope_embed(q0, qd0))
    assert abs(gyroscope_oracle_energy(q0, w0[3:], mass, moments, g) - system.energy(z0)) < 1e-10
    _assert_positions_track(system, z0,
                            lambda w: gyroscope_oracle_dynamics(w[:3], w[3:], mass, moments, g),
                            w0, lambda w: gyroscope_embed(w[:3], np.zeros(3))[0], 1e-3)


# -- rotor -------------------------------------------------------------------------------

def _angular_momentum(system, z):
    X, V = _split_velocity(system, z)
    Xr = X - X[:, 0:1]
    Vr = V - V[:, 0:1]
    M = system.mass.matrix
    return Xr @ M @ Vr.T - Vr @ M @ Xr.T


def test_rotor_principal_spin_is_steady():
    system = build_system("rotor")
    z0 = _rigid_body_state(system.mass, np.eye(3), np.zeros(3), np.zeros(3),
                           np.array([0.0, 0.0, 5.0]))
    traj = integrate_adaptive(_flow(system), z0, 3.0,
                              t_eval=np.linspace(0.0, 3.0, 31), tol=TIGHT)
    E0 = system.energy(z0)
    L0 = _angular_momentum(system, z0)
    for z in traj.states:
        X = system.context().split(z)[0]
        axis = X[:, 3] - X[:, 0]
        assert np.abs(axis - [0.0, 0.0, 1.0]).max() < 1e-9
        assert abs(system.energy(z) - E0) / abs(E0) < 1e-6
        assert np.linalg.norm(_angular_momentum(system, z) - L0) / np.linalg.norm(L0) < 1e-6


def test_rotor_intermediate_axis_flip():
    # Dzhanibekov: a middle-axis spin with a tiny perturbation flips over
    system = build_system("rotor")
    z0 = _rigid_body_state(system.mass, np.eye(3), np.zeros(3), np.zeros(3),
                           np.array([1e-3, 5.0, 1e-3]))
    traj = integrate_adaptive(_flow(system), z0, 30.0,
                              t_eval=np.linspace(0.0, 30.0, 301),
                              tol=Tolerances(1e-10, 1e-12))
    L0 = _angular_momentum(system, z0)
    l_hat = np.array([L0[2, 1], L0[0, 2], L0[1, 0]])
    l_hat /= np.linalg.norm(l_hat)
    proj = []
    for z in traj.states:
        X = system.context().split(z)[0]
        proj.append((X[:, 2] - X[:, 0]) @ l_hat)
    assert min(proj) < -0.5
    assert max(proj) > 0.5
    dL = max(np.linalg.norm(_angular_momentum(system, z) - L0) for z in traj.states)
    assert dL / np.linalg.norm(L0) < 1e-6


# -- shared invariants -----------------------------------------------------------------

@pytest.mark.parametrize("name", ["coupled", "gyroscope", "magnet", "npendulum", "rotor"])
def test_energy_conserved_over_three_seconds(name):
    system = build_system(name)
    z0 = system.sample(np.random.default_rng(17))
    traj = integrate_adaptive(_flow(system), z0, 3.0,
                              t_eval=np.linspace(0.0, 3.0, 31), tol=TIGHT)
    E0 = system.energy(z0)
    drift = max(abs(system.energy(z) - E0) for z in traj.states)
    assert drift / max(abs(E0), 1e-12) < 1e-6
