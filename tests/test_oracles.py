"""Generalized-coordinate oracles: internal consistency and frozen examples."""
import numpy as np
import pytest

from cartmech.bodies import BodySpec, assemble_mass_matrix, kinetic_energy
from cartmech.errors import GimbalLockError
from cartmech.oracles import (
    euler_rate_matrix,
    gyroscope_embed,
    gyroscope_inertia,
    gyroscope_mass_matrix,
    gyroscope_oracle_dynamics,
    gyroscope_oracle_energy,
    pendulum_angles,
    pendulum_embed,
    pendulum_mass_matrix,
    pendulum_oracle_dynamics,
    pendulum_oracle_energy,
    rotation_zxz,
    skew,
    two_pendulum_closed_form,
)

from conftest import fd_jacobian


def test_two_pendulum_mass_matrix_at_rest():
    M = pendulum_mass_matrix(np.zeros(2), (1.0, 1.0), (1.0, 1.0))
    assert np.allclose(M, [[2.0, 1.0], [1.0, 1.0]], atol=1e-15)


def test_mass_matrix_matches_embedded_kinetic_energy():
    # polarization identity on the embedded chain's kinetic energy
    rng = np.random.default_rng(11)
    masses = (1.0, 0.5, 2.0, 1.5)
    lengths = (1.0, 2.0, 0.7, 1.2)
    mass = assemble_mass_matrix([BodySpec.point(m) for m in masses])
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, 4)

        def T(qdot):
            _, V = pendulum_embed(q, qdot, lengths)
            return kinetic_energy(V, mass)

        M = pendulum_mass_matrix(q, masses, lengths)
        eye = np.eye(4)
        brute = np.array([[T(eye[i] + eye[j]) - T(eye[i]) - T(eye[j])
                           for j in range(4)] for i in range(4)])
        np.fill_diagonal(brute, [2.0 * T(eye[i]) for i in range(4)])
        assert np.abs(M - brute).max() < 1e-10


def test_closed_form_matches_generic_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = rng.normal(size=4)
        a = pendulum_oracle_dynamics(w[:2], w[2:], (1.0, 1.0), (1.0, 1.0))
        b = two_pendulum_closed_form(w[:2], w[2:], 1.0, 1.0, 1.0, 1.0)
        assert np.abs(a - b).max() < 1e-12


def test_closed_form_mixed_parameters():
    rng = np.random.default_rng(4)
    m, l = (1.3, 0.6), (0.9, 1.7)
    for _ in range(10):
        w = rng.normal(size=4)
        a = pendulum_oracle_dynamics(w[:2], w[2:], m, l, g=2.5)
        b = two_pendulum_closed_form(w[:2], w[2:], *m, *l, g=2.5)
        assert np.abs(a - b).max() < 1e-12


def test_pendulum_dynamics_is_hamiltonian_flow():
    # (qdot, pdot) must equal (dH/dp, -dH/dq) of the oracle energy
    rng = np.random.default_rng(9)
    m, l = (1.0, 2.0, 0.5), (1.1, 0.8, 1.4)
    w = rng.normal(size=6)
    grad = fd_jacobian(
        lambda u: np.array([pendulum_oracle_energy(u[:3], u[3:], m, l)]), w)[0]
    flow = pendulum_oracle_dynamics(w[:3], w[3:], m, l)
    assert np.abs(flow - np.concatenate([grad[3:], -grad[:3]])).max() < 1e-6


def test_pendulum_embed_frozen_example():
    X, V = pendulum_embed([np.pi / 2.0], [1.0], [1.0])
    assert np.allclose(X[:, 0], [1.0, 0.0], atol=1e-15)
    assert np.allclose(V[:, 0], [0.0, 1.0], atol=1e-15)


def test_pendulum_embed_angle_roundtrip():
    rng = np.random.default_rng(2)
    lengths = (1.0, 0.5, 1.5)
    q = rng.uniform(-np.pi, np.pi, 3)
    qdot = rng.normal(size=3)
    X, V = pendulum_embed(q, qdot, lengths)
    q2, qd2 = pendulum_angles(X, V, lengths)
    assert np.abs(q - q2).max() < 1e-12
    assert np.abs(qdot - qd2).max() < 1e-12
    # a (B, 2, n) stack: each row as if alone
    Q = rng.uniform(-np.pi, np.pi, (6, 3))
    Qdot = rng.normal(size=(6, 3))
    embedded = [pendulum_embed(qi, qdi, lengths) for qi, qdi in zip(Q, Qdot)]
    Xs, Vs = pendulum_embed(Q, Qdot, lengths)
    assert Xs.shape == Vs.shape == (6, 2, 3)
    assert np.array_equal(Xs, np.stack([e[0] for e in embedded]))
    assert np.array_equal(Vs, np.stack([e[1] for e in embedded]))
    q3, qd3 = pendulum_angles(Xs, Vs, lengths)
    assert q3.shape == qd3.shape == (6, 3)
    for k in range(6):
        qk, qdk = pendulum_angles(Xs[k], Vs[k], lengths)
        assert np.array_equal(q3[k], qk) and np.array_equal(qd3[k], qdk)
    assert np.abs(Q - q3).max() < 1e-12
    assert np.abs(Qdot - qd3).max() < 1e-12


def test_gyroscope_inertia_frozen():
    assert np.allclose(gyroscope_inertia(2.0, (0.05, 0.05, 0.09)),
                       [2.28, 2.28, 0.2], atol=1e-12)


def test_rotation_zxz_is_special_orthogonal():
    R = rotation_zxz(0.3, 1.1, -0.4)
    assert np.abs(R @ R.T - np.eye(3)).max() < 1e-14
    assert abs(np.linalg.det(R) - 1.0) < 1e-14
    w = np.array([0.3, -1.2, 0.7])
    S = skew(w)
    assert np.abs(S + S.T).max() == 0.0
    assert np.allclose(S @ np.array([1.0, 0, 0]), np.cross(w, [1.0, 0, 0]))


def test_gyroscope_dynamics_is_hamiltonian_flow():
    rng = np.random.default_rng(12)
    m, lam, g = 1.5, (0.05, 0.05, 0.09), 1.0
    w = np.concatenate([[0.4, 0.9, -0.3], rng.normal(size=3)])
    grad = fd_jacobian(
        lambda u: np.array([gyroscope_oracle_energy(u[:3], u[3:], m, lam, g)]), w)[0]
    flow = gyroscope_oracle_dynamics(w[:3], w[3:], m, lam, g)
    assert np.abs(flow - np.concatenate([grad[3:], -grad[:3]])).max() < 1e-6


def test_gyroscope_kinetic_matches_cartesian_embedding():
    # 0.5 qdot^T M(q) qdot must equal the Cartesian kinetic energy of the
    # embedded body, and m g cos(theta) its potential height.
    rng = np.random.default_rng(7)
    m, lam = 1.0, (0.05, 0.05, 0.09)
    mass = assemble_mass_matrix([BodySpec.rigid(m, lam)])
    for _ in range(5):
        q = np.array([rng.uniform(0, 2 * np.pi), rng.uniform(0.2, 2.9),
                      rng.uniform(0, 2 * np.pi)])
        qdot = rng.normal(size=3)
        M = gyroscope_mass_matrix(q[1], q[2], m, lam)
        X, Xdot = gyroscope_embed(q, qdot)
        assert abs(0.5 * qdot @ M @ qdot - kinetic_energy(Xdot, mass)) < 1e-12
        assert abs(m * np.cos(q[1]) - m * X[2, 0]) < 1e-12


def test_gyroscope_embed_pins_the_pivot():
    q = np.array([0.5, 0.8, -1.1])
    qdot = np.array([0.3, -0.2, 17.0])
    X, Xdot = gyroscope_embed(q, qdot)
    R = X[:, 1:] - X[:, 0:1]
    # pivot = cm + R (0,0,-1) must rest at the origin with zero velocity
    assert np.abs(X[:, 0] - R[:, 2]).max() < 1e-14
    Rdot = Xdot[:, 1:] - Xdot[:, 0:1]
    assert np.abs(Xdot[:, 0] - Rdot[:, 2]).max() < 1e-14


def test_gimbal_lock_raises():
    with pytest.raises(GimbalLockError):
        gyroscope_mass_matrix(0.0, 0.3, 1.0, (0.05, 0.05, 0.09))
    with pytest.raises(GimbalLockError):
        gyroscope_oracle_dynamics(np.array([0.1, np.pi, 0.2]), np.zeros(3),
                                  1.0, (0.05, 0.05, 0.09))


def test_euler_rate_matrix_matches_rotation_derivative():
    # Rdot = R skew(B qdot) checked against finite differences of R(q)
    q = np.array([0.4, 1.0, -0.7])
    qdot = np.array([0.5, -0.3, 0.9])
    h = 1e-6
    Rdot_fd = (rotation_zxz(*(q + h * qdot)) - rotation_zxz(*(q - h * qdot))) / (2 * h)
    R = rotation_zxz(*q)
    Rdot = R @ skew(euler_rate_matrix(q[1], q[2]) @ qdot)
    assert np.abs(Rdot - Rdot_fd).max() < 1e-8


def test_euler_oracle_energy_conserved_over_one_second():
    from cartmech.integrators import Tolerances, integrate_adaptive

    m, lam = 1.0, (0.05, 0.05, 0.09)
    q0 = np.array([0.3, 0.25, 0.1])
    p0 = gyroscope_mass_matrix(q0[1], q0[2], m, lam) @ np.array([0.2, 0.1, 18.0])
    w0 = np.concatenate([q0, p0])
    f = lambda w: gyroscope_oracle_dynamics(w[:3], w[3:], m, lam)
    traj = integrate_adaptive(f, w0, 1.0, t_eval=np.linspace(0, 1, 11),
                              tol=Tolerances(1e-10, 1e-12))
    E0 = gyroscope_oracle_energy(q0, p0, m, lam)
    drift = max(abs(gyroscope_oracle_energy(w[:3], w[3:], m, lam) - E0)
                for w in traj.states)
    assert drift / abs(E0) < 1e-8
