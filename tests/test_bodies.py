import numpy as np
import pytest

import cartmech.autodiff as ad
from cartmech.bodies import (
    BodySpec,
    assemble_mass_matrix,
    body_point_coeffs,
    delta_matrix,
    hamiltonian_kinetic,
    kinetic_energy,
    mass_blocks,
    velocity_to_momentum,
)
from cartmech.errors import ParameterDomainError


def test_delta_matrix():
    D = delta_matrix(3)
    assert D.shape == (4, 3)
    np.testing.assert_array_equal(D[0], [-1, -1, -1])
    np.testing.assert_array_equal(D[1:], np.eye(3))


def test_mass_block_unit_3d():
    M, Minv = mass_blocks(1.0, np.ones(3))
    expected = np.array([
        [4.0, -1.0, -1.0, -1.0],
        [-1.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0, 1.0],
    ])
    np.testing.assert_allclose(M, expected)
    np.testing.assert_allclose(Minv, np.ones((4, 4)) + np.diag([0, 1, 1, 1.0]))


def test_mass_block_inverse_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.uniform(0.2, 3.0)
        lam = rng.uniform(0.05, 2.0, size=3)
        M, Minv = mass_blocks(m, lam)
        np.testing.assert_allclose(M @ Minv, np.eye(4), atol=1e-12)


def test_gyroscope_default_inverse():
    # (1/m) [[1,1,1,1],[1,1+1/l1,1,1],[1,1,1+1/l2,1],[1,1,1,1+1/l3]]
    lam = (0.05, 0.05, 0.09)
    _, Minv = mass_blocks(2.0, np.asarray(lam))
    expected = np.ones((4, 4)) + np.diag([0.0, 1 / 0.05, 1 / 0.05, 1 / 0.09])
    np.testing.assert_allclose(Minv, expected / 2.0)


def test_kinetic_energy_matches_cm_plus_rotation():
    # T = Tr(Xdot M Xdot^T)/2 must equal m|v_cm|^2/2 + m Tr(Rdot S Rdot^T)/2.
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = rng.uniform(0.5, 2.0)
        lam = rng.uniform(0.1, 1.5, size=3)
        body = BodySpec.rigid(m, lam)
        mass = assemble_mass_matrix([body])
        Xdot = rng.normal(size=(3, 4))
        T = kinetic_energy(Xdot, mass)
        Rdot = Xdot @ delta_matrix(3)
        T_split = 0.5 * m * Xdot[:, 0] @ Xdot[:, 0] + 0.5 * m * np.trace(Rdot @ np.diag(lam) @ Rdot.T)
        np.testing.assert_allclose(T, T_split, rtol=1e-12)


def test_point_mass_block():
    # a point mass is the d = 0 body of the one formula, lam of shape (0,)
    mass = assemble_mass_matrix([BodySpec.point(2.5)])
    assert np.array_equal(mass.matrix, [[2.5]]) and np.array_equal(mass.inverse, [[0.4]])
    # learned: exp of a log-mass leaf on a graph tape; d/dlog m of 3 m + 5 / m
    tape = ad.Tape()
    log_m = tape.constant(np.log(2.5))
    M, Minv = mass_blocks(ad.exp(log_m), np.zeros(0))
    assert M.value.shape == Minv.value.shape == (1, 1)
    loss = ad.add(ad.reduce_sum(ad.mul(M, 3.0)), ad.reduce_sum(ad.mul(Minv, 5.0)))
    (g,) = ad.grad(loss, [log_m])
    m = np.exp(np.log(2.5))
    np.testing.assert_allclose(g.value, 3.0 * m - 5.0 / m, rtol=1e-14)


def test_mixed_assembly_blocks():
    mass = assemble_mass_matrix([BodySpec.point(1.0), BodySpec.rigid(2.0, (0.3, 0.4, 0.5))])
    assert mass.matrix.shape == (5, 5)
    np.testing.assert_allclose(mass.matrix @ mass.inverse, np.eye(5), atol=1e-12)


def test_momentum_velocity_roundtrip():
    rng = np.random.default_rng(2)
    mass = assemble_mass_matrix([BodySpec.rigid(1.3, (0.2, 0.7, 1.1)), BodySpec.point(0.8)])
    V = rng.normal(size=(3, 5))
    P = velocity_to_momentum(V, mass)
    np.testing.assert_allclose(P @ mass.inverse, V, atol=1e-12)
    np.testing.assert_allclose(hamiltonian_kinetic(P, mass), kinetic_energy(V, mass), rtol=1e-12)


def test_body_point_coeffs():
    body = BodySpec.rigid(1.0, (1.0, 1.0, 1.0))
    np.testing.assert_allclose(body_point_coeffs(body, (0, 0, -1)), [2, 0, 0, -1])
    np.testing.assert_allclose(body_point_coeffs(BodySpec.point(), ()), [1.0])


def test_parameter_domain():
    with pytest.raises(ParameterDomainError):
        BodySpec.point(0.0)
    with pytest.raises(ParameterDomainError):
        BodySpec.rigid(1.0, (0.1, -0.2, 0.3))
