import numpy as np
import pytest
from conftest import fd_jacobian

from cartmech.bodies import BodySpec, assemble_mass_matrix
from cartmech.constraints import (
    Joint,
    Link,
    anchor,
    auto_rigidity,
    jacobian_phi,
    jacobian_phidot_x,
    jacobian_psi,
    phi,
    phidot,
    point,
)
from cartmech.errors import ShapeError
from cartmech.states import flatten_matrix, unflatten_matrix
from cartmech.topology import SystemTopology


def chain_topology(n=3):
    refs = [anchor(0)] + [point(i) for i in range(n)]
    links = [Link(refs[i], refs[i + 1], length=1.0) for i in range(n)]
    return SystemTopology(dim=2, bodies=[BodySpec.point() for _ in range(n)],
                          constraints=links, anchors=[np.zeros(2)])


def pinned_bodies_topology():
    # Two 3D bodies, each with a body-frame point pinned to its own anchor,
    # and a link from a tip of one to a tip of the other.
    bodies = [BodySpec.rigid(1.0, (0.2, 0.3, 0.4)), BodySpec.rigid(0.7, (0.1, 0.5, 0.9))]
    cons = [
        Joint(body_a=0, c_a=(0.0, 0.0, -1.0), anchor=0),
        Joint(body_a=1, c_a=(0.3, -0.2, 1.0), anchor=1),
        Link(point(3), point(6), length=1.5),
    ]
    anchors = [np.array([0.0, 0.0, 0.5]), np.array([1.0, -0.4, 0.2])]
    return SystemTopology(dim=3, bodies=bodies, constraints=cons, anchors=anchors)


TOPOLOGIES = [chain_topology(), pinned_bodies_topology()]


def random_xv(topology, rng):
    X = rng.normal(size=(topology.dim, topology.n_points))
    V = rng.normal(size=(topology.dim, topology.n_points))
    return X, V


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_jacobian_phi_matches_fd(topo):
    rng = np.random.default_rng(3)
    for _ in range(20):
        X, _ = random_xv(topo, rng)
        J = jacobian_phi(topo, X)
        J_fd = fd_jacobian(lambda x: phi(topo, unflatten_matrix(x, topo.dim)), flatten_matrix(X))
        np.testing.assert_allclose(J, J_fd, atol=1e-7)


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_phidot_is_dphi_times_xdot(topo):
    rng = np.random.default_rng(4)
    for _ in range(10):
        X, V = random_xv(topo, rng)
        np.testing.assert_allclose(phidot(topo, X, V),
                                   jacobian_phi(topo, X) @ flatten_matrix(V), atol=1e-12)


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_jacobian_phidot_x_matches_fd(topo):
    rng = np.random.default_rng(5)
    for _ in range(10):
        X, V = random_xv(topo, rng)
        J = jacobian_phidot_x(topo, X, V)
        J_fd = fd_jacobian(lambda x: phidot(topo, unflatten_matrix(x, topo.dim), V), flatten_matrix(X))
        np.testing.assert_allclose(J, J_fd, atol=1e-7)


@pytest.mark.parametrize("topo", TOPOLOGIES)
def test_jacobian_psi_matches_fd(topo):
    rng = np.random.default_rng(6)
    mass = assemble_mass_matrix(topo.bodies)

    def psi(z):
        dn = z.size // 2
        X = unflatten_matrix(z[:dn], topo.dim)
        Xdot = unflatten_matrix(z[dn:], topo.dim) @ mass.inverse
        return np.concatenate([phi(topo, X), phidot(topo, X, Xdot)])

    for _ in range(10):
        X, P = random_xv(topo, rng)
        z = np.concatenate([flatten_matrix(X), flatten_matrix(P)])
        np.testing.assert_allclose(jacobian_psi(topo, z, mass), fd_jacobian(psi, z), atol=1e-7)


def test_anchor_columns_are_zero():
    topo = chain_topology(2)
    rng = np.random.default_rng(7)
    X, _ = random_xv(topo, rng)
    J = jacobian_phi(topo, X)
    # First link touches the anchor and point 0 only; no other column is hit.
    assert np.any(J[0, 0:2] != 0)
    np.testing.assert_array_equal(J[0, 2:], 0)


def test_auto_rigidity_count_and_targets():
    rig = auto_rigidity([BodySpec.rigid(1.0, (0.1, 0.2, 0.3)), BodySpec.point()])
    assert len(rig) == 6  # (3+1 choose 2)
    assert {r.body for r in rig} == {0}
    assert sorted(r.sq_dist for r in rig) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]


def test_disable_constraints_drops_rows():
    topo = chain_topology(3)
    assert topo.constraint_set.n_rows == 3
    ablated = topo.disable_constraints([1])
    assert ablated.constraint_set.n_rows == 2
    X = np.zeros((2, 3))
    assert phi(ablated, X).shape == (2,)
    with pytest.raises(ShapeError):
        topo.disable_constraints([99])


def test_joint_requires_target():
    with pytest.raises(TypeError, match="anchor"):
        Joint(body_a=0, c_a=(0, 0, 1))


RIGID = BodySpec.rigid(1.0, (1, 1, 1))
MALFORMED = {
    "self-link": ([BodySpec.point()], [Link(point(0), point(0))]),
    "point out of range": ([BodySpec.point()], [Link(anchor(0), point(1))]),
    "negative point": ([BodySpec.point()], [Link(anchor(0), point(-1))]),
    "anchor out of range in link": ([BodySpec.point()], [Link(anchor(1), point(0))]),
    "negative body_a in joint": ([RIGID, RIGID], [Joint(body_a=-1, c_a=(0, 0, 1), anchor=0)]),
    "large body_a in joint": ([RIGID, RIGID], [Joint(body_a=2, c_a=(0, 0, 1), anchor=0)]),
    "anchor out of range in joint": ([RIGID], [Joint(body_a=0, c_a=(0, 0, 1), anchor=1)]),
    "negative anchor in joint": ([RIGID], [Joint(body_a=0, c_a=(0, 0, 1), anchor=-1)]),
    "unknown constraint type": ([BodySpec.point()], ["not a constraint"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_declarations_name_the_constraint(case):
    # the bad declaration comes after a good one, so its index is 1
    bodies, bad = MALFORMED[case]
    good = Link(anchor(0), point(0)) if bodies[0].ndim == 0 else Joint(0, (0, 0, 1), anchor=0)
    with pytest.raises(ShapeError, match=r"constraint 1\b"):
        SystemTopology(dim=3, bodies=bodies, constraints=[good, *bad], anchors=[np.zeros(3)])
