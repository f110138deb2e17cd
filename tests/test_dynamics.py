from functools import partial

import numpy as np
import pytest
from conftest import fd_jacobian
from reference_fields import reference_hamiltonian_field, reference_lagrangian_field

import cartmech.autodiff as ad
from cartmech.autodiff import finite_difference_check
from cartmech.bodies import BodySpec, apply_on_points, assemble_mass_matrix
from cartmech.constraints import Link, anchor, jacobian_phi, jacobian_psi, phi, phidot, point
from cartmech.dynamics import (
    DynamicsContext,
    constrained_dynamics,
    constrained_hamiltonian_field,
    constrained_lagrangian_field,
    constrained_lagrangian_dynamics,
    convert_flavor,
    energy,
    grad_hamiltonian,
    projection_matrix,
    unconstrained_dynamics,
)
from cartmech.errors import DegenerateConfigurationError
from cartmech.integrators import Tolerances, integrate_adaptive
from cartmech.metrics import constraint_rmse_curve
from cartmech.states import HAMILTONIAN, LAGRANGIAN, flatten_matrix, symplectic_apply
from cartmech.systems import build_system, system_names


class Gravity:
    """V = g sum_i m_i X[axis, i] over point masses."""

    def __init__(self, masses, axis=1, g=1.0):
        self.masses = np.asarray(masses, dtype=float)
        self.axis = axis
        self.g = g

    def value(self, X):
        return self.g * float(self.masses @ X[self.axis])

    def grad(self, X):
        out = np.zeros_like(X)
        out[self.axis] = self.g * self.masses
        return out


def pendulum_ctx(n=1, masses=None):
    from cartmech.topology import SystemTopology

    masses = [1.0] * n if masses is None else masses
    refs = [anchor(0)] + [point(i) for i in range(n)]
    topo = SystemTopology(dim=2, bodies=[BodySpec.point(m) for m in masses],
                          constraints=[Link(refs[i], refs[i + 1]) for i in range(n)],
                          anchors=[np.zeros(2)])
    mass = assemble_mass_matrix(topo.bodies)
    return DynamicsContext(topo, mass, Gravity(masses))


def hanging_state(n=1):
    X = np.stack([np.zeros(n), -np.arange(1, n + 1)])
    return np.concatenate([flatten_matrix(X), np.zeros(2 * n)])


def test_hanging_equilibrium_and_multiplier():
    ctx = pendulum_ctx(1)
    z = hanging_state(1)
    zdot = constrained_dynamics(ctx, z)
    np.testing.assert_allclose(zdot, 0.0, atol=1e-12)
    X, V = ctx.split(z)
    _, lam = constrained_lagrangian_dynamics(ctx, X, V)
    # lambda is mg/2 in the squared-distance convention,
    # producing the constraint force -DPhi^T lam = (0, +mg).
    np.testing.assert_allclose(lam, [0.5], atol=1e-12)
    DPhi = jacobian_phi(ctx.topology, X)
    np.testing.assert_allclose(-DPhi.T @ lam, [0.0, 1.0], atol=1e-12)


def test_horizontal_release():
    ctx = pendulum_ctx(1)
    X = np.array([[1.0], [0.0]])
    z = np.concatenate([flatten_matrix(X), np.zeros(2)])
    zdot = constrained_dynamics(ctx, z)
    np.testing.assert_allclose(zdot, [0.0, 0.0, 0.0, -1.0], atol=1e-12)


def test_circular_motion_centripetal():
    # At the bottom with speed v the acceleration is purely centripetal (0, v^2).
    ctx = pendulum_ctx(1)
    for v in (0.5, 1.3, 2.0):
        X = np.array([[0.0], [-1.0]])
        V = np.array([[v], [0.0]])
        xddot, _ = constrained_lagrangian_dynamics(ctx, X, V)
        np.testing.assert_allclose(xddot, [[0.0], [v * v]], atol=1e-10)
        z = np.concatenate([flatten_matrix(X), flatten_matrix(V)])
        zdot = constrained_dynamics(ctx, z)  # m = 1: p = v
        np.testing.assert_allclose(zdot[2:], [0.0, v * v], atol=1e-10)


def test_projection_is_idempotent_and_kills_constraint_drift():
    rng = np.random.default_rng(11)
    ctx = pendulum_ctx(3, masses=[1.0, 0.7, 1.3])
    for _ in range(25):
        z = rng.normal(size=12)
        DPsi = jacobian_psi(ctx.topology, z, ctx.mass)
        P = projection_matrix(DPsi)
        np.testing.assert_allclose(P @ P, P, atol=1e-9)
        zdot = P @ symplectic_apply(grad_hamiltonian(ctx, z))
        np.testing.assert_allclose(DPsi @ zdot, 0.0, atol=1e-9)
        np.testing.assert_allclose(zdot, constrained_dynamics(ctx, z), atol=1e-9)


@pytest.mark.parametrize("name", system_names())
def test_field_matches_projection_oracle_on_every_system(name):
    system = build_system(name)
    ctx = system.context()
    rng = np.random.default_rng(17)
    sampled = [system.sample(rng) for _ in range(20)]
    perturbed = [z + 1e-2 * rng.normal(size=z.size) for z in sampled]
    for z in sampled + perturbed:
        P = projection_matrix(jacobian_psi(system.topology, z, system.mass))
        oracle = P @ symplectic_apply(grad_hamiltonian(ctx, z))
        zdot = constrained_dynamics(ctx, z)
        assert np.linalg.norm(zdot - oracle) <= 1e-10 * np.linalg.norm(oracle)
    # on the manifold the Lagrangian acceleration is M^-1 pdot
    ctx_l = system.context(LAGRANGIAN)
    dn = system.topology.dn
    for z in sampled:
        X, V = ctx_l.split(convert_flavor(ctx, z, LAGRANGIAN))
        xddot, _ = constrained_lagrangian_dynamics(ctx_l, X, V)
        expected = apply_on_points(system.mass.inverse.T, constrained_dynamics(ctx, z)[dn:])
        assert np.linalg.norm(flatten_matrix(xddot) - expected) <= 1e-10 * np.linalg.norm(expected)


def _assert_rows_equal_single_calls(fn, *args, scalar=True):
    """fn over (64,) and (8, 8) leading axes equals fn on each row, bitwise."""
    single = [fn(*row) for row in zip(*args)]
    if scalar:
        assert all(np.isscalar(value) for value in single)
    single = np.stack(single)
    for lead in ((64,), (8, 8)):
        batch = fn(*(a.reshape(lead + a.shape[1:]) for a in args))
        assert batch.shape == lead + single.shape[1:]
        assert np.array_equal(batch, single.reshape(batch.shape))


@pytest.mark.parametrize("name", system_names())
def test_batched_field_rows_equal_single_calls_bitwise(name):
    # a row's value must not depend on the size or content of its batch, for
    # the field and for every per-state function the metrics call
    systems = [build_system(name)]
    if name == "npendulum":
        systems.append(build_system(name, n=5))
    for system in systems:
        rng = np.random.default_rng(23)
        Z = np.stack([system.sample(rng) for _ in range(64)])
        for flavor in (HAMILTONIAN, LAGRANGIAN):
            ctx = system.context(flavor)
            W = convert_flavor(system.context(), Z, flavor)
            single = np.stack([constrained_dynamics(ctx, w) for w in W])
            for B in (1, 7, 64):
                batch = constrained_dynamics(ctx, W[:B])
                assert batch.shape == (B, W.shape[1])
                assert np.array_equal(batch, single[:B])
            # off the manifold, so the constraint values are not all zero
            W = W + 1e-2 * rng.normal(size=W.shape)
            _assert_rows_equal_single_calls(partial(energy, ctx), W)
        X, V = ctx.split(W)  # the Lagrangian flavor's, so V is a velocity
        _assert_rows_equal_single_calls(system.potential.value, X)
        _assert_rows_equal_single_calls(partial(phi, system.topology), X, scalar=False)
        _assert_rows_equal_single_calls(partial(phidot, system.topology), X, V, scalar=False)
        curve = constraint_rmse_curve(system, W.reshape(8, 8, -1))
        assert curve.shape == (8, 8)
        assert np.array_equal(curve.ravel(),
                              np.concatenate([constraint_rmse_curve(system, w) for w in W]))


def test_unconstrained_is_free_fall():
    ctx = pendulum_ctx(1)
    z = np.array([0.3, -0.8, 0.2, 0.1])
    np.testing.assert_allclose(unconstrained_dynamics(ctx, z), [0.2, 0.1, 0.0, -1.0], atol=1e-12)


def test_flavor_equivalence_short_rollout():
    ctx_h = pendulum_ctx(2, masses=[1.0, 0.6])
    ctx_l = ctx_h.with_flavor(LAGRANGIAN)
    q, qdot = np.array([0.4, 1.1]), np.array([0.3, -0.2])
    X = np.stack([np.cumsum(np.sin(q)), -np.cumsum(np.cos(q))])
    V = np.stack([np.cumsum(qdot * np.cos(q)), np.cumsum(qdot * np.sin(q))])
    zl = np.concatenate([flatten_matrix(X), flatten_matrix(V)])
    zh = convert_flavor(ctx_l, zl, "hamiltonian")
    tol = Tolerances(1e-10, 1e-12)
    t_eval = np.array([0.5])
    sh = integrate_adaptive(lambda z: constrained_dynamics(ctx_h, z), zh, 0.5, t_eval, tol).states[-1]
    sl = integrate_adaptive(lambda z: constrained_dynamics(ctx_l, z), zl, 0.5, t_eval, tol).states[-1]
    np.testing.assert_allclose(convert_flavor(ctx_h, sh, LAGRANGIAN), sl, atol=1e-7)


def test_energy_and_constraints_conserved():
    ctx = pendulum_ctx(2)
    X = np.array([[0.9, 0.9], [-np.sqrt(1 - 0.81), -np.sqrt(1 - 0.81) - 1.0]])
    z = np.concatenate([flatten_matrix(X), np.zeros(4)])
    e0 = energy(ctx, z)
    traj = integrate_adaptive(lambda s: constrained_dynamics(ctx, s), z, 2.0,
                              t_eval=np.linspace(0, 2, 41), tol=Tolerances(1e-9, 1e-11))
    energies = [energy(ctx, s) for s in traj.states]
    assert max(abs(e - e0) for e in energies) < 1e-7
    d = ctx.dim
    for s in traj.states:
        X_t, V_t = ctx.split(convert_flavor(ctx, s, LAGRANGIAN))
        assert np.max(np.abs(phi(ctx.topology, X_t))) < 1e-7
        assert np.max(np.abs(phidot(ctx.topology, X_t, V_t))) < 1e-7


def test_degenerate_configuration_raises():
    ctx = pendulum_ctx(1)
    z = np.zeros(4)  # bob at the pivot: DPhi = 0
    with pytest.raises(DegenerateConfigurationError):
        constrained_dynamics(ctx, z)


def test_convert_flavor_roundtrip():
    # z is interpreted in ctx.flavor, so the way back goes through the
    # Lagrangian-flavored context.
    ctx = pendulum_ctx(2, masses=[1.2, 0.4])
    rng = np.random.default_rng(12)
    z = rng.normal(size=8)
    zl = convert_flavor(ctx, z, LAGRANGIAN)
    z2 = convert_flavor(ctx.with_flavor(LAGRANGIAN), zl, "hamiltonian")
    np.testing.assert_allclose(z2, z, atol=1e-12)


def test_grad_hamiltonian_matches_fd():
    ctx = pendulum_ctx(2, masses=[0.8, 1.1])
    rng = np.random.default_rng(13)

    def H(z):
        return np.array([energy(ctx, z)])

    for _ in range(5):
        z = rng.normal(size=8)
        np.testing.assert_allclose(grad_hamiltonian(ctx, z), fd_jacobian(H, z)[0], atol=1e-7)


def _multiplier_matrix(topology, mass, X):
    """K = DPhi M^-1 DPhi^T as the fields form it."""
    G = jacobian_phi(topology, X)
    return G @ apply_on_points(mass.inverse.T, G).mT


def test_pivot_guard_fires_wherever_the_condition_number_guard_did():
    # The field's guard is the Cholesky pivot ratio r = (min diag L / max
    # diag L)^2 of K against ad.PIVOT_RATIO_LIMIT = 1e-10.  The reference is
    # the SVD condition number the ground truth used before, cond(K) > 1e12.
    # The squared pivots lie between K's extreme eigenvalues, so r >= 1/cond:
    # the pivot test can fire only where cond > 1e10, and it fires wherever
    # cond > 1e12 while r * cond < 100 (at most 31 on the ground truth of
    # every system; 1.0 to 5.7 in these sweeps).  The two disagree only for
    # cond in (1e10, 1e12], where the pivot test is the stricter one.
    from cartmech.topology import SystemTopology
    import cartmech.autodiff as ad

    cond_limit = 1e12
    cases = []
    # degenerate states the other tests use: the bob at the pivot, and a
    # body made 1e34 times heavier than the rest (a row of K vanishes)
    ctx = pendulum_ctx(1)
    cases.append(("bob at pivot", _multiplier_matrix(ctx.topology, ctx.mass, np.zeros((2, 1)))))
    heavy = pendulum_ctx(2, masses=[np.exp(80.0), 1.0])
    X2 = np.array([[0.6, 1.4], [-0.8, -1.4]])
    cases.append(("heavy body", _multiplier_matrix(heavy.topology, heavy.mass, X2)))
    # the first bob of a two-pendulum sweeps towards its pivot
    ctx2 = pendulum_ctx(2)
    for k in range(10):
        e = 10.0 ** -k
        X = np.array([[0.6 * e, 0.6 * e + 0.8], [-0.8 * e, -0.8 * e - 0.6]])
        cases.append((f"bob at {e:.0e}", _multiplier_matrix(ctx2.topology, ctx2.mass, X)))
    # a point held by two anchors sweeps towards the line through them,
    # so the two rows of DPhi turn parallel
    topo = SystemTopology(dim=2, bodies=[BodySpec.point(1.0)],
                          constraints=[Link(anchor(0), point(0)), Link(anchor(1), point(0))],
                          anchors=[np.array([-1.0, 0.0]), np.array([1.0, 0.0])])
    mass = assemble_mass_matrix(topo.bodies)
    for k in range(10):
        e = 10.0 ** -k
        cases.append((f"rows at {e:.0e}", _multiplier_matrix(topo, mass, np.array([[0.3], [e]]))))
    # ordinary states of every system: neither test fires
    rng = np.random.default_rng(31)
    for name in system_names():
        system = build_system(name)
        for z in system.sample(rng, 10):
            X = system.context().split(z)[0]
            cases.append((name, _multiplier_matrix(system.topology, system.mass, X)))

    disagree = []
    for label, K in cases:
        with np.errstate(divide="ignore"):
            cond = np.linalg.cond(K)
        try:
            ad.check_pivots(K)
            fired = False
        except DegenerateConfigurationError:
            fired = True
        if not cond <= cond_limit:
            assert fired, (label, cond)
        if fired != (not cond <= cond_limit):
            assert 1e10 < cond <= cond_limit, (label, cond)
            disagree.append(label)
    # the single disagreement: cond 3.7e10, pivot ratio 9.3e-11
    assert disagree == ["bob at 1e-05"]
    # the explicit 2C x 2C reference applies the same test to its K block
    with pytest.raises(DegenerateConfigurationError):
        projection_matrix(jacobian_psi(ctx.topology, np.zeros(4), ctx.mass))


# -- the fused field nodes and their closed-form VJPs ------------------------------

FIELDS = {
    HAMILTONIAN: ("hamiltonian_field", constrained_hamiltonian_field, reference_hamiltonian_field),
    LAGRANGIAN: ("lagrangian_field", lambda *a: constrained_lagrangian_field(*a)[0],
                 lambda *a: reference_lagrangian_field(*a)[0]),
}


def _field_inputs(name, rows, seed):
    """(M^-1, grad V, v, G, D) for a system, or for three free point masses
    in 3-D ("free", no constraints).  M^-1 is the system's (block-diagonal,
    with off-diagonal entries for extended bodies) plus a dense SPD term, so
    every entry's adjoint is exercised."""
    rng = np.random.default_rng(seed)
    if name == "free":
        from cartmech.topology import SystemTopology

        topology = SystemTopology(dim=3, bodies=[BodySpec.point(m) for m in (1.0, 2.0, 0.5)])
        minv = assemble_mass_matrix(topology.bodies).inverse
        x = rng.normal(size=(rows, topology.dn))
    else:
        system = build_system(name)
        topology, minv = system.topology, system.mass.inverse
        x = system.sample(rng, rows)[:, :topology.dn]
    n = len(minv)
    S = rng.normal(size=(n, n))
    cs = topology.constraint_set
    grad_V, v = rng.normal(size=(2, rows, topology.dn))
    return [minv + 0.1 * S @ S.T / n, grad_V, v, cs.dphi(x), cs.dphidot_x(v)]


def _field_adjoints(field, inputs, weights):
    """Value of field on tape nodes and the adjoints of sum(weights * field)."""
    tape = ad.Tape()
    nodes = [tape.constant(a) for a in inputs]
    out = field(*nodes)
    return tape, out.value, [g.value for g in ad.grad(ad.reduce_sum(ad.mul(out, weights)), nodes)]


@pytest.mark.parametrize("flavor", [HAMILTONIAN, LAGRANGIAN])
@pytest.mark.parametrize("name", system_names() + ["free"])
def test_field_vjps_match_the_op_by_op_reference(name, flavor):
    op, field, reference = FIELDS[flavor]
    inputs = _field_inputs(name, 3, 31)
    weights = np.random.default_rng(32).normal(size=field(*inputs).shape)
    tape, value, adjoints = _field_adjoints(field, inputs, weights)
    _, ref_value, ref_adjoints = _field_adjoints(reference, inputs, weights)
    # one node on the tape, zero constraint rows included, the arrays' bits
    assert np.array_equal(value, ref_value) and np.array_equal(value, field(*inputs))
    assert [node.op for node in tape.nodes].count(op) == 1
    for got, want in zip(adjoints, ref_adjoints):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("flavor", [HAMILTONIAN, LAGRANGIAN])
@pytest.mark.parametrize("name", system_names() + ["free"])
def test_field_vjps_match_finite_differences(name, flavor):
    _, field, _ = FIELDS[flavor]
    inputs = _field_inputs(name, 2, 33)
    weights = np.random.default_rng(34).normal(size=field(*inputs).shape)
    for i, at in enumerate(inputs):
        if not at.size:
            continue

        def swap(x, i=i):
            return inputs[:i] + [x] + inputs[i + 1:]

        def loss(x):
            return float(np.sum(field(*swap(x)) * weights))

        def adjoint(x, i=i):
            return _field_adjoints(field, swap(x), weights)[2][i]

        # central differences round to ~1e-6 at the default step on the rotor's
        # and gyroscope's large M^-1 entries; at 1e-4 they agree to < 5e-7
        assert finite_difference_check(loss, adjoint, at, h=1e-4) < 1e-6, (name, flavor, i)


@pytest.mark.parametrize("flavor", [HAMILTONIAN, LAGRANGIAN])
def test_field_adjoints_cannot_be_differentiated_again(flavor):
    # with grad V from a learned potential, the field's adjoint is already
    # the second order of the loss; a further order raises, naming the op
    op, field, _ = FIELDS[flavor]
    inputs = _field_inputs("npendulum", 2, 35)
    tape = ad.Tape()
    nodes = [tape.constant(a) for a in inputs]
    out = field(*nodes)
    (g,) = ad.grad(ad.reduce_sum(ad.mul(out, out)), [nodes[1]])
    assert g.op == f"{op}_adjoint"
    with pytest.raises(NotImplementedError, match=f"{op}_adjoint"):
        ad.grad(ad.reduce_sum(ad.mul(g, g)), [nodes[1]])
