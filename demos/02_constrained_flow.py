"""How constraints enter the Hamiltonian flow.

The unconstrained flow J grad H ignores the rods of a pendulum chain; the
multiplier term bends it back onto the constraint manifold.  Equivalently,
the projection P = I - J DPsi^T [DPsi J DPsi^T]^-1 DPsi applied to the free
flow gives the same vector field.  The velocity-based (Lagrangian)
formulation produces the same trajectories from the same physics.
"""
import numpy as np

from cartmech import LAGRANGIAN, Tolerances, build_system, convert_flavor, integrate_adaptive
from cartmech.constraints import jacobian_psi
from cartmech.dynamics import (
    constrained_dynamics,
    constrained_hamiltonian_dynamics,
    constrained_lagrangian_dynamics,
    grad_hamiltonian,
    projection_matrix,
    unconstrained_dynamics,
)
from cartmech.states import symplectic_apply


def main():
    system = build_system("npendulum", n=3)
    ctx = system.context()
    z = system.sample(np.random.default_rng(1))

    free = unconstrained_dynamics(ctx, z)
    constrained = constrained_hamiltonian_dynamics(ctx, z)
    dpsi = jacobian_psi(system.topology, z, system.mass)
    P = projection_matrix(dpsi)
    projected = P @ symplectic_apply(grad_hamiltonian(ctx, z))

    print("projection vs multiplier form:", np.abs(projected - constrained).max())
    print("idempotency |P^2 - P|:", np.abs(P @ P - P).max())
    print("free flow leaves the manifold:   |DPsi zdot| =", np.abs(dpsi @ free).max())
    print("projected flow stays tangent:    |DPsi zdot| =", np.abs(dpsi @ constrained).max())

    # same multipliers and trajectory whether the state carries momenta or velocities
    ctx_l = system.context(LAGRANGIAN)
    X, V = ctx_l.split(convert_flavor(ctx, z, LAGRANGIAN))
    _, lam = constrained_lagrangian_dynamics(ctx_l, X, V)
    print("multipliers lambda =", lam.round(4))
    t_eval = np.linspace(0.0, 1.0, 11)
    run_h = integrate_adaptive(lambda w: constrained_dynamics(ctx, w), z, 1.0,
                               t_eval=t_eval, tol=Tolerances(1e-9, 1e-11))
    run_l = integrate_adaptive(lambda w: constrained_dynamics(ctx_l, w),
                               convert_flavor(ctx, z, LAGRANGIAN), 1.0,
                               t_eval=t_eval, tol=Tolerances(1e-9, 1e-11))
    dn = z.size // 2
    print("flavor position gap over 1 s:",
          np.abs(run_h.states[:, :dn] - run_l.states[:, :dn]).max())


if __name__ == "__main__":
    main()
