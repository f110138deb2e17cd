"""Tour of the five benchmark systems: sample, integrate, check conservation.

Each system is a set of Cartesian points tied together by holonomic
constraints.  The integrator never sees angles; the constraint forces come
out of a linear solve at every evaluation.
"""
import numpy as np

from cartmech import HAMILTONIAN, Tolerances, build_system, integrate_adaptive, system_names
from cartmech.metrics import constraint_rmse_curve, energy_error


def main():
    horizon = 3.0
    for name in system_names():
        system = build_system(name)
        z0 = system.sample(np.random.default_rng(0))
        t_eval = np.arange(0.0, horizon + system.dt / 2, system.dt)
        run = integrate_adaptive(system.dynamics, z0, horizon, t_eval=t_eval,
                                 tol=Tolerances(1e-7, 1e-9))
        drift = energy_error(system, run.states, np.broadcast_to(z0, run.states.shape),
                             flavor=HAMILTONIAN).max()
        phi = np.sqrt(np.mean(constraint_rmse_curve(system, run.states) ** 2))
        print(f"{name:10s} points={system.topology.n_points} "
              f"constraints={len(system.topology.all_constraints)} "
              f"steps={run.n_accepted:4d} rejected={run.n_rejected:2d} "
              f"energy drift {drift:.1e}  constraint rmse {phi:.1e}")


if __name__ == "__main__":
    main()
