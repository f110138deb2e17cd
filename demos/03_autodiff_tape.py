"""The reverse-mode tape, from scalars to second-order gradients.

By default the backward pass is emitted as more tape nodes, so gradients are
themselves differentiable; that is what lets a learned potential enter the
dynamics as grad_X V and still receive parameter gradients through a rollout.
Training needs only the first-order gradient of its loss, so it opens its
tape with graph=False: the backward pass then runs on arrays and records
nothing, as the last block shows.
"""
import numpy as np

import cartmech.autodiff as ad
from cartmech.integrators import rollout_fixed


def main():
    rng = np.random.default_rng(0)

    # forward + backward on a small expression
    tape = ad.Tape()
    x = tape.constant(np.array([1.5, -0.5]))
    y = ad.reduce_sum(ad.mul(x, x) * 3.0)
    (gx,) = ad.grad(y, [x])
    print("d/dx 3|x|^2 =", gx.value, "(expect 6x =", 6 * x.value, ")")

    # the gradient is a node; differentiate it again
    (ggx,) = ad.grad(ad.reduce_sum(gx), [x])
    print("second derivative rows sum:", ggx.value, "(expect 6)")

    # an MLP potential and its input gradient, checked against differences
    params = ad.ParamStore(ad.mlp_init(rng, 2, (16,), 1, prefix="V"))

    def value(w):
        trial = ad.ParamStore({n: params[n] for n in params.names()})
        trial["V.w0"] = w.reshape(params["V.w0"].shape)
        t = ad.Tape()
        leaves = trial.leaves(t)
        return float(ad.reduce_sum(ad.mlp_apply(leaves, t.constant(pts), prefix="V")).value)

    def gradient(w):
        trial = ad.ParamStore({n: params[n] for n in params.names()})
        trial["V.w0"] = w.reshape(params["V.w0"].shape)
        t = ad.Tape()
        leaves = trial.leaves(t)
        out = ad.reduce_sum(ad.mlp_apply(leaves, t.constant(pts), prefix="V"))
        return ad.grad(out, [leaves["V.w0"]])[0].value

    pts = rng.normal(size=(8, 2))
    print("first-layer FD check:", ad.finite_difference_check(value, gradient, params["V.w0"]))

    # differentiate through a four-step RK4 rollout of a learned field, to
    # first order only, as training does: the gradients are arrays
    flow = ad.ParamStore(ad.mlp_init(rng, 2, (16,), 2, prefix="f"))
    tape = ad.Tape(graph=False)
    leaves = flow.leaves(tape)
    z0 = tape.constant(rng.normal(size=(1, 2)))
    field = lambda z: ad.mlp_apply(leaves, z, prefix="f")
    states = rollout_fixed(field, z0, 0.1 * np.arange(5))
    loss = ad.reduce_sum(ad.absolute(states[-1]))
    forward = len(tape)
    grads = ad.grad(loss, [leaves[n] for n in flow.names()])
    print("rollout loss:", float(loss.value))
    print("gradient norms through 4 steps:",
          {n: round(float(np.abs(g).max()), 5) for n, g in zip(flow.names(), grads)})
    print(f"tape: {forward} forward nodes, {len(tape) - forward} added by the backward pass")


if __name__ == "__main__":
    main()
