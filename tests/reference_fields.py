"""Op-by-op references, written with the autodiff function forms: every
product, transpose, slice and the solve is its own tape node, so grad()
differentiates them with the generic rules.

- The constrained fields.  The package's fields record one fused node with a
  closed-form VJP; tests check its values bitwise and its adjoints against
  these references.  Same inputs and outputs as
  dynamics.constrained_{hamiltonian,lagrangian}_field.
- input_gradient, the generic gradient of a scalar-per-row function on a
  tape, and HNN2D's field as input_gradient of its Hamiltonian.  The package
  writes that field out around autodiff.mlp_pullback instead.
"""
import numpy as np

import cartmech.autodiff as ad


def _col(x):
    return ad.reshape(x, x.shape + (1,))


def _points(Minv, w):
    """(Minv kron I_d) on the point index of flat rows w (..., n*d)."""
    n, shape = Minv.shape[-1], w.shape
    return ad.reshape(ad.matmul(Minv, ad.reshape(w, shape[:-1] + (n, shape[-1] // n))), shape)


def _flat(xdot, pdot):
    both = ad.concat([xdot, pdot], axis=-2)
    return ad.reshape(both, both.shape[:-1])


def reference_hamiltonian_field(Minv, grad_V, v, G, D):
    v, grad_V = _col(v), _col(grad_V)
    C = G.shape[-2]
    if C == 0:
        return _flat(v, ad.neg(grad_V))
    H = _points(Minv, G)
    Ht = ad.transpose(H)
    DHt = ad.matmul(D, Ht)
    rhs = ad.concat([ad.matmul(G, v), ad.sub(ad.matmul(D, v), ad.matmul(H, grad_V)),
                     ad.sub(DHt, ad.transpose(DHt))], axis=-1)
    W = ad.spd_solve(ad.matmul(G, Ht), rhs)
    lam2 = ad.neg(ad.narrow(W, -1, 0, 1))
    lam1 = ad.add(ad.narrow(W, -1, 1, 1), ad.matmul(ad.narrow(W, -1, 2, C), lam2))
    xdot = ad.add(v, ad.matmul(Ht, lam2))
    pdot = ad.sub(ad.sub(ad.neg(grad_V), ad.matmul(ad.transpose(G), lam1)),
                  ad.matmul(ad.transpose(D), lam2))
    return _flat(xdot, pdot)


def reference_lagrangian_field(Minv, grad_V, v, G, D):
    minv_f = _points(Minv, ad.neg(grad_V))
    if G.shape[-2] == 0:
        return minv_f, np.zeros(G.shape[:-1])
    Ht = ad.transpose(_points(Minv, G))
    rhs = ad.add(ad.matmul(G, _col(minv_f)), ad.matmul(D, _col(v)))
    lam = ad.spd_solve(ad.matmul(G, Ht), rhs)
    xddot = ad.sub(minv_f, ad.reshape(ad.matmul(Ht, lam), minv_f.shape))
    return xddot, ad.reshape(lam, rhs.shape[:-1])


def input_gradient(f, X):
    """dV/dX for a scalar-per-row function f, from the gradient of the summed
    rows: differentiable nodes for a node X, an array (from a private tape
    that records f alone) for an array X."""
    private = not isinstance(X, ad.Node)
    tape = ad.Tape() if private else X.tape
    node = tape.constant(X) if private else X
    try:
        out = f(node)
        total = ad.reduce_sum(out) if out.value.size != 1 else out
        g = ad.grad(total, [node])[0]
        return g.value if private else g
    finally:
        if private:
            tape.clear()


def reference_hnn2d_hamiltonian(model, leaves, w):
    """H = p^T L L^T p / 2 + V at states w = (q, p) (B, 2N), from the model's chart."""
    B, N = w.shape[0], model.n_angles
    _, _, inp, L, _ = model._chart(leaves, w)
    p = ad.narrow(w, 1, N, N)
    u = ad.reshape(ad.matmul(ad.transpose(L), ad.reshape(p, (B, N, 1))), (B, N))
    kinetic = ad.mul(0.5, ad.reduce_sum(ad.mul(u, u), axis=1))
    potential = ad.reshape(ad.mlp_apply(leaves, inp, prefix="potential"), (B,))
    return ad.add(kinetic, potential)


def reference_hnn2d_field(model, leaves, w):
    """HNN2D's (dH/dp, -dH/dq) as input_gradient of its Hamiltonian."""
    N = model.n_angles
    g = input_gradient(lambda ww: reference_hnn2d_hamiltonian(model, leaves, ww), w)
    return ad.concat([ad.narrow(g, 1, N, N), ad.neg(ad.narrow(g, 1, 0, N))], axis=1)
