"""System topology: bodies, anchors, and the compiled constraint set."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bodies import BodySpec
from .constraints import ConstraintSet, auto_rigidity
from .errors import ShapeError


@dataclass(frozen=True)
class SystemTopology:
    """Immutable description of the mechanical scene.

    constraints holds the user-declared list; rigidity rows for every
    extended body are appended automatically, so all_constraints is what
    constraint indices (e.g. for ablation) refer to.
    """

    dim: int
    bodies: tuple[BodySpec, ...]
    constraints: tuple = ()
    anchors: tuple = ()
    disabled: frozenset = frozenset()

    def __post_init__(self):
        bodies = tuple(self.bodies)
        anchors = tuple(np.asarray(a, dtype=float) for a in self.anchors)
        for a in anchors:
            if a.shape != (self.dim,):
                raise ShapeError(f"anchor shape {a.shape} does not match dim {self.dim}")
        for body in bodies:
            if body.ndim not in (0, self.dim):
                raise ShapeError(f"{body.ndim}-dimensional body in a {self.dim}-dimensional system")
        object.__setattr__(self, "bodies", bodies)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "disabled", frozenset(self.disabled))
        offsets = []
        at = 0
        for body in bodies:
            offsets.append(at)
            at += body.n_points
        object.__setattr__(self, "_offsets", tuple(offsets))
        object.__setattr__(self, "_n_points", at)
        object.__setattr__(self, "all_constraints",
                           self.constraints + tuple(auto_rigidity(bodies)))
        bad = [k for k in self.disabled if not 0 <= k < len(self.all_constraints)]
        if bad:
            raise ShapeError(f"disabled constraint indices out of range: {bad}")
        object.__setattr__(self, "constraint_set", ConstraintSet(self))

    @property
    def n_points(self) -> int:
        return self._n_points

    @property
    def dn(self) -> int:
        return self.dim * self._n_points

    def body_offset(self, body: int) -> int:
        return self._offsets[body]

    def body_slice(self, body: int) -> slice:
        off = self._offsets[body]
        return slice(off, off + self.bodies[body].n_points)

    def disable_constraints(self, indices) -> "SystemTopology":
        """New topology with the given all_constraints indices switched off."""
        return replace(self, disabled=self.disabled | set(int(i) for i in indices))
