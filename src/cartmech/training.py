"""Trajectory-matching training: L1 rollout loss, AdamW, cosine annealing.

The loss backpropagates through rollout_fixed, so every step of every chunk
contributes gradient signal through the model's dynamics (and, for the
constrained models, through the learned mass used to convert initial
velocities into momenta).  Losses and predictions always compare Cartesian
(x, xdot) states regardless of the model's internal coordinates.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .dataset import save_checkpoint
from .errors import (DegenerateConfigurationError, NonFiniteStateError, ParameterDomainError,
                     TrainingError)
from .integrators import rollout_fixed


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    batch_size: int = 200
    lr: float = 3e-3
    weight_decay: float = 1e-4
    substeps: int = 1
    seed: int = 0
    max_bad_steps: int = 10

    def __post_init__(self):
        for name in ("lr", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterDomainError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("epochs", "batch_size", "lr", "substeps", "max_bad_steps"):
            if getattr(self, name) <= 0:
                raise ParameterDomainError(f"{name} must be positive")
        if self.weight_decay < 0:
            raise ParameterDomainError("weight_decay must be >= 0")


def cosine_lr(epoch: int, config: TrainConfig) -> float:
    """Cosine annealing without restarts: lr at epoch 0, ~0 at the last epoch."""
    return config.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / config.epochs))


class AdamW:
    """Adam with decoupled weight decay applied to every parameter."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, store: ad.ParamStore, weight_decay: float = 1e-4):
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {name: np.zeros_like(value) for name, value in store.items()}
        self._v = {name: np.zeros_like(value) for name, value in store.items()}

    def step(self, store: ad.ParamStore, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            m = self._m[name] = self.beta1 * self._m[name] + (1.0 - self.beta1) * g
            v = self._v[name] = self.beta2 * self._v[name] + (1.0 - self.beta2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            store[name] = store[name] * (1.0 - lr * self.weight_decay) - lr * update


def trajectory_loss_node(model, leaves: dict, chunks: np.ndarray,
                         substeps: int = 1) -> ad.Node:
    """Mean L1 rollout error of a chunk batch, as a tape node.

    chunks is (B, T, 2dn) Cartesian ground truth at uniform dt spacing; the
    model is started from column 0 and compared against columns 1..T-1.
    leaves are the parameters' tape nodes, which the model binds once.  The
    predicted states are decoded in one call, time-major; each time's L1
    error is summed over (B, 2dn) and those sums are added in time order.
    """
    chunks = np.asarray(chunks, dtype=float)
    B, T, D = chunks.shape
    tape = next(iter(leaves.values())).tape
    leaves = model.bind(leaves)
    times = model.system.dt * np.arange(T)
    w0 = model.to_state_node(leaves, model.encode(chunks[:, 0]))
    states = rollout_fixed(lambda w: model.dynamics_node(leaves, w), w0, times,
                           substeps=substeps)
    pred = model.decode_node(leaves, ad.concat(states[1:], axis=0))
    truth = tape.constant(chunks[:, 1:].swapaxes(0, 1).reshape(-1, D))
    err = ad.reshape(ad.absolute(ad.sub(pred, truth)), (T - 1, B, D))
    total = ad.reduce_sum(ad.reduce_sum(err, axis=(1, 2)))
    return ad.mul(total, 1.0 / (B * (T - 1)))


def trajectory_loss(model, store: ad.ParamStore, chunks: np.ndarray,
                    substeps: int = 1) -> float:
    """Loss value only (no gradients tracked).

    Per-chunk errors are reduced with an exactly rounded sum, so the value is
    bit-identical under any permutation of the batch.
    """
    chunks = np.asarray(chunks, dtype=float)
    B, T = chunks.shape[:2]
    times = model.system.dt * np.arange(T)
    preds = model.rollout(store, chunks[:, 0], times, substeps=substeps)
    per_chunk = np.sum(np.abs(preds[:, 1:] - chunks[:, 1:]), axis=(1, 2))
    return math.fsum(per_chunk) / (B * (T - 1))


@dataclass(frozen=True)
class TrainResult:
    store: ad.ParamStore
    history: np.ndarray  # rows (epoch, mean loss, lr)
    bad_steps: int


def train(model, chunks: np.ndarray, config: TrainConfig,
          checkpoint_dir=None, log=None) -> TrainResult:
    """Minibatch AdamW over shuffled chunk batches with cosine annealing.

    Init and shuffle randomness derive from config.seed only, so a fixed seed
    reproduces the run bit for bit.  A non-finite loss, gradient or state
    (NonFiniteStateError), or a DegenerateConfigurationError from a guarded
    solve, skips the optimizer step and logs the reason; max_bad_steps
    consecutive ones abort with TrainingError.  Each step records on a
    first-order tape (ad.Tape(graph=False)), so its backward pass runs on
    arrays and adds no nodes, and clears it when it ends, skipped or not: a
    step holds one step's graph, and the loss and leaf nodes still bound
    then keep their values and nothing else.
    """
    chunks = np.asarray(chunks, dtype=float)
    if chunks.ndim != 3 or chunks.shape[0] < 1 or chunks.shape[1] < 2:
        raise ParameterDomainError(f"chunks must be (N, T, D) with N >= 1 rows of "
                                   f"T >= 2 times, got {chunks.shape}")
    store = model.init_params(np.random.default_rng([config.seed, 0]))
    shuffle_rng = np.random.default_rng([config.seed, 1])
    optimizer = AdamW(store, weight_decay=config.weight_decay)
    names = store.names()
    history = []
    bad_total = 0
    bad_streak = 0
    for epoch in range(config.epochs):
        lr_t = cosine_lr(epoch, config)
        order = shuffle_rng.permutation(len(chunks))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = chunks[order[start:start + config.batch_size]]
            tape = ad.Tape(graph=False)
            leaves = store.leaves(tape)
            try:
                loss = trajectory_loss_node(model, leaves, batch, config.substeps)
                value = float(loss.value)
                bad = None if np.isfinite(value) else "non-finite loss"
                if bad is None:
                    grads = dict(zip(names, ad.grad(loss, [leaves[name] for name in names])))
                    if not all(np.isfinite(g).all() for g in grads.values()):
                        bad = "non-finite gradient"
            except NonFiniteStateError:
                bad = "non-finite state"
            except DegenerateConfigurationError as err:
                bad = f"degenerate system (pivot ratio {err.ratio:.3g})"
            # frees the step's graph now, though loss and leaves stay bound
            tape.clear()
            if bad is not None:
                bad_total += 1
                bad_streak += 1
                if log is not None:
                    log(f"epoch {epoch}: {bad}, step skipped ({bad_streak} consecutive)")
                if bad_streak >= config.max_bad_steps:
                    raise TrainingError(f"aborting: {bad_streak} consecutive bad steps "
                                        f"(last: {bad}) at epoch {epoch}")
                continue
            bad_streak = 0
            optimizer.step(store, grads, lr_t)
            epoch_losses.append(value)
        mean_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        history.append((float(epoch), mean_loss, lr_t))
        if log is not None:
            log(f"epoch {epoch}: loss {mean_loss:.6g} lr {lr_t:.3g}")
    if checkpoint_dir:
        save_checkpoint(store, os.path.join(checkpoint_dir, "final.cmk"))
    return TrainResult(store=store, history=np.array(history), bad_steps=bad_total)


def write_history(history: np.ndarray, path) -> None:
    """Training history as CSV with full-precision floats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,lr\n")
        for epoch, loss, lr in np.asarray(history):
            fh.write(f"{int(epoch)},{loss:.17g},{lr:.17g}\n")
