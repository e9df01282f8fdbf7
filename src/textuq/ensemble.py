"""Deep-ensemble baseline: MLP members with batch norm, Adam, and FGSM
adversarial training; the ensemble prediction is the mean member softmax.

Forward/backward passes are written out explicitly (no autodiff), including
the batch-norm backward through the batch statistics, so training gradients
can be checked against finite differences. Members train in threads, an
epoch at a time. At its peak, training holds the training rows, every
member's parameters and Adam moments, and one minimal scratch set per
running epoch: each epoch allocates its batch buffers and frees them when
it ends, and the feature scale is computed a row block at a time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import BatchTooSmall, DimensionMismatch, InvalidConfig, NonFiniteLoss, check_int
from .labels import LABEL_NAMES
from .parallel import usable_cpus

if TYPE_CHECKING:
    from concurrent.futures import Executor

N_HIDDEN_BLOCKS = 3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
BN_MOMENTUM = 0.9
BN_EPSILON = 1e-5
# the objective weights the clean and the adversarial loss equally
ADV_WEIGHT = 0.5
# rows per block of feature_scale_of's sum of squared deviations
SCALE_BLOCK_ROWS = 256


@dataclass
class EnsembleConfig:
    members: int = 5
    hidden_units: int = 200
    learning_rate: float = 3e-3
    epochs: int = 10
    batch_size: int = 500
    fgsm_epsilon: float = 0.01
    seed: int = 0

    def validate(self) -> None:
        if self.members < 1:
            raise InvalidConfig("members must be >= 1")
        if self.hidden_units < 1:
            raise InvalidConfig("hidden_units must be >= 1")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be >= 0")
        for name in ("learning_rate", "fgsm_epsilon"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate < 0.0:
            raise InvalidConfig("learning_rate must be >= 0")
        if self.batch_size < 2:
            raise InvalidConfig("batch_size must be >= 2 (batch norm)")
        if self.fgsm_epsilon < 0.0:
            raise InvalidConfig("fgsm_epsilon must be >= 0")
        check_int(self.seed, "seed", 0)


@dataclass
class MlpParams:
    """Three linear+batchnorm+ReLU blocks and an output linear layer."""

    weights: list  # 4 arrays: (D,H), (H,H), (H,H), (H,C)
    biases: list  # 4 arrays
    bn_scale: list  # 3 arrays of length H (gamma)
    bn_shift: list  # 3 arrays of length H (beta)
    bn_running_mean: list  # 3 arrays of length H
    bn_running_var: list  # 3 arrays of length H

    @property
    def dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[1]

    def trainable(self) -> dict[str, np.ndarray]:
        out = {}
        for i in range(N_HIDDEN_BLOCKS + 1):
            out[f"w{i}"] = self.weights[i]
            out[f"b{i}"] = self.biases[i]
        for i in range(N_HIDDEN_BLOCKS):
            out[f"gamma{i}"] = self.bn_scale[i]
            out[f"beta{i}"] = self.bn_shift[i]
        return out


@dataclass
class EnsembleModel:
    members: list  # of MlpParams, all of one input width

    @property
    def dim(self) -> int:
        return self.members[0].dim


def init_mlp(dim: int, rng: np.random.Generator, hidden: int = 200) -> MlpParams:
    """He-uniform weights, zero biases, identity batch-norm state."""
    sizes = [dim] + [hidden] * N_HIDDEN_BLOCKS + [len(LABEL_NAMES)]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(
        weights=weights,
        biases=biases,
        bn_scale=[np.ones(hidden) for _ in range(N_HIDDEN_BLOCKS)],
        bn_shift=[np.zeros(hidden) for _ in range(N_HIDDEN_BLOCKS)],
        bn_running_mean=[np.zeros(hidden) for _ in range(N_HIDDEN_BLOCKS)],
        bn_running_var=[np.ones(hidden) for _ in range(N_HIDDEN_BLOCKS)],
    )


class _Activations:
    """Buffers of one forward pass at a fixed batch size, kept for the
    backward passes. The next forward pass through the same object
    overwrites them, so repeated training steps allocate no batch-sized
    arrays.

    Without ``backward`` the buffers serve a forward pass only: every block
    shares one ``zc`` buffer and one ``h`` buffer, and there is no backward
    scratch. Block i reads ``h`` (or the input) into ``zc`` before it writes
    ``h``, so no operation reads a buffer it writes."""

    def __init__(self, rows: int, p: MlpParams, backward: bool = True):
        shape = (rows, p.weights[0].shape[1])
        self.x = None  # the network input of the last forward pass
        self.from_batch = False
        if backward:
            self.zc = [np.empty(shape) for _ in range(N_HIDDEN_BLOCKS)]  # z - mean
            self.h = [np.empty(shape) for _ in range(N_HIDDEN_BLOCKS)]  # block outputs, >= 0
            # backward scratch
            self.dh, self.dz, self.tmp = np.empty(shape), np.empty(shape), np.empty(shape)
        else:
            self.zc = [np.empty(shape)] * N_HIDDEN_BLOCKS
            self.h = [np.empty(shape)] * N_HIDDEN_BLOCKS
            self.dh = self.dz = self.tmp = None
        self.mu = [None] * N_HIDDEN_BLOCKS
        self.var = [None] * N_HIDDEN_BLOCKS
        self.inv_std = [None] * N_HIDDEN_BLOCKS
        self.logits = np.empty((rows, p.num_classes))


def _forward_cached(p: MlpParams, xs: np.ndarray, stats: list | None,
                    acts: _Activations | None = None, backward: bool = True):
    """Forward pass keeping intermediates in ``acts`` (fresh when None, with
    the buffers of a backward pass only if ``backward``).

    ``stats`` is a list of (mean, var) per block for frozen-statistics mode,
    or None to compute batch statistics (training mode).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != p.dim:
        raise DimensionMismatch(f"inputs {xs.shape} vs network input dim {p.dim}")
    if acts is None:
        acts = _Activations(xs.shape[0], p, backward)
    acts.x = xs
    acts.from_batch = stats is None
    h = xs
    for i in range(N_HIDDEN_BLOCKS):
        zc = np.matmul(h, p.weights[i], out=acts.zc[i])
        zc += p.biases[i]
        if stats is None:
            mu = zc.mean(axis=0)
            zc -= mu
            var = np.square(zc, out=acts.h[i]).sum(axis=0) / xs.shape[0]
        else:
            mu, var = stats[i]
            zc -= mu
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        # bn = xhat * gamma + beta, with xhat = zc * inv_std; the backward
        # pass recomputes xhat from zc rather than keeping it
        bn = np.multiply(zc, inv_std, out=acts.h[i])
        bn *= p.bn_scale[i]
        bn += p.bn_shift[i]
        h = np.maximum(bn, 0.0, out=bn)
        acts.mu[i], acts.var[i], acts.inv_std[i] = mu, var, inv_std
    logits = np.matmul(h, p.weights[-1], out=acts.logits)
    logits += p.biases[-1]
    return logits, acts


def _mode_stats(p: MlpParams, xs: np.ndarray, mode: str) -> list | None:
    """Normalization statistics for a mode: None (batch) or the running ones."""
    if mode == "train":
        if np.asarray(xs).shape[0] < 2:
            raise BatchTooSmall("train mode needs a batch of at least 2")
        return None
    if mode == "eval":
        return list(zip(p.bn_running_mean, p.bn_running_var))
    raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")


def mlp_forward(p: MlpParams, xs: np.ndarray, mode: str) -> np.ndarray:
    """Logits for a batch; 'train' uses batch statistics, 'eval' running ones."""
    logits, _ = _forward_cached(p, xs, _mode_stats(p, xs, mode), backward=False)
    return logits


def softmax(logits: np.ndarray) -> np.ndarray:
    mx = logits.max(axis=-1, keepdims=True)
    ex = np.exp(logits - mx)
    return ex / ex.sum(axis=-1, keepdims=True)


def _ce_loss_and_dlogits(logits: np.ndarray, labels: np.ndarray):
    """Mean cross entropy and its gradient wrt the logits."""
    b = logits.shape[0]
    mx = logits.max(axis=1, keepdims=True)
    lse = (mx + np.log(np.exp(logits - mx).sum(axis=1, keepdims=True)))[:, 0]
    loss = float(np.mean(lse - logits[np.arange(b), labels]))
    dlogits = softmax(logits)
    dlogits[np.arange(b), labels] -= 1.0
    return loss, dlogits / b


def _backward(p: MlpParams, acts: _Activations, dlogits: np.ndarray,
              grads: dict | None = None, need_dx: bool = True):
    """Parameter gradients of the forward pass held in ``acts``, written into
    ``grads`` (allocated when None). Batch-stat blocks get the full
    batch-norm backward, frozen-stat blocks treat mean/var as constants.

    Returns the gradients and, when ``need_dx``, the gradient wrt the
    network input (None otherwise).
    """
    if grads is None:
        grads = {k: np.empty_like(v) for k, v in p.trainable().items()}
    top = N_HIDDEN_BLOCKS
    np.matmul(acts.h[-1].T, dlogits, out=grads[f"w{top}"])
    dlogits.sum(axis=0, out=grads[f"b{top}"])
    dh = np.matmul(dlogits, p.weights[-1].T, out=acts.dh)
    b = dlogits.shape[0]
    for i in range(top - 1, -1, -1):
        dbn = np.multiply(dh, acts.h[i] > 0.0, out=dh)
        inv_std = acts.inv_std[i]
        # xhat again, from the inputs and in the order the forward pass used
        xhat = np.multiply(acts.zc[i], inv_std, out=acts.tmp)
        np.multiply(dbn, xhat, out=xhat).sum(axis=0, out=grads[f"gamma{i}"])
        dbn.sum(axis=0, out=grads[f"beta{i}"])
        dxhat = np.multiply(dbn, p.bn_scale[i], out=dbn)
        dz = np.multiply(dxhat, inv_std, out=acts.dz)
        if acts.from_batch:
            # dz = dxhat * inv_std + dvar * 2 * zc / b + dmu / b, in place
            # but in this operation order, so the bits match the formula
            zc = acts.zc[i]
            dvar = np.multiply(dxhat, zc, out=acts.tmp).sum(axis=0) * (-0.5) * inv_std ** 3
            dmu = (-np.sum(dxhat, axis=0) * inv_std
                   + dvar * np.multiply(-2.0, zc, out=acts.tmp).mean(axis=0))
            tmp = np.multiply(dvar * 2.0, zc, out=acts.tmp)
            tmp /= b
            dz += tmp
            dz += dmu / b
        np.matmul((acts.h[i - 1] if i else acts.x).T, dz, out=grads[f"w{i}"])
        dz.sum(axis=0, out=grads[f"b{i}"])
        if i:
            dh = np.matmul(dz, p.weights[i].T, out=acts.dh)
    dx = np.matmul(dz, p.weights[0].T) if need_dx else None
    return grads, dx


def _input_backward(p: MlpParams, acts: _Activations, dlogits: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Gradient wrt the network input of the forward pass held in ``acts``,
    with its normalization statistics held constant; builds no parameter
    gradients. It is written into ``out`` (allocated when None), which is
    returned."""
    dh = np.matmul(dlogits, p.weights[-1].T, out=acts.dh)
    for i in range(N_HIDDEN_BLOCKS - 1, -1, -1):
        dh *= acts.h[i] > 0.0
        dh *= p.bn_scale[i]
        dz = np.multiply(dh, acts.inv_std[i], out=acts.dz)
        dh = np.matmul(dz, p.weights[i].T, out=acts.dh if i else out)
    return dh


def loss_and_grads(p: MlpParams, xs: np.ndarray, labels: np.ndarray, mode: str):
    """Cross-entropy loss, parameter gradients and the input gradient."""
    logits, acts = _forward_cached(p, xs, _mode_stats(p, xs, mode))
    loss, dlogits = _ce_loss_and_dlogits(logits, np.asarray(labels))
    grads, dx = _backward(p, acts, dlogits)
    return loss, grads, dx


def feature_scale_of(features: np.ndarray) -> np.ndarray:
    """Per-dimension standard deviation, floored away from zero at 1e-8.

    The bits are those of ``np.maximum(np.std(features, axis=0), 1e-8)``,
    but the squared deviations are summed ``SCALE_BLOCK_ROWS`` rows at a
    time, in row order, so no temporary of the features' size is built.
    """
    x = np.asarray(features, dtype=np.float64)
    n, d = x.shape
    if d == 1 or not x.flags.c_contiguous:
        # numpy sums pairwise along a column that is contiguous in memory (a
        # single column, or Fortran order), an order row blocks cannot follow
        return np.maximum(x.std(axis=0), 1e-8)
    mean = np.add.reduce(x, axis=0) / n
    sq = np.zeros(d)
    # row 0 carries the sum so far, so each block adds to it row by row, the
    # order np.std's reduction over axis 0 of a C-ordered matrix uses
    buf = np.empty((min(n, SCALE_BLOCK_ROWS) + 1, d))
    for start in range(0, n, SCALE_BLOCK_ROWS):
        block = x[start : start + SCALE_BLOCK_ROWS]
        dev = np.subtract(block, mean, out=buf[1 : len(block) + 1])
        np.multiply(dev, dev, out=dev)
        buf[0] = sq
        np.add.reduce(buf[: len(block) + 1], axis=0, out=sq)
    return np.maximum(np.sqrt(sq / n), 1e-8)


def fit_member(
    features: np.ndarray,
    labels: np.ndarray,
    cfg: EnsembleConfig,
    seed: int,
    feature_scale: np.ndarray | None = None,
    executor: Executor | None = None,
) -> tuple[MlpParams, list[float]]:
    """Train one member: Adam on 1/2 clean CE + 1/2 CE on FGSM-perturbed inputs.

    Adversarial examples are built from the clean pass with its batch
    normalization statistics frozen. The running statistics are debiased
    running averages of the clean pass's batch statistics, as Adam debiases
    its moments (so step 1 stores its batch's). Returns the member and its
    objective at every step.
    Deterministic for fixed (data, config, seed). Each epoch runs on
    ``executor`` (see fit_ensemble) when given, else in the calling thread,
    and allocates its batch buffers and frees them when it ends, so memory
    is bounded by the epochs running at once.
    """
    cfg.validate()
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n, d = features.shape
    if n == 0:
        raise DimensionMismatch("empty training set")
    if feature_scale is None:
        feature_scale = feature_scale_of(features)

    rng = np.random.default_rng(seed)
    p = init_mlp(d, rng, hidden=cfg.hidden_units)

    m_state = {k: np.zeros_like(v) for k, v in p.trainable().items()}
    v_state = {k: np.zeros_like(v) for k, v in p.trainable().items()}
    b1, b2, eps_a, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, cfg.learning_rate
    mom, w = BN_MOMENTUM, ADV_WEIGHT
    fgsm_step = cfg.fgsm_epsilon * feature_scale
    trace = []
    t = 0

    # a diverging step overflows; its NonFiniteLoss is the one report of that.
    # numpy's error state is per thread, so it is set where the epoch runs.
    @np.errstate(over="ignore", invalid="ignore")
    def epoch() -> None:
        nonlocal t
        grads_clean, grads_adv = ({k: np.empty_like(v) for k, v in p.trainable().items()}
                                  for _ in range(2))
        batches = {}  # the activations and adversarial inputs per batch size
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if idx.size < 2:
                continue  # batch norm cannot normalize a single example
            if idx.size not in batches:
                batches[idx.size] = (_Activations(idx.size, p), np.empty((idx.size, d)),
                                     np.empty((idx.size, d)))
            acts, xb, x_adv = batches[idx.size]
            t += 1
            # a permutation's indices are in range, so "clip" never clips; it
            # writes straight into xb, where "raise" gathers into a copy first
            np.take(features, idx, axis=0, out=xb, mode="clip")
            yb = labels[idx]

            logits, _ = _forward_cached(p, xb, None, acts)
            loss_clean, dlogits = _ce_loss_and_dlogits(logits, yb)
            _backward(p, acts, dlogits, grads_clean, need_dx=False)
            a = (1 - mom) / (1 - mom**t)  # 1 at t = 1
            for i in range(N_HIDDEN_BLOCKS):
                p.bn_running_mean[i] = (1 - a) * p.bn_running_mean[i] + a * acts.mu[i]
                p.bn_running_var[i] = (1 - a) * p.bn_running_var[i] + a * acts.var[i]

            # x_adv = xb + eps * scale * sign(dCE/dxb), the gradient taken
            # through the clean pass with its batch statistics held constant
            np.sign(_input_backward(p, acts, dlogits, out=x_adv), out=x_adv)
            x_adv *= fgsm_step
            x_adv += xb
            logits_a, _ = _forward_cached(p, x_adv, None, acts)
            loss_adv, dlogits_a = _ce_loss_and_dlogits(logits_a, yb)
            _backward(p, acts, dlogits_a, grads_adv, need_dx=False)

            loss = (1 - w) * loss_clean + w * loss_adv
            if not np.isfinite(loss):
                raise NonFiniteLoss(len(trace), loss)

            for k, arr in p.trainable().items():
                # in place, with the operations of
                #   g = (1 - w) * g_clean + w * g_adv
                #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
                #   arr -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps_a)
                g, tmp = grads_clean[k], grads_adv[k]
                g *= 1 - w
                tmp *= w
                g += tmp
                m, v = m_state[k], v_state[k]
                m *= b1
                m += np.multiply(g, 1 - b1, out=tmp)
                v *= b2
                np.multiply(g, 1 - b2, out=tmp)
                tmp *= g
                v += tmp
                mhat = np.divide(m, 1 - b1**t, out=tmp)
                denom = np.divide(v, 1 - b2**t, out=g)
                np.sqrt(denom, out=denom)
                denom += eps_a
                mhat *= lr
                mhat /= denom
                arr -= mhat
            trace.append(loss)

    for _ in range(cfg.epochs):
        if executor is None:
            epoch()
        else:
            executor.submit(epoch).result()
    return p, trace


def _worker_count(members: int) -> int:
    """How many members train at once: the usable CPUs over the BLAS threads
    each member's matmuls use, clamped to [1, members].

    The BLAS thread count is the first of OPENBLAS_NUM_THREADS and
    OMP_NUM_THREADS that is a positive integer; with neither, OpenBLAS uses
    every usable CPU, which gives one worker.
    """
    cpus = usable_cpus()
    blas = cpus
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value >= 1:
            blas = value
            break
    return max(1, min(cpus // blas, members))


def fit_ensemble(
    features: np.ndarray, labels: np.ndarray, cfg: EnsembleConfig
) -> tuple[EnsembleModel, list[list[float]]]:
    """Train cfg.members independent networks with seeds cfg.seed + index;
    returns the model and each member's objectives.

    Each member's fit_member call runs in a member thread of its own, and
    hands its epochs one at a time to a pool of ``_worker_count`` epoch
    threads (numpy releases the GIL in matmuls and ufuncs). A member asks
    for its next epoch only when its last one ends, so it queues behind the
    members already waiting, and 5 members of 2 epochs on 2 workers take 5
    epoch-rounds, not the 6 of whole members; at most ``_worker_count``
    epochs, and so their buffers, are alive at once. A member's bits depend
    only on its seed and the BLAS thread count, so the model does not depend
    on the worker count; results are read in member order, so the
    lowest-index failing member's error is raised.
    """
    # imported on first use: only ensemble training needs it, and every command imports cli
    from concurrent.futures import ThreadPoolExecutor

    cfg.validate()
    scale = feature_scale_of(features)
    epochs = ThreadPoolExecutor(_worker_count(cfg.members), thread_name_prefix="textuq-epoch")
    with epochs, ThreadPoolExecutor(cfg.members, thread_name_prefix="textuq-member") as pool:
        try:
            futures = [pool.submit(fit_member, features, labels, cfg, cfg.seed + i, scale, epochs)
                       for i in range(cfg.members)]
            members, traces = zip(*(future.result() for future in futures))
        except BaseException:
            # queued epochs are cancelled and a member's next one is refused;
            # leaving both pools joins every thread
            epochs.shutdown(wait=False, cancel_futures=True)
            raise
    return EnsembleModel(members=list(members)), list(traces)


def ensemble_predict(m: EnsembleModel, xs: np.ndarray) -> np.ndarray:
    """Mean of member softmax outputs in eval mode; rows sum to 1."""
    if not m.members:
        raise ValueError("ensemble has no members")
    acc = None
    for member in m.members:
        probs = softmax(mlp_forward(member, xs, "eval"))
        acc = probs if acc is None else acc + probs
    return acc / len(m.members)
