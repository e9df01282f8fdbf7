"""Shared test utilities: finite differences, brute-force oracles, samplers."""

import numpy as np


def fd_wrt(arr, f, h=1e-5):
    """Central finite differences of f() with respect to every entry of arr.

    Mutates arr in place during probing and restores it afterwards, so arr
    can be a live parameter array inside a model.
    """
    g = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + h
        fp = f()
        arr[idx] = old - h
        fm = f()
        arr[idx] = old
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def fd_scalar_attr(obj, name, f, h=1e-5):
    """Central finite difference with respect to a scalar attribute."""
    old = getattr(obj, name)
    setattr(obj, name, old + h)
    fp = f()
    setattr(obj, name, old - h)
    fm = f()
    setattr(obj, name, old)
    return (fp - fm) / (2.0 * h)


def max_rel_err(analytic, fd, floor=1e-6):
    """Worst-case relative error with a floor for near-zero gradients."""
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    return float(np.max(np.abs(analytic - fd) / denom))


def monotone_lsq_oracle(scores, targets, weights=None):
    """Least-squares nondecreasing fit by exhaustive partition enumeration.

    Ties in score are pooled first (weighted mean), then every contiguous
    partition of the pooled points whose block means are nondecreasing is a
    feasible fit; the optimum is the feasible partition with the smallest
    weighted SSE. All arithmetic is exact (rational), so the comparison can
    never be decided by rounding. Only usable for small n (2^(k-1) partitions).
    """
    from fractions import Fraction

    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if weights is None:
        weights = np.ones_like(scores)
    weights = np.asarray(weights, dtype=np.float64)

    uniq, inverse = np.unique(scores, return_inverse=True)
    k = len(uniq)
    w = [Fraction(0)] * k
    wt = [Fraction(0)] * k
    for i, g in enumerate(inverse):
        wi = Fraction(float(weights[i]))
        w[g] += wi
        wt[g] += wi * Fraction(float(targets[i]))
    t = [wt[g] / w[g] for g in range(k)]

    best_sse, best_vals = None, None
    for mask in range(2 ** (k - 1)):
        # bit i set = a block boundary between pooled point i and i+1
        bounds = [0] + [i + 1 for i in range(k - 1) if mask >> i & 1] + [k]
        spans = list(zip(bounds[:-1], bounds[1:]))
        means, feasible = [], True
        for lo, hi in spans:
            mu = sum((w[j] * t[j] for j in range(lo, hi)), Fraction(0)) / sum(
                w[lo:hi], Fraction(0)
            )
            if means and mu < means[-1]:
                feasible = False
                break
            means.append(mu)
        if not feasible:
            continue
        sse = sum(
            (
                w[j] * (mu - t[j]) ** 2
                for (lo, hi), mu in zip(spans, means)
                for j in range(lo, hi)
            ),
            Fraction(0),
        )
        if best_sse is None or sse < best_sse:
            best_sse = sse
            best_vals = [mu for (lo, hi), mu in zip(spans, means) for _ in range(lo, hi)]
    out = np.array([float(v) for v in best_vals])
    return uniq, np.clip(out, 0.0, 1.0)


def sample_categorical(rng, probs):
    """Vectorized label draws: one category per probability row."""
    probs = np.asarray(probs, dtype=np.float64)
    u = rng.random(probs.shape[0])
    return (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)


def entropy_rows(probs):
    p = np.maximum(np.asarray(probs, dtype=np.float64), 1e-300)
    return -np.sum(p * np.log(p), axis=1)


def make_blobs(rng, n_per=500, scale=0.6):
    """Three well-separated 2-d Gaussian clusters with labels 0/1/2."""
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    xs = np.vstack([c + rng.normal(scale=scale, size=(n_per, 2)) for c in centers])
    ys = np.repeat(np.arange(3), n_per)
    perm = rng.permutation(len(ys))
    return xs[perm], ys[perm]


# ---- reference deep-ensemble training step ---------------------------------
# A frozen copy of the original, unoptimised training step: three forward
# passes per step (clean, frozen-statistics input gradient, adversarial),
# full parameter backwards, and freshly allocated arrays throughout. The
# ensemble tests assert that textuq.ensemble trains bit-identical members.


def _ref_forward(p, xs, stats):
    h = xs
    blocks = []
    for i in range(3):
        z = h @ p.weights[i] + p.biases[i]
        if stats is None:
            mu, var, from_batch = z.mean(axis=0), z.var(axis=0), True
        else:
            (mu, var), from_batch = stats[i], False
        inv_std = 1.0 / np.sqrt(var + p.bn_epsilon)
        xhat = (z - mu) * inv_std
        bn = p.bn_scale[i] * xhat + p.bn_shift[i]
        blocks.append({"h_in": h, "z": z, "mu": mu, "var": var, "inv_std": inv_std,
                       "xhat": xhat, "mask": bn > 0.0, "from_batch": from_batch})
        h = np.maximum(bn, 0.0)
    return h @ p.weights[-1] + p.biases[-1], {"blocks": blocks, "h_last": h}


def _ref_ce(logits, labels):
    b = logits.shape[0]
    mx = logits.max(axis=1, keepdims=True)
    lse = (mx + np.log(np.exp(logits - mx).sum(axis=1, keepdims=True)))[:, 0]
    loss = float(np.mean(lse - logits[np.arange(b), labels]))
    ex = np.exp(logits - mx)
    dlogits = ex / ex.sum(axis=-1, keepdims=True)
    dlogits[np.arange(b), labels] -= 1.0
    return loss, dlogits / b


def _ref_backward(p, cache, dlogits):
    grads = {"w3": cache["h_last"].T @ dlogits, "b3": dlogits.sum(axis=0)}
    dh = dlogits @ p.weights[-1].T
    for i in range(2, -1, -1):
        blk = cache["blocks"][i]
        dbn = dh * blk["mask"]
        grads[f"gamma{i}"] = (dbn * blk["xhat"]).sum(axis=0)
        grads[f"beta{i}"] = dbn.sum(axis=0)
        dxhat = dbn * p.bn_scale[i]
        if blk["from_batch"]:
            b = dxhat.shape[0]
            zc = blk["z"] - blk["mu"]
            dvar = np.sum(dxhat * zc, axis=0) * (-0.5) * blk["inv_std"] ** 3
            dmu = -np.sum(dxhat, axis=0) * blk["inv_std"] + dvar * np.mean(-2.0 * zc, axis=0)
            dz = dxhat * blk["inv_std"] + dvar * 2.0 * zc / b + dmu / b
        else:
            dz = dxhat * blk["inv_std"]
        grads[f"w{i}"] = blk["h_in"].T @ dz
        grads[f"b{i}"] = dz.sum(axis=0)
        dh = dz @ p.weights[i].T
    return grads, dh


def reference_fit_member(features, labels, cfg, seed, feature_scale):
    """The original fit_member: returns the trained MlpParams and the list of
    per-step objectives."""
    from textuq.ensemble import init_mlp

    n, d = features.shape
    rng = np.random.default_rng(seed)
    p = init_mlp(d, rng, hidden=cfg.hidden_units, num_classes=cfg.num_classes,
                 bn_epsilon=cfg.bn_epsilon)
    m_state = {k: np.zeros_like(v) for k, v in p.trainable().items()}
    v_state = {k: np.zeros_like(v) for k, v in p.trainable().items()}
    b1, b2, lr, mom, w = (cfg.adam_beta1, cfg.adam_beta2, cfg.learning_rate,
                          cfg.bn_momentum, cfg.adv_weight)
    objectives = []
    t = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            xb, yb = features[idx], labels[idx]
            logits, cache = _ref_forward(p, xb, None)
            loss_clean, dlogits = _ref_ce(logits, yb)
            grads_clean, _ = _ref_backward(p, cache, dlogits)
            batch_stats = [(blk["mu"], blk["var"]) for blk in cache["blocks"]]
            for i in range(3):
                p.bn_running_mean[i] = mom * p.bn_running_mean[i] + (1 - mom) * batch_stats[i][0]
                p.bn_running_var[i] = mom * p.bn_running_var[i] + (1 - mom) * batch_stats[i][1]
            logits_f, cache_f = _ref_forward(p, xb, batch_stats)
            _, dxb = _ref_backward(p, cache_f, _ref_ce(logits_f, yb)[1])
            x_adv = xb + cfg.fgsm_epsilon * feature_scale * np.sign(dxb)
            logits_a, cache_a = _ref_forward(p, x_adv, None)
            loss_adv, dlogits_a = _ref_ce(logits_a, yb)
            grads_adv, _ = _ref_backward(p, cache_a, dlogits_a)
            t += 1
            for k, arr in p.trainable().items():
                g = (1 - w) * grads_clean[k] + w * grads_adv[k]
                m_state[k] = b1 * m_state[k] + (1 - b1) * g
                v_state[k] = b2 * v_state[k] + (1 - b2) * g * g
                mhat = m_state[k] / (1 - b1**t)
                vhat = v_state[k] / (1 - b2**t)
                arr -= lr * mhat / (np.sqrt(vhat) + cfg.adam_epsilon)
            objectives.append((1 - w) * loss_clean + w * loss_adv)
    return p, objectives


def mlp_arrays(p):
    """Every array of an MlpParams, trainable and running statistics, by name."""
    out = dict(p.trainable())
    for i in range(3):
        out[f"running_mean{i}"] = p.bn_running_mean[i]
        out[f"running_var{i}"] = p.bn_running_var[i]
    return out


def reference_write_features_csv(path, examples):
    """The original feature-CSV writer: one csv.writer row per example with
    every float formatted separately. The corpus tests assert that
    textuq.corpus.write_features_csv writes the same bytes."""
    import csv

    from textuq.labels import LABEL_NAMES

    dim = len(examples[0].features)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label", "secondary_label"] + [f"f{i}" for i in range(dim)])
        for ex in examples:
            secondary = "" if ex.secondary_label is None else LABEL_NAMES[ex.secondary_label]
            writer.writerow(
                [ex.id, LABEL_NAMES[ex.primary_label], secondary]
                + ["%.17g" % v for v in ex.features]
            )


def blas_env(monkeypatch, cpus, openblas=None, omp=None):
    """Show the ensemble's worker-count rule `cpus` usable CPUs and the given
    OPENBLAS_NUM_THREADS / OMP_NUM_THREADS values (None: unset)."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)


def reference_read_features_csv(path):
    """The original feature-CSV reader: one csv.reader row and one
    float() per value at a time. The corpus tests assert that
    textuq.corpus.read_features_csv returns the same examples and raises
    the same errors."""
    import csv

    from textuq.corpus import LabelledExample
    from textuq.errors import MalformedRow
    from textuq.labels import label_to_index

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["id", "label", "secondary_label"]:
            raise MalformedRow(f"{path}: expected feature header, got {header}")
        dim = len(header) - 3
        if dim < 1:
            raise MalformedRow(f"{path}: no feature columns")
        examples = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != dim + 3:
                raise MalformedRow(
                    f"{path} line {lineno}: expected {dim + 3} fields, got {len(rec)}"
                )
            try:
                features = np.array([float(v) for v in rec[3:]])
            except ValueError:
                raise MalformedRow(f"{path} line {lineno}: non-numeric feature value") from None
            if not np.isfinite(features).all():
                raise MalformedRow(
                    f"{path} line {lineno}: non-finite feature value in row {rec[0]!r}"
                )
            examples.append(
                LabelledExample(
                    id=rec[0],
                    features=features,
                    primary_label=label_to_index(rec[1]),
                    secondary_label=None if rec[2] == "" else label_to_index(rec[2]),
                )
            )
    return examples


def reference_preprocess_text(raw):
    """The original tokenizer: one category lookup per character."""
    import unicodedata

    def removable(ch):
        cat = unicodedata.category(ch)
        return cat.startswith("P") or (ord(ch) < 128 and cat.startswith("S"))

    return "".join(" " if removable(ch) else ch for ch in raw.lower()).split()
