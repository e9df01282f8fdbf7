"""Shared test utilities: finite differences, brute-force oracles, samplers."""

from __future__ import annotations

import base64
import copy
from dataclasses import dataclass

import numpy as np


def rbf_ard(x, y, p):
    """Scalar ARD RBF oracle: sigma^2 * exp(-1/2 sum_d (x_d - y_d)^2 / l_d^2)."""
    from textuq.errors import DimensionMismatch

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.shape != (p.dim,):
        raise DimensionMismatch(
            f"x {x.shape}, y {y.shape}, lengthscales ({p.dim},) must all agree"
        )
    d = (x - y) / p.lengthscales()
    return float(np.exp(p.log_variance - 0.5 * np.dot(d, d)))


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
        inv_std = 1.0 / np.sqrt(var + 1e-5)
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
    p = init_mlp(d, rng, hidden=cfg.hidden_units)
    m_state = {k: np.zeros_like(v) for k, v in p.trainable().items()}
    v_state = {k: np.zeros_like(v) for k, v in p.trainable().items()}
    b1, b2, lr, mom, w = 0.9, 0.999, cfg.learning_rate, 0.9, 0.5
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
            # debiased: the moving average from a zero start over 1 - mom**step
            a = (1 - mom) / (1 - mom ** (t + 1))
            for i in range(3):
                p.bn_running_mean[i] = (1 - a) * p.bn_running_mean[i] + a * batch_stats[i][0]
                p.bn_running_var[i] = (1 - a) * p.bn_running_var[i] + a * batch_stats[i][1]
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
                arr -= lr * mhat / (np.sqrt(vhat) + 1e-8)
            objectives.append((1 - w) * loss_clean + w * loss_adv)
    return p, objectives


def population_bn_stats(p, features):
    """The population batch-norm statistics of a trained member: ``features``
    forwarded through its final weights, each block normalised by the mean
    and variance of its own inputs over every row (Ioffe and Szegedy 2015,
    arXiv:1502.03167, section 3.1). Returns a (mean, var) pair per block."""
    _, cache = _ref_forward(p, features, None)
    return [(blk["mu"], blk["var"]) for blk in cache["blocks"]]


def mlp_arrays(p):
    """Every array of an MlpParams, trainable and running statistics, by name."""
    out = dict(p.trainable())
    for i in range(3):
        out[f"running_mean{i}"] = p.bn_running_mean[i]
        out[f"running_var{i}"] = p.bn_running_var[i]
    return out


def reference_write_features_csv(path, table):
    """The original feature-CSV writer: one csv.writer row per example with
    every float formatted separately. The corpus tests assert that
    textuq.corpus.write_features_csv writes the same bytes."""
    import csv

    from textuq.corpus import NO_LABEL
    from textuq.labels import LABEL_NAMES

    dim = table.features.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label", "secondary_label"] + [f"f{i}" for i in range(dim)])
        for i in range(len(table)):
            secondary = table.secondary[i]
            secondary = "" if secondary == NO_LABEL else LABEL_NAMES[secondary]
            writer.writerow(
                [table.ids[i], LABEL_NAMES[table.labels[i]], secondary]
                + ["%.17g" % v for v in table.features[i]]
            )


def table_with_repeats(n, distinct, dim, seed, quoted_ids=False):
    """A FeatureTable of n rows whose features take exactly ``distinct``
    values (1 <= distinct <= n), each on at least one row, in a seeded
    order; as mean pooling gives reports with the same known tokens. With
    ``quoted_ids`` every id holds a comma and a quote, so the writer quotes
    it."""
    from textuq.corpus import NO_LABEL, FeatureTable

    rng = np.random.default_rng(seed)
    values = rng.normal(size=(distinct, dim))
    which = rng.permutation(np.arange(n) % distinct)
    ids = [f'e{i},"q"' if quoted_ids else f"e{i}" for i in range(n)]
    return FeatureTable(
        ids=np.array(ids, dtype=object),
        features=values[which],
        labels=np.arange(n, dtype=np.int64) % 3,
        secondary=np.array([NO_LABEL if i % 4 == 1 else (i + 1) % 3 for i in range(n)],
                           dtype=np.int64),
    )


def reference_median_heuristic_lengthscale(features, rng):
    """The original median heuristic: the full (m, m) squared-distance
    matrix and its upper triangle by index arrays. The kernel tests assert
    that textuq.kernel.median_heuristic_lengthscale returns the same float."""
    from textuq.kernel import MEDIAN_POINTS

    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    if n > MEDIAN_POINTS:
        idx = rng.choice(n, size=MEDIAN_POINTS, replace=False)
        features = features[idx]
    r = np.sum(features * features, axis=1)
    sq = np.maximum(r[:, None] + r[None, :] - 2.0 * (features @ features.T), 0.0)
    iu = np.triu_indices(features.shape[0], k=1)
    med = float(np.median(np.sqrt(sq[iu]))) if iu[0].size else 0.0
    ell = med / np.sqrt(d)
    return ell if ell > 0.0 else 1.0


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes this process allocated while it ran, by
    tracemalloc)."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    float() per value at a time, skipping blank lines, with errors naming
    the line a record starts on. The corpus tests assert that
    textuq.corpus.read_features_csv returns the same table and raises
    the same errors."""
    import csv

    from textuq.corpus import NO_LABEL, FeatureTable
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
        ids, rows, labels, secondaries = [], [], [], []
        while True:
            lineno = reader.line_num + 1
            rec = next(reader, None)
            if rec is None:
                break
            if not rec:
                continue  # a blank line
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
            try:
                labels.append(label_to_index(rec[1]))
                secondaries.append(NO_LABEL if rec[2] == "" else label_to_index(rec[2]))
            except MalformedRow as exc:
                raise MalformedRow(f"{path} line {lineno}: {exc}") from None
            ids.append(rec[0])
            rows.append(features)
    return FeatureTable(
        ids=np.array(ids, dtype=object),
        features=np.array(rows, dtype=np.float64).reshape(len(rows), dim),
        labels=np.array(labels, dtype=np.int64),
        secondary=np.array(secondaries, dtype=np.int64),
    )


def embed_mean(tokens, table: EmbeddingTable):
    """Mean of in-vocabulary token vectors; returns (vector, all_oov_flag).

    Tokens are summed in sorted order so the float result cannot depend on
    token order. All-out-of-vocabulary inputs give the zero vector, flagged.
    """
    known = sorted(t for t in tokens if t in table.vectors)
    if not known:
        return np.zeros(table.dimension), True
    acc = np.zeros(table.dimension)
    for t in known:
        acc += table.vectors[t]
    return acc / len(known), False


def reference_preprocess_text(raw):
    """The original tokenizer: one category lookup per character."""
    import unicodedata

    def removable(ch):
        cat = unicodedata.category(ch)
        return cat.startswith("P") or (ord(ch) < 128 and cat.startswith("S"))

    return "".join(" " if removable(ch) else ch for ch in raw.lower()).split()


# ---- reference SVGP forward and backward -----------------------------------
# A frozen copy of the original per-class SVGP code: each entry point builds
# its own latent marginals, with one L_c and one W_c = L_c^T A per class. The
# SVGP tests assert that textuq.svgp's stacked forward pass gives the same
# bytes for every output and gradient block.


def _ref_scale_lower(model, c):
    from textuq.svgp import softplus

    raw = model.variational_scales_raw[c]
    l = np.tril(raw, k=-1)
    l[np.diag_indices_from(l)] = softplus(np.diag(raw))
    return l


def _ref_projection(model, xs):
    from textuq.kernel import kernel_matrix
    from textuq.linalg import cholesky_with_jitter, solve_lower_triangular

    xs = np.asarray(xs, dtype=np.float64)
    z = model.inducing_inputs
    kzz = kernel_matrix(z, z, model.kernel)
    fac = cholesky_with_jitter(kzz, model.jitter)
    kzx = kernel_matrix(z, xs, model.kernel)
    a = solve_lower_triangular(fac, kzx)
    return xs, kzz, fac, kzx, a


def reference_kl_divergence(model):
    total = 0.0
    m = model.m
    for c in range(model.num_classes):
        l = _ref_scale_lower(model, c)
        mc = model.variational_means[c]
        total += 0.5 * (
            np.sum(l * l) + np.dot(mc, mc) - m - 2.0 * np.sum(np.log(np.diag(l)))
        )
    return max(float(total), 0.0)


def reference_predictive_latent(model, xs):
    """The original predictive_latent: returns (mean, floored variance)."""
    from textuq.kernel import kernel_diag
    from textuq.svgp import VARIANCE_FLOOR

    xs, _, _, _, a = _ref_projection(model, xs)
    n = xs.shape[0]
    c_n = model.num_classes
    mean = a.T @ model.variational_means.T
    base = kernel_diag(xs, model.kernel) - np.sum(a * a, axis=0)
    variance = np.empty((n, c_n))
    for c in range(c_n):
        w = _ref_scale_lower(model, c).T @ a
        variance[:, c] = base + np.sum(w * w, axis=0)
    return mean, np.maximum(variance, VARIANCE_FLOOR)


def _ref_log_softmax_stats(f, labels):
    mx = f.max(axis=1, keepdims=True)
    ex = np.exp(f - mx)
    denom = ex.sum(axis=1, keepdims=True)
    lse = (mx + np.log(denom))[:, 0, :]
    logp = f[np.arange(f.shape[0]), labels, :] - lse
    return logp, ex / denom


def reference_elbo_minibatch(model, features, labels, n_total, noise):
    mean, variance = reference_predictive_latent(model, features)
    f = mean[:, :, None] + np.sqrt(variance)[:, :, None] * noise
    logp, _ = _ref_log_softmax_stats(f, np.asarray(labels))
    scale = n_total / np.asarray(features).shape[0]
    return float(scale * np.sum(logp.mean(axis=1)) - reference_kl_divergence(model))


def reference_elbo_and_grads(model, features, labels, n_total, noise,
                             optimize_inducing=False):
    """The original _elbo_and_grads: returns (elbo, grads by block name)."""
    from textuq.kernel import (
        kernel_diag, rbf_ard_input_grads, rbf_ard_param_grads,
    )
    from textuq.linalg import cholesky_backward, solve_triangular
    from textuq.svgp import VARIANCE_FLOOR, _sigmoid

    labels = np.asarray(labels)
    b = np.asarray(features).shape[0]
    c_n = model.num_classes
    s = noise.shape[2]
    xs, kzz, fac, kzx, a = _ref_projection(model, features)
    l_kern = fac.lower

    scales = [_ref_scale_lower(model, c) for c in range(c_n)]
    w_all = [scales[c].T @ a for c in range(c_n)]

    kdiag = kernel_diag(xs, model.kernel)
    base = kdiag - np.sum(a * a, axis=0)
    var_raw = np.stack([base + np.sum(w * w, axis=0) for w in w_all], axis=1)
    clamp = var_raw > VARIANCE_FLOOR
    var = np.maximum(var_raw, VARIANCE_FLOOR)
    sigma = np.sqrt(var)
    mean = a.T @ model.variational_means.T

    f = mean[:, :, None] + sigma[:, :, None] * noise
    logp, probs = _ref_log_softmax_stats(f, labels)
    scale = n_total / b
    elbo = scale * np.sum(logp.mean(axis=1)) - reference_kl_divergence(model)

    dlf = -probs
    dlf[np.arange(b), labels, :] += 1.0
    dlf *= scale / s
    g_mean = dlf.sum(axis=2)
    g_sigma = (dlf * noise).sum(axis=2)
    dvar = np.where(clamp, g_sigma / (2.0 * sigma), 0.0)

    dmeans = (a @ g_mean).T - model.variational_means

    da = model.variational_means.T @ g_mean.T
    col_dvar = dvar.sum(axis=1)
    da -= 2.0 * a * col_dvar[None, :]

    dscales_raw = np.zeros_like(model.variational_scales_raw)
    for c in range(c_n):
        dw = 2.0 * w_all[c] * dvar[:, c][None, :]
        dl_c = a @ dw.T
        da += scales[c] @ dw
        dl_c -= scales[c]
        dl_c[np.diag_indices_from(dl_c)] += 1.0 / np.diag(scales[c])
        dl_c = np.tril(dl_c)
        raw_diag = np.diag(model.variational_scales_raw[c])
        dl_c[np.diag_indices_from(dl_c)] *= _sigmoid(raw_diag)
        dscales_raw[c] = dl_c

    kzx_bar = solve_triangular(l_kern, da, trans="T")
    l_bar = np.tril(-(kzx_bar @ a.T))
    kzz_bar = cholesky_backward(l_kern, l_bar)

    sig2 = np.exp(model.kernel.log_variance)
    d_log_var = float(np.sum(col_dvar) * sig2)
    dlv1, dll1 = rbf_ard_param_grads(model.inducing_inputs, xs, model.kernel, kzx_bar, kzx)
    dlv2, dll2 = rbf_ard_param_grads(
        model.inducing_inputs, model.inducing_inputs, model.kernel, kzz_bar, kzz
    )
    d_log_var += dlv1 + dlv2
    d_log_ls = dll1 + dll2

    grads = {
        "variational_means": dmeans,
        "variational_scales_raw": dscales_raw,
        "log_variance": np.array(d_log_var),
        "log_lengthscales": d_log_ls,
    }
    if optimize_inducing:
        dz = rbf_ard_input_grads(model.inducing_inputs, xs, model.kernel, kzx_bar, kzx)
        dz += 2.0 * rbf_ard_input_grads(
            model.inducing_inputs, model.inducing_inputs, model.kernel, kzz_bar, kzz
        )
        grads["inducing_inputs"] = dz
    return float(elbo), grads


def reference_predict_proba(model, xs, s=64, seed=0):
    mean, variance = reference_predictive_latent(model, xs)
    n, c_n = mean.shape
    key = np.array([np.uint64(seed % 2**64), np.uint64(0)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    noise = gen.standard_normal((n, c_n, s))
    f = mean[:, :, None] + np.sqrt(variance)[:, :, None] * noise
    mx = f.max(axis=1, keepdims=True)
    ex = np.exp(f - mx)
    probs = ex / ex.sum(axis=1, keepdims=True)
    return probs.mean(axis=2)


def reference_fit(model, features, labels, cfg):
    """The original fit loop around reference_elbo_and_grads: returns the
    trained model and the per-step objectives."""
    from textuq.svgp import _epoch_noise

    n = features.shape[0]
    out = copy.deepcopy(model)
    caches = {
        "variational_means": np.zeros_like(out.variational_means),
        "variational_scales_raw": np.zeros_like(out.variational_scales_raw),
        "log_variance": np.zeros(()),
        "log_lengthscales": np.zeros_like(out.kernel.log_lengthscales),
    }
    if cfg.optimize_inducing:
        caches["inducing_inputs"] = np.zeros_like(out.inducing_inputs)
    shuffle_rng = np.random.default_rng(cfg.seed)
    objectives = []
    decay, eps, lr = 0.9, 1e-8, cfg.learning_rate
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        noise = _epoch_noise(cfg.seed, epoch, n, out.num_classes, cfg.mc_train_samples)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            elbo, grads = reference_elbo_and_grads(
                out, features[idx], labels[idx], n, noise[idx], cfg.optimize_inducing
            )
            for name, g in grads.items():
                caches[name] = decay * caches[name] + (1.0 - decay) * g * g
                update = lr * g / (np.sqrt(caches[name]) + eps)
                if name == "log_variance":
                    out.kernel.log_variance += float(update)
                elif name == "log_lengthscales":
                    out.kernel.log_lengthscales += update
                elif name == "inducing_inputs":
                    out.inducing_inputs += update
                elif name == "variational_means":
                    out.variational_means += update
                else:
                    out.variational_scales_raw += update
            objectives.append(elbo)
    return out, objectives


def encode_array(arr):
    """An array as a textuq-model-v2 file stores it: its shape and the base64
    of its little-endian, C-order float64 bytes."""
    raw = np.asarray(arr, dtype="<f8").tobytes(order="C")
    return {"data": base64.b64encode(raw).decode("ascii"), "shape": list(np.shape(arr))}


def decode_array(obj):
    """The array a textuq-model-v2 array object holds."""
    raw = base64.b64decode(obj["data"], validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()


# ---- reference splits and test views ----------------------------------------
# Frozen copies of the original list-based stratified_split and
# make_test_views, over one record per row. The corpus tests assert that the
# table versions pick the same rows in the same order.


@dataclass
class ReferenceExample:
    id: str
    features: np.ndarray
    primary_label: int
    secondary_label: int | None


def reference_examples(table):
    """One ReferenceExample per table row, None for a missing secondary label."""
    from textuq.corpus import NO_LABEL

    return [
        ReferenceExample(table.ids[i], table.features[i], int(table.labels[i]),
                         None if table.secondary[i] == NO_LABEL else int(table.secondary[i]))
        for i in range(len(table))
    ]


def reference_partition_by_agreement(examples):
    from textuq.errors import MissingSecondaryLabel

    consistent, inconsistent = [], []
    for ex in examples:
        if ex.secondary_label is None:
            raise MissingSecondaryLabel(ex.id)
        if ex.primary_label == ex.secondary_label:
            consistent.append(ex)
        else:
            inconsistent.append(ex)
    return consistent, inconsistent


def reference_stratified_split(examples, spec):
    """The original stratified_split: (train, val, test) lists of examples."""
    from textuq.corpus import _largest_remainder
    from textuq.errors import EmptyInput, MissingSecondaryLabel

    spec.validate()
    if not examples:
        raise EmptyInput("nothing to split")
    strata: dict = {}
    for i, ex in enumerate(examples):
        if ex.secondary_label is None:
            raise MissingSecondaryLabel(ex.id)
        key = (ex.primary_label, ex.primary_label == ex.secondary_label)
        strata.setdefault(key, []).append(i)

    n = len(examples)
    keys = sorted(strata)
    sizes = [len(strata[k]) for k in keys]
    val_alloc = _largest_remainder(sizes, spec.val_fraction, round(spec.val_fraction * n), sizes)
    caps = [s - v for s, v in zip(sizes, val_alloc)]
    test_alloc = _largest_remainder(sizes, spec.test_fraction, round(spec.test_fraction * n), caps)

    rng = np.random.default_rng(spec.seed)
    train_idx, val_idx, test_idx = [], [], []
    for key, n_val, n_test in zip(keys, val_alloc, test_alloc):
        members = np.array(strata[key])
        shuffled = members[rng.permutation(len(members))]
        val_idx.extend(shuffled[:n_val])
        test_idx.extend(shuffled[n_val : n_val + n_test])
        train_idx.extend(shuffled[n_val + n_test :])
    return (
        [examples[i] for i in sorted(train_idx)],
        [examples[i] for i in sorted(val_idx)],
        [examples[i] for i in sorted(test_idx)],
    )


def reference_make_test_views(test_examples, seed):
    """The original make_test_views: {view: (ids, features, labels)}."""
    from textuq.errors import InconsistentSetEmpty, TooFewPoints

    consistent, inconsistent = reference_partition_by_agreement(test_examples)
    if not inconsistent:
        raise InconsistentSetEmpty("test split has no labeller-disagreement examples")
    if len(consistent) < len(inconsistent):
        raise TooFewPoints(
            f"cannot size-match: {len(consistent)} consistent vs "
            f"{len(inconsistent)} inconsistent test examples"
        )
    rng = np.random.default_rng(seed)
    pick = np.sort(rng.choice(len(consistent), size=len(inconsistent), replace=False))
    cons_sample = [consistent[i] for i in pick]

    def view(examples, labels):
        return ([ex.id for ex in examples], np.stack([ex.features for ex in examples]),
                np.array(labels))

    return {
        "NegINCONSTest": view(inconsistent, [ex.secondary_label for ex in inconsistent]),
        "CheXINCONSTest": view(inconsistent, [ex.primary_label for ex in inconsistent]),
        "CONSTest": view(cons_sample, [ex.primary_label for ex in cons_sample]),
    }
