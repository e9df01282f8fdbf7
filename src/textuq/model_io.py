"""Model files: one JSON document per trained model, tagged textuq-model-v2.

An array is stored as its shape and the base64 of its little-endian, C-order
float64 bytes, so a save/load cycle copies bits, and with sorted keys
identical models give byte-identical files. The document is written one
piece at a time and never held whole. It also records the split and
prediction settings used at training time, so evaluation can rebuild the
exact train/val/test partition. Its model_type, "gp" or "ens", comes from
the model's class when saving and picks the class when loading; ModelMeta
holds only the settings. A textuq-model-v1 file (decimal arrays) is
refused with a request to retrain.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .corpus import SplitSpec
from .ensemble import N_HIDDEN_BLOCKS, EnsembleModel, MlpParams
from .errors import InvalidConfig, TextuqError, check_int
from .kernel import KernelParams
from .labels import LABEL_NAMES
from .svgp import SvgpModel

FORMAT_TAG = "textuq-model-v2"
_V1_TAG = "textuq-model-v1"
_F64 = np.dtype("<f8")


@dataclass(frozen=True)
class ModelMeta:
    """The settings a model file keeps beside the model, whose class is its family."""

    split: SplitSpec
    mc_predict_samples: int = 64
    predict_seed: int = 0


def atomic_write(path, write_fn) -> None:
    """Run a path-taking writer against a new sibling temp file, then rename
    it over ``path``, so failures leave no partial file. The temp file is
    made with O_EXCL, so no existing file is touched, and with mode 0o666
    less the umask, as a plain ``open`` would give."""
    for n in itertools.count():
        tmp = f"{path}.tmp{n or ''}"
        try:
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            break
        except FileExistsError:
            pass
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write UTF-8 text through atomic_write."""

    def write(tmp):
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    atomic_write(path, write)


def _gp_payload(model: SvgpModel) -> dict:
    return {
        "log_variance": float(model.kernel.log_variance),
        "log_lengthscales": model.kernel.log_lengthscales,
        "inducing_inputs": model.inducing_inputs,
        "variational_means": model.variational_means,
        "variational_scales_raw": model.variational_scales_raw,
        "jitter": float(model.jitter),
        "num_classes": model.num_classes,
    }


def _encode_array(value) -> dict:
    """The JSON encoder's hook for arrays: {"data": base64 of the float64
    little-endian C-order bytes, "shape": [...]}."""
    if not isinstance(value, np.ndarray):
        raise TypeError(f"cannot store a {type(value).__name__} in a model file")
    data = base64.b64encode(value.astype(_F64, copy=False).tobytes())
    return {"data": data.decode("ascii"), "shape": list(value.shape)}


def _array(value, name: str, shape: tuple) -> np.ndarray:
    """The finite float64 array an encoded-array object holds, which must
    have the given shape; a None in ``shape`` stands for any size >= 1."""
    if not isinstance(value, dict) or set(value) != {"data", "shape"}:
        raise InvalidConfig(f"{name} must be an object with keys data and shape")
    dims = value["shape"]
    dims = tuple(dims) if isinstance(dims, list) else dims
    if not isinstance(dims, tuple) or len(dims) != len(shape) or not all(
        type(n) is int and (n >= 1 if want is None else n == want)
        for n, want in zip(dims, shape)
    ):
        raise InvalidConfig(f"{name} has shape {dims!r}, expected {shape}")
    try:
        raw = base64.b64decode(value["data"], validate=True)
    except (TypeError, ValueError):  # not a string, not ASCII, or not base64
        raise InvalidConfig(f"{name} data must be a base64 string") from None
    if len(raw) != _F64.itemsize * math.prod(dims):
        raise InvalidConfig(f"{name} data holds {len(raw)} bytes, but shape {dims} "
                            f"needs {_F64.itemsize * math.prod(dims)}")
    arr = np.frombuffer(raw, _F64).astype(np.float64).reshape(dims)
    if not np.isfinite(arr).all():
        raise InvalidConfig(f"{name} must hold finite numbers")
    return arr


def _number(value, name: str, positive: bool = False):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (positive and value <= 0)):
        kind = "positive" if positive else "finite"
        raise InvalidConfig(f"{name} must be a {kind} number, got {value!r}")
    return value


def _gp_from_payload(block: dict) -> SvgpModel:
    z = _array(block["inducing_inputs"], "inducing_inputs", (None, None))
    m, d = z.shape
    c = len(LABEL_NAMES)
    if block["num_classes"] != c:
        raise InvalidConfig(f"num_classes must be {c}, got {block['num_classes']!r}")
    return SvgpModel(
        kernel=KernelParams(
            log_variance=_number(block["log_variance"], "log_variance"),
            log_lengthscales=_array(block["log_lengthscales"], "log_lengthscales", (d,)),
        ),
        inducing_inputs=z,
        variational_means=_array(block["variational_means"], "variational_means", (c, m)),
        variational_scales_raw=_array(
            block["variational_scales_raw"], "variational_scales_raw", (c, m, m)
        ),
        jitter=_number(block["jitter"], "jitter", positive=True),
    )


# MlpParams fields that hold one array per layer
_BN_KEYS = ("bn_scale", "bn_shift", "bn_running_mean", "bn_running_var")
_LAYER_KEYS = ("weights", "biases") + _BN_KEYS


def _ens_payload(model: EnsembleModel) -> dict:
    return {
        "members": [_member_payload(p) for p in model.members],
        "fgsm_epsilon": float(model.fgsm_epsilon),
        "feature_scale": model.feature_scale,
    }


def _member_payload(p: MlpParams) -> dict:
    block = {key: list(getattr(p, key)) for key in _LAYER_KEYS}
    block["bn_epsilon"] = float(p.bn_epsilon)
    return block


def _member_from_payload(mb: dict, k: int, dim: int) -> MlpParams:
    """Member k: layer widths chain from ``dim`` inputs to one output per label."""
    if len(mb["weights"]) != N_HIDDEN_BLOCKS + 1 or len(mb["biases"]) != N_HIDDEN_BLOCKS + 1:
        raise InvalidConfig(f"member {k} must have {N_HIDDEN_BLOCKS + 1} weights and biases")
    weights, biases = [], []
    for i, (w, b) in enumerate(zip(mb["weights"], mb["biases"])):
        out = len(LABEL_NAMES) if i == N_HIDDEN_BLOCKS else None
        fan_in = weights[-1].shape[1] if weights else dim
        weights.append(_array(w, f"member {k} weights[{i}]", (fan_in, out)))
        biases.append(_array(b, f"member {k} biases[{i}]", (weights[-1].shape[1],)))
    bn = {}
    for key in _BN_KEYS:
        if len(mb[key]) != N_HIDDEN_BLOCKS:
            raise InvalidConfig(f"member {k} must have {N_HIDDEN_BLOCKS} {key} arrays")
        bn[key] = [_array(v, f"member {k} {key}[{i}]", (weights[i].shape[1],))
                   for i, v in enumerate(mb[key])]
    if any((v < 0).any() for v in bn["bn_running_var"]):
        raise InvalidConfig(f"member {k} bn_running_var must be >= 0")
    eps = _number(mb["bn_epsilon"], f"member {k} bn_epsilon", positive=True)
    return MlpParams(weights=weights, biases=biases, bn_epsilon=eps, **bn)


def _ens_from_payload(block: dict) -> EnsembleModel:
    scale = _array(block["feature_scale"], "feature_scale", (None,))
    members = [_member_from_payload(mb, k, scale.shape[0])
               for k, mb in enumerate(block["members"])]
    if not members:
        raise InvalidConfig("the ensemble has no members")
    return EnsembleModel(
        members=members,
        fgsm_epsilon=_number(block["fgsm_epsilon"], "fgsm_epsilon"),
        feature_scale=scale,
    )


def save_model(path, model, meta: ModelMeta) -> None:
    """Write the model and its metadata as one JSON document, sorted keys,
    through atomic_write, encoding each array as the writer reaches it. The
    document's model_type, "gp" or "ens", is taken from the model's class."""
    if isinstance(model, SvgpModel):
        model_type, block = "gp", _gp_payload(model)
    elif isinstance(model, EnsembleModel):
        model_type, block = "ens", _ens_payload(model)
    else:
        raise InvalidConfig(f"cannot save a {type(model).__name__}: "
                            "not an SvgpModel or an EnsembleModel")
    payload = {
        "format": FORMAT_TAG,
        "model_type": model_type,
        "split": {
            "val_fraction": meta.split.val_fraction,
            "test_fraction": meta.split.test_fraction,
            "seed": meta.split.seed,
        },
        "predict": {
            "mc_samples": meta.mc_predict_samples,
            "seed": meta.predict_seed,
        },
        model_type: block,
    }
    encoder = json.JSONEncoder(sort_keys=True, default=_encode_array)

    def write(tmp):
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            fh.writelines(encoder.iterencode(payload))
            fh.write("\n")

    atomic_write(path, write)


def load_model(path):
    """Returns (model, ModelMeta), the model's class chosen by the file's
    model_type; a file that is not a well-formed textuq-model-v2 document
    raises InvalidConfig naming the path.

    Well-formed means: every array is valid base64 of as many float64 bytes
    as its shape needs, holds finite numbers, and has the shape the others
    imply, with one output per label; the jitter and the batch-norm epsilons
    are > 0, the running variances >= 0, an ensemble has at least one
    member, the split is valid, the seeds are integers >= 0 and the
    prediction sample count is >= 1."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSON syntax, text encoding or nesting
            raise InvalidConfig(f"{path}: not a JSON model file ({exc})") from None
    tag = payload.get("format") if isinstance(payload, dict) else None
    if tag == _V1_TAG:
        raise InvalidConfig(f"{path}: a {_V1_TAG} file, which this version no longer "
                            f"reads; train the model again to write {FORMAT_TAG}")
    if tag != FORMAT_TAG:
        raise InvalidConfig(f"{path}: not a {FORMAT_TAG} file")
    try:
        model_type = payload["model_type"]
        meta = ModelMeta(
            split=SplitSpec(
                val_fraction=payload["split"]["val_fraction"],
                test_fraction=payload["split"]["test_fraction"],
                seed=payload["split"]["seed"],
            ),
            mc_predict_samples=check_int(payload["predict"]["mc_samples"],
                                         "predict.mc_samples", 1),
            predict_seed=check_int(payload["predict"]["seed"], "predict.seed", 0),
        )
        meta.split.validate()
        if model_type == "gp":
            return _gp_from_payload(payload["gp"]), meta
        if model_type == "ens":
            return _ens_from_payload(payload["ens"]), meta
    except KeyError as exc:
        raise InvalidConfig(f"{path}: missing key {exc}") from None
    except (TextuqError, TypeError, ValueError, IndexError) as exc:
        raise InvalidConfig(f"{path}: malformed model file ({exc})") from None
    raise InvalidConfig(f"{path}: unknown model_type {model_type!r}")
