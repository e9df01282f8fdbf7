"""Model files: one JSON document per trained model.

JSON keeps every float via the shortest round-tripping decimal form, so a
save/load cycle reproduces arrays bit for bit and identical models produce
byte-identical files. The file also records the split settings and the
prediction sampling settings used at training time, so evaluation can
rebuild the exact train/val/test partition without leaking test data.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .corpus import SplitSpec
from .ensemble import EnsembleModel, MlpParams
from .errors import InvalidConfig
from .kernel import KernelParams
from .svgp import SvgpModel

FORMAT_TAG = "textuq-model-v1"


@dataclass(frozen=True)
class ModelMeta:
    model_type: str  # "gp" or "ens"
    split: SplitSpec
    mc_predict_samples: int = 64
    predict_seed: int = 0


def atomic_write(path, write_fn) -> None:
    """Run a path-taking writer against a sibling temp file, then rename it
    over ``path``, so failures leave no partial file."""
    tmp = str(path) + ".tmp"
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
        "log_lengthscales": model.kernel.log_lengthscales.tolist(),
        "inducing_inputs": model.inducing_inputs.tolist(),
        "variational_means": model.variational_means.tolist(),
        "variational_scales_raw": model.variational_scales_raw.tolist(),
        "jitter": float(model.jitter),
        "num_classes": int(model.num_classes),
    }


def _gp_from_payload(block: dict) -> SvgpModel:
    return SvgpModel(
        kernel=KernelParams(
            log_variance=block["log_variance"],
            log_lengthscales=np.array(block["log_lengthscales"]),
        ),
        inducing_inputs=np.array(block["inducing_inputs"]),
        variational_means=np.array(block["variational_means"]),
        variational_scales_raw=np.array(block["variational_scales_raw"]),
        jitter=block["jitter"],
        num_classes=block["num_classes"],
    )


def _ens_payload(model: EnsembleModel) -> dict:
    members = []
    for p in model.members:
        members.append(
            {
                "weights": [w.tolist() for w in p.weights],
                "biases": [b.tolist() for b in p.biases],
                "bn_scale": [g.tolist() for g in p.bn_scale],
                "bn_shift": [b.tolist() for b in p.bn_shift],
                "bn_running_mean": [m.tolist() for m in p.bn_running_mean],
                "bn_running_var": [v.tolist() for v in p.bn_running_var],
                "bn_epsilon": float(p.bn_epsilon),
            }
        )
    return {
        "members": members,
        "fgsm_epsilon": float(model.fgsm_epsilon),
        "feature_scale": model.feature_scale.tolist(),
    }


def _ens_from_payload(block: dict) -> EnsembleModel:
    members = []
    for mb in block["members"]:
        members.append(
            MlpParams(
                weights=[np.array(w) for w in mb["weights"]],
                biases=[np.array(b) for b in mb["biases"]],
                bn_scale=[np.array(g) for g in mb["bn_scale"]],
                bn_shift=[np.array(b) for b in mb["bn_shift"]],
                bn_running_mean=[np.array(m) for m in mb["bn_running_mean"]],
                bn_running_var=[np.array(v) for v in mb["bn_running_var"]],
                bn_epsilon=mb["bn_epsilon"],
            )
        )
    return EnsembleModel(
        members=members,
        fgsm_epsilon=block["fgsm_epsilon"],
        feature_scale=np.array(block["feature_scale"]),
    )


def save_model(path, model, meta: ModelMeta) -> None:
    if meta.model_type == "gp":
        if not isinstance(model, SvgpModel):
            raise InvalidConfig("meta says gp but model is not an SvgpModel")
        block = _gp_payload(model)
    elif meta.model_type == "ens":
        if not isinstance(model, EnsembleModel):
            raise InvalidConfig("meta says ens but model is not an EnsembleModel")
        block = _ens_payload(model)
    else:
        raise InvalidConfig(f"unknown model_type {meta.model_type!r}")
    payload = {
        "format": FORMAT_TAG,
        "model_type": meta.model_type,
        "split": {
            "val_fraction": meta.split.val_fraction,
            "test_fraction": meta.split.test_fraction,
            "seed": meta.split.seed,
        },
        "predict": {
            "mc_samples": meta.mc_predict_samples,
            "seed": meta.predict_seed,
        },
        meta.model_type: block,
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def load_model(path):
    """Returns (model, ModelMeta); a file that is not a well-formed
    textuq-model-v1 document raises InvalidConfig naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSON syntax or text encoding
            raise InvalidConfig(f"{path}: not a JSON model file ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_TAG:
        raise InvalidConfig(f"{path}: not a {FORMAT_TAG} file")
    try:
        meta = ModelMeta(
            model_type=payload["model_type"],
            split=SplitSpec(
                val_fraction=payload["split"]["val_fraction"],
                test_fraction=payload["split"]["test_fraction"],
                seed=payload["split"]["seed"],
            ),
            mc_predict_samples=payload["predict"]["mc_samples"],
            predict_seed=payload["predict"]["seed"],
        )
        if meta.model_type == "gp":
            return _gp_from_payload(payload["gp"]), meta
        if meta.model_type == "ens":
            return _ens_from_payload(payload["ens"]), meta
    except KeyError as exc:
        raise InvalidConfig(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, IndexError) as exc:
        raise InvalidConfig(f"{path}: malformed model file ({exc})") from None
    raise InvalidConfig(f"{path}: unknown model_type {meta.model_type!r}")
