import json
import os

import numpy as np
import pytest

from helpers import decode_array
from textuq import model_io
from textuq.corpus import SplitSpec
from textuq.ensemble import EnsembleConfig, fit_ensemble
from textuq.errors import InvalidConfig
from textuq.model_io import ModelMeta, atomic_write, atomic_write_text, load_model, save_model
from textuq.svgp import TrainConfig, fit, init_model

META = ModelMeta(split=SplitSpec(0.1, 0.1, seed=3), mc_predict_samples=16)
ENS_META = ModelMeta(split=SplitSpec(0.2, 0.15, seed=4), mc_predict_samples=8)


def gp_model(seed=0):
    rng = np.random.default_rng(seed)
    model = init_model(rng.normal(size=(30, 2)), m=5, seed=seed)
    model.variational_means += rng.normal(size=model.variational_means.shape)
    model.variational_scales_raw += 0.1 * rng.normal(size=model.variational_scales_raw.shape)
    model.kernel.log_variance += 0.3
    return model


def ens_model(seed=0, members=2):
    rng = np.random.default_rng(seed)
    feats, labels = rng.normal(size=(20, 3)), rng.integers(0, 3, size=20)
    cfg = EnsembleConfig(members=members, hidden_units=4, epochs=1, batch_size=10, seed=seed)
    return fit_ensemble(feats, labels, cfg)[0]


class TestGpRoundTrip:
    def test_arrays_survive_bit_for_bit(self, tmp_path):
        path = tmp_path / "model.json"
        model = gp_model()
        save_model(path, model, META)
        loaded, meta = load_model(path)
        assert meta == META
        assert loaded.kernel.log_variance == model.kernel.log_variance
        assert np.array_equal(loaded.kernel.log_lengthscales, model.kernel.log_lengthscales)
        assert np.array_equal(loaded.inducing_inputs, model.inducing_inputs)
        assert np.array_equal(loaded.variational_means, model.variational_means)
        assert np.array_equal(loaded.variational_scales_raw, model.variational_scales_raw)
        assert loaded.jitter == model.jitter
        assert loaded.num_classes == model.num_classes

    def test_identical_saves_are_byte_identical(self, tmp_path):
        model = gp_model()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, model, META)
        save_model(b, model, META)
        assert a.read_bytes() == b.read_bytes()

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, gp_model(), META)
        assert os.listdir(tmp_path) == ["model.json"]


class TestEnsRoundTrip:
    def test_members_survive_bit_for_bit(self, tmp_path):
        path = tmp_path / "model.json"
        model = ens_model()
        meta = ModelMeta(split=SplitSpec())
        save_model(path, model, meta)
        loaded, back = load_model(path)
        assert back == meta
        assert len(loaded.members) == len(model.members)
        for orig, got in zip(model.members, loaded.members):
            for name, arr in orig.trainable().items():
                assert np.array_equal(got.trainable()[name], arr), name
            for i in range(3):
                assert np.array_equal(got.bn_running_mean[i], orig.bn_running_mean[i])
                assert np.array_equal(got.bn_running_var[i], orig.bn_running_var[i])

    def test_identical_saves_are_byte_identical(self, tmp_path):
        model = ens_model(members=3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, model, ENS_META)
        save_model(b, model, ENS_META)
        assert a.read_bytes() == b.read_bytes()


def trained_gp():
    rng = np.random.default_rng(4)
    feats, labels = rng.normal(size=(40, 3)), rng.integers(0, 3, size=40)
    cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=20, mc_train_samples=2)
    return fit(init_model(feats, m=6, seed=4), feats, labels, cfg)[0]


def model_arrays(model):
    """Every array of a GP or an ensemble, by a name that says where it sits."""
    if hasattr(model, "members"):
        out = {}
        for k, p in enumerate(model.members):
            for key in model_io._LAYER_KEYS:
                out.update({f"{k}.{key}[{i}]": a for i, a in enumerate(getattr(p, key))})
        return out
    return {"log_lengthscales": model.kernel.log_lengthscales,
            "inducing_inputs": model.inducing_inputs,
            "variational_means": model.variational_means,
            "variational_scales_raw": model.variational_scales_raw}


def same_bits(a, b):
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("make, meta", [
    (trained_gp, META), (lambda: ens_model(members=3), ENS_META),
], ids=["gp", "ens"])
class TestFormatV2:
    def test_every_array_round_trips_bit_for_bit(self, tmp_path, make, meta):
        model = make()
        save_model(tmp_path / "m.json", model, meta)
        loaded, back = load_model(tmp_path / "m.json")
        assert back == meta
        want, got = model_arrays(model), model_arrays(loaded)
        assert list(got) == list(want)
        for name, arr in want.items():
            assert same_bits(got[name], arr), name

    def test_arrays_are_stored_as_float64_little_endian_base64(self, tmp_path, make, meta):
        model = make()
        save_model(tmp_path / "m.json", model, meta)
        doc = json.loads((tmp_path / "m.json").read_text(encoding="ascii"))
        assert doc["format"] == "textuq-model-v2"
        # the family is the model's class
        assert doc["model_type"] == ("ens" if hasattr(model, "members") else "gp")
        block = doc[doc["model_type"]]
        if doc["model_type"] == "gp":
            stored = {name: block[name] for name in model_arrays(model)}
        else:
            stored = {}
            for k, mb in enumerate(block["members"]):
                for key in model_io._LAYER_KEYS:
                    stored.update({f"{k}.{key}[{i}]": a for i, a in enumerate(mb[key])})
        for name, arr in model_arrays(model).items():
            assert set(stored[name]) == {"data", "shape"}
            assert same_bits(decode_array(stored[name]), arr), name

    def test_the_file_holds_only_what_prediction_reads(self, tmp_path, make, meta):
        model = make()
        save_model(tmp_path / "m.json", model, meta)
        doc = json.loads((tmp_path / "m.json").read_text(encoding="ascii"))
        assert doc["predict"] == {"mc_samples": meta.mc_predict_samples}
        if doc["model_type"] == "gp":
            assert set(doc["gp"]) == {"log_variance", "log_lengthscales", "inducing_inputs",
                                      "variational_means", "variational_scales_raw", "jitter"}
        else:
            assert set(doc["ens"]) == {"members"}
            for mb in doc["ens"]["members"]:
                assert set(mb) == set(model_io._LAYER_KEYS)

    def test_an_encoder_failure_leaves_neither_the_model_nor_its_temp_file(
            self, tmp_path, monkeypatch, make, meta):
        encode, calls = model_io._encode_array, []

        def fails_on_the_third_array(value):
            calls.append(value)
            if len(calls) == 3:
                raise RuntimeError("encoder failed")
            return encode(value)

        monkeypatch.setattr(model_io, "_encode_array", fails_on_the_third_array)
        with pytest.raises(RuntimeError, match="encoder failed"):
            save_model(tmp_path / "m.json", make(), meta)
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", [-0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308])
def test_extreme_values_round_trip_bit_for_bit(tmp_path, value):
    model = gp_model()
    model.variational_means[1, 2] = value
    model.inducing_inputs[0, 1] = value
    save_model(tmp_path / "m.json", model, META)
    loaded, _ = load_model(tmp_path / "m.json")
    assert same_bits(loaded.variational_means, model.variational_means)
    assert same_bits(loaded.inducing_inputs, model.inducing_inputs)


class TestValidation:
    @pytest.mark.parametrize("model", [object(), {"gp": None}, None])
    def test_refuses_an_object_that_is_neither_model(self, tmp_path, model):
        with pytest.raises(InvalidConfig, match="not an SvgpModel or an EnsembleModel"):
            save_model(tmp_path / "x.json", model, META)
        assert os.listdir(tmp_path) == []

    def test_rejects_unknown_model_type(self, tmp_path):
        path = tmp_path / "x.json"
        save_model(path, gp_model(), META)
        doc = json.loads(path.read_text(encoding="ascii"))
        doc["model_type"] = "forest"
        path.write_text(json.dumps(doc), encoding="ascii")
        with pytest.raises(InvalidConfig, match="unknown model_type 'forest'"):
            load_model(path)

    def test_rejects_files_without_the_format_tag(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"model_type": "gp"}\n', encoding="utf-8")
        with pytest.raises(InvalidConfig):
            load_model(path)
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(InvalidConfig):
            load_model(path)

    def test_rejects_a_v1_file_asking_for_a_retrain(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "textuq-model-v1", "model_type": "gp"}\n', encoding="utf-8")
        with pytest.raises(InvalidConfig, match="no longer reads; train the model again"):
            load_model(path)


class TestAtomicWrite:
    def test_writes_exactly_the_text(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "alpha\nbeta\n")
        assert path.read_text(encoding="utf-8") == "alpha\nbeta\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old", encoding="utf-8")
        atomic_write_text(path, "new")
        assert path.read_text(encoding="utf-8") == "new"

    def test_a_failing_writer_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old", encoding="utf-8")

        def half_write(tmp):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, half_write)
        assert path.read_text(encoding="utf-8") == "old"
        assert os.listdir(tmp_path) == ["out.txt"]
