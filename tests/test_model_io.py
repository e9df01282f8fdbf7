import os

import numpy as np
import pytest

from textuq.corpus import SplitSpec
from textuq.ensemble import EnsembleConfig, fit_ensemble
from textuq.errors import InvalidConfig
from textuq.model_io import ModelMeta, atomic_write, atomic_write_text, load_model, save_model
from textuq.svgp import init_model

META = ModelMeta(model_type="gp", split=SplitSpec(0.1, 0.1, seed=3),
                 mc_predict_samples=16, predict_seed=9)


def gp_model(seed=0):
    rng = np.random.default_rng(seed)
    model = init_model(rng.normal(size=(30, 2)), m=5, seed=seed)
    model.variational_means += rng.normal(size=model.variational_means.shape)
    model.variational_scales_raw += 0.1 * rng.normal(size=model.variational_scales_raw.shape)
    model.kernel.log_variance += 0.3
    return model


def ens_model(seed=0):
    rng = np.random.default_rng(seed)
    feats, labels = rng.normal(size=(20, 3)), rng.integers(0, 3, size=20)
    cfg = EnsembleConfig(members=2, hidden_units=4, epochs=1, batch_size=10, seed=seed)
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
        meta = ModelMeta(model_type="ens", split=SplitSpec())
        save_model(path, model, meta)
        loaded, back = load_model(path)
        assert back == meta
        assert loaded.fgsm_epsilon == model.fgsm_epsilon
        assert np.array_equal(loaded.feature_scale, model.feature_scale)
        assert len(loaded.members) == len(model.members)
        for orig, got in zip(model.members, loaded.members):
            assert got.bn_epsilon == orig.bn_epsilon
            for name, arr in orig.trainable().items():
                assert np.array_equal(got.trainable()[name], arr), name
            for i in range(3):
                assert np.array_equal(got.bn_running_mean[i], orig.bn_running_mean[i])
                assert np.array_equal(got.bn_running_var[i], orig.bn_running_var[i])


class TestValidation:
    def test_rejects_mismatched_model_and_meta(self, tmp_path):
        with pytest.raises(InvalidConfig):
            save_model(tmp_path / "x.json", gp_model(),
                       ModelMeta(model_type="ens", split=SplitSpec()))
        with pytest.raises(InvalidConfig):
            save_model(tmp_path / "x.json", ens_model(),
                       ModelMeta(model_type="gp", split=SplitSpec()))

    def test_rejects_unknown_model_type(self, tmp_path):
        with pytest.raises(InvalidConfig):
            save_model(tmp_path / "x.json", gp_model(),
                       ModelMeta(model_type="forest", split=SplitSpec()))

    def test_rejects_files_without_the_format_tag(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"model_type": "gp"}\n', encoding="utf-8")
        with pytest.raises(InvalidConfig):
            load_model(path)
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(InvalidConfig):
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
