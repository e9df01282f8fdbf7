import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_save_model
from textuq import model_io, parallel
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


def ens_model(seed=0, members=2):
    rng = np.random.default_rng(seed)
    feats, labels = rng.normal(size=(20, 3)), rng.integers(0, 3, size=20)
    cfg = EnsembleConfig(members=members, hidden_units=4, epochs=1, batch_size=10, seed=seed)
    return fit_ensemble(feats, labels, cfg)[0]


def encode_in(monkeypatch, workers):
    """save_model encodes an ensemble's members in up to ``workers``
    processes, whatever the model size. Returns the list of the item counts
    fork_map is called with."""
    calls = []

    def counting_fork_map(fn, items):
        items = list(items)
        calls.append(len(items))
        return parallel.fork_map(fn, items)

    monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
    monkeypatch.setattr(parallel, "MIN_CHUNK_BYTES", 1)
    monkeypatch.setattr(model_io, "fork_map", counting_fork_map)
    return calls


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


class TestMatchesReferenceWriter:
    """save_model against a copy of the original one-json.dumps writer
    (tests/helpers.py), byte for byte."""

    ENS_META = ModelMeta(model_type="ens", split=SplitSpec(0.2, 0.15, seed=4),
                         mc_predict_samples=8, predict_seed=2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("members", [1, 2, 5])
    def test_ensemble(self, tmp_path, monkeypatch, members, workers):
        calls = encode_in(monkeypatch, workers)
        model = ens_model(seed=members, members=members)
        save_model(tmp_path / "new.json", model, self.ENS_META)
        reference_save_model(tmp_path / "ref.json", model, self.ENS_META)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert calls == [min(members, workers)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gp(self, tmp_path, monkeypatch, workers):
        calls = encode_in(monkeypatch, workers)
        model = gp_model(seed=3)
        save_model(tmp_path / "new.json", model, META)
        reference_save_model(tmp_path / "ref.json", model, META)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert calls == []  # a GP model is encoded in the calling process

    def test_a_failing_encoder_process_leaves_no_file(self, tmp_path, monkeypatch):
        encode_in(monkeypatch, 2)
        caller, member_payload = os.getpid(), model_io._member_payload

        def fails_in_a_child(p):
            if os.getpid() != caller:
                raise RuntimeError("encoder failed")
            return member_payload(p)

        monkeypatch.setattr(model_io, "_member_payload", fails_in_a_child)
        with pytest.raises(RuntimeError, match="encoder failed"):
            save_model(tmp_path / "model.json", ens_model(), self.ENS_META)
        assert os.listdir(tmp_path) == []

    def test_a_save_after_an_unpinned_blas_fit(self, tmp_path):
        # unpinned, OpenBLAS runs threads of its own and the ensemble trains
        # on one worker; the save still forks its encoder and writes the
        # original bytes
        script = """
import sys
from pathlib import Path
import numpy as np
from helpers import reference_save_model
from textuq import parallel
from textuq.corpus import SplitSpec
from textuq.ensemble import EnsembleConfig, _worker_count, fit_ensemble
from textuq.model_io import ModelMeta, save_model

out = Path(sys.argv[1])
rng = np.random.default_rng(7)
feats, labels = rng.normal(size=(300, 20)), rng.integers(0, 3, size=300)
cfg = EnsembleConfig(members=3, hidden_units=32, epochs=2, batch_size=64)
assert _worker_count(cfg.members) == 1
model = fit_ensemble(feats, labels, cfg)[0]
parallel.usable_cpus = lambda: 2
parallel.MIN_CHUNK_BYTES = 1
spawn, children = parallel._spawn, []
parallel._spawn = lambda fn, item: children.append(spawn(fn, item)) or children[-1]
meta = ModelMeta(model_type="ens", split=SplitSpec())
save_model(out / "new.json", model, meta)
reference_save_model(out / "ref.json", model, meta)
print(len(children))
"""
        tests = Path(__file__).resolve().parent
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1\n"  # one encoder process besides the caller
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


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
