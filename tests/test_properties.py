"""Property-based tests of the file formats: round trips, truncation, corruption."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hlsmm import (
    DataError,
    Dataset,
    Hyperparams,
    StepPolicy,
    load_model,
    load_smm1,
    save_model,
    save_smm1,
)

FILES = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def datasets(draw):
    m = draw(st.integers(1, 6))
    p = draw(st.integers(1, 4))
    q = draw(st.integers(1, 4))
    xs = draw(arrays(np.float64, (m, p, q), elements=finite))
    ys = draw(arrays(np.int8, m, elements=st.sampled_from([-1, 1])))
    return Dataset(xs=xs, ys=ys)


@st.composite
def models(draw):
    p = draw(st.integers(1, 4))
    q = draw(st.integers(1, 4))
    w = draw(arrays(np.float64, (p, q), elements=finite))
    positive = st.floats(1e-9, 1e3)
    hp = Hyperparams(
        beta=draw(positive), sigma=draw(positive), rank=draw(st.integers(1, 5)),
        tau1=draw(positive), tau2=draw(positive), tau3=draw(positive),
        maxit=draw(st.integers(0, 5000)),
        step=StepPolicy(kind=draw(st.sampled_from(["backtracking", "fixed"])),
                        alpha0=draw(st.none() | positive),
                        shrink=draw(st.floats(0.01, 0.99)),
                        max_halvings=draw(st.integers(0, 60))),
        z_update=draw(st.sampled_from(["exact", "paper"])),
        seed=draw(st.integers(0, 2**32)))
    return w, draw(finite), hp, draw(st.text(max_size=12)), draw(st.integers(0, 99))


def smm1_bytes(tmp_path, data) -> bytes:
    path = tmp_path / "d.smm1"
    save_smm1(data, path)
    return path.read_bytes()


def model_bytes(tmp_path, model) -> bytes:
    w, b, hp, name, seed = model
    path = tmp_path / "m.json"
    save_model(path, w, b, hp, dataset_name=name, seed=seed)
    return path.read_bytes()


def load_bytes(tmp_path, loader, blob: bytes, suffix: str):
    path = tmp_path / f"probe{suffix}"
    path.write_bytes(blob)
    return loader(path)


class TestSmm1Files:
    @FILES
    @given(data=datasets())
    def test_save_load_save_is_byte_identical(self, tmp_path, data):
        first = smm1_bytes(tmp_path, data)
        loaded = load_bytes(tmp_path, load_smm1, first, ".smm1")
        assert loaded.xs.tobytes() == data.xs.tobytes()
        assert smm1_bytes(tmp_path, loaded) == first

    @FILES
    @given(data=datasets(), cut=st.floats(0, 1, exclude_max=True))
    def test_any_truncation_is_data_error(self, tmp_path, data, cut):
        blob = smm1_bytes(tmp_path, data)
        with pytest.raises(DataError):
            load_bytes(tmp_path, load_smm1, blob[:int(cut * len(blob))], ".smm1")

    @FILES
    @given(data=datasets(), at=st.floats(0, 1, exclude_max=True),
           byte=st.integers(0, 255))
    def test_single_byte_corruption_loads_or_is_data_error(self, tmp_path, data,
                                                           at, byte):
        blob = bytearray(smm1_bytes(tmp_path, data))
        blob[int(at * len(blob))] = byte
        try:
            load_bytes(tmp_path, load_smm1, bytes(blob), ".smm1")
        except DataError:
            pass

    def test_huge_sample_count_is_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "huge.smm1"
        path.write_bytes(b"SMM1" + struct.pack("<IQQQ", 1, 2**40, 28, 28) + b"\x01")
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="expected"):
                load_smm1(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestModelFiles:
    @FILES
    @given(model=models())
    def test_save_load_save_is_byte_identical(self, tmp_path, model):
        first = model_bytes(tmp_path, model)
        loaded = load_bytes(tmp_path, load_model, first, ".json")
        path = tmp_path / "again.json"
        save_model(path, loaded.w, loaded.b, loaded.hyperparams,
                   dataset_name=loaded.dataset_name, seed=loaded.seed)
        assert path.read_bytes() == first

    @FILES
    @given(model=models(), cut=st.floats(0, 1, exclude_max=True))
    def test_any_truncation_is_data_error(self, tmp_path, model, cut):
        # Only the trailing newline follows the closing brace; a cut that
        # keeps the brace leaves the whole document, so it is not a truncation.
        blob = model_bytes(tmp_path, model).rstrip(b"\n")
        with pytest.raises(DataError):
            load_bytes(tmp_path, load_model, blob[:int(cut * len(blob))], ".json")

    @FILES
    @given(model=models(), at=st.floats(0, 1, exclude_max=True),
           byte=st.integers(0, 255))
    def test_single_byte_corruption_loads_or_is_data_error(self, tmp_path, model,
                                                           at, byte):
        blob = bytearray(model_bytes(tmp_path, model))
        blob[int(at * len(blob))] = byte
        try:
            load_bytes(tmp_path, load_model, bytes(blob), ".json")
        except DataError:
            pass
