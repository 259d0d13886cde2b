import contextlib
import csv
import dataclasses
import json
import os
import re
import signal
import struct
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hlsmm import (
    DataError,
    Dataset,
    DatasetManifest,
    InvalidArgumentError,
    add_gaussian_noise,
    add_salt_pepper_noise,
    load_csv,
    load_smm1,
    make_lowrank_separable,
    normalize_per_sample,
    save_smm1,
    split,
    standardize_features,
)
from hlsmm import data as data_module
from hlsmm import model as model_module

from conftest import calls_to, make_rng, peak_bytes, random_dataset


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run ``seconds`` (POSIX timers)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestLoadCsv:
    def test_vector_rows(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1,0.5,0.25\n-1,1.0,2.0\n1,0,0\n")
        data = load_csv(path, label_column=0)
        assert data.m == 3 and data.sample_shape == (1, 2)
        np.testing.assert_array_equal(data.ys, [1, -1, 1])
        np.testing.assert_allclose(data.xs[0], [[0.5, 0.25]])

    def test_reshape_round_trips_row_major(self, tmp_path):
        gen = make_rng(70)
        flat = gen.standard_normal(57)
        path = tmp_path / "wide.csv"
        path.write_text("1," + ",".join(f"{v:.17g}" for v in flat) + "\n"
                        "0," + ",".join("0" for _ in flat) + "\n")
        data = load_csv(path, label_column=0, reshape=(3, 19))
        assert data.sample_shape == (3, 19)
        np.testing.assert_allclose(data.xs[0].ravel(), flat)  # row-major fill

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n-1,4\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path, label_column=0)

    def test_unparseable_number_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n-1,x,6\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path, label_column=0)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1,2,3\n-1,4,5\n1,{cell},6\n")
        with pytest.raises(DataError, match="line 3: non-finite"):
            load_csv(path, label_column=0)

    def test_non_finite_label_names_line(self, tmp_path):
        path = tmp_path / "nanlabel.csv"
        path.write_text("1,2,3\nnan,4,5\n")
        with pytest.raises(DataError, match="line 2: non-finite"):
            load_csv(path, label_column=0)

    def test_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path)

    def test_label_encodings(self, tmp_path):
        for raw, expected in (("0\n1\n", [-1, 1]), ("1\n2\n", [1, -1]),
                              ("-1\n1\n", [-1, 1])):
            path = tmp_path / "labels.csv"
            path.write_text("".join(f"{line},7\n" for line in raw.split()))
            np.testing.assert_array_equal(load_csv(path, 0).ys, expected)

    def test_unknown_encoding_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("3,1\n4,2\n")
        with pytest.raises(DataError, match="label encoding"):
            load_csv(path, 0)

    def test_unknown_encoding_lists_five_values_and_the_count(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("".join(f"{v},1\n" for v in (9, 3, 8, 4, 7, 5, 6, 3)))
        message = "unknown label encoding [3.0, 4.0, 5.0, 6.0, 7.0, ...] (7 distinct values)"
        with pytest.raises(DataError, match=re.escape(message)):
            load_csv(path, 0)

    def test_reshape_size_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,1,2,3,4\n")
        with pytest.raises(DataError, match="reshape"):
            load_csv(path, 0, reshape=(2, 3))

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("label,f1\n1,0.5\n-1,0.7\n")
        data = load_csv(path, 0, has_header=True)
        assert data.m == 2

    def test_label_column_other_than_first(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0.5,1,0.25\n1.5,-1,0.75\n")
        data = load_csv(path, label_column=1)
        np.testing.assert_array_equal(data.ys, [1, -1])
        np.testing.assert_allclose(data.xs[:, 0, 0], [0.5, 1.5])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", 0)

    def test_label_column_only_is_data_error(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1\n-1\n")
        with pytest.raises(DataError, match="line 1: no feature columns"):
            load_csv(path, 0)

    @pytest.mark.parametrize("shape", [(-1, -2), (0, 2), (2, 0)])
    def test_non_positive_reshape_is_data_error(self, tmp_path, shape):
        path = tmp_path / "t.csv"
        path.write_text("1,1,2\n-1,3,4\n")
        with pytest.raises(DataError, match="reshape"):
            load_csv(path, 0, reshape=shape)

    def test_manifest_rejects_non_positive_reshape(self):
        with pytest.raises(InvalidArgumentError, match="reshape"):
            DatasetManifest(format="csv", path="x.csv", reshape=(-1, -2))


class TestCsvReaders:
    """numpy's C reader parses a CSV file; the row loop decides what it refuses.

    ``tests/test_properties.py`` checks on generated files that both give
    the same dataset or the same error.
    """

    def test_c_reader_parses_a_plain_file(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text('label,a,b\r\n1, 0.5 ,"2"\r\n\r\n0,-0,1e-3\r\n')
        with calls_to(data_module, "_read_rows") as calls:
            data = load_csv(path, 0, has_header=True)
        assert not calls
        assert data.xs.ravel().tolist() == [0.5, 2.0, -0.0, 0.001]
        assert data.ys.tolist() == [1, -1]

    @pytest.mark.parametrize("field", ["1_0", "\u0661\u0660", "\uff11\uff10"])
    def test_row_loop_reads_what_the_c_reader_refuses(self, tmp_path, field):
        # float() takes underscores and non-ASCII digits; the C reader does not.
        path = tmp_path / "digits.csv"
        path.write_bytes(f"1,{field}\n0,2\n".encode("utf-8"))
        with calls_to(data_module, "_read_rows") as calls:
            data = load_csv(path, 0)
        assert len(calls) == 1
        assert data.xs.ravel().tolist() == [10.0, 2.0]

    @pytest.mark.parametrize("text,message", [
        ("1,2\n \n0,3\n", "line 2: expected 2 fields, got 1"),
        ("1,2\n0,3,\n", "line 2: expected 2 fields, got 3"),
        ("1,2\n0,\n", "line 2: could not convert string to float: ''"),
        ("", "no data rows"),
        ("\r\n\n", "no data rows"),
    ])
    def test_row_loop_names_what_the_c_reader_refuses(self, tmp_path, text, message):
        # The C reader warns on an empty file; that warning is not shown.
        path = tmp_path / "refused.csv"
        path.write_text(text, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(message)):
                load_csv(path, 0)

    def test_header_is_the_first_csv_record(self, tmp_path):
        # A quoted header field spans lines: the header is the record.  One
        # that never closes takes the whole file, so no data rows are left.
        path = tmp_path / "header.csv"
        path.write_text('"a\nb",c\n1,2\n0,3\n')
        assert load_csv(path, 0, has_header=True).xs.ravel().tolist() == [2.0, 3.0]
        path.write_text('"a\n1,2\n0,3\n')
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, 0, has_header=True)

    def test_undecodable_file_is_data_error(self, tmp_path):
        # The text is decoded in blocks, so the error names the file, no line.
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"1,\xff2\n0,3\n")
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_csv(path, 0)

    def test_overlong_field_names_its_line(self, tmp_path):
        # csv.reader refuses a field longer than its limit; the C reader only
        # takes one that is a number.
        path = tmp_path / "long.csv"
        path.write_text("1,2\n0,3\n1," + "x" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}, line 3: field larger")):
            load_csv(path, 0)

    def test_loading_holds_about_twice_the_design(self, tmp_path):
        # The parsed table and the features cut from it.  Measured: 2.0x the
        # design's bytes, where the row loop's lists of floats took 5.2x.
        gen = make_rng(81)
        table = gen.standard_normal((2000, 785))
        table[:, 0] = gen.integers(0, 2, size=2000)
        path = tmp_path / "wide.csv"
        np.savetxt(path, table, fmt="%.17g", delimiter=",")
        design = 2000 * 784 * 8
        assert peak_bytes(lambda: load_csv(path, 0, reshape=(28, 28))) < 2.5 * design


class TestSmm1:
    def test_single_sample_round_trip(self, tmp_path):
        data = Dataset(xs=np.array([[[1.25, -3.5], [0.0, 7.125]]]),
                       ys=np.array([-1]))
        path = tmp_path / "one.smm1"
        save_smm1(data, path)
        loaded = load_smm1(path)
        np.testing.assert_array_equal(loaded.xs, data.xs)
        np.testing.assert_array_equal(loaded.ys, data.ys)

    def test_resave_is_byte_identical(self, tmp_path):
        data = random_dataset(71, m=100, p=4, q=3)
        first = tmp_path / "a.smm1"
        second = tmp_path / "b.smm1"
        save_smm1(data, first)
        save_smm1(load_smm1(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_total_size_formula(self, tmp_path):
        data = random_dataset(72, m=5, p=2, q=3)
        path = tmp_path / "s.smm1"
        save_smm1(data, path)
        assert path.stat().st_size == 4 + 4 + 24 + 5 + 8 * 5 * 2 * 3

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.smm1"
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: no such file$"):
            load_smm1(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.smm1"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(DataError, match="magic"):
            load_smm1(path)

    def test_truncated_payload(self, tmp_path):
        data = random_dataset(73, m=3, p=2, q=2)
        path = tmp_path / "t.smm1"
        save_smm1(data, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_smm1(path)

    def test_non_finite_features_are_data_error(self, tmp_path):
        data = random_dataset(74, m=3, p=2, q=2)
        path = tmp_path / "nan.smm1"
        save_smm1(data, path)
        blob = bytearray(path.read_bytes())
        blob[-8:] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="finite"):
            load_smm1(path)

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "empty.smm1"
        path.write_bytes(b"SMM1" + struct.pack("<I", 1) + struct.pack("<QQQ", 0, 2, 2))
        with pytest.raises(DataError, match="empty"):
            load_smm1(path)

    @pytest.mark.parametrize("p, q", [(0, 3), (3, 0)])
    def test_empty_samples_rejected(self, tmp_path, p, q):
        path = tmp_path / "flat.smm1"
        path.write_bytes(b"SMM1" + struct.pack("<IQQQ", 1, 2, p, q) + b"\x01\xff")
        with pytest.raises(DataError, match=f"empty samples \\({p}x{q}\\)"):
            load_smm1(path)

    @pytest.mark.parametrize("size", [4, 12, 31])
    def test_short_file_with_magic_is_truncated_header(self, tmp_path, size):
        path = tmp_path / "short.smm1"
        path.write_bytes((b"SMM1" + struct.pack("<IQQQ", 1, 1, 1, 1))[:size])
        with pytest.raises(DataError, match=f"truncated header \\({size} bytes"):
            load_smm1(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v2.smm1"
        path.write_bytes(b"SMM1" + struct.pack("<IQQQ", 2, 1, 1, 1) + bytes(9))
        with pytest.raises(DataError, match="version 2"):
            load_smm1(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "label.smm1"
        path.write_bytes(b"SMM1" + struct.pack("<IQQQ", 1, 1, 1, 1) + b"\x00"
                         + bytes(8))
        with pytest.raises(DataError, match="labels must be -1 or \\+1"):
            load_smm1(path)

    def test_bad_label_is_reported_before_a_nan_feature(self, tmp_path):
        path = tmp_path / "both.smm1"
        path.write_bytes(b"SMM1" + struct.pack("<IQQQ", 1, 1, 1, 1) + b"\x00"
                         + struct.pack("<d", float("nan")))
        with pytest.raises(DataError, match="both.smm1: labels must be -1 or \\+1"):
            load_smm1(path)


class TestSmm1Memory:
    """Loading holds about one payload, saving no copy of it (2000 x 28 x 28)."""

    @pytest.fixture(scope="class")
    def big(self, tmp_path_factory):
        data = random_dataset(75, m=2000, p=28, q=28)
        path = tmp_path_factory.mktemp("big") / "big.smm1"
        save_smm1(data, path)
        return data, path

    def test_load_peak_is_about_one_payload(self, big):
        data, path = big
        assert peak_bytes(lambda: load_smm1(path)) < 1.25 * data.xs.nbytes

    def test_save_peak_holds_no_payload_copy(self, big, tmp_path):
        data, _ = big
        peak = peak_bytes(lambda: save_smm1(data, tmp_path / "copy.smm1"))
        assert peak < 0.25 * data.xs.nbytes

BLOCK = model_module._FINITE_BLOCK
# A design of 2.5 blocks: two full ones and a partial last one.
BLOCKS_SHAPE = (5, 128, 256)


def reader_logs(events: list) -> list[list]:
    """The events of each thread that read, in order, the threads ordered by
    the file offset of their first read: the loader's calling thread (the
    labels) first, then the shares of the features."""
    logs: dict = {}
    for thread, offset, event in events:
        logs.setdefault(thread, (offset, []))[1].append(event)
    return [log for _, log in sorted(logs.values(), key=lambda entry: entry[0])]


def shares(sizes: list, readers: int) -> list[list]:
    """``sizes`` cut into ``readers`` contiguous shares as even as they go."""
    n = len(sizes)
    return [sizes[n * k // readers:n * (k + 1) // readers] for k in range(readers)]


class Recorded:
    """A binary file whose ``readinto`` calls are logged to ``events`` as
    (thread, offset, ("read", bytes)) and that stops reading at byte offset
    ``stop``, as a file cut short while it is read would."""

    def __init__(self, handle, events: list, stop: float = np.inf):
        self._handle, self._events, self._stop = handle, events, stop

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def readinto(self, buffer) -> int:
        view = memoryview(buffer).cast("B")
        offset = self._handle.tell()
        room = max(0, min(view.nbytes, self._stop - offset))
        count = self._handle.readinto(view[:int(room)])
        self._events.append((threading.current_thread(), offset, ("read", count)))
        return count


@contextlib.contextmanager
def recorded_reads(stop: float = np.inf, readers: int = 1):
    """Load with ``readers`` usable CPUs while the block runs, every file
    opened as :class:`Recorded`, every positional read logged and cut at
    ``stop`` alike, and every ``np.isfinite`` call logged as (thread, None,
    ("test", size)); yield the events."""
    events: list = []
    opener, preadv, isfinite = Path.open, os.preadv, np.isfinite

    def recorded(self, *args, **kwargs):
        return Recorded(opener(self, *args, **kwargs), events, stop)

    def positional(fd, buffers, offset, *args):
        (buffer,) = buffers
        view = memoryview(buffer).cast("B")
        room = max(0, min(view.nbytes, stop - offset))
        count = preadv(fd, [view[:int(room)]], offset, *args)
        events.append((threading.current_thread(), offset, ("read", count)))
        return count

    def tested(values, *args, **kwargs):
        events.append((threading.current_thread(), None, ("test", np.size(values))))
        return isfinite(values, *args, **kwargs)

    with mock.patch.object(Path, "open", recorded), \
            mock.patch.object(os, "preadv", positional), \
            mock.patch.object(np, "isfinite", tested), \
            mock.patch.object(data_module, "_usable_cpus", lambda: readers):
        yield events


def write_smm1_blocks(path, seed: int, shape=BLOCKS_SHAPE, value_at=None) -> Dataset:
    """A random dataset of ``shape`` saved to ``path``; ``value_at`` = (value,
    flat position) is written into the file's features only."""
    gen = make_rng(seed)
    m = shape[0]
    data = Dataset(xs=gen.standard_normal(shape), ys=np.resize(np.int8([1, -1]), m))
    save_smm1(data, path)
    if value_at is not None:
        value, position = value_at
        with open(path, "r+b") as handle:
            handle.seek(32 + m + 8 * position)
            handle.write(struct.pack("<d", value))
    return data


class TestSmm1Blocks:
    """Features are read in blocks of 2^16 values, in one contiguous share of
    blocks per reader, and each block is tested for finiteness as its reader
    reads it, once; every refusal keeps its message and its order."""

    SIZE = int(np.prod(BLOCKS_SHAPE))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, BLOCK - 1, BLOCK, SIZE - 1],
                             ids=["first", "block_end", "block_start", "last_of_partial"])
    def test_non_finite_feature_anywhere_is_data_error(self, tmp_path, value, position):
        path = tmp_path / "bad.smm1"
        write_smm1_blocks(path, 91, value_at=(value, position))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "
                                            "dataset features must be finite$"):
            load_smm1(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_bad_label_is_reported_before_a_late_non_finite_block(self, tmp_path, value):
        path = tmp_path / "both.smm1"
        write_smm1_blocks(path, 92, value_at=(value, self.SIZE - 1))
        with open(path, "r+b") as handle:
            handle.seek(32)
            handle.write(b"\x00")
        with pytest.raises(DataError, match="both.smm1: labels must be -1 or \\+1"):
            load_smm1(path)

    @pytest.mark.parametrize("value_index", [100, BLOCK + 100, 2 * BLOCK + 100],
                             ids=["first_block", "middle_block", "last_block"])
    def test_short_read_is_reported(self, tmp_path, value_index):
        path = tmp_path / "short.smm1"
        write_smm1_blocks(path, 93)
        stop = 32 + BLOCKS_SHAPE[0] + 8 * value_index
        for readers in (1, 2):
            with recorded_reads(stop, readers), pytest.raises(
                    DataError, match=f"^{re.escape(str(path))}: file changed while it was read$"):
                load_smm1(path)

    def test_short_label_read_is_reported(self, tmp_path):
        path = tmp_path / "short_labels.smm1"
        write_smm1_blocks(path, 93)
        with recorded_reads(32 + 2) as events, pytest.raises(
                DataError, match=f"^{re.escape(str(path))}: file changed while it was read$"):
            load_smm1(path)
        assert reader_logs(events) == [[("read", 2)]]

    def test_short_read_is_reported_before_a_non_finite_block(self, tmp_path):
        path = tmp_path / "short_nan.smm1"
        write_smm1_blocks(path, 94, value_at=(np.nan, 0))
        for readers in (1, 2):
            with recorded_reads(32 + BLOCKS_SHAPE[0] + 8 * (self.SIZE - 1), readers), \
                    pytest.raises(DataError, match="file changed while it was read"):
                load_smm1(path)

    def test_short_read_only_in_the_second_share(self, tmp_path):
        path = tmp_path / "short_second.smm1"
        write_smm1_blocks(path, 94, value_at=(np.nan, 0))
        stop = 32 + BLOCKS_SHAPE[0] + 8 * (BLOCK + 100)
        with recorded_reads(stop, readers=2) as events, \
                pytest.raises(DataError, match="file changed while it was read"):
            load_smm1(path)
        # The first share reads and tests its block whole; the second stops
        # at its first, short, read.
        assert reader_logs(events) == [
            [("read", BLOCKS_SHAPE[0])],
            [("read", 8 * BLOCK), ("test", BLOCK)],
            [("read", 8 * 100)]]

    @pytest.mark.parametrize("readers", [2, 3])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_feature_only_in_the_last_share(self, tmp_path, readers, value):
        path = tmp_path / "late.smm1"
        write_smm1_blocks(path, 98, value_at=(value, self.SIZE - 1))
        with recorded_reads(readers=readers) as events, \
                pytest.raises(DataError, match="dataset features must be finite$"):
            load_smm1(path)
        logs = reader_logs(events)
        assert len(logs) == 1 + readers
        assert all(count > 0 for log in logs for kind, count in log if kind == "read")

    def test_each_value_is_tested_once_as_its_block_is_read(self, tmp_path):
        path = tmp_path / "spy.smm1"
        data = write_smm1_blocks(path, 95)
        blocks = [min(BLOCK, self.SIZE - start) for start in range(0, self.SIZE, BLOCK)]
        for readers in (1, 2, 3):
            with recorded_reads(readers=readers) as events, \
                    calls_to(model_module, "_all_finite") as passes:
                loaded = load_smm1(path)
            assert passes == []
            # Per reader, in its order: each block's read, then its test.
            expected = [[event for size in share for event in (("read", 8 * size),
                                                               ("test", size))]
                        for share in shares(blocks, readers)]
            if readers == 1:  # on the calling thread, after the labels
                expected[0].insert(0, ("read", data.m))
            else:  # the calling thread reads the labels and waits
                expected.insert(0, [("read", data.m)])
            assert reader_logs(events) == expected, readers
            assert loaded.xs.tobytes() == data.xs.tobytes()
            assert loaded.ys.tobytes() == data.ys.tobytes()

    @pytest.mark.parametrize("readers", [2, 3])
    def test_shares_load_the_file_byte_for_byte(self, tmp_path, readers):
        path = tmp_path / "shares.smm1"
        write_smm1_blocks(path, 99)
        with mock.patch.object(data_module, "_usable_cpus", lambda: readers):
            loaded = load_smm1(path)
        blob = path.read_bytes()
        assert loaded.ys.tobytes() == blob[32:32 + BLOCKS_SHAPE[0]]
        assert loaded.xs.tobytes() == blob[32 + BLOCKS_SHAPE[0]:]

    def test_one_block_stays_on_the_calling_thread(self, tmp_path):
        path = tmp_path / "one_block.smm1"
        write_smm1_blocks(path, 100, shape=(2, 3, 4))
        with recorded_reads(readers=4) as events:
            load_smm1(path)
        assert {thread for thread, _, _ in events} == {threading.current_thread()}

    @pytest.mark.parametrize("readers", [2, 3])
    @pytest.mark.parametrize("fault", ["short", "non_finite", "os_error"])
    def test_no_reader_outlives_a_refusal(self, tmp_path, readers, fault):
        path = tmp_path / "refused.smm1"
        write_smm1_blocks(path, 101, value_at=(np.inf, self.SIZE - 1)
                          if fault == "non_finite" else None)
        stop = 32 + BLOCKS_SHAPE[0] + 8 * (2 * BLOCK + 1) if fault == "short" else np.inf
        before = threading.enumerate()
        with recorded_reads(stop, readers):
            if fault == "os_error":
                preadv = os.preadv

                def failing(fd, buffers, offset, *args):
                    if offset > 32 + BLOCKS_SHAPE[0]:
                        raise OSError(5, "Input/output error")
                    return preadv(fd, buffers, offset, *args)

                with mock.patch.object(os, "preadv", failing), \
                        pytest.raises(OSError, match="Input/output error"):
                    load_smm1(path)
            else:
                with pytest.raises(DataError):
                    load_smm1(path)
        assert threading.enumerate() == before

    @pytest.mark.parametrize("value_at", [None, (np.nan, 2 * BLOCK + 3)],
                             ids=["finite", "non_finite"])
    def test_without_preadv_one_reader_reads_the_handle(self, tmp_path, monkeypatch,
                                                        value_at):
        """Where Python has no ``os.preadv`` (Windows), the calling thread reads
        every block in order through the handle that read the labels."""
        path = tmp_path / "no_preadv.smm1"
        write_smm1_blocks(path, 105, value_at=value_at)
        monkeypatch.delattr(os, "preadv")
        before = threading.enumerate()
        with mock.patch.object(data_module, "_usable_cpus", lambda: 3), \
                calls_to(data_module, "_read_share") as reads:
            if value_at is None:
                loaded = load_smm1(path)
            else:
                with pytest.raises(DataError, match="dataset features must be finite$"):
                    load_smm1(path)
        assert threading.enumerate() == before
        assert [list(call.args[3]) for call in reads] == [list(range(0, self.SIZE, BLOCK))]
        if value_at is None:
            blob = path.read_bytes()
            assert loaded.ys.tobytes() == blob[32:32 + BLOCKS_SHAPE[0]]
            assert loaded.xs.tobytes() == blob[32 + BLOCKS_SHAPE[0]:]

    def test_usable_cpus_without_an_affinity_set(self, monkeypatch):
        # Where the platform has no affinity set, the machine's count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert data_module._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert data_module._usable_cpus() == 1

    def test_many_readers_under_fast_switching(self, tmp_path):
        """More readers than CPUs, switching threads every microsecond: every
        block lands in its place and a non-finite value in any share is found."""
        path = tmp_path / "stress.smm1"
        shape = (6, 128, 256)  # three blocks
        data = write_smm1_blocks(path, 102, shape=shape)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with time_limit(60), \
                    mock.patch.object(data_module, "_usable_cpus", lambda: 8):
                for _ in range(10):
                    assert load_smm1(path).xs.tobytes() == data.xs.tobytes()
                for position in (0, BLOCK + 7, int(np.prod(shape)) - 1):
                    write_smm1_blocks(path, 102, shape=shape, value_at=(np.nan, position))
                    with pytest.raises(DataError, match="features must be finite"):
                        load_smm1(path)
        finally:
            sys.setswitchinterval(interval)

    def test_loaders_make_no_second_pass(self, tmp_path):
        data = random_dataset(96, m=20, p=2, q=3)
        binary = tmp_path / "d.smm1"
        save_smm1(data, binary)
        table = tmp_path / "d.csv"
        rows = np.column_stack((data.ys, data.xs.reshape(data.m, -1)))
        table.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        row_loop = tmp_path / "underscored.csv"  # the C reader refuses 1_0
        row_loop.write_text(table.read_text().replace("\n", ",1_0\n"))
        loads = {
            "smm1": lambda: load_smm1(binary),
            "smm1_reshaped": DatasetManifest(path=str(binary), format="smm1",
                                             reshape=(3, 2)).load,
            "csv": lambda: load_csv(table, 0, reshape=(2, 3)),
            "csv_rows": lambda: load_csv(row_loop, 0, reshape=(1, 7)),
        }
        for name, load in loads.items():
            with calls_to(model_module, "_all_finite") as passes:
                loaded = load()
            assert passes == [], name
            assert not loaded.xs.flags.writeable and loaded.ys.dtype == np.int8, name
            np.testing.assert_array_equal(loaded.ys, data.ys)

    def test_subsets_make_no_second_pass(self):
        data = random_dataset(103, m=12, p=2, q=3)
        with calls_to(model_module, "_all_finite") as passes:
            picked = data.subset([5, 0, 5, 11])
            train, test = split(data, 0.5, seed=3)
            for idx, refusal in (([12], "outside"), ([1.0], "integers"), ([], "m, p, q >= 1")):
                with pytest.raises(InvalidArgumentError, match=refusal):
                    data.subset(idx)
        assert passes == []
        np.testing.assert_array_equal(picked.xs, data.xs[[5, 0, 5, 11]])
        np.testing.assert_array_equal(picked.ys, data.ys[[5, 0, 5, 11]])
        assert train.m + test.m == data.m
        for part in (picked, train, test):
            assert not part.xs.flags.writeable and not part.ys.flags.writeable
            assert part.ys.dtype == np.int8 and part.name == data.name

    def test_builders_test_their_features_once(self):
        """The values that ``np.isfinite`` sees while each builder runs: the
        noisy features once, and nothing beyond the input of a builder whose
        values are copies of tested ones or standard-normal draws."""
        data = random_dataset(104, m=6, p=3, q=4)
        builders = {
            "gaussian": lambda: add_gaussian_noise(data, 0.5, seed=1),
            "salt_pepper": lambda: add_salt_pepper_noise(data, 0.25, seed=1),
            "synthetic": lambda: make_lowrank_separable(m=10, p=3, q=4, seed=2)[0],
        }
        isfinite = np.isfinite
        counted = {}
        for name, build in builders.items():
            sizes: list = []

            def tested(values, *args, **kwargs):
                sizes.append(np.size(values))
                return isfinite(values, *args, **kwargs)

            with mock.patch.object(np, "isfinite", tested):
                built = build()
            counted[name] = sum(sizes)
            assert not built.xs.flags.writeable and built.ys.dtype == np.int8, name
        assert counted == {"gaussian": data.xs.size, "salt_pepper": 0, "synthetic": 0}

    def test_public_constructor_and_transforms_still_test_features(self):
        data = random_dataset(97, m=4, p=2, q=2)
        bad = data.xs.copy()
        bad[2, 1, 0] = np.inf
        for build in (lambda: Dataset(xs=bad, ys=data.ys), lambda: dataclasses.replace(data, xs=bad)):
            with calls_to(model_module, "_all_finite") as passes, \
                    pytest.raises(InvalidArgumentError, match="features must be finite"):
                build()
            assert len(passes) == 1


class TestNormalization:
    def test_constant_sample_becomes_zero(self):
        data = Dataset(xs=np.ones((2, 2, 2)), ys=np.array([1, -1]))
        normalized = normalize_per_sample(data)
        np.testing.assert_array_equal(normalized.xs, np.zeros((2, 2, 2)))

    def test_two_point_sample(self):
        data = Dataset(xs=np.array([[[0.0, 2.0]], [[1.0, 1.0]]]), ys=np.array([1, -1]))
        normalized = normalize_per_sample(data)
        np.testing.assert_allclose(normalized.xs[0], [[-1.0, 1.0]])

    def test_moments_after_normalization(self):
        data = random_dataset(74, m=4, p=5, q=4)
        scaled = dataclasses.replace(data, xs=data.xs * 37.5 + 11.0)
        normalized = normalize_per_sample(scaled)
        flat = normalized.xs.reshape(4, -1)
        assert np.abs(flat.mean(axis=1)).max() <= 1e-12
        assert np.abs(flat.std(axis=1) - 1.0).max() <= 1e-10

    def test_idempotent(self):
        data = random_dataset(75, m=3, p=4, q=4)
        once = normalize_per_sample(data)
        twice = normalize_per_sample(once)
        assert np.abs(twice.xs - once.xs).max() <= 1e-10

    def test_standardize_features_uses_train_stats(self):
        train = random_dataset(76, m=30, p=2, q=3)
        test = random_dataset(77, m=10, p=2, q=3)
        train_s, test_s = standardize_features(train, test)
        flat = train_s.xs.reshape(30, -1)
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(flat.std(axis=0), 1.0, atol=1e-12)
        # test set transformed by the same affine map, not its own stats
        assert np.abs(test_s.xs.reshape(10, -1).mean(axis=0)).max() > 1e-6

    @pytest.mark.parametrize("sample, index", [
        ([1e308, -1e308, 1.0, 2.0], 0),     # the std overflows
        ([1.7e308, 1.7e308, 1.7e308, 0.0], 1),  # the mean overflows
    ])
    def test_sample_whose_moments_overflow_is_refused(self, sample, index):
        xs = np.array([[0.0, 1.0, 2.0, 4.0], [3.0, 1.0, 2.0, 4.0]])
        xs[index] = sample
        data = Dataset(xs=xs.reshape(2, 2, 2), ys=np.array([1, -1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=f"^sample {index} cannot be "
                                                           "normalized: its mean or std overflows$"):
                normalize_per_sample(data)

    def test_entry_whose_training_moments_overflow_is_refused(self):
        train = random_dataset(78, m=6, p=2, q=3)
        xs = train.xs.copy()
        xs[:2, 1, 0] = [1e308, -1e308]
        test = random_dataset(79, m=4, p=2, q=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=re.escape(
                    "entry (1, 0) cannot be standardized: its training mean or std overflows")):
                standardize_features(dataclasses.replace(train, xs=xs), test)

    def test_test_value_that_overflows_once_standardized_is_refused(self):
        # Training values [0, 1e-3] give the entry a std of 5e-4, and
        # 1.7e308 / 5e-4 overflows: one error naming the dataset, the sample
        # and the entry, and no numpy warning.
        train = Dataset(xs=np.array([0.0, 1e-3]).reshape(2, 1, 1), ys=np.array([1, -1]),
                        name="wdbc")
        test = Dataset(xs=np.array([0.5, 1.7e308]).reshape(2, 1, 1), ys=np.array([1, -1]),
                       name="wdbc")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="^" + re.escape(
                    "dataset 1 (wdbc): entry (0, 0) of sample 1 overflows when "
                    "standardized by the training mean and std") + "$"):
                standardize_features(train, test)

    def test_overflow_names_the_dataset_by_position_and_the_entry(self):
        train = random_dataset(82, m=6, p=2, q=3)
        xs = train.xs.copy()
        xs[:, 1, 2] = 1e-150 * np.arange(6)  # a tiny training std at entry (1, 2)
        train = dataclasses.replace(train, xs=xs)
        fine = random_dataset(83, m=3, p=2, q=3)
        far = fine.xs.copy()
        far[2, 1, 2] = 1e300
        far = Dataset(xs=far, ys=fine.ys)  # no name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="^" + re.escape(
                    "dataset 2: entry (1, 2) of sample 2 overflows")):
                standardize_features(train, fine, far)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e150])
    def test_finite_moments_normalize_as_the_plain_formulas(self, scale):
        train = random_dataset(80, m=12, p=3, q=4)
        test = random_dataset(81, m=5, p=3, q=4)
        xs = train.xs * scale
        xs[3] = 2.5  # a constant sample and, in standardize, constant entries
        xs[:, 0, 1] = -7.0
        train = dataclasses.replace(train, xs=xs)
        flat = xs.reshape(12, -1)
        mean, std = flat.mean(axis=1, keepdims=True), flat.std(axis=1, keepdims=True)
        expected = np.where(std > 0, (flat - mean) / np.where(std > 0, std, 1.0), 0.0)
        assert normalize_per_sample(train).xs.tobytes() == expected.tobytes()
        mean, std = flat.mean(axis=0), flat.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        train_s, test_s = standardize_features(train, test)
        assert train_s.xs.tobytes() == ((flat - mean) / std).tobytes()
        assert test_s.xs.tobytes() == ((test.xs.reshape(5, -1) - mean) / std).tobytes()


class TestSplit:
    def test_balanced_example(self):
        data = Dataset(xs=make_rng(78).standard_normal((10, 1, 2)),
                       ys=np.array([1] * 5 + [-1] * 5))
        train, test = split(data, 0.8, stratified=True, seed=3)
        assert (train.ys == 1).sum() == 4 and (train.ys == -1).sum() == 4
        assert (test.ys == 1).sum() == 1 and (test.ys == -1).sum() == 1

    def test_deterministic(self):
        data = random_dataset(79, m=20)
        a = split(data, 0.7, stratified=True, seed=9)
        b = split(data, 0.7, stratified=True, seed=9)
        np.testing.assert_array_equal(a[0].xs, b[0].xs)
        np.testing.assert_array_equal(a[1].xs, b[1].xs)
        c = split(data, 0.7, stratified=True, seed=10)
        assert not np.array_equal(a[0].xs, c[0].xs)

    def test_disjoint_cover(self):
        data = random_dataset(80, m=17)
        train, test = split(data, 0.6, stratified=False, seed=1)
        assert train.m + test.m == 17
        combined = np.concatenate([train.xs.reshape(train.m, -1),
                                   test.xs.reshape(test.m, -1)])
        original = data.xs.reshape(17, -1)
        # every original row appears exactly once across the two sides
        matches = (combined[:, None, :] == original[None, :, :]).all(axis=2)
        assert (matches.sum(axis=0) == 1).all()

    def test_class_ratio_within_one_sample(self):
        gen = make_rng(81)
        ys = np.where(gen.uniform(size=61) < 0.3, 1, -1)
        ys[:2] = [1, -1]
        data = Dataset(xs=gen.standard_normal((61, 1, 3)), ys=ys)
        train, _ = split(data, 0.7, stratified=True, seed=5)
        for label in (1, -1):
            total = (data.ys == label).sum()
            got = (train.ys == label).sum()
            assert abs(got - 0.7 * total) <= 1.0

    @pytest.mark.parametrize("m, ratio", [(17, 0.6), (10, 0.25), (7, 0.5), (3, 0.4)])
    def test_unstratified_split(self, m, ratio):
        # Each sample's features are its index, so the two sides name them.
        data = Dataset(xs=np.arange(m, dtype=float).reshape(m, 1, 1),
                       ys=np.where(np.arange(m) % 3 == 0, 1, -1))
        train, test = split(data, ratio, stratified=False, seed=4)
        picked = [side.xs.ravel().tolist() for side in (train, test)]
        assert sorted(picked[0] + picked[1]) == list(range(m))
        assert train.m == round(ratio * m)
        np.testing.assert_array_equal(train.ys, data.ys[train.xs.ravel().astype(int)])
        again = split(data, ratio, stratified=False, seed=4)
        assert [side.xs.ravel().tolist() for side in again] == picked

    @pytest.mark.parametrize("ratio", [0.01, 0.99])
    def test_unstratified_split_refuses_an_empty_side(self, ratio):
        with pytest.raises(InvalidArgumentError, match="leaves an empty side for m=10"):
            split(random_dataset(83, m=10), ratio, stratified=False, seed=1)

    def test_degenerate_ratio_rejected(self):
        data = random_dataset(82, m=3)
        with pytest.raises(InvalidArgumentError):
            split(data, 0.999, stratified=False, seed=1)
        with pytest.raises(InvalidArgumentError):
            split(data, 1.5, stratified=True, seed=1)

    @pytest.mark.parametrize("ratio, message", [
        ("0.5", "split ratio must be a real number, got '0.5'"),
        (True, "split ratio must be a real number, got True"),
        (None, "split ratio must be a real number, got None"),
        (float("nan"), "split ratio must lie in \\(0, 1\\)"),
        (0, "split ratio must lie in \\(0, 1\\)"),
        (1.0, "split ratio must lie in \\(0, 1\\)")])
    def test_ratio_follows_the_scalar_rule(self, ratio, message):
        with pytest.raises(InvalidArgumentError, match=message):
            split(random_dataset(82, m=6), ratio, seed=1)


# Every seeded operation follows the CLI's seed rule: a non-negative integer,
# not a bool.
@pytest.mark.parametrize("draw", [
    lambda seed: split(random_dataset(82, m=6), 0.5, stratified=True, seed=seed),
    lambda seed: split(random_dataset(82, m=6), 0.5, stratified=False, seed=seed),
    lambda seed: add_gaussian_noise(random_dataset(86), 0.1, seed=seed),
    lambda seed: add_salt_pepper_noise(random_dataset(86), 0.1, seed=seed),
    lambda seed: make_lowrank_separable(m=4, seed=seed)],
    ids=["split-stratified", "split", "gaussian", "salt_pepper", "synthetic"])
@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be non-negative"), (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True")])
def test_bad_seed_rejected(draw, seed, message):
    with pytest.raises(InvalidArgumentError, match=message):
        draw(seed)


class TestGaussianNoise:
    def test_level_zero_identity(self):
        data = random_dataset(83)
        assert add_gaussian_noise(data, 0.0, seed=1) is data

    def test_empirical_std_tracks_level(self):
        gen = make_rng(84)
        sample = gen.standard_normal((1, 50, 50))
        sample /= sample.std()
        data = Dataset(xs=sample, ys=np.array([1]))
        noisy = add_gaussian_noise(data, 0.2, seed=7)
        delta_std = (noisy.xs - data.xs).std()
        assert abs(delta_std - 0.2) <= 0.02  # within 10%

    def test_seed_contract(self):
        data = random_dataset(85)
        a = add_gaussian_noise(data, 0.1, seed=1)
        b = add_gaussian_noise(data, 0.1, seed=1)
        c = add_gaussian_noise(data, 0.1, seed=2)
        np.testing.assert_array_equal(a.xs, b.xs)
        assert not np.array_equal(a.xs, c.xs)

    @pytest.mark.parametrize("level", [-0.1, np.nan, np.inf, 10**400])
    def test_level_must_be_non_negative_and_finite(self, level):
        data = random_dataset(86)
        with pytest.raises(InvalidArgumentError,
                           match="noise level must be non-negative and finite"):
            add_gaussian_noise(data, level, seed=1)

    def test_overflowing_level_is_refused_without_a_warning(self):
        data = random_dataset(86)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=r"noise level 1e\+308 overflows"):
                add_gaussian_noise(data, 1e308, seed=1)

    def test_noise_is_the_documented_draw(self):
        data = random_dataset(87)
        stds = data.xs.reshape(data.m, -1).std(axis=1)
        rng = np.random.Generator(np.random.PCG64(4))
        noise = rng.standard_normal(data.xs.shape) * (0.3 * stds)[:, None, None]
        assert add_gaussian_noise(data, 0.3, seed=4).xs.tobytes() == (data.xs + noise).tobytes()

    def test_labels_and_shape_preserved(self):
        data = random_dataset(86)
        noisy = add_gaussian_noise(data, 0.5, seed=3)
        np.testing.assert_array_equal(noisy.ys, data.ys)
        assert noisy.xs.shape == data.xs.shape


class TestSaltPepperNoise:
    def test_level_zero_identity(self):
        data = random_dataset(87)
        assert add_salt_pepper_noise(data, 0.0, seed=1) is data

    def test_level_one_saturates(self):
        data = random_dataset(88, m=3, p=4, q=5)
        noisy = add_salt_pepper_noise(data, 1.0, seed=2)
        for i in range(3):
            low, high = data.xs[i].min(), data.xs[i].max()
            assert np.isin(noisy.xs[i], (low, high)).all()

    def test_exact_corruption_count(self):
        # entries 1..100 are distinct and strictly inside (min-1, max+1);
        # replacing any chosen entry with min or max changes it unless the
        # chosen cell already holds that extreme (seed picked to avoid that).
        values = np.arange(1.0, 101.0).reshape(1, 10, 10)
        data = Dataset(xs=values, ys=np.array([1]))
        noisy = add_salt_pepper_noise(data, 0.1, seed=5)
        assert (noisy.xs != data.xs).sum() == 10

    def test_level_bounds(self):
        data = random_dataset(89)
        for level in (-0.1, 1.1, np.nan, np.inf, "0.1"):
            with pytest.raises(InvalidArgumentError, match="salt-and-pepper level must"):
                add_salt_pepper_noise(data, level, seed=1)

    def test_deterministic(self):
        data = random_dataset(90, m=4, p=6, q=6)
        a = add_salt_pepper_noise(data, 0.25, seed=11)
        b = add_salt_pepper_noise(data, 0.25, seed=11)
        np.testing.assert_array_equal(a.xs, b.xs)


class TestManifest:
    def test_every_key_parses(self):
        text = json.dumps({"format": "csv", "path": "d.csv", "reshape": [3, 19],
                           "label_column": 2, "has_header": True,
                           "normalization": "per_sample_zscore"})
        assert DatasetManifest.from_json(text) == DatasetManifest(
            format="csv", path="d.csv", reshape=(3, 19), label_column=2,
            has_header=True, normalization="per_sample_zscore")

    @pytest.mark.parametrize("fields", [{"label_column": 5}, {"has_header": True},
                                        {"has_header": False}, {"label_column": 0},
                                        {"label_column": 5, "has_header": True}])
    def test_csv_fields_with_smm1_are_data_error(self, fields):
        # An smm1 file holds its labels and has no header line, so a manifest
        # that names either csv field asks for something the loader ignores.
        text = json.dumps({"path": "d.smm1", "format": "smm1", **fields})
        with pytest.raises(DataError, match="smm1 data takes no"):
            DatasetManifest.from_json(text)

    def test_smm1_manifest_keeps_no_csv_fields(self):
        manifest = DatasetManifest.from_json('{"path": "d.smm1", "format": "smm1"}')
        assert (manifest.label_column, manifest.has_header) == (None, None)

    def test_repeated_key_is_data_error(self):
        # json.loads alone would keep the last value and load label column 3.
        with pytest.raises(DataError, match="manifest: duplicate key 'label_column'"):
            DatasetManifest.from_json(
                '{"path": "d.csv", "label_column": 0, "label_column": 3}')

    @pytest.mark.parametrize("value", ['"yes"', 1, "null"])
    def test_has_header_must_be_a_bool(self, value):
        with pytest.raises(DataError, match="has_header has the wrong type"):
            DatasetManifest.from_json(f'{{"path": "d.csv", "has_header": {value}}}')

    def test_absent_keys_take_the_defaults(self):
        manifest = DatasetManifest.from_json('{"path": "d.csv", "reshape": null}')
        assert manifest == DatasetManifest(path="d.csv")
        assert (manifest.format, manifest.reshape, manifest.label_column,
                manifest.has_header, manifest.normalization) == ("csv", None, 0, False,
                                                                 "none")

    def test_load_csv_with_reshape_and_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c,d,y\n1,2,3,4,1\n5,6,7,8,2\n")
        ds = DatasetManifest(path=str(path), reshape=(2, 2), label_column=4,
                             has_header=True).load()
        expected = load_csv(path, 4, reshape=(2, 2), has_header=True)
        assert ds.xs.tobytes() == expected.xs.tobytes()
        np.testing.assert_array_equal(ds.ys, [1, -1])

    def test_load_smm1_reshapes_and_normalizes(self, tmp_path):
        data = random_dataset(12, m=5, p=3, q=4)
        path = tmp_path / "d.smm1"
        save_smm1(data, path)
        ds = DatasetManifest(format="smm1", path=str(path), reshape=(2, 6),
                             normalization="per_sample_zscore").load()
        expected = normalize_per_sample(data).xs.reshape(5, 2, 6)
        assert ds.sample_shape == (2, 6)
        assert ds.xs.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(ds.ys, data.ys)

    def test_normalization_that_overflows_is_data_error(self, tmp_path):
        path = tmp_path / "huge.smm1"
        xs = np.array([[1.0, 2.0, 4.0, 8.0], [1e308, -1e308, 1.0, 2.0]])
        save_smm1(Dataset(xs=xs.reshape(2, 1, 4), ys=np.array([1, -1])), path)
        manifest = DatasetManifest(path=str(path), format="smm1", reshape=(2, 2),
                                   normalization="per_sample_zscore")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: sample 1 cannot "
                                                "be normalized"):
                manifest.load()

    def test_load_smm1_reshape_mismatch_is_data_error(self, tmp_path):
        path = tmp_path / "d.smm1"
        save_smm1(random_dataset(13, m=4, p=3, q=4), path)
        with pytest.raises(DataError, match="reshape 5x5 does not match 3x4"):
            DatasetManifest(format="smm1", path=str(path), reshape=(5, 5)).load()

    def test_rejects_unknown_format(self):
        with pytest.raises(InvalidArgumentError):
            DatasetManifest(format="parquet", path="x")

    def test_rejects_bad_json(self):
        with pytest.raises(DataError):
            DatasetManifest.from_json("{not json")

    @pytest.mark.parametrize("text", ['{"format": "csv"}', '{"path": ""}', '["d.csv"]'])
    def test_rejects_missing_path(self, text):
        with pytest.raises(DataError, match="path"):
            DatasetManifest.from_json(text)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read manifest"):
            DatasetManifest.from_file(tmp_path / "absent.json")

    @pytest.mark.parametrize("key,value", [
        ("split", {"ratio": 0.7, "stratified": True, "seed": 1}),
        ("shape", [3, 19]),
        ("normalisation", "per_sample_zscore"),  # misspelt
    ])
    def test_rejects_unknown_key(self, key, value):
        text = json.dumps({"path": "d.csv", key: value})
        with pytest.raises(DataError, match=re.escape(f"unknown keys ['{key}']")):
            DatasetManifest.from_json(text)

    @pytest.mark.parametrize("key,value", [
        ("label_column", "abc"), ("label_column", 1.5), ("label_column", True),
        ("reshape", [3]), ("reshape", [3, 0]), ("reshape", [3, "19"]),
        ("reshape", "3x19"), ("format", "parquet"), ("format", 5),
        ("normalization", "l2"),
    ])
    def test_rejects_ill_typed_value(self, key, value):
        text = json.dumps({"path": "d.csv", key: value})
        with pytest.raises(DataError, match=key):
            DatasetManifest.from_json(text)

    def test_rejects_non_string_path(self):
        with pytest.raises(DataError, match="path"):
            DatasetManifest.from_json(json.dumps({"path": ["d.csv"]}))


class TestSyntheticGenerator:
    def test_margins_and_labels_consistent(self):
        data, w_star, bias = make_lowrank_separable(m=100, seed=91)
        scores = data.xs.reshape(100, -1) @ w_star.ravel() + bias
        assert np.abs(scores).min() >= 0.5
        np.testing.assert_array_equal(data.ys, np.where(scores > 0, 1, -1))

    def test_planted_direction_has_requested_rank(self):
        _, w_star, _ = make_lowrank_separable(m=10, rank=2, seed=92)
        assert np.linalg.matrix_rank(w_star) == 2
        assert np.linalg.norm(w_star) == pytest.approx(1.0)

    def test_deterministic(self):
        a, _, _ = make_lowrank_separable(m=20, seed=93)
        b, _, _ = make_lowrank_separable(m=20, seed=93)
        np.testing.assert_array_equal(a.xs, b.xs)

    @pytest.mark.parametrize("change, message", [
        ({"p": 0}, "p must be a positive integer"),
        ({"q": 0}, "q must be a positive integer"),
        ({"rank": 0}, "rank must be a positive integer"),
        ({"m": 1}, "sample count must be at least 2"),
        ({"m": 2.0}, "sample count must be an integer"),
        ({"margin": -0.5}, "margin must be non-negative and finite"),
        ({"margin": np.nan}, "margin must be non-negative and finite"),
        ({"bias": np.inf}, "bias must be finite"),
        ({"margin": 50.0, "m": 4}, "margin 50.0 kept 0 of 4000 draws")],
        ids=["p=0", "q=0", "rank=0", "m=1", "m-float", "margin-negative", "margin-nan",
             "bias-inf", "margin=50"])
    def test_refuses_arguments_it_cannot_meet(self, change, message):
        # The time limit turns a draw loop without end into a failure.
        with time_limit(10.0), pytest.raises(InvalidArgumentError, match=message):
            make_lowrank_separable(**{"seed": 94, **change})

    def test_wide_margin_that_can_be_met_still_completes(self):
        # Scores are N(bias, 1): a margin of 2.5 keeps about one draw in 80.
        with time_limit(10.0):
            data, w_star, bias = make_lowrank_separable(m=20, margin=2.5, seed=95)
        scores = data.xs.reshape(20, -1) @ w_star.ravel() + bias
        assert np.abs(scores).min() >= 2.5

