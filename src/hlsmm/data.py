"""Dataset ingestion, preprocessing, splitting, and noise injection.

File formats
------------
CSV: comma-separated numeric rows, no header by default, one sample per row
with the label in a designated column.  Accepted label encodings are
{-1, 1}, {0, 1} (0 maps to -1), and {1, 2} (2 maps to -1).  Vector rows
become 1-by-d matrices unless a reshape is requested.

SMM1 (binary, little-endian): magic ``SMM1``, version u32 = 1, counts
m/p/q as u64, m labels as i8 (-1/+1), then m*p*q float64 values,
sample-major then row-major.

All randomized operations (splitting, noise) take an explicit seed and use
numpy's PCG64 generator, so identical seeds reproduce identical results on
any platform.
"""

from __future__ import annotations

import csv
import json
import os
import struct
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidArgumentError
from .model import (_COUNT, _FINITE_BLOCK, _FRACTION, _NON_NEGATIVE, _RANK, Dataset,
                    _all_finite, _checked, decision_scores)

_SMM1_MAGIC = b"SMM1"
_SMM1_VERSION = 1
_NUMBER = (int, float)
_MANIFEST_KINDS = {"path": str, "format": str, "reshape": ([int, int], None),
                   "label_column": int, "has_header": bool, "normalization": str}


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook`` for ``json.loads``: an object that repeats a key is a
    DataError, where plain ``json.loads`` would keep the last value."""
    value = {}
    for key, item in pairs:
        if key in value:
            raise DataError(f"duplicate key {key!r}")
        value[key] = item
    return value


def _is_kind(value, kind) -> bool:
    """Whether a JSON value has ``kind``: a type (a bool is a bool, never a
    number), None (null), a list of element kinds (an array of that length) or
    a tuple of alternatives."""
    if kind is None:
        return value is None
    if isinstance(kind, tuple):
        return any(_is_kind(value, one) for one in kind)
    if isinstance(kind, list):
        return (isinstance(value, list) and len(value) == len(kind)
                and all(map(_is_kind, value, kind)))
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _json_object(value, kinds: dict, name: str, optional=()) -> dict:
    """``value`` if it is a JSON object with exactly the keys of ``kinds``, each of
    its kind (a nested dict of kinds is a nested object), else a DataError.

    Keys in ``optional`` may be absent; every other key is required.
    """
    if not isinstance(value, dict):
        raise DataError(f"{name} must be a JSON object")
    unknown = sorted(set(value) - set(kinds))
    if unknown:
        raise DataError(f"{name} has unknown keys {unknown}; allowed: {', '.join(kinds)}")
    for key, kind in kinds.items():
        if key not in value:
            if key not in optional:
                raise DataError(f"missing {key!r}")
        elif isinstance(kind, dict):
            _json_object(value[key], kind, key)
        elif not _is_kind(value[key], kind):
            raise DataError(f"{key} has the wrong type: {value[key]!r}")
    return value


@dataclass(frozen=True)
class DatasetManifest:
    """Declarative description of how to load and prepare one dataset."""

    path: str
    format: str = "csv"              # "csv" | "smm1"
    reshape: tuple[int, int] | None = None
    # csv only; None (absent) means 0 and False for csv, and only None is
    # valid for smm1, whose file holds the labels and no header.
    label_column: int | None = None
    has_header: bool | None = None   # skip the first line
    normalization: str = "none"      # "none" | "per_sample_zscore"

    def __post_init__(self):
        if self.format not in ("csv", "smm1"):
            raise InvalidArgumentError(f"unknown dataset format {self.format!r}")
        csv_only = [name for name in ("label_column", "has_header")
                    if getattr(self, name) is not None]
        if self.format == "smm1" and csv_only:
            raise InvalidArgumentError(
                f"smm1 data takes no {' or '.join(csv_only)} (csv only)")
        if self.format == "csv":
            object.__setattr__(self, "label_column", self.label_column or 0)
            object.__setattr__(self, "has_header", bool(self.has_header))
        if self.normalization not in ("none", "per_sample_zscore"):
            raise InvalidArgumentError(
                f"unknown normalization {self.normalization!r}")
        if self.reshape is not None and min(self.reshape) < 1:
            raise InvalidArgumentError(
                f"reshape must be two positive integers, got {self.reshape}")

    @classmethod
    def from_file(cls, path) -> "DatasetManifest":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: cannot read manifest: {exc}") from exc
        return cls.from_json(text)

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        """Parse a manifest; any ill-formed or ill-typed value is a DataError."""
        try:
            raw = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise DataError(f"manifest is not valid JSON: {exc}") from exc
        except DataError as exc:
            raise DataError(f"manifest: {exc}") from exc
        if not isinstance(raw, dict) or not raw.get("path"):
            raise DataError('manifest must be a JSON object with a non-empty "path"')
        raw = _json_object(raw, _MANIFEST_KINDS, "manifest",
                           optional=set(_MANIFEST_KINDS) - {"path"})
        if raw.get("reshape") is not None:
            raw["reshape"] = tuple(raw["reshape"])
        try:
            return cls(**raw)
        except InvalidArgumentError as exc:
            raise DataError(f"manifest: {exc}") from exc

    def load(self) -> Dataset:
        """The described dataset, read, reshaped and normalized."""
        if self.format == "csv":
            ds = load_csv(self.path, self.label_column, reshape=self.reshape,
                          has_header=self.has_header)
        else:
            ds = load_smm1(self.path)
            if self.reshape:
                p, q = self.reshape
                if p * q != ds.p * ds.q:
                    raise DataError(f"reshape {p}x{q} does not match "
                                    f"{ds.p}x{ds.q} samples")
                # The same values, already tested by the loader.
                ds = Dataset._tested(ds.xs.reshape(ds.m, p, q), ds.ys, ds.name,
                                     finite=True)
        if self.normalization == "per_sample_zscore":
            try:
                ds = normalize_per_sample(ds)
            except InvalidArgumentError as exc:  # a sample's moments overflow
                raise DataError(f"{self.path}: {exc}") from exc
        return ds


# Distinct label values an unknown-encoding error lists, smallest first.
_LABELS_SHOWN = 5


def _map_labels(raw_labels: list[float], path: str) -> np.ndarray:
    """1 maps to +1 and the other label of the encoding to -1."""
    values = set(raw_labels)
    if not any(values <= {other, 1.0} for other in (-1.0, 0.0, 2.0)):
        listed = [str(v) for v in sorted(values)[:_LABELS_SHOWN]]
        if len(values) > _LABELS_SHOWN:
            listed.append("...")
        raise DataError(
            f"{path}: unknown label encoding [{', '.join(listed)}] "
            f"({len(values)} distinct values); expected {{-1,1}}, {{0,1}} or {{1,2}}")
    return np.where(np.equal(raw_labels, 1.0), 1, -1).astype(np.int8)


def _dataset(path: Path, features: np.ndarray, raw_labels: list[float],
             reshape: tuple[int, int] | None) -> Dataset:
    """The dataset of parsed, finite CSV rows: labels mapped, samples reshaped.

    Both readers have tested every value, so the features are not tested again.
    """
    ys = _map_labels(raw_labels, str(path))
    d = features.shape[1]
    if reshape is not None:
        p, q = reshape
        if p < 1 or q < 1 or p * q != d:
            raise DataError(
                f"{path}: reshape {p}x{q} = {p * q} does not match "
                f"{d} features per row")
        xs = features.reshape(-1, p, q)
    else:
        xs = features.reshape(-1, 1, d)
    return Dataset._tested(xs, ys, path.stem, finite=True)


def _read_table(path: Path, label_column: int,
                has_header: bool) -> tuple[np.ndarray, list[float]] | None:
    """(features, labels) of a CSV file that numpy's C reader parses whole into
    rows of at least two finite fields, or None.

    The file is read as :func:`_read_rows` reads it: the header is its first
    csv record, even one that a quoted field spans over several lines, and
    every field is a float as ``float()`` reads it, bit for bit.  Whatever
    the C reader refuses or warns about (an empty file), and any row the
    row loop would refuse, gives None.
    """
    with path.open(newline="") as handle, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if has_header:
                next(csv.reader(handle), None)
            table = np.loadtxt(handle, dtype=np.float64, delimiter=",", comments=None,
                               quotechar='"', ndmin=2)
        except Exception:  # the row loop decides, and names the line
            return None
    width = table.shape[1]
    if width < 2 or not -width <= label_column < width or not _all_finite(table):
        return None
    labels = table[:, label_column].tolist()
    return np.delete(table, label_column % width, axis=1), labels


def _read_rows(path: Path, label_column: int, reshape: tuple[int, int] | None,
               has_header: bool) -> Dataset:
    """:func:`load_csv` by ``csv.reader`` and ``float()``, one row at a time.

    This loop defines what the loader accepts, and names the offending line
    (the csv record) in every DataError it raises for a row.
    """
    rows: list[list[float]] = []
    raw_labels: list[float] = []
    line_numbers: list[int] = []
    width: int | None = None
    with path.open(newline="") as handle:
        line_no = 0
        try:
            for line_no, row in enumerate(csv.reader(handle), start=1):
                if has_header and line_no == 1:
                    continue
                if not row:
                    continue
                if width is None:
                    width = len(row)
                    if width < 2:
                        raise DataError(f"{path}, line {line_no}: no feature "
                                        "columns besides the label")
                    if not -width <= label_column < width:
                        raise DataError(
                            f"{path}: label column {label_column} out of range "
                            f"for {width}-field rows")
                if len(row) != width:
                    raise DataError(
                        f"{path}, line {line_no}: expected {width} fields, "
                        f"got {len(row)}")
                try:
                    numbers = [float(field) for field in row]
                except ValueError as exc:
                    raise DataError(f"{path}, line {line_no}: {exc}") from exc
                raw_labels.append(numbers[label_column])
                del numbers[label_column % width]
                rows.append(numbers)
                line_numbers.append(line_no)
        except UnicodeDecodeError as exc:  # decoded in blocks: no line to name
            raise DataError(f"{path}: not valid {exc.encoding} text ({exc.reason})") from exc
        except csv.Error as exc:
            raise DataError(f"{path}, line {line_no + 1}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(features).all(axis=1) & np.isfinite(raw_labels)
    if not finite.all():
        line_no = line_numbers[int(np.argmin(finite))]
        raise DataError(f"{path}, line {line_no}: non-finite value")
    return _dataset(path, features, raw_labels, reshape)


def load_csv(path, label_column: int = 0,
             reshape: tuple[int, int] | None = None,
             has_header: bool = False) -> Dataset:
    """Load a numeric CSV with one sample per row.

    Raises :class:`DataError` naming the offending line for ragged rows,
    unparseable or non-finite numbers, and raises it for unknown label
    encodings or a reshape that does not match the feature count.

    numpy's C reader parses the file in one pass.  Where it refuses the
    file, or a row check fails, the row loop :func:`_read_rows` reads it
    again and decides: it accepts what the C reader does not (``1_0``,
    non-ASCII digits) and names the line of each fault.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such file")
    table = _read_table(path, label_column, has_header)
    if table is None:
        return _read_rows(path, label_column, reshape, has_header)
    # The row loop would take the same rows and reach the same label and
    # reshape checks, with the same labels in the same order.
    return _dataset(path, *table, reshape)


def save_smm1(data: Dataset, path) -> None:
    """Write the binary SMM1 container; byte-deterministic for a given dataset.

    The header, the labels and the feature array go to the file one after
    the other, so no second copy of the payload is built in memory.
    """
    with Path(path).open("wb") as handle:
        handle.write(_SMM1_MAGIC + struct.pack("<IQQQ", _SMM1_VERSION,
                                               data.m, data.p, data.q))
        handle.write(data.ys)
        handle.write(np.ascontiguousarray(data.xs, dtype="<f8"))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_share(read, flat: np.ndarray, offset: int, starts: range) -> tuple[bool, bool]:
    """Read the blocks of ``flat`` that begin at ``starts``, in order, by
    ``read(block, position)``, which returns the bytes it read into ``block``
    from file position ``position`` (the features begin at byte ``offset``),
    testing each block for finiteness right after its read.

    Returns (complete, finite).  A short read ends the share incomplete; the
    blocks after a non-finite one are still read, not tested.
    """
    finite = True
    for start in starts:
        block = flat[start:start + _FINITE_BLOCK]
        if read(block, offset + block.itemsize * start) != block.nbytes:
            return False, finite
        finite = finite and _all_finite(block)
    return True, finite


def _read_payload(handle, flat: np.ndarray, offset: int) -> tuple[bool, bool]:
    """Fill ``flat`` by :func:`_read_share` from ``handle``, which stands at byte
    ``offset``, its blocks cut into one contiguous share per usable CPU;
    return (complete, finite) of them all.

    A single share, and the whole payload where Python has no ``os.preadv``
    (Windows), is read in order through ``handle`` on the calling thread.
    Otherwise each share has its own thread, reading with ``os.preadv`` on
    the handle's descriptor, all of them joined before this returns or
    raises.  The calling thread only waits: where it read a share itself,
    right after a BLAS call, the load was no faster than one reader.  The
    reads are positional, so the readers share the descriptor and not its
    offset.
    """
    starts = range(0, flat.size, _FINITE_BLOCK)
    readers = min(_usable_cpus(), len(starts)) if hasattr(os, "preadv") else 1
    if readers == 1:
        return _read_share(lambda block, _: handle.readinto(block), flat, offset, starts)
    fd = handle.fileno()
    outcomes: list = [None] * readers

    def read(k: int) -> None:
        share = starts[len(starts) * k // readers:len(starts) * (k + 1) // readers]
        try:
            outcomes[k] = _read_share(lambda block, position: os.preadv(fd, [block], position),
                                      flat, offset, share)
        except Exception as exc:  # raised again by the caller, after the join
            outcomes[k] = exc

    threads = []
    try:
        for k in range(readers):
            thread = threading.Thread(target=read, args=(k,), name=f"smm1-reader-{k}")
            thread.start()
            threads.append(thread)
    finally:
        for thread in threads:
            thread.join()
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return all(complete for complete, _ in outcomes), all(finite for _, finite in outcomes)


def load_smm1(path) -> Dataset:
    """Read an SMM1 file straight into the arrays of the returned dataset.

    The header and the exact file size are checked before anything is
    allocated, so a corrupt count cannot request a huge array.  The labels
    are read next.  The features' blocks of ``_FINITE_BLOCK`` values are cut
    into contiguous shares, one per usable CPU (the process's affinity set
    where the platform has one, else ``os.cpu_count()``), each read by its
    own thread with positional reads (``os.preadv``) on the descriptor whose
    size was checked.  A payload of one share, and every payload where
    Python has no ``os.preadv`` (Windows), is read in order through the
    handle that read the labels, on the calling thread.  Each block is
    tested for finiteness right after its reader reads it, while it is
    still in cache, so every value is tested once and the design is passed
    over once.  Every reader is joined before this returns or raises.

    A short read in any share is reported first, then bad labels, then a
    non-finite feature: the blocks after a non-finite one are still read,
    not tested.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such file")
    with path.open("rb") as handle:
        header = handle.read(32)
        if header[:4] != _SMM1_MAGIC:
            raise DataError(f"{path}: not an SMM1 file (bad magic)")
        if len(header) < 32:
            raise DataError(f"{path}: truncated header "
                            f"({len(header)} bytes, expected 32)")
        version, m, p, q = struct.unpack_from("<IQQQ", header, 4)
        if version != _SMM1_VERSION:
            raise DataError(f"{path}: unsupported SMM1 version {version}")
        if m == 0:
            raise DataError(f"{path}: empty dataset (m = 0)")
        if p == 0 or q == 0:
            raise DataError(f"{path}: empty samples ({p}x{q})")
        size = os.fstat(handle.fileno()).st_size
        expected = 32 + m + 8 * m * p * q
        if size != expected:
            raise DataError(
                f"{path}: truncated or oversized payload "
                f"({size} bytes, expected {expected})")
        ys = np.empty(m, dtype="<i1")
        xs = np.empty((m, p, q), dtype="<f8")
        complete = handle.readinto(ys) == m
        if complete:
            complete, finite = _read_payload(handle, xs.reshape(-1), 32 + m)
    if not complete:
        raise DataError(f"{path}: file changed while it was read")
    try:
        return Dataset._tested(xs, ys, path.stem, finite=finite)
    except InvalidArgumentError as exc:  # bad labels or non-finite features
        raise DataError(f"{path}: {exc}") from exc


def _moments(flat: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Mean and population std of ``flat`` along ``axis``, and the first position
    whose mean or std overflows (None if none does), with numpy's overflow
    warnings kept off stderr."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = flat.mean(axis=axis), flat.std(axis=axis)
    bad = ~(np.isfinite(mean) & np.isfinite(std))
    return mean, std, int(np.argmax(bad)) if bad.any() else None


def normalize_per_sample(data: Dataset) -> Dataset:
    """Shift/scale each sample to zero mean and unit (population) variance.

    Samples whose entries are all equal become all-zero matrices.  A sample
    whose mean or std overflows is refused rather than zeroed.
    """
    flat = data.xs.reshape(data.m, -1)
    mean, std, bad = _moments(flat, axis=1)
    if bad is not None:
        raise InvalidArgumentError(
            f"sample {bad} cannot be normalized: its mean or std overflows")
    mean, std = mean[:, None], std[:, None]
    safe = np.where(std > 0, std, 1.0)
    normalized = np.where(std > 0, (flat - mean) / safe, 0.0)
    return Dataset(xs=normalized.reshape(data.xs.shape), ys=data.ys, name=data.name)


def standardize_features(train: Dataset, *others: Dataset) -> tuple[Dataset, ...]:
    """Per-entry z-scoring using statistics of ``train`` only.

    The tabular-data counterpart of per-sample normalization: every matrix
    position is centered and scaled by its mean/std across the training
    samples, and the same affine map is applied to the other datasets
    (typically the test split).  Constant positions are left centered.  An
    entry whose training mean or std overflows is refused, and so is a
    dataset with a value that overflows once standardized, one far from the
    training mean of an entry with a small training std.  That refusal names
    the dataset by its position among the arguments (``train`` is 0) and
    its name, and the entry by its sample and matrix position.
    """
    flat = train.xs.reshape(train.m, -1)
    mean, std, bad = _moments(flat, axis=0)
    if bad is not None:
        i, j = divmod(bad, train.q)
        raise InvalidArgumentError(
            f"entry ({i}, {j}) cannot be standardized: its training mean or std overflows")
    std = np.where(std > 0, std, 1.0)

    def apply(position: int, ds: Dataset) -> Dataset:
        with np.errstate(over="ignore"):
            scaled = (ds.xs.reshape(ds.m, -1) - mean) / std
        if not _all_finite(scaled):
            sample, entry = divmod(int(np.argmax(~np.isfinite(scaled))), scaled.shape[1])
            i, j = divmod(entry, train.q)
            label = f"dataset {position}" + (f" ({ds.name})" if ds.name else "")
            raise InvalidArgumentError(
                f"{label}: entry ({i}, {j}) of sample {sample} overflows when "
                "standardized by the training mean and std")
        return Dataset._tested(scaled.reshape(ds.xs.shape), ds.ys, ds.name, finite=True)

    return tuple(apply(position, ds) for position, ds in enumerate((train, *others)))


def _shuffled_classes(ys: np.ndarray, seed: int) -> list[np.ndarray]:
    """Positions of the +1 and then the -1 labels, each class permuted by one
    PCG64(seed) stream: the draws that stratified splits and folds cut up."""
    rng = np.random.Generator(np.random.PCG64(seed))
    classes = [np.flatnonzero(ys == label) for label in (1, -1)]
    return [members[rng.permutation(members.size)] for members in classes]


def split(data: Dataset, ratio: float, stratified: bool = True,
          seed: int = 0) -> tuple[Dataset, Dataset]:
    """Deterministic train/test partition; ``ratio`` is the train fraction.

    Stratified mode permutes each class separately and keeps
    ``round(ratio * m_c)`` samples per class, preserving class proportions to
    within one sample.  Indices within each side keep dataset order.
    """
    ratio = _checked("split ratio", ratio, (float, lambda v: 0 < v < 1, "lie in (0, 1)"))
    seed = _checked("seed", seed, _COUNT)
    train_idx: list[int] = []
    test_idx: list[int] = []
    if stratified:
        data.require_both_labels()
        for perm in _shuffled_classes(data.ys, seed):
            n_train = int(round(ratio * perm.size))
            train_idx.extend(perm[:n_train])
            test_idx.extend(perm[n_train:])
    else:
        perm = np.random.Generator(np.random.PCG64(seed)).permutation(data.m)
        n_train = int(round(ratio * data.m))
        train_idx.extend(perm[:n_train])
        test_idx.extend(perm[n_train:])
    if not train_idx or not test_idx:
        raise InvalidArgumentError(
            f"ratio {ratio} leaves an empty side for m={data.m}")
    train_idx.sort()
    test_idx.sort()
    return data.subset(train_idx), data.subset(test_idx)


def add_gaussian_noise(data: Dataset, level: float, seed: int = 0) -> Dataset:
    """Perturb every entry with N(0, (level * s)^2), s = that sample's entry std.

    After per-sample normalization s = 1, so ``level`` is the noise std in
    data units.  Level 0 returns the input unchanged.  A level whose noisy
    features overflow is refused.
    """
    level = _checked("noise level", level, _NON_NEGATIVE)
    seed = _checked("seed", seed, _COUNT)
    if level == 0:
        return data
    rng = np.random.Generator(np.random.PCG64(seed))
    with np.errstate(over="ignore", invalid="ignore"):
        stds = data.xs.reshape(data.m, -1).std(axis=1)
        xs = rng.standard_normal(data.xs.shape)
        xs *= (level * stds)[:, None, None]
        xs += data.xs
    if not _all_finite(xs):
        raise InvalidArgumentError(
            f"noise level {level} overflows: the noisy features are not finite")
    return Dataset._tested(xs, data.ys, data.name, finite=True)


def add_salt_pepper_noise(data: Dataset, level: float, seed: int = 0) -> Dataset:
    """Set a fraction ``level`` of entries per sample to that sample's min or max.

    Per sample, ``round(level * p * q)`` positions are drawn uniformly without
    replacement; each becomes the sample minimum or maximum with probability
    one half.  A level that corrupts no entry, level 0 among them, returns
    the input unchanged.
    """
    level = _checked("salt-and-pepper level", level, _FRACTION)
    seed = _checked("seed", seed, _COUNT)
    entries = data.p * data.q
    n_corrupt = int(round(level * entries))
    if n_corrupt == 0:
        return data
    rng = np.random.Generator(np.random.PCG64(seed))
    flat = data.xs.reshape(data.m, -1).copy()
    for i in range(data.m):
        positions = rng.choice(entries, size=n_corrupt, replace=False)
        salt = rng.integers(0, 2, size=n_corrupt).astype(bool)
        low, high = flat[i].min(), flat[i].max()
        flat[i, positions] = np.where(salt, high, low)
    # Every value written is one of the sample's own, which were tested.
    return Dataset._tested(flat.reshape(data.xs.shape), data.ys, data.name, finite=True)


def make_lowrank_separable(m: int = 200, p: int = 8, q: int = 6, rank: int = 2,
                           bias: float = 0.1, margin: float = 0.5,
                           seed: int = 0) -> tuple[Dataset, np.ndarray, float]:
    """Synthetic margin-separated data from a planted low-rank direction.

    Draws W* = U V^T with standard normal factors, rescales it to unit
    Frobenius norm so that the scores <W*, X> + bias of standard normal
    matrices X are N(bias, 1) and the ``margin`` cutoff is meaningful, then
    samples such matrices, labels them by the sign of their score, and
    rejects draws with |score| < margin.  A margin that keeps fewer than m
    of the first 1000 m draws is an error.

    Returns (dataset, W*, bias).
    """
    m = _checked("sample count", m, (int, lambda v: v >= 2, "be at least 2"))
    p, q, rank = (_checked(name, value, _RANK)
                  for name, value in (("p", p), ("q", q), ("rank", rank)))
    bias = _checked("bias", bias, (float, lambda v: abs(v) < np.inf, "be finite"))
    margin = _checked("margin", margin, _NON_NEGATIVE)
    seed = _checked("seed", seed, _COUNT)
    rng = np.random.Generator(np.random.PCG64(seed))
    w_star = rng.standard_normal((p, rank)) @ rng.standard_normal((q, rank)).T
    w_star /= np.linalg.norm(w_star)
    xs = np.empty((m, p, q))
    ys = np.empty(m, dtype=np.int8)
    count = 0
    for _ in range(1000 * m):
        x = rng.standard_normal((p, q))
        score = float(decision_scores(w_star, bias, x[None])[0])
        if abs(score) < margin:
            continue
        xs[count] = x
        ys[count] = 1 if score > 0 else -1
        count += 1
        if count == m:
            break
    else:
        raise InvalidArgumentError(f"margin {margin} kept {count} of {1000 * m} draws, "
                                   f"fewer than the {m} samples requested")
    # Standard-normal draws are finite.
    data = Dataset._tested(xs, ys, "synthetic-lowrank", finite=True)
    data.require_both_labels()
    return data, w_star, bias
