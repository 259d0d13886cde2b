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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidArgumentError
from .model import Dataset, decision_scores

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
                ds = ds.replace_xs(ds.xs.reshape(ds.m, p, q), f"reshape ({p},{q})")
        if self.normalization == "per_sample_zscore":
            ds = normalize_per_sample(ds)
        return ds


def _map_labels(raw_labels: list[float], path: str) -> np.ndarray:
    values = set(raw_labels)
    if values <= {-1.0, 1.0}:
        mapped = raw_labels
    elif values <= {0.0, 1.0}:
        mapped = [1.0 if v == 1.0 else -1.0 for v in raw_labels]
    elif values <= {1.0, 2.0}:
        mapped = [1.0 if v == 1.0 else -1.0 for v in raw_labels]
    else:
        raise DataError(
            f"{path}: unknown label encoding {sorted(values)}; expected "
            "{-1,1}, {0,1} or {1,2}")
    return np.array(mapped, dtype=np.int8)


def load_csv(path, label_column: int = 0,
             reshape: tuple[int, int] | None = None,
             has_header: bool = False,
             name: str | None = None) -> Dataset:
    """Load a numeric CSV with one sample per row.

    Raises :class:`DataError` naming the offending line for ragged rows,
    unparseable or non-finite numbers, and raises it for unknown label
    encodings or a reshape that does not match the feature count.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such file")
    rows: list[list[float]] = []
    raw_labels: list[float] = []
    line_numbers: list[int] = []
    width: int | None = None
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        for line_no, row in enumerate(reader, start=1):
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
    if not rows:
        raise DataError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(features).all(axis=1) & np.isfinite(raw_labels)
    if not finite.all():
        line_no = line_numbers[int(np.argmin(finite))]
        raise DataError(f"{path}, line {line_no}: non-finite value")
    ys = _map_labels(raw_labels, str(path))
    d = features.shape[1]
    if reshape is not None:
        p, q = reshape
        if p < 1 or q < 1 or p * q != d:
            raise DataError(
                f"{path}: reshape {p}x{q} = {p * q} does not match "
                f"{d} features per row")
        xs = features.reshape(-1, p, q)
        shape_note = f"reshape ({p},{q}) row-major"
    else:
        xs = features.reshape(-1, 1, d)
        shape_note = f"vector rows as 1x{d}"
    return Dataset(xs=xs, ys=ys, name=name or path.stem,
                   provenance=f"csv {path} (label col {label_column}; {shape_note})")


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


def load_smm1(path, name: str | None = None) -> Dataset:
    """Read an SMM1 file straight into the arrays of the returned dataset.

    The header and the exact file size are checked before anything is
    allocated, so a corrupt count cannot request a huge array.
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
        if handle.readinto(ys) + handle.readinto(xs) != expected - 32:
            raise DataError(f"{path}: file changed while it was read")
    if not np.isin(ys, (-1, 1)).all():
        raise DataError(f"{path}: labels must be -1 or +1")
    try:
        return Dataset(xs=xs, ys=ys, name=name or path.stem,
                       provenance=f"smm1 {path}")
    except InvalidArgumentError as exc:  # non-finite features
        raise DataError(f"{path}: {exc}") from exc


def normalize_per_sample(data: Dataset) -> Dataset:
    """Shift/scale each sample to zero mean and unit (population) variance.

    Samples whose entries are all equal become all-zero matrices.
    """
    flat = data.xs.reshape(data.m, -1)
    mean = flat.mean(axis=1, keepdims=True)
    std = flat.std(axis=1, keepdims=True)
    safe = np.where(std > 0, std, 1.0)
    normalized = np.where(std > 0, (flat - mean) / safe, 0.0)
    return data.replace_xs(normalized.reshape(data.xs.shape), "per-sample zscore")


def standardize_features(train: Dataset, *others: Dataset) -> tuple[Dataset, ...]:
    """Per-entry z-scoring using statistics of ``train`` only.

    The tabular-data counterpart of per-sample normalization: every matrix
    position is centered and scaled by its mean/std across the training
    samples, and the same affine map is applied to the other datasets
    (typically the test split).  Constant positions are left centered.
    """
    flat = train.xs.reshape(train.m, -1)
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    std = np.where(std > 0, std, 1.0)

    def apply(ds: Dataset) -> Dataset:
        scaled = (ds.xs.reshape(ds.m, -1) - mean) / std
        return ds.replace_xs(scaled.reshape(ds.xs.shape),
                             "feature zscore (train stats)")

    return tuple(apply(ds) for ds in (train, *others))


def split(data: Dataset, ratio: float, stratified: bool = True,
          seed: int = 0) -> tuple[Dataset, Dataset]:
    """Deterministic train/test partition; ``ratio`` is the train fraction.

    Stratified mode permutes each class separately and keeps
    ``round(ratio * m_c)`` samples per class, preserving class proportions to
    within one sample.  Indices within each side keep dataset order.
    """
    if not 0.0 < ratio < 1.0:
        raise InvalidArgumentError("split ratio must lie in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    train_idx: list[int] = []
    test_idx: list[int] = []
    if stratified:
        data.require_both_labels()
        for label in (1, -1):
            members = np.flatnonzero(data.ys == label)
            perm = members[rng.permutation(members.size)]
            n_train = int(round(ratio * members.size))
            train_idx.extend(perm[:n_train])
            test_idx.extend(perm[n_train:])
    else:
        perm = rng.permutation(data.m)
        n_train = int(round(ratio * data.m))
        train_idx.extend(perm[:n_train])
        test_idx.extend(perm[n_train:])
    if not train_idx or not test_idx:
        raise InvalidArgumentError(
            f"ratio {ratio} leaves an empty side for m={data.m}")
    train_idx.sort()
    test_idx.sort()
    return (data.subset(train_idx, f"train split ratio={ratio} seed={seed}"),
            data.subset(test_idx, f"test split ratio={ratio} seed={seed}"))


def add_gaussian_noise(data: Dataset, level: float, seed: int = 0) -> Dataset:
    """Perturb every entry with N(0, (level * s)^2), s = that sample's entry std.

    After per-sample normalization s = 1, so ``level`` is the noise std in
    data units.  Level 0 returns the input unchanged.
    """
    if level < 0:
        raise InvalidArgumentError("noise level must be non-negative")
    if level == 0:
        return data
    rng = np.random.Generator(np.random.PCG64(seed))
    stds = data.xs.reshape(data.m, -1).std(axis=1)
    noise = rng.standard_normal(data.xs.shape) * (level * stds)[:, None, None]
    return data.replace_xs(data.xs + noise, f"gaussian noise level={level} seed={seed}")


def add_salt_pepper_noise(data: Dataset, level: float, seed: int = 0) -> Dataset:
    """Set a fraction ``level`` of entries per sample to that sample's min or max.

    Per sample, ``round(level * p * q)`` positions are drawn uniformly without
    replacement; each becomes the sample minimum or maximum with probability
    one half.  Level 0 returns the input unchanged.
    """
    if not 0.0 <= level <= 1.0:
        raise InvalidArgumentError("salt-and-pepper level must lie in [0, 1]")
    if level == 0:
        return data
    rng = np.random.Generator(np.random.PCG64(seed))
    entries = data.p * data.q
    n_corrupt = int(round(level * entries))
    if n_corrupt == 0:
        return data.replace_xs(data.xs.copy(),
                               f"salt-pepper noise level={level} seed={seed}")
    flat = data.xs.reshape(data.m, -1).copy()
    for i in range(data.m):
        positions = rng.choice(entries, size=n_corrupt, replace=False)
        salt = rng.integers(0, 2, size=n_corrupt).astype(bool)
        low, high = flat[i].min(), flat[i].max()
        flat[i, positions] = np.where(salt, high, low)
    return data.replace_xs(flat.reshape(data.xs.shape),
                           f"salt-pepper noise level={level} seed={seed}")


def make_lowrank_separable(m: int = 200, p: int = 8, q: int = 6, rank: int = 2,
                           bias: float = 0.1, margin: float = 0.5,
                           seed: int = 0) -> tuple[Dataset, np.ndarray, float]:
    """Synthetic margin-separated data from a planted low-rank direction.

    Draws W* = U V^T with standard normal factors, rescales it to unit
    Frobenius norm so scores are roughly N(0, ||X|| scale) and the ``margin``
    cutoff is meaningful, then samples standard normal matrices, labels them
    by sign(<W*, X> + bias), and rejects draws with |score| < margin.

    Returns (dataset, W*, bias).
    """
    if m < 2:
        raise InvalidArgumentError("need at least two samples")
    rng = np.random.Generator(np.random.PCG64(seed))
    w_star = rng.standard_normal((p, rank)) @ rng.standard_normal((q, rank)).T
    w_star /= np.linalg.norm(w_star)
    xs = np.empty((m, p, q))
    ys = np.empty(m, dtype=np.int8)
    count = 0
    while count < m:
        x = rng.standard_normal((p, q))
        score = float(decision_scores(w_star, bias, x[None])[0])
        if abs(score) < margin:
            continue
        xs[count] = x
        ys[count] = 1 if score > 0 else -1
        count += 1
    data = Dataset(xs=xs, ys=ys, name="synthetic-lowrank",
                   provenance=(f"planted rank-{rank} direction, m={m}, "
                               f"margin>={margin}, seed={seed}"))
    data.require_both_labels()
    return data, w_star, bias
