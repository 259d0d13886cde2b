"""Property-based tests of the file formats and of the solver's invariants.

File formats: round trips, truncation, corruption, JSON documents with one
fault (an added key, a missing key, a value of another JSON kind), and CSV
texts that the C reader and the row loop must load alike.  Solver (every step
policy): sufficient decrease along every returned trace and a
rank-feasible returned model, whatever the stop status; the public objective
equals the first row of the trace bit for bit; the b block's closed form
agrees with an exactly rounded sum; the slack block at tau2 = 0 attains the
truncated squared hinge min(sigma v_+^2, beta) per sample.  KKT: the
normal-cone residual from the r leading singular vectors equals the one from
full complement bases.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hlsmm import (
    DataError,
    Dataset,
    DatasetManifest,
    Hyperparams,
    StepPolicy,
    ModelState,
    fit,
    load_csv,
    load_model,
    load_smm1,
    penalized_objective,
    prox_heaviside,
    save_model,
    save_smm1,
    svd,
)
from hlsmm import data as data_module
from hlsmm import kkt
from hlsmm.cli import main
from hlsmm.model import _hard_threshold
from hlsmm.solver import _b_step, _Lanes, _Problem, _small_buffer

from conftest import make_rng, peak_bytes, random_dataset

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
                        max_halvings=draw(st.integers(0, 60))))
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

        def load_refused():
            with pytest.raises(DataError, match="expected"):
                load_smm1(path)

        assert peak_bytes(load_refused) < 64 * 1024


@st.composite
def csv_fields(draw, value: float) -> str:
    """``value`` spelled as a CSV field: repr, %.6g, an exponent, an integer
    or, for zero, a negative zero; perhaps padded with whitespace and
    perhaps quoted."""
    spellings = [repr(value), f"{value:.6g}", f"{value:.3e}", str(int(value))]
    text = draw(st.sampled_from(spellings + ["-0"] * (value == 0)))
    pad = st.sampled_from(["", " ", "\t", "  "])
    if draw(st.booleans()):
        text = draw(pad) + text + draw(pad)
    if draw(st.booleans()):
        text = f'"{text}"'
    return text


# Faults, one to a file: a ragged row, a whitespace-only line, a field
# replaced, or an empty file.
CSV_MUTATIONS = ("ragged", "blank", "x", "", "nan", "-inf", "1_0", "\u0661", "empty")


@st.composite
def csv_files(draw):
    """(text, label_column, reshape, has_header): a CSV text near what
    load_csv accepts, with one mutation at most.

    Rows of one to five fields, the label anywhere (negative columns and
    out-of-range ones too) in one of the three encodings or an unknown one;
    blank lines; LF, CRLF and bare CR line endings; headers, one of them a
    quoted field that spans lines and one a quote that never closes.
    """
    width = draw(st.integers(1, 5))
    column = draw(st.integers(-width - 1, width))
    labels = draw(st.sampled_from([(-1, 1), (0, 1), (1, 2), (1, 3)]))
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        values = [draw(finite) for _ in range(width - 1)]
        values.insert(column % width, float(draw(st.sampled_from(labels))))
        lines.append([draw(csv_fields(value)) for value in values])
    mutation = draw(st.none() | st.sampled_from(CSV_MUTATIONS))
    row = draw(st.integers(0, len(lines) - 1))
    if mutation == "ragged":
        lines[row] = lines[row][:-1] if draw(st.booleans()) else lines[row] + ["1"]
    elif mutation not in (None, "blank", "empty"):
        lines[row][draw(st.integers(0, width - 1))] = mutation
    lines = [",".join(fields) for fields in lines]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    if mutation == "blank":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([" ", "\t"])))
    has_header = draw(st.booleans())
    if has_header:
        lines.insert(0, draw(st.sampled_from(["label,a,b", '"a\nb",c', '"a', ""])))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if mutation == "empty":
        text = ""
    reshape = draw(st.sampled_from([None, None, (1, max(1, width - 1)), (2, 2)]))
    return text, column, reshape, has_header


def csv_outcome(load, path, column, reshape, has_header):
    """The loaded dataset's shape, feature bits, labels and name, or the
    error's type and message."""
    try:
        data = load(path, column, reshape, has_header)
    except Exception as exc:  # both loaders must raise alike, whatever they raise
        return type(exc), str(exc)
    return data.xs.shape, data.xs.view(np.int64).tolist(), data.ys.tolist(), data.name


class TestCsvFiles:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(file=csv_files())
    def test_c_reader_agrees_with_the_row_loop(self, tmp_path, file):
        # The row loop defines what load_csv accepts and what it reports.
        text, *args = file
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert (csv_outcome(load_csv, path, *args)
                == csv_outcome(data_module._read_rows, path, *args))


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


def json_kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {dict: "object", list: "array", str: "string", type(None): "null"}[type(value)]


KIND_EXAMPLES = {"object": {}, "array": [], "string": "x", "bool": True, "number": 1}


def json_objects(doc: dict) -> list[dict]:
    """``doc`` and every JSON object nested in it."""
    found = [doc]
    for value in doc.values():
        if isinstance(value, dict):
            found += json_objects(value)
    return found


@st.composite
def one_fault(draw, doc: dict, required) -> dict:
    """A copy of ``doc`` with one fault at a random nesting level.

    The fault is an added key, a deleted key for which ``required(key)`` holds,
    or a non-null value replaced by one of another JSON kind (not null, as a
    null may be legal where a number or an array is).
    """
    doc = json.loads(json.dumps(doc))
    objects = json_objects(doc)
    fault = draw(st.sampled_from(["add", "delete", "retype"]))
    if fault == "add":
        target = draw(st.sampled_from(objects))
        key = draw(st.text(max_size=8).filter(lambda key: key not in target))
        target[key] = draw(st.none() | st.booleans() | st.integers() | st.text(max_size=4))
    elif fault == "delete":
        target, key = draw(st.sampled_from(
            [(obj, key) for obj in objects for key in obj if required(key)]))
        del target[key]
    else:
        target, key = draw(st.sampled_from(
            [(obj, key) for obj in objects for key, value in obj.items()
             if value is not None]))
        kind = draw(st.sampled_from(sorted(set(KIND_EXAMPLES) - {json_kind(target[key])})))
        target[key] = KIND_EXAMPLES[kind]
    return doc


@st.composite
def repeated_key(draw, doc: dict) -> str:
    """JSON text of ``doc`` in which one object, at a random nesting level,
    holds one of its keys twice, both times with its own value."""
    target, key = draw(st.sampled_from(
        [(obj, key) for obj in json_objects(doc) for key in obj]))

    def dumps(value):
        if not isinstance(value, dict):
            return json.dumps(value)
        items = list(value.items()) + ([(key, value[key])] if value is target else [])
        return "{" + ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in items) + "}"

    return dumps(doc)


@pytest.fixture
def eval_inputs(tmp_path):
    """A 2x3 CSV dataset, a model file for it and a manifest naming every key."""
    data = tmp_path / "d.csv"
    data.write_text("1,0,0,0,0,0,1\n-1,1,1,1,1,1,0\n")
    model = tmp_path / "model.json"
    save_model(model, np.eye(2, 3), 0.5, Hyperparams(beta=0.1, sigma=0.2, rank=1))
    manifest = {"format": "csv", "path": str(data), "reshape": [2, 3],
                "label_column": 0, "has_header": False, "normalization": "none"}
    return data, model, manifest


class TestMalformedDocuments:
    @FILES
    @given(data=st.data())
    def test_model_file_with_one_fault_is_data_error(self, tmp_path, eval_inputs, data):
        csv_path, model_path, _ = eval_inputs
        doc = data.draw(one_fault(json.loads(model_path.read_text()), lambda key: True))
        path = tmp_path / "faulty.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_model(path)
        assert main(["eval", "--model", str(path), "--data", str(csv_path),
                     "--reshape", "2", "3"]) == 3

    @FILES
    @given(data=st.data())
    def test_manifest_with_one_fault_is_data_error(self, tmp_path, eval_inputs, data):
        _, model_path, manifest = eval_inputs
        doc = data.draw(one_fault(manifest, lambda key: key == "path"))
        path = tmp_path / "faulty-manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            DatasetManifest.from_json(path.read_text())
        assert main(["eval", "--model", str(model_path), "--manifest", str(path)]) == 3

    @FILES
    @given(data=st.data())
    def test_model_file_with_a_repeated_key_is_data_error(self, tmp_path, eval_inputs,
                                                          data):
        csv_path, model_path, _ = eval_inputs
        path = tmp_path / "repeated.json"
        path.write_text(data.draw(repeated_key(json.loads(model_path.read_text()))))
        with pytest.raises(DataError, match="duplicate key"):
            load_model(path)
        assert main(["eval", "--model", str(path), "--data", str(csv_path),
                     "--reshape", "2", "3"]) == 3

    @FILES
    @given(data=st.data())
    def test_manifest_with_a_repeated_key_is_data_error(self, tmp_path, eval_inputs,
                                                        data):
        _, model_path, manifest = eval_inputs
        path = tmp_path / "repeated-manifest.json"
        path.write_text(data.draw(repeated_key(manifest)))
        with pytest.raises(DataError, match="duplicate key"):
            DatasetManifest.from_json(path.read_text())
        assert main(["eval", "--model", str(model_path), "--manifest", str(path)]) == 3

    def test_documents_without_a_fault_load(self, tmp_path, eval_inputs):
        _, model_path, manifest = eval_inputs
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["eval", "--model", str(model_path), "--manifest", str(path)]) == 0


STEP_POLICIES = {
    "default": StepPolicy(),
    "halving": StepPolicy(alpha0=4.0, max_halvings=8),  # starts long, so it halves
    "fixed": StepPolicy(kind="fixed"),
    "stalling": StepPolicy(alpha0=1e6, max_halvings=2),  # overshoots past two halvings
}


@st.composite
def fit_problems(draw):
    """A small random dataset and an exact-mode configuration for it."""
    p, q = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    data = random_dataset(draw(st.integers(0, 10_000)), m=draw(st.integers(6, 40)),
                          p=p, q=q)
    taus = st.sampled_from((1e-4, 1e-3, 1e-2, 1e-1))
    hp = Hyperparams(
        beta=draw(st.sampled_from((0.01, 0.1, 0.5, 2.0))),
        sigma=draw(st.sampled_from((0.01, 0.1, 1.0))),
        rank=draw(st.integers(1, min(p, q) - 1)),
        tau1=draw(taus), tau2=draw(taus), tau3=draw(taus),
        maxit=draw(st.integers(0, 40)),
        step=STEP_POLICIES[draw(st.sampled_from(sorted(STEP_POLICIES)))])
    return data, hp


def assert_descent_and_feasibility(result, hp):
    """f_{k-1} - f_k >= min(tau)/2 (dW^2 + dz^2 + db^2) - 1e-9, and rank(W) <= r."""
    trace = result.trace
    tau = min(hp.tau1, hp.tau2, hp.tau3)
    for k in range(1, len(trace)):
        steps = trace.w_step[k] ** 2 + trace.z_step[k] ** 2 + trace.b_step[k] ** 2
        assert trace.objective[k - 1] - trace.objective[k] >= tau / 2 * steps - 1e-9
    assert svd(result.model.w).rank <= hp.rank


class TestSolverInvariants:
    @settings(max_examples=80, deadline=None)
    @given(problem=fit_problems())
    def test_random_fits(self, problem):
        data, hp = problem
        assert_descent_and_feasibility(fit(data, hp), hp)

    @pytest.mark.parametrize("policy, maxit, status", [
        ("default", 1000, "converged"), ("default", 3, "max_iter"),
        ("halving", 5, "max_iter"), ("fixed", 4, "max_iter"),
        ("stalling", 1000, "stalled")])
    def test_every_stop_status(self, synthetic, default_hp, policy, maxit, status):
        hp = default_hp.with_(step=STEP_POLICIES[policy], maxit=maxit)
        result = fit(synthetic[0], hp)
        assert result.trace.status == status
        assert_descent_and_feasibility(result, hp)


@st.composite
def objective_points(draw):
    """A small dataset, a configuration and a state whose W has rank <= r."""
    p, q = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    m = draw(st.integers(2, 30))
    data = random_dataset(draw(st.integers(0, 10_000)), m=m, p=p, q=q)
    rank = draw(st.integers(1, min(p, q) - 1))
    entries = st.floats(-3.0, 3.0)
    w = (draw(arrays(np.float64, (p, rank), elements=entries))
         @ draw(arrays(np.float64, (rank, q), elements=entries)))
    # Exact zeros sit on the loss's boundary z > 0.
    z = draw(arrays(np.float64, m, elements=st.just(0.0) | entries))
    state = ModelState(w=w, b=draw(entries), z=z)
    scale = st.floats(1e-3, 1e2)
    hp = Hyperparams(beta=draw(scale), sigma=draw(scale), rank=rank)
    return state, data, hp


class TestObjective:
    @settings(max_examples=200, deadline=None)
    @given(point=objective_points())
    def test_public_objective_is_the_traced_one(self, point):
        state, data, hp = point
        traced = fit(data, hp.with_(maxit=0), init=state).trace.objective[0]
        assert penalized_objective(state, data, hp) == traced


@st.composite
def bias_blocks(draw):
    """A dataset and the b block's input on a few lanes: configurations, scores,
    slack and previous biases, each lane's entries on its own scale."""
    count, m = draw(st.integers(1, 4)), draw(st.integers(2, 3000))
    data = random_dataset(draw(st.integers(0, 10_000)), m=m, p=1, q=1)
    scales = st.sampled_from((1e-3, 1.0, 1e3))
    configurations = [Hyperparams(beta=0.1, sigma=draw(scales), rank=1, tau3=draw(scales))
                      for _ in range(count)]
    gen = make_rng(draw(st.integers(0, 10_000)))
    size = np.array([draw(scales) for _ in range(count)])[:, None]
    s, z = gen.standard_normal((2, count, m)) * size
    return data, configurations, s, z, gen.standard_normal(count)


class TestBiasBlock:
    # numpy's pairwise sum errs by at most about (16 + log2(m / 128)) eps
    # times the sum of the magnitudes, under 6e-15 at m = 3000.
    TOLERANCE = 1e-14

    @settings(max_examples=100, deadline=None)
    @given(block=bias_blocks())
    def test_closed_form_within_tolerance_of_an_exact_sum(self, block):
        data, configurations, s, z, b = block
        problem = _Problem(data)
        lanes = _Lanes(configurations, [[k] for k in range(len(configurations))])
        result = _b_step(problem, lanes, s, z, b)
        ys = data.ys.tolist()
        for k, hp in enumerate(configurations):
            terms = [y * (zi - 1.0) for y, zi in zip(ys, z[k].tolist())] + s[k].tolist()
            denominator = 2.0 * hp.sigma * data.m + hp.tau3
            exact = (hp.tau3 * b[k] - 2.0 * hp.sigma * math.fsum(terms)) / denominator
            scale = (hp.tau3 * abs(b[k]) + 2.0 * hp.sigma * math.fsum(map(abs, terms)))
            assert abs(result[k] - exact) <= self.TOLERANCE * scale / denominator
            # A row's sum does not read the other rows.
            alone = _b_step(problem, _Lanes([hp], [[0]]), s[k:k + 1], z[k:k + 1], b[k:k + 1])
            assert alone.tobytes() == result[k:k + 1].tobytes()


@st.composite
def threshold_stacks(draw):
    """A (K, m) stack with one gamma >= 0 per lane.  A lane's entries mix
    any double (NaNs with payloads, subnormals) with +-0.0, +-inf, NaN of
    both signs, the smallest subnormals and its threshold t = sqrt(2 gamma)
    with its neighbours."""
    count, m = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    gammas = draw(arrays(np.float64, (count, 1),
                         elements=st.one_of(
                             st.floats(min_value=0.0, allow_nan=False).map(abs),
                             st.sampled_from([0.0, 5e-324, 0.5, 2.0, np.inf]))))
    rows = []
    for t in np.sqrt(2.0 * gammas[:, 0]).tolist():
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                   t, np.nextafter(t, 0.0), np.nextafter(t, np.inf)]
        rows.append(draw(arrays(np.float64, m, elements=st.one_of(
            st.floats(width=64), st.sampled_from(special)))))
    return np.stack(rows), gammas


class TestHardThreshold:
    """The prox tie rule: one mask on the bits equals the two comparisons."""

    # 2 gamma overflows to inf for the largest gammas, as it may in the solver.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(stack=threshold_stacks())
    def test_one_mask_equals_two_comparisons(self, stack):
        x, gamma = stack
        expected = x.copy()
        expected[(x > 0) & (x <= np.sqrt(2.0 * gamma))] = 0.0
        result = _hard_threshold(x.copy(), gamma)
        assert result.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()

    @pytest.mark.parametrize("shape", [(1, 40000), (45, 398)])
    def test_holds_no_more_than_one_mask(self, shape):
        # The multiply casts the bools to words in numpy's ufunc buffer, 8 KiB
        # in the kernel, so the prox runs on two halves of the stack: their
        # mask and the buffer stay within one bool mask of the whole stack.
        # The stack (1, 40000) is a lone lane of m = 40000, (45, 398) the
        # reference grid's widest batch; one multiply over either would hold
        # its mask, the buffer and 1.7 KiB more.
        x = make_rng(7).standard_normal(shape)
        gamma = np.full((shape[0], 1), 0.5)
        with _small_buffer():
            peak = peak_bytes(lambda: _hard_threshold(x, gamma))
        assert peak <= x.size + 4096


@st.composite
def slack_problems(draw):
    """Margins v with beta and sigma.  The entries mix values of either sign
    with +-0.0 and the prox threshold sqrt(beta / sigma) with its neighbours."""
    weights = st.floats(1e-6, 1e3)
    beta, sigma = draw(weights), draw(weights)
    t = math.sqrt(2.0 * (beta / (2.0 * sigma)))
    special = [0.0, -0.0, t, np.nextafter(t, 0.0), np.nextafter(t, np.inf)]
    v = draw(arrays(np.float64, draw(st.integers(1, 300)), elements=st.one_of(
        st.floats(-1e3, 1e3), st.sampled_from(special))))
    return v, beta, sigma


class TestSlackBlock:
    """At tau2 = 0 the slack block minimizes the coupling out exactly:
    min_z beta [z > 0] + sigma (z - v)^2 = min(sigma v_+^2, beta) per sample,
    so a fit at fixed sigma minimizes a truncated squared hinge of its margins."""

    # Every term is non-negative, so both sides err relatively: the left's
    # dot product by at most m eps (m <= 300), each term by a few eps; at the
    # threshold the two branches differ by a few eps of beta.
    TOLERANCE = 1e-13

    @settings(max_examples=200, deadline=None)
    @given(problem=slack_problems())
    def test_prox_attains_the_truncated_squared_hinge(self, problem):
        v, beta, sigma = problem
        z = prox_heaviside(v, beta / (2.0 * sigma))
        attained = beta * np.count_nonzero(z > 0) + sigma * float(np.dot(z - v, z - v))
        envelope = math.fsum(min(sigma * max(x, 0.0) ** 2, beta) for x in v.tolist())
        assert abs(attained - envelope) <= self.TOLERANCE * envelope


@st.composite
def cone_problems(draw):
    """A rank-r W (p, q <= 8) with singular values in [1e-3, 1e3], and data
    and a multiplier that make G = W + A*(lambda) a random matrix."""
    p, q = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    r = draw(st.integers(1, min(p, q) - 1))
    sigma = np.sort(draw(arrays(np.float64, r, elements=st.floats(1e-3, 1e3))))[::-1]
    m = draw(st.integers(1, 4))
    gen = make_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(gen.standard_normal((p, r)))[0]
    v = np.linalg.qr(gen.standard_normal((q, r)))[0]
    data = Dataset(xs=gen.standard_normal((m, p, q)),
                   ys=np.where(gen.integers(0, 2, size=m) == 1, 1, -1))
    return (u * sigma) @ v.T, gen.standard_normal(m), data, r


class TestConeResidual:
    """The thin form sqrt(||U^T G||^2 + ||G V - U (U^T G V)||^2) of the
    normal-cone residual equals ||G - U_perp (U_perp^T G V_perp) V_perp^T||_F
    with the complement bases of a full SVD."""

    # Both forms err by a few eps of ||G||, and the residual of a random G
    # is a fair share of ||G||.
    TOLERANCE = 1e-10

    @settings(max_examples=200, deadline=None)
    @given(problem=cone_problems())
    def test_thin_equals_full_basis_reference(self, problem):
        w, lam, data, r = problem
        factors = svd(w)
        assert factors.rank == r
        # G = W - X^T (y lambda), the solver's gradient at the gap -lambda
        # with 2 sigma = 1.
        g = _Problem(data).gradient(w[None], -lam[None], np.array([0.5]))[0]
        u, _, vh = np.linalg.svd(w, full_matrices=True)
        u_perp, v_perp = u[:, r:], vh[r:].T
        reference = np.linalg.norm(g - u_perp @ (u_perp.T @ g @ v_perp) @ v_perp.T)
        thin = kkt._cone_residual(g, factors, r)
        assert abs(thin - reference) <= self.TOLERANCE * reference
