"""Property tests at the CLI boundary: fuzzed input files and flags.

Whatever the model, state, observables and record files hold (wrong
types, NaN or inf entries, ragged rows, stray bytes) and whatever
``--seed``, ``--sigma`` and ``--max-attempts`` say, ``main`` returns one
of the documented exit codes and never raises; a successful run writes no
non-finite number, and every ``--json`` document parses with NaN and
Infinity rejected.  The runs are derandomized and keep no example
database, so the suite stays deterministic.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strobe_tomo import (
    build_generator,
    default_time_grid,
    find_observables,
    laser_cooling_model,
    matrix_to_json,
    model_to_json,
    read_record_csv,
    simulate_measurements,
    spectral_report,
    write_record_csv,
)
from strobe_tomo.cli import main

from helpers import random_density, random_model

# fuzzed magnitudes overflow numpy on purpose; the checks below judge the outcome
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

DOCUMENTED_CODES = {0, 2, 3, 4, 5, 6}

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])

# Integers reach past the float range, floats include NaN and both infinities.
NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
)
# Every JSON value, nested a little; dicts may or may not look like {re, im} entries.
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=4),
              st.fixed_dictionaries({"re": NUMBERS, "im": NUMBERS})),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=10,
)
CSV_TOKENS = st.one_of(
    NUMBERS.map(str),
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "-1", "0", "1.5", "x"]),
    st.text(max_size=4),
)
SEEDS = st.one_of(st.integers(0, 9), st.integers(0, 2**70), st.integers(-3, -1),
                  st.sampled_from(["x", "1.5", "", "-0", "1e3"])).map(str)
SIGMAS = st.one_of(st.sampled_from(["0", "1e-3"]), st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.sampled_from(["-0.0", "x", ""]))
# Kept small: a valid but huge attempt count only makes an exhausted search slow.
MAX_ATTEMPTS = st.one_of(st.integers(1, 3), st.integers(-2, 0), st.sampled_from(["x", "1.0", ""])).map(str)


def _cooling_inputs():
    """Valid JSON documents and record text for the laser-cooling model."""
    model = laser_cooling_model(1.0, 2.0)
    gen = build_generator(model)
    observables = find_observables(gen, seed=3)
    rho0 = random_density(3, np.random.default_rng(0))
    grid = default_time_grid(spectral_report(gen))
    record = simulate_measurements(model, rho0, observables, grid, noise_sigma=1e-6, seed=1)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "record.csv"
        write_record_csv(record, path)
        record_text = path.read_text()
    return {
        "model": model_to_json(model),
        # nine simple eigenvalues: scaled up, its minimal polynomial overflows
        "generic model": model_to_json(random_model(3, np.random.default_rng(1))),
        "state": matrix_to_json(rho0),
        "obs": [matrix_to_json(q) for q in observables],
        "record": record_text,
    }


@pytest.fixture(scope="module")
def valid():
    return _cooling_inputs()


def _nodes(value, path=()):
    """Paths to every node of a JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _scaled(value, factor: float):
    """A JSON value with every float in it multiplied by ``factor``."""
    if isinstance(value, float):
        return value * factor
    if isinstance(value, list):
        return [_scaled(item, factor) for item in value]
    if isinstance(value, dict):
        return {key: _scaled(item, factor) for key, item in value.items()}
    return value


def _with_stray_bytes(data, raw: bytes) -> bytes:
    pos = data.draw(st.integers(0, len(raw)), label="stray position")
    return raw[:pos] + data.draw(st.binary(min_size=1, max_size=4), label="stray bytes") + raw[pos:]


def _json_file(data, doc) -> bytes:
    """The valid document, scaled, one number or node of it replaced, an arbitrary value, or stray bytes."""
    kind = data.draw(st.sampled_from(["valid", "scaled", "number", "node", "arbitrary", "stray"]),
                     label="json fuzz")
    if kind == "scaled":
        doc = _scaled(doc, float(f"1e{data.draw(st.integers(-330, 330), label='decades')}"))
    elif kind == "number":
        numbers = [path for path in _nodes(doc) if isinstance(_at(doc, path), (int, float))]
        path = data.draw(st.sampled_from(numbers), label="number")
        doc = _replaced(doc, path, data.draw(NUMBERS, label="new number"))
    elif kind == "node":
        path = data.draw(st.sampled_from(list(_nodes(doc))), label="node")
        doc = _replaced(doc, path, data.draw(JSON_VALUES, label="new node"))
    elif kind == "arbitrary":
        doc = data.draw(JSON_VALUES, label="document")
    raw = json.dumps(doc).encode()
    return _with_stray_bytes(data, raw) if kind == "stray" else raw


def _csv_file(data, text: str) -> bytes:
    """The valid record, some rows dropped, one cell replaced, one row made ragged, or stray bytes."""
    kind = data.draw(st.sampled_from(["valid", "drop", "cell", "ragged", "stray"]), label="csv fuzz")
    rows = [line.split(",") for line in text.splitlines()]
    if kind == "drop":
        keep = data.draw(st.lists(st.booleans(), min_size=len(rows) - 1, max_size=len(rows) - 1), label="keep")
        rows = rows[:1] + [row for row, kept in zip(rows[1:], keep) if kept]
    elif kind == "cell":
        row = data.draw(st.integers(0, len(rows) - 1), label="row")
        col = data.draw(st.integers(0, 3), label="column")
        rows[row][col] = data.draw(CSV_TOKENS, label="cell")
    elif kind == "ragged":
        row = data.draw(st.integers(0, len(rows) - 1), label="row")
        rows[row] = rows[row][:-1] if data.draw(st.booleans(), label="drop") else rows[row] + ["0"]
    raw = "\n".join(",".join(row) for row in rows).encode("utf-8", "surrogatepass") + b"\n"
    return _with_stray_bytes(data, raw) if kind == "stray" else raw


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in JSON output")
    return json.loads(text, parse_constant=reject)


def _run(argv) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in DOCUMENTED_CODES, (code, argv)
    return code, stdout.getvalue()


def _write_inputs(data, folder: Path, inputs: dict) -> dict:
    """Write each valid input to a file of its name, at most one fuzzed; return the paths.

    A string is record CSV text, anything else a JSON document.
    """
    fuzzed = data.draw(st.sampled_from(list(inputs)), label="fuzzed file")
    paths = {}
    for name, content in inputs.items():
        if isinstance(content, str):
            raw = _csv_file(data, content) if name == fuzzed else content.encode()
        else:
            raw = _json_file(data, content) if name == fuzzed else json.dumps(content).encode()
        (folder / name).write_bytes(raw)
        paths[name] = str(folder / name)
    return paths


@FUZZ
@given(data=st.data())
def test_analyze_fuzzed_model(valid, data):
    source = data.draw(st.sampled_from(["model", "generic model"]), label="base model")
    with tempfile.TemporaryDirectory() as folder:
        paths = _write_inputs(data, Path(folder), {"model": valid[source]})
        code, out = _run(["analyze", paths["model"], "--json"])
    if code == 0:
        assert _strict_json(out)["analysis"]["eta"] >= 1


@FUZZ
@given(data=st.data(), seed=SEEDS, attempts=MAX_ATTEMPTS)
def test_find_observables_fuzzed_model_and_flags(valid, data, seed, attempts):
    with tempfile.TemporaryDirectory() as folder:
        paths = _write_inputs(data, Path(folder), {"model": valid["model"]})
        out = Path(folder) / "obs.json"
        code, _ = _run(["find-observables", paths["model"], f"--seed={seed}",
                        f"--max-attempts={attempts}", "--out", str(out)])
        if code == 0:
            assert len(_strict_json(out.read_text())) >= 1


@FUZZ
@given(data=st.data(), seed=SEEDS, sigma=SIGMAS)
def test_simulate_fuzzed_files_and_flags(valid, data, seed, sigma):
    with tempfile.TemporaryDirectory() as folder:
        paths = _write_inputs(data, Path(folder), {name: valid[name] for name in ("model", "state", "obs")})
        out = Path(folder) / "record.csv"
        code, _ = _run(["simulate", paths["model"], paths["state"], paths["obs"],
                        f"--seed={seed}", f"--sigma={sigma}", "--out", str(out)])
        if code == 0:
            # the record reader rejects non-finite times, values and sigmas
            assert read_record_csv(out).entries
        else:
            assert not out.exists()


@FUZZ
@given(data=st.data(), truth=st.booleans())
def test_reconstruct_fuzzed_files(valid, data, truth):
    names = ("model", "obs", "record") + (("state",) if truth else ())
    with tempfile.TemporaryDirectory() as folder:
        paths = _write_inputs(data, Path(folder), {name: valid[name] for name in names})
        argv = ["reconstruct", paths["model"], paths["obs"], paths["record"], "--json"]
        if truth:
            argv += ["--truth", paths["state"]]
        code, out = _run(argv)
    if code == 0:
        result = _strict_json(out)["result"]
        assert result["design_rank"] == 9
