"""Per-input answers of the benchmark workloads, recorded on one checkout and compared.

Record the answers of a checkout (run from anywhere; ``CHECKOUT`` is the
root of a source tree with ``src/`` and ``perfbench/``)::

    python3 tools/same_answers.py record CHECKOUT --out answers.json \\
        --seeds 1 2 3 --rounds paper-loop=40 generic-spectrum=6 generic-search=500 long-record=8

Each input is made, run and checked by the checkout's own
``perfbench/workloads.py`` and ``perfbench/oracle.py``, untimed.  For each
one the file holds ``eta``, ``mu``, the failure causes, ``rho_hat``, the
design rank and condition that ``reconstruct`` reported, and two
SHA-256 hashes of the generator that a fresh model of the input builds:
of its ``hermitian_form`` bytes, and of its clusters (each value's
bytes, its multiplicities and index); or, for both, the name of the
exception the build or the report raised.  It also holds
``verify_ranks``, the ``achieved_rank`` that ``verify_observables``
reports on that generator for three sets of ``eta - 1``, ``eta`` and
``eta + 1`` random hermitian observables drawn here from a fixed seed
(:data:`VERIFY_SEED`), so rank-deficient chains are compared too; a
call that raises gives its exception's name.  For an input whose
workload searches for observables, ``observables_sha256`` is the
SHA-256 of the bytes of the set ``find_observables`` returned, or the
name of the exception it raised.  For a
long-record input it also holds the SHA-256 of the CSV that
``write_record_csv`` makes of two fixed records, whose values the oracle
computes with one exponential per instant, and whether ``read_record_csv``
reads each file back to the same entries.  The first record is
noiseless, with sigma 0; the second adds seeded Gaussian noise of sigma
1e-6 and holds 1e-6 in its sigma column.  (The record the workload
simulates itself may differ between checkouts in the last bits of its
values.)  Each CSV is also re-spelled (:data:`RESPELLINGS`: every field
quoted, LF line ends, cells padded with spaces and tabs, digits grouped
with ``_``) and read back, and the file holds the SHA-256 of the entries
each re-spelling reads as.  Compare two such files::

    python3 tools/same_answers.py compare parent.json change.json

The comparison lists every input whose ``eta``, ``mu``, causes, design
rank, spectral hashes, observables hash, verification ranks, CSV bytes,
CSV roundtrips or re-spelled reads differ, or whose ``rho_hat`` differs from the first
file's by more than 1e-14 times the first file's design condition, or
1e-12 where that condition is below 100 (Frobenius): an allowance that
grows with the condition, as the solve's roundoff does, without a jump.
It also prints how many inputs have a ``rho_hat`` that is bit for bit
the same in both files, and exits with 1 when it lists anything.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, as in the benchmark, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import re
import shutil
import tempfile

import numpy as np
import scipy.linalg

#: rounds per workload when ``--rounds`` does not name it
DEFAULT_ROUNDS = {"paper-loop": 40, "generic-spectrum": 6, "generic-search": 500, "long-record": 8}
#: rho_hat must agree to this multiple of the design condition ...
RELATIVE_TOL = 1e-14
#: ... or of this condition, where the design's is lower
CONDITION_FLOOR = 100.0
#: differences printed per field
SHOWN = 20
#: noise level and noise seed of the second oracle record
NOISY_SIGMA = 1e-6
NOISE_SEED = 0
#: seed of the observable sets whose spanning ranks are recorded
VERIFY_SEED = 0
#: spellings of a written record CSV that read back to the same entries; ``int()`` and
#: ``float()`` read the last one (``_`` between digits) but ``np.loadtxt`` does not, so
#: ``read_record_csv`` reads it line by line
RESPELLINGS = {
    "quoted": lambda text: re.sub(r"[^,\r\n]+", r'"\g<0>"', text),
    "lf": lambda text: text.replace("\r\n", "\n"),
    "padded": lambda text: re.sub(r"[^,\r\n]+", " \\g<0>\t", text),
    "underscored": lambda text: re.sub(r"(?<=\d)(?=\d)", "_", text),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the workloads of one checkout and write its answers")
    rec.add_argument("checkout", help="root of the source checkout to run")
    rec.add_argument("--out", required=True, help="output JSON path")
    rec.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    rec.add_argument("--rounds", nargs="+", default=[], metavar="WORKLOAD=N",
                     help="rounds per workload (defaults: %s)"
                          % " ".join(f"{k}={v}" for k, v in DEFAULT_ROUNDS.items()))
    cmp_ = sub.add_parser("compare", help="list the inputs whose answers differ")
    cmp_.add_argument("first", help="answers of the reference checkout")
    cmp_.add_argument("second", help="answers of the checkout under test")
    return parser.parse_args(argv)


def rounds_per_workload(items: list[str]) -> dict[str, int]:
    rounds = dict(DEFAULT_ROUNDS)
    for item in items:
        name, _, count = item.partition("=")
        if name not in rounds or not count.isdigit():
            sys.exit(f"same_answers: bad --rounds item {item!r}; use WORKLOAD=N with WORKLOAD "
                     f"one of {', '.join(DEFAULT_ROUNDS)}")
        rounds[name] = int(count)
    return rounds


class DesignProbe:
    """Wraps ``reconstruct`` to keep the design rank and condition of its last call."""

    def __init__(self, reconstruct):
        self.reconstruct = reconstruct
        self.last: dict = {}

    def __call__(self, *args, **kwargs):
        try:
            result = self.reconstruct(*args, **kwargs)
        except Exception as exc:
            self.last = {"design_rank": getattr(exc, "achieved_rank", None)}
            raise
        self.last = {"design_rank": result.design_rank, "design_condition": result.design_condition}
        return result


class SearchProbe:
    """Wraps ``find_observables`` to keep the SHA-256 of the set its last call returned, or its error's name."""

    def __init__(self, find):
        self.find = find
        self.last: dict = {}

    def __call__(self, *args, **kwargs):
        try:
            found = self.find(*args, **kwargs)
        except Exception as exc:
            self.last = {"observables_sha256": type(exc).__name__}
            raise
        self.last = {"observables_sha256": hashlib.sha256(b"".join(q.tobytes() for q in found)).hexdigest()}
        return found


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random hermitian matrix drawn here, so every checkout verifies the same sets."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def verify_ranks(st, model) -> list | str:
    """The ``achieved_rank`` of ``verify_observables`` on ``eta - 1``, ``eta`` and ``eta + 1`` random
    observables, each call's exception name in its place; the build's or the report's exception name alone."""
    try:
        gen = st.build_generator(model)
        eta = st.spectral_report(gen).eta
    except Exception as exc:  # the answer is the failure
        return type(exc).__name__
    rng = np.random.default_rng(VERIFY_SEED)
    ranks = []
    for count in (eta - 1, eta, eta + 1):
        observables = [random_hermitian(gen.dim, rng) for _ in range(count)]
        try:
            ranks.append(st.verify_observables(gen, observables).achieved_rank)
        except Exception as exc:  # an empty set, for eta = 1
            ranks.append(type(exc).__name__)
    return ranks


def oracle_record(st, oracle, inp: dict, path: str, sigma: float = 0.0):
    """The record of a long-record input, its values computed by the oracle.

    With ``sigma > 0`` the values get Gaussian noise of that sigma, seeded
    with :data:`NOISE_SEED` and drawn in entry order, and the sigma column
    holds ``sigma``; otherwise the record is noiseless, with sigma 0.  The
    rows are written to ``path`` as CSV (``%d`` index, ``%.17g`` floats)
    and read back with ``read_record_csv``, so the record is built the
    same way on every checkout.
    """
    mat = oracle.superoperator(inp["ham"], inp["jumps"])
    duals = np.array([np.asarray(q, dtype=complex).reshape(-1).conj() for q in inp["observables"]])
    state = np.asarray(inp["rho0"], dtype=complex).reshape(-1)
    values = np.array([(duals @ (scipy.linalg.expm(t * mat) @ state)).real for t in inp["grid"]]).T
    if sigma > 0:
        values = values + np.random.default_rng(NOISE_SEED).normal(0.0, sigma, values.shape)
    count, size = values.shape
    entries = np.column_stack((np.arange(count).repeat(size), np.tile(inp["grid"], count),
                               values.reshape(-1), np.full(values.size, sigma)))
    with open(path, "w") as handle:
        handle.write("observable_index,time,value,sigma\n")
        handle.writelines("%d,%.17g,%.17g,%.17g\n" % tuple(row) for row in entries.tolist())
    return st.read_record_csv(path)


def spectral_answers(st, model) -> dict:
    """SHA-256 of the generator's ``hermitian_form`` bytes and of its cluster tuples, or the exception's name."""
    try:
        gen = st.build_generator(model)
        form = gen.hermitian_form.tobytes()
        clusters = st.spectral_report(gen).distinct_eigenvalues
    except Exception as exc:  # the answer is the failure
        return {"form_sha256": type(exc).__name__, "clusters_sha256": type(exc).__name__}
    digest = hashlib.sha256()
    for cluster in clusters:
        digest.update(np.array(cluster.value, dtype=complex).tobytes())
        digest.update(np.array(cluster[1:], dtype=np.int64).tobytes())
    return {"form_sha256": hashlib.sha256(form).hexdigest(), "clusters_sha256": digest.hexdigest()}


def csv_answers(st, oracle, inp: dict, path: str) -> dict:
    """For each oracle record's CSV: its SHA-256, whether reading it back gives the record,
    and the SHA-256 of the entries each of its :data:`RESPELLINGS` reads back as."""
    answers = {}
    for prefix, sigma in (("csv", 0.0), ("noisy_csv", NOISY_SIGMA)):
        rec = oracle_record(st, oracle, inp, path, sigma)
        st.write_record_csv(rec, path)
        with open(path, "rb") as handle:
            written = handle.read()
        answers[f"{prefix}_sha256"] = hashlib.sha256(written).hexdigest()
        back = st.read_record_csv(path)
        answers[f"{prefix}_roundtrip"] = back.entries.tobytes() == rec.entries.tobytes()
        respelled = {}
        for name, respell in RESPELLINGS.items():
            with open(path, "wb") as handle:
                handle.write(respell(written.decode()).encode())
            entries = st.read_record_csv(path).entries
            respelled[name] = hashlib.sha256(entries.tobytes()).hexdigest()
        answers[f"{prefix}_respelled_sha256"] = respelled
        os.remove(path)
    return answers


def record(args) -> None:
    root = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import strobe_tomo
    import strobe_tomo.cli
    import oracle
    import workloads

    if not os.path.abspath(strobe_tomo.__file__).startswith(os.path.join(root, "src") + os.sep):
        sys.exit(f"same_answers: imported strobe_tomo from {strobe_tomo.__file__}, not from {root}")
    probe = DesignProbe(strobe_tomo.reconstruct)
    search = SearchProbe(strobe_tomo.find_observables)
    # workloads calls strobe_tomo.reconstruct and find_observables, and the CLI its own imported names
    strobe_tomo.reconstruct = strobe_tomo.cli.reconstruct = probe
    strobe_tomo.find_observables = strobe_tomo.cli.find_observables = search
    answers = []
    workdir = tempfile.mkdtemp(prefix="same-answers-")
    try:
        for name, count in rounds_per_workload(args.rounds).items():
            wl = workloads.build(name, workdir)
            for seed in args.seeds:
                for k in range(count):
                    for cls, cls_name in enumerate(wl.classes):
                        inp = wl.make(seed, cls, k)
                        out: dict = {}
                        probe.last = search.last = {}
                        try:
                            wl.run(inp, out)
                        except Exception as exc:  # the answer is the failure's cause
                            out["error"] = type(exc).__name__
                        try:
                            causes = wl.check(inp, out)
                        except oracle.Unverifiable:
                            causes = ["unverifiable"]
                        entry = {"workload": name, "seed": seed, "class": cls_name, "round": k,
                                 "eta": out.get("eta"), "mu": out.get("mu"), "causes": causes,
                                 **probe.last, **search.last,
                                 **spectral_answers(strobe_tomo, workloads._model(inp)),
                                 "verify_ranks": verify_ranks(strobe_tomo, workloads._model(inp))}
                        if "rho_hat" in out:
                            rho = np.asarray(out["rho_hat"], dtype=complex)
                            entry["rho_hat"] = [rho.real.tolist(), rho.imag.tolist()]
                        if "paths" in inp:
                            entry.update(csv_answers(strobe_tomo, oracle, inp,
                                                     os.path.join(workdir, "oracle-record.csv")))
                        answers.append(entry)
            print(f"{name}: {sum(a['workload'] == name for a in answers)} inputs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as handle:
        json.dump({"checkout": root, "answers": answers}, handle)


def key(entry: dict) -> tuple:
    return entry["workload"], entry["seed"], entry["class"], entry["round"]


def bits(rho_hat: list) -> bytes:
    """The float64 bytes of a stored ``rho_hat``, so ``-0.0`` and ``0.0`` differ."""
    return np.array(rho_hat, dtype=float).tobytes()


def rho_gap(a: dict, b: dict) -> tuple[float, float] | None:
    """(Frobenius distance of the two rho_hat, allowed distance), or None when neither has one."""
    if "rho_hat" not in a and "rho_hat" not in b:
        return None
    if "rho_hat" not in a or "rho_hat" not in b:
        return float("inf"), 0.0
    ra, rb = (np.array(e["rho_hat"][0]) + 1j * np.array(e["rho_hat"][1]) for e in (a, b))
    condition = a.get("design_condition") or float("inf")
    return float(np.linalg.norm(ra - rb)), RELATIVE_TOL * max(condition, CONDITION_FLOOR)


def compare(args) -> int:
    with open(args.first) as handle:
        first = {key(e): e for e in json.load(handle)["answers"]}
    with open(args.second) as handle:
        second = {key(e): e for e in json.load(handle)["answers"]}
    common = sorted(first.keys() & second.keys())
    differences: dict[str, list[str]] = {}
    worst = 0.0
    identical = with_rho = 0
    for k in common:
        a, b = first[k], second[k]
        label = "{} seed {} {} round {}".format(*k)
        for field in ("eta", "mu", "causes", "design_rank", "form_sha256", "clusters_sha256",
                      "observables_sha256", "verify_ranks", "csv_sha256", "csv_roundtrip",
                      "csv_respelled_sha256", "noisy_csv_sha256", "noisy_csv_roundtrip",
                      "noisy_csv_respelled_sha256"):
            if a.get(field) != b.get(field):
                differences.setdefault(field, []).append(f"{label}: {a.get(field)!r} -> {b.get(field)!r}")
        gap = rho_gap(a, b)
        if gap is not None:
            with_rho += 1
            identical += "rho_hat" in a and "rho_hat" in b and bits(a["rho_hat"]) == bits(b["rho_hat"])
            distance, allowed = gap
            if allowed > 0:
                worst = max(worst, distance / allowed)
            if not distance <= allowed:
                differences.setdefault("rho_hat", []).append(
                    f"{label}: |delta| {distance:.3e} > {allowed:.3e} "
                    f"(condition {a.get('design_condition')})")
    missing = len(first.keys() ^ second.keys())
    print(f"compared {len(common)} inputs ({missing} in only one file); "
          f"largest rho_hat gap {worst:.3g} of its allowance; "
          f"rho_hat bit for bit the same on {identical} of {with_rho} inputs that have one")
    for field, lines in differences.items():
        print(f"{field}: {len(lines)} inputs differ")
        for line in lines[:SHOWN]:
            print(f"  {line}")
    return 1 if differences or missing else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.command == "record":
        record(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
