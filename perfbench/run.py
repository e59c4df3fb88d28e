"""Benchmark of strobe-tomo: four seeded closed-loop workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-loop --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds
the per-layer metrics of a separate traced run.  The line before it,
starting with ``report``, holds the environment, the failures by cause,
the accuracy and the self-checks.  ``--workload all`` runs each workload
in its own process and prints one table.
"""

import os
import sys

sys.dont_write_bytecode = True

#: BLAS threads, fixed before numpy loads (at most nproc)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from collections import Counter

import numpy
import scipy

import inputs
import oracle
import spans

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: the package's layers, as module names under strobe_tomo (errors has no functions)
LAYERS = ("lindblad", "operator_algebra", "analysis", "tomography", "cli")
#: set-up is repeated this many times and the median reported
SETUP_REPEATS = 5
#: the tail latency is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
#: key of the warm-up inputs, apart from the timed ones
WARMUP_INDEX = 10**9
#: dimensions of the traced spectral_report sweep
SWEEP_DIMS = (3, 4, 6, 8, 12, 16)
#: on the seed code one paper-loop operation makes exactly these calls
SEED_CALLS_PER_PAPER_OP = {
    "lindblad.build_generator": 3,
    "analysis.spectral_report": 2,
    "operator_algebra.minimal_polynomial": 3,
    "operator_algebra.expm": 6,
}

#: repeats of the reference computation, about 1 ms in all
REF_REPEATS = 5
REF_MATRIX = numpy.random.default_rng(0).standard_normal((3, 3)) * (1 + 1j)

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import strobe_tomo, strobe_tomo.cli; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json in {ROOT}: {exc}")


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE, SRC],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def reference_seconds() -> float:
    """Wall time of a fixed computation that does not use the package.

    Python overhead around small numpy calls, like the package's own code.
    On a shared machine the speed of such code drifts by tens of percent
    within seconds; an operation's time divided by the mean of the
    reference timed just before and just after it does not.
    """
    start = time.perf_counter()
    acc = 0.0
    for _ in range(REF_REPEATS):
        k = numpy.kron(REF_MATRIX, REF_MATRIX.conj())
        m = k @ k.conj().T + numpy.eye(9)
        acc += float(numpy.linalg.svd(m, compute_uv=False)[0]) + float(numpy.abs(numpy.linalg.eigvals(k)).sum())
        for i in range(50):
            acc += i * 0.5
    return time.perf_counter() - start


def run_loop(wl, seed: int, seconds: float, min_rounds: int = 1, tracer=None) -> list[dict]:
    """Closed loop over whole rounds (one input per class).

    Stops after the round in which ``seconds`` have passed, but not before
    ``min_rounds`` rounds.  Each operation is bracketed by two runs of the
    reference computation.
    """
    results = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        for cls in range(len(wl.classes)):
            inp = wl.make(seed, cls, k)
            out: dict = {}
            if tracer is not None:
                tracer.op = len(results)
            ref_before = reference_seconds()
            start = time.perf_counter()
            try:
                wl.run(inp, out)
            except Exception as exc:  # the operation failed; its cause is recorded
                out["error"] = type(exc).__name__
            elapsed = time.perf_counter() - start
            ref = (ref_before + reference_seconds()) / 2
            try:
                causes = wl.check(inp, out)
            except oracle.Unverifiable:
                causes = ["unverifiable"]
            results.append({
                "cls": wl.classes[cls], "k": k, "seconds": elapsed, "refs": elapsed / ref, "ref_s": ref,
                "causes": causes,
                "eta": out.get("eta"), "mu": out.get("mu"), "recon_err": out.get("recon_err"),
            })
        k += 1
        if k >= min_rounds and time.perf_counter() >= deadline:
            return results


def latency(results: list[dict], key: str = "seconds") -> dict:
    """Median and tail; the tail is None when there are too few samples for one."""
    ordered = sorted(r[key] for r in results)
    index = len(ordered) - 1 - TAIL_BEYOND
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[index] if index >= 0 else None,
        "tail_percentile": round(100.0 * (index + 1) / len(ordered), 2) if index >= 0 else None,
        "samples": len(ordered),
    }


def outcome_report(results: list[dict]) -> dict:
    causes = Counter(cause for r in results for cause in r["causes"])
    classes = Counter(r["cls"] for r in results)
    errors = [r["recon_err"] for r in results if r["recon_err"] is not None]
    failed = sum(1 for r in results if r["causes"])
    return {
        "attempted": len(results),
        "failed": failed,
        "failed_share": failed / len(results),
        "failures_by_cause": dict(causes),
        "class_share": {name: count / len(results) for name, count in classes.items()},
        "recon_err_p50": statistics.median(errors) if errors else None,
        "reconstructions": len(errors),
    }


def round_throughput(results: list[dict], key: str = "seconds") -> float:
    """Median over rounds of the round's operations per unit of operation time."""
    rounds: dict[int, list[float]] = {}
    for r in results:
        rounds.setdefault(r["k"], []).append(r[key])
    return statistics.median(len(times) / sum(times) for times in rounds.values())


def end_to_end(results: list[dict], setup_s: float) -> dict:
    return {
        "op_p50_ref": latency(results, "refs")["p50"],
        "ops_per_ref": round_throughput(results, "refs"),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def wall_report(results: list[dict]) -> dict:
    """Wall-clock figures, shown next to the gated ones in reference units."""
    lat = latency(results)
    return {
        "op_p50_s": lat["p50"],
        "op_tail_s": lat["tail"],
        "tail_percentile": lat["tail_percentile"],
        "samples": lat["samples"],
        "ops_per_s": round_throughput(results),
        "ref_s_p50": statistics.median(r["ref_s"] for r in results),
    }


def sweep(st, seed: int) -> dict:
    """Inclusive spectral_report time on one random dissipative model per dimension."""
    out = {}
    for n in SWEEP_DIMS:
        ham, jumps = inputs.dissipative_model(n, inputs.rng_for(seed, 5, n))
        gen = st.build_generator(st.LindbladModel(dim=n, hamiltonian=ham, jumps=jumps))
        with spans.Tracer(st, LAYERS) as tracer:
            st.spectral_report(gen)
        out[f"analysis.spectral_report.n{n}_s"] = tracer.summary()["analysis.spectral_report"]["total_s"]
    return out


def per_layer(tracer, ops: int) -> dict:
    """Per-operation calls, self time and computed m^3 work of every traced function."""
    summary = tracer.summary()
    metrics = {}
    for name in tracer.names:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = entry["calls"] / ops
        metrics[f"{name}.self_s"] = entry["self_s"] / ops
    for name, work in tracer.work_m3.items():
        metrics[f"{name}.work_m3"] = work / ops
    searches = summary.get("analysis.find_observables", {"calls": 0, "failed": 0})
    attempts = tracer.children_of("analysis.find_observables", "analysis.verify_observables")
    metrics["analysis.find_observables.attempts"] = attempts / searches["calls"] if searches["calls"] else 0.0
    metrics["analysis.find_observables.success_ratio"] = (
        (searches["calls"] - searches["failed"]) / attempts if attempts else 0.0)
    metrics["tomography.reconstruct.design_rows"] = tracer.design_rows / ops
    return metrics


def select(spec_metrics: list[dict], values: dict) -> dict:
    """The metrics named in BENCHMARK.json, with their units; absent per-function counts are 0."""
    out = {}
    for metric in spec_metrics:
        name = metric["name"]
        parts = name.split(".")
        counted = len(parts) == 3 and parts[0] in LAYERS and parts[2] in ("calls", "self_s", "work_m3")
        if name not in values and not counted:
            fail(f"no value for metric {name}")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": metric["unit"]}
    return out


def same_answers(a: list[dict], b: list[dict]) -> bool:
    keys = ("cls", "k", "eta", "mu", "recon_err", "causes")
    return all(tuple(x[key] for key in keys) == tuple(y[key] for key in keys) for x, y in zip(a, b))


def run_one(args, spec: dict) -> None:
    sys.path.insert(0, SRC)
    setup_imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    import strobe_tomo as st
    import strobe_tomo.cli  # noqa: F401  (the cli layer is traced too)

    if not os.path.abspath(st.__file__).startswith(SRC + os.sep):
        fail(f"imported strobe_tomo from {st.__file__}, not from {SRC}")
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl = workloads.build(args.workload, workdir)
        setup_inputs = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            for cls in range(len(wl.classes)):
                wl.make(args.seed, cls, 0)
            setup_inputs.append(time.perf_counter() - start)
        setup_s = statistics.median(setup_imports) + statistics.median(setup_inputs)

        warm: dict = {}
        for cls in range(len(wl.classes)):
            try:
                wl.run(wl.make(args.seed, cls, WARMUP_INDEX), warm)
            except Exception:  # warm-up failures are counted only in the timed loop
                pass

        report = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": environment()}
        if args.trace == 0:
            results = run_loop(wl, args.seed, args.seconds, wl.min_rounds)
            values = end_to_end(results, setup_s)
            correct = True
            metric_spec = spec["end_to_end"]
        else:
            untraced = run_loop(wl, args.seed, args.seconds / 2)
            tracer = spans.Tracer(st, LAYERS)
            with tracer:
                traced = run_loop(wl, args.seed, args.seconds / 2, tracer=tracer)
            tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}.jsonl.gz"))
            values = per_layer(tracer, len(traced))
            common = min(len(traced), len(untraced))
            values["trace.overhead_s"] = latency(traced[:common])["p50"] - latency(untraced[:common])["p50"]
            values.update(sweep(st, args.seed))
            correct = same_answers(untraced, traced)
            report["traced_matches_untraced"] = correct
            if wl.name == "paper-loop":
                observed = {name: values[f"{name}.calls"] for name in SEED_CALLS_PER_PAPER_OP}
                report["paper_op_calls"] = observed
                report["paper_op_calls_match_seed_code"] = observed == SEED_CALLS_PER_PAPER_OP
            results = untraced + traced
            metric_spec = spec["per_layer"]
        metrics = select(metric_spec, values)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = outcome_report(results)
    correct = correct and "unverifiable" not in outcomes["failures_by_cause"]
    report.update(outcomes, wall=wall_report(results if args.trace == 0 else untraced), setup_s=setup_s)
    print("report " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": outcomes["attempted"],
                      "failed": outcomes["failed"], "metrics": metrics}))


def run_all(args, spec: dict) -> None:
    """Each workload in its own process; one table of metrics, units and verdicts.

    Rows marked ``report`` come from the ``report`` line: they are shown,
    not gated by BENCHMARK.json.
    """
    row = "{:<18} {:<44} {:>14}  {}"
    print(row.format("workload", "metric", "value", "unit"))
    env = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{workload:<18} failed with exit code {done.returncode}: {done.stderr.strip()[-500:]}")
            continue
        report = json.loads(lines[-2].split(" ", 1)[1])
        result = json.loads(lines[-1])
        env = report["env"]
        for name, metric in result["metrics"].items():
            print(row.format(workload, name, f"{metric['value']:.6g}", metric["unit"]))
        wall = report["wall"]
        shown = [
            ("op_p50_s", wall["op_p50_s"], "s (report)"),
            ("op_tail_s", wall["op_tail_s"], f"s (report; p{wall['tail_percentile']} of {wall['samples']} samples)"),
            ("ops_per_s", wall["ops_per_s"], "1/s (report)"),
            ("ref_s_p50", wall["ref_s_p50"], "s (report; one reference computation)"),
            ("failed_share", report["failed_share"], "1 (report)"),
            ("recon_err_p50", report["recon_err_p50"],
             f"Frobenius (report; {report['reconstructions']} reconstructions)"),
        ]
        for name, value, unit in shown:
            print(row.format(workload, name, "n/a" if value is None else f"{value:.6g}", unit))
        verdicts = {key: report[key] for key in
                    ("failures_by_cause", "class_share", "traced_matches_untraced",
                     "paper_op_calls", "paper_op_calls_match_seed_code") if key in report}
        print(f"{workload:<18} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {json.dumps(verdicts)}")
    print(f"environment {json.dumps(env)}")


def main(argv=None) -> None:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "strobe_tomo", "__init__.py")):
        fail(f"no strobe_tomo sources under {SRC}; run from the root of a checkout")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    if args.workload == "all":
        run_all(args, spec)
    else:
        run_one(args, spec)


if __name__ == "__main__":
    main()
