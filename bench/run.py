"""graphhodge benchmark: seeded workloads, end-to-end metrics, and a traced run.

Run from the repository root (the program is imported from ./src):

    python3 bench/run.py                               # every workload, one summary table
    python3 bench/run.py --workload spectra-gnp --seed 3 --seconds 27 --trace 0

With `--trace 0` a run reports the end-to-end metrics:

    setup_s      median over fresh interpreters of `import graphhodge` plus parsing the
                 workload's input files with the library parsers
    wall_s       median in-process time of one pipeline pass, after a warm-up
    cli_s        median subprocess wall time of the workload's `graphhodge <cmd>` runs
    peak_rss_mb  peak RSS of this process, which runs only this workload

With `--trace 1` it reports per-layer metrics instead: one pass runs with every
public graphhodge callable wrapped (see tracing.py), followed by the workload's
CLI steps run in-process through `graphhodge.cli.main`.

Every run checks the outputs (see workloads.py); failed checks and non-zero
exits are counted against the operations attempted. The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench"
WORKLOAD_NAMES = ("rank-ratings", "spectra-gnp", "game-profiles", "cheeger-plap")
# One BLAS thread everywhere: with two threads the same dense eigensolve took
# anywhere from 0.86 s to 1.56 s on a 2-core machine.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
# The floor, not --seconds, ends a run whose samples are long: two passes and two
# CLI runs of rank-ratings or spectra-gnp already take 20-30 s. A median of two
# samples is their mean.
MIN_SAMPLES = 2
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150
CLI_ENTRY = "import sys; from graphhodge.cli import main; sys.exit(main())"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "graphhodge" / "__init__.py").is_file():
        print(f"bench: no graphhodge package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


# -- shared helpers -------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values)}


class Tally:
    """Operations attempted and failed; a failure is a failed check, exit or exception."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def checks(self, checks) -> None:
        for name, ok, detail in checks.results:
            self.record(ok, f"check {name}: {detail}")


def probe(mode: str, files, tally: Tally) -> dict | None:
    """One fresh interpreter running setup_probe.py; None when it fails."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), mode, *map(str, files)]
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    ok = proc.returncode == 0
    tally.record(ok, f"setup probe {mode} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.splitlines()[-1]) if ok else None


def run_cli(args: list[str], tally: Tally) -> float:
    """Wall time of one `graphhodge <args>` subprocess."""
    argv = [sys.executable, "-c", CLI_ENTRY, *args]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    tally.record(proc.returncode == 0, f"graphhodge {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed


def timed_pass(wl, inp, tally: Tally):
    """(seconds, outputs) of one pass; outputs is None when the pass raised."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = wl.run_pass(inp)
    except Exception:  # a failing pass is a measured failure, not a crash of the harness
        traceback.print_exc()
        tally.record(False, f"{wl.name} pass raised")
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, out


def check_cli_docs(wl, steps, summary, tally: Tally) -> None:
    from workloads import Checks

    checks = Checks()
    for step, _, doc_path in steps:
        try:
            doc = json.loads(doc_path.read_text())
        except (OSError, ValueError) as exc:
            checks.add(f"cli.{step}.document", False, str(exc))
            continue
        wl.check_cli(step, doc, summary, checks)
    tally.checks(checks)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "blas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def openblas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[Path(path).name] = int(fn())
                break
    return out


def import_program():
    """Import graphhodge from this checkout's src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import graphhodge

    if Path(graphhodge.__file__).resolve().parent != (SRC / "graphhodge").resolve():
        raise SystemExit(f"bench: imported graphhodge from {graphhodge.__file__}, expected {SRC}")
    return graphhodge


# -- one workload ---------------------------------------------------------


def run_workload(args) -> int:
    os.environ.update(PINNED_ENV)  # before numpy loads OpenBLAS
    import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work = WORK / "work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    print(f"graphhodge benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    try:
        instances = [wl.generate(args.seed, i, work / f"instance{i}") for i in range(wl.instances)]
        warm = wl.generate(args.seed, 0, work / "warmup", small=True)
        tally = Tally()
        timed_pass(wl, warm, tally)  # imports, BLAS start-up, first-call caches; time and outputs unused
        if args.trace:
            metrics, report = traced_run(wl, instances[0], args, work, tally)
        else:
            metrics, report = measured_run(wl, instances, args, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment: " + json.dumps(environment(), sort_keys=True))
    print("sizes: " + json.dumps(report.pop("sizes"), sort_keys=True))
    for line in report.pop("lines"):
        print(line)
    print(f"{'error_rate':<40} {len(tally.failures) / max(tally.attempted, 1):>12.6g}  unit 1, "
          f"{len(tally.failures)} failed of {tally.attempted} operations attempted")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def measured_run(wl, instances, args, work, tally):
    """Setup probes, passes and CLI steps interleaved one at a time.

    The SETUP_SAMPLES setup probes are spread evenly over `--seconds`, so that
    they, like the other samples, span the whole run. Otherwise a sample is one
    pass over one input, or the workload's CLI steps on one input; inputs are
    taken in turn. The next sample is a pass whenever passes have taken no
    more time than CLI steps, so each gets about half the run; the cheaper of
    the two gets more samples, not less time. The CLI steps on an input never
    run before that input's first pass, whose outputs they are checked
    against. Once every probe has run and each timing has MIN_SAMPLES samples,
    the run stops at the sample boundary nearest to `--seconds`: it skips the
    next sample when more than half of it, judged by the last sample of its
    kind, would fall past the deadline.
    """
    from workloads import Checks

    setup_s, wall_s, cli_s, sizes, summaries = [], [], [], {}, {}
    probes = passes = cli_runs = 0
    pass_time = cli_time = last_pass = last_cli = 0.0
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        if probes < SETUP_SAMPLES and time.perf_counter() - start >= probes * args.seconds / SETUP_SAMPLES:
            probes += 1
            result = probe(wl.name, wl.setup_files(instances[0]), tally)
            if result:
                setup_s.append(result["setup_s"])
            continue
        next_is_pass = pass_time <= cli_time or cli_runs >= passes
        remaining = deadline - time.perf_counter()
        if (probes == SETUP_SAMPLES and passes >= MIN_SAMPLES and cli_runs >= MIN_SAMPLES
                and remaining < (last_pass if next_is_pass else last_cli) / 2):
            break
        if next_is_pass:
            i = passes % len(instances)
            passes += 1
            inp = instances[i]
            elapsed, out = timed_pass(wl, inp, tally)
            pass_time += elapsed
            last_pass = elapsed
            if out is not None:
                wall_s.append(elapsed)
                checks = Checks()
                wl.check_pass(inp, out, checks)
                tally.checks(checks)
                sizes.setdefault(f"instance{i}", {**inp.sizes, **wl.pass_sizes(out)})
                summaries[i] = wl.summary(out)
            del out  # the pass's arrays must not inflate the CLI steps' memory
        else:
            i = cli_runs % len(instances)
            cli_runs += 1
            outdir = work / f"cli{i}"
            outdir.mkdir(parents=True, exist_ok=True)
            steps = wl.cli_steps(instances[i], outdir)
            elapsed = sum(run_cli(step_args, tally) for _, step_args, _ in steps)
            cli_time += elapsed
            last_cli = elapsed
            cli_s.append(elapsed)
            if i in summaries:
                check_cli_docs(wl, steps, summaries[i], tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"setup_s": setup_s, "wall_s": wall_s, "cli_s": cli_s, "peak_rss_mb": [peak_rss_mb]}
    lines = [f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12}  unit  samples"]
    metrics = {}
    for name, values in samples.items():
        unit = END_TO_END_UNITS[name]
        if not values:  # every sample failed; the failures are already counted
            values = [float("nan")]
        s = stats(values)
        metrics[name] = {"value": s["median"], "unit": unit}
        lines.append(f"{name:<40} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g}  {unit:<5} {s['samples']}")
    lines += [f"samples {name}: {json.dumps(values)}" for name, values in samples.items()]
    return metrics, {"sizes": sizes, "lines": lines}


# -- traced run -----------------------------------------------------------

# Per-layer metrics reported in the result line. Counts repeat exactly between
# runs of one seed. Self times are listed here only for callables that every
# workload enters, so none of them is a constant zero; the full per-callable
# table, bypassed layers included, is printed above the result line.
PER_LAYER_COUNTS = (
    "complexes.enumerate_cliques.calls",
    "complexes.cliques.k2",
    "complexes.cliques.k3",
    "complexes.cliques.k4",
    "cochains.Cochain.from_dict.calls",
    "cochains.WeightScheme.vector.calls",
    "operators.coboundary.calls",
    "operators.coboundary.nnz",
    "operators.hodge_laplacian.calls",
    "spectral.spectrum.calls",
    "spectral.spectrum.max_dim",
    "decompose.hodge_decompose.calls",
    "decompose.lsqr.calls",
    "decompose.lsqr.iters",
    "decompose.lsqr.failed",
    "games.strategy_graph.calls",
    "nonlinear.cheeger_constant.cuts",
    "textio.json_dumps.bytes",
)
PER_LAYER_RATIOS = (
    "operators.coboundary.useful_ratio",
    "operators.hodge_laplacian.useful_ratio",
    "games.strategy_graph.useful_ratio",
)
PER_LAYER_TIMES = (
    "complexes.enumerate_cliques.self_s",
    "cochains.Cochain.from_dict.self_s",
    "textio.json_dumps.self_s",
    "cli.main.self_s",
    "cli.import_s",
    "trace.overhead_s",
    "trace.unattributed_s",
)


def traced_run(wl, inp, args, work, tally):
    """Untraced passes for the reference time, then one traced pass and traced CLI steps."""
    import graphhodge.cli
    from tracing import LAYERS, Tracer
    from workloads import Checks

    imports = [probe("import", [], tally) for _ in range(IMPORT_SAMPLES)]
    import_s = [s["import_s"] for s in imports if s]
    untraced = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        elapsed, out = timed_pass(wl, inp, tally)
        if out is None:
            break
        untraced.append(elapsed)
        del out

    tracer = Tracer()
    outdir = work / "cli"
    outdir.mkdir(parents=True, exist_ok=True)
    steps = wl.cli_steps(inp, outdir)
    gc.collect()
    tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            out = wl.run_pass(inp)
        except Exception:
            traceback.print_exc()
            tally.record(False, f"{wl.name} traced pass raised")
            out = None
        traced_s = time.perf_counter() - t0
        pass_end = len(tracer.spans)
        pass_counts = dict(tracer.counts)
        for step, step_args, _ in steps:
            code = graphhodge.cli.main(step_args)
            tally.record(code == 0, f"in-process graphhodge {step} returned {code}")
    finally:
        tracer.uninstall()

    sizes = {}
    if out is not None:
        checks = Checks()
        wl.check_pass(inp, out, checks)
        tally.checks(checks)
        sizes = {**inp.sizes, **wl.pass_sizes(out)}
        check_cli_docs(wl, steps, wl.summary(out), tally)
        del out

    table = tracer.self_times(0, pass_end)
    cli_table = tracer.self_times(pass_end)
    untraced_s = statistics.median(untraced) if untraced else float("nan")
    values = {
        "cli.import_s": statistics.median(import_s) if import_s else float("nan"),
        "cli.main.self_s": cli_table.get("cli.main", [0, 0.0])[1],
        "trace.overhead_s": traced_s - untraced_s,
        "trace.unattributed_s": traced_s - tracer.root_time(0, pass_end),
    }
    metrics = {}
    for name in PER_LAYER_TIMES + PER_LAYER_COUNTS + PER_LAYER_RATIOS:
        callable_name, counter = name.rsplit(".", 1)
        calls = table.get(callable_name, [0])[0]
        if name in PER_LAYER_TIMES:
            value, unit = values.get(name, table.get(callable_name, [0, 0.0])[1]), "s"
        elif name in PER_LAYER_RATIOS:
            value, unit = tracer.useful_ratio(callable_name, calls, pass_counts), "ratio"
        else:
            value, unit = int(calls if counter == "calls" else pass_counts.get(name, 0)), "count"
        metrics[name] = {"value": value, "unit": unit}

    spans_path = WORK / "traces" / f"{wl.name}-seed{args.seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"pass_spans": pass_end, "spans": tracer.spans}))

    lines = [f"traced pass {traced_s:.6g} s, untraced pass median {untraced_s:.6g} s over {len(untraced)}; "
             f"spans written to {spans_path.relative_to(ROOT)}",
             f"{'per-layer metric':<40} {'value':>14}  unit"]
    lines += [f"{name:<40} {m['value']:>14.6g}  {m['unit']}" for name, m in metrics.items()]
    lines.append(f"{'callable (traced pass)':<40} {'calls':>8} {'self_s':>12} {'incl_s':>12}")
    for name, (calls, self_s, incl_s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<40} {calls:>8d} {self_s:>12.6f} {incl_s:>12.6f}")
    layers = {layer: sum(row[1] for name, row in table.items() if name.startswith(layer + ".")) for layer in LAYERS}
    lines.append("layer self time (traced pass): " + ", ".join(f"{k} {v:.6f}" for k, v in layers.items()))
    lines.append(f"{'callable (in-process CLI steps)':<40} {'calls':>8} {'self_s':>12} {'incl_s':>12}")
    for name, (calls, self_s, incl_s) in sorted(cli_table.items(), key=lambda kv: -kv[1][1])[:15]:
        lines.append(f"{name:<40} {calls:>8d} {self_s:>12.6f} {incl_s:>12.6f}")
    return metrics, {"sizes": sizes, "lines": lines}


# -- every workload -------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's own."""
    attempted = failed = 0
    merged, rows = {}, []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            merged[f"{name}.{metric}"] = m
        rows.append((name, result))
    print(f"\n{'metric':<40}" + "".join(f"{name:>16}" for name, _ in rows) + "  unit")
    for metric, m in rows[0][1]["metrics"].items():
        cells = "".join(f"{result['metrics'][metric]['value']:>16.6g}" for _, result in rows)
        print(f"{metric:<40}{cells}  {m['unit']}")
    rates = "".join(f"{result['failed'] / result['attempted']:>16.6g}" for _, result in rows)
    print(f"{'error_rate':<40}{rates}  1")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
