"""Run one benchmark workload against the qmn sources of this checkout.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run times closed-loop passes over the workload's
operation list, untraced, and reports the end-to-end metrics, scaled by a
reference kernel timed after every op (see ``perfbench/README.md``).  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``detail ...``) records the environment, the sample counts, quartiles and
every failed op.  Work files go to ``.perfbench_work/`` in the checkout and
are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 9
# timings are scaled to a machine on which one reference sample takes this long
REF_SECONDS = 0.006
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
READY = "ready"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="start passes while they should end within this time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (a set-up time sample)")
    return p.parse_args(argv)


def _pin_threads() -> int:
    """One process with one BLAS thread; returns the CPUs it may run on.

    On a 2-vCPU VM, five runs with one BLAS thread per CPU spread 17-19%
    (IQR over median) on the millisecond-scale sums, where one thread
    spread 6-7%.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def _import_qmn():
    if not os.path.isdir(os.path.join(SRC, "qmn")):
        raise SystemExit(f"error: no qmn sources at {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import qmn
    if not os.path.abspath(qmn.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported qmn from {qmn.__file__}, not {SRC}")


def _warm_up() -> None:
    """Load and touch the LAPACK eigensolvers once before the first op.

    With one BLAS thread the first large eigensolve of a process costs no
    more than later ones, so a small one is enough.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    h = a + a.conj().T
    np.linalg.eigh(h)
    np.linalg.eigvalsh(h)


def _reference_kernel():
    """Returns a callable that times one run of a fixed LAPACK kernel.

    Timed after every op, its mean gauges how fast the shared machine ran
    during the run.  Other tenants slow every op of a run for minutes at a
    time, which no number of samples within one run averages out; dividing
    by the reference cancels most of it.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.normal(size=(160, 160)) + 1j * rng.normal(size=(160, 160))
    h = a + a.conj().T

    def sample() -> float:
        t0 = time.perf_counter()
        np.linalg.eigh(h)
        return time.perf_counter() - t0
    return sample


def _setup(workload: str, seed: int, workdir: str):
    """Warm up, write the model files; returns the ops and the warm-up time."""
    from perfbench import workloads
    t0 = time.perf_counter()
    _warm_up()
    t1 = time.perf_counter()
    ops = workloads.build(workload, seed, workdir)
    return ops, t1 - t0


def _setup_sample(args) -> float:
    """Process start to ready, timed from outside, in a fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != READY or proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode} "
                           f"without getting ready")
    return seconds


def _environment(nproc: int, args) -> dict:
    import numpy as np
    from qmn.tensor import dense_cap
    env = {"python": sys.version.split()[0], "numpy": np.__version__,
           "nproc": nproc, "cpu_count": os.cpu_count(),
           "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
           "dense_cap": dense_cap(),
           "QMN_DENSE_CAP": os.environ.get("QMN_DENSE_CAP"),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        env["blas"] = None
    env["blas_threads"] = _openblas_threads(np)
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")]
        env["cpu"] = models[0] if models else None
    except OSError:
        env["cpu"] = None
    return env


def _openblas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, when it is OpenBLAS."""
    import ctypes
    import glob
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _peak_rss_mib() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failures(results) -> dict[str, int]:
    out: dict[str, int] = {}
    for r in results:
        if r.failure is not None:
            key = f"{' '.join(os.path.basename(a) for a in r.op.argv[:2])}: {r.failure}"
            out[key] = out.get(key, 0) + 1
    return out


def _another(done: int, start: float, seconds: float) -> bool:
    """Start another pass while it should end within ``seconds`` of ``start``."""
    elapsed = time.perf_counter() - start
    return not done or elapsed + elapsed / done <= seconds


def _untraced(args, ops, detail) -> tuple[dict, list]:
    from perfbench.harness import op_samples, pass_seconds, run_pass, summary
    setup, reference = [], []
    reference_sample = _reference_kernel()
    start = time.perf_counter()

    def after_op():
        reference.append(reference_sample())
        # set-up samples spread evenly over the run, between ops, so that
        # they see the machine's speed over the whole run like the op
        # latencies do, not at one moment of it
        due = (time.perf_counter() - start) * SETUP_SAMPLES / max(args.seconds, 1e-9)
        while len(setup) < SETUP_SAMPLES and len(setup) <= due:
            setup.append(_setup_sample(args))

    passes = []
    while _another(len(passes), start, args.seconds):
        passes.append(run_pass(ops, after_op=after_op))
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample(args))
    samples = op_samples(passes)
    detail["passes"] = len(passes)
    detail["samples"] = {"setup_s": summary(setup), "reference_s": summary(reference)} | {
        " ".join(os.path.basename(a) for a in op.argv[:2]): summary(xs)
        for op, xs in samples.items()}
    results = [r for p in passes for r in p]
    failed = sum(r.failure is not None for r in results)
    unscaled = pass_seconds(ops, samples)
    detail["unscaled_s"] = unscaled
    scale = REF_SECONDS / statistics.fmean(reference)
    metrics = {"setup_s": (statistics.median(setup) * scale, "s")}
    metrics |= {f"{k}_s": (v * scale, "s") for k, v in unscaled.items()}
    metrics["peak_rss_mb"] = (_peak_rss_mib(), "MiB")
    metrics["pass_rate"] = ((len(results) - failed) / len(results), "ratio")
    return metrics, results


def _traced(args, ops, setup_tracer, warmup_s, detail) -> tuple[dict, list]:
    from perfbench import tracing
    from perfbench.harness import execute, op_samples, pass_seconds
    full_dims = {i: op.full_dim for i, op in enumerate(ops)}
    passes = {False: [], True: []}
    layer_passes = []
    start = time.perf_counter()
    while _another(len(layer_passes), start, args.seconds):
        for traced in (False, True):
            tracer = tracing.Tracer()
            restore = tracing.install(tracer) if traced else None
            results = []
            report_bytes = 0
            try:
                for i, op in enumerate(ops):
                    tracer.op = i
                    results.append(execute(op))
                    if op.report and os.path.exists(op.report):
                        report_bytes += os.path.getsize(op.report)
            finally:
                if restore is not None:
                    restore()
            passes[traced].append(results)
            if traced:
                m = tracing.layer_metrics(tracer.spans, full_dims)
                m["cli.report_bytes"] = report_bytes
                layer_passes.append(m)
    detail["passes"] = len(layer_passes)
    units = dict(tracing.LAYER_UNITS)
    metrics = {name: (statistics.median(m[name] for m in layer_passes), units[name])
               for name in layer_passes[0]}
    fam = {i for i, s in enumerate(setup_tracer.spans) if s.name.startswith("families.")}
    metrics["families.generate_s"] = (
        sum(setup_tracer.spans[i].seconds for i in fam
            if setup_tracer.spans[i].parent not in fam), "s")
    metrics["setup.warmup_s"] = (warmup_s, "s")
    wall = {traced: pass_seconds(ops, op_samples(runs))["wall"]
            for traced, runs in passes.items()}
    detail["wall_s"] = {"untraced": wall[False], "traced": wall[True]}
    metrics["trace.overhead_s"] = (wall[True] - wall[False], "s")
    return metrics, [r for runs in passes.values() for p in runs for r in p]


def main(argv=None) -> int:
    args = _parse(argv)
    # a terminated run still stops its set-up processes and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc = _pin_threads()
    _import_qmn()
    from perfbench import tracing, workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            _setup(args.workload, args.seed, workdir)
            print(READY, flush=True)
            return 0
        detail = {"env": _environment(nproc, args)}
        if args.trace:
            setup_tracer = tracing.Tracer()
            restore = tracing.install(setup_tracer)
            try:
                ops, warmup_s = _setup(args.workload, args.seed, workdir)
            finally:
                restore()
            metrics, results = _traced(args, ops, setup_tracer, warmup_s, detail)
        else:
            ops, _ = _setup(args.workload, args.seed, workdir)
            metrics, results = _untraced(args, ops, detail)
        detail["ops_per_pass"] = len(ops)
        detail["failures"] = _failures(results)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        print("detail " + json.dumps(detail))
        print(json.dumps({
            "correct": not any(r.wrong for r in results),
            "attempted": len(results),
            "failed": sum(r.failure is not None for r in results),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
