"""Benchmark of hybridlab: one workload per process, end to end or traced.

    python3 benchmarks/run.py --workload readme_64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The run makes the workload's inputs from the seed, measures set-up in
fresh processes, warms up, then repeats whole rounds of the workload
until `--seconds` have passed, timing a reference kernel between rounds
to scale its times to a nominal host speed.  With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it alternates untraced
and traced rounds and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is the result as one JSON
object.  See README.md for the workloads, the metrics and the reference
figures.
"""

import os

# Pin the BLAS/OpenMP pools before numpy loads.  With the default pool on
# a 2-core host, cpu time ran 25% above wall time and wall time spread
# wider between runs.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / ".runs"
# Fresh set-up processes measured before the warm-up and again after the
# measured rounds, so that the samples span the run as the rounds do.
# Traced runs, which do not report set-up, skip them.
SETUP_PROCESSES = 6

# This host's speed drifts: the same brackets_128 round took 22 s and,
# ten minutes later, 14 s, and set-up moved with it.  So a run also times
# a fixed reference kernel, which calls nothing of hybridlab, next to the
# work it measures, and reports a time t as t * nominal / reference: the
# time the work would take on a host where the kernel takes its nominal
# time.  The nominal times are about the kernels' medians on the machine
# of the reference figures in README.md.  The run's JSON record keeps the
# unscaled figures.
LOOP_NOMINAL_S = 0.03
PROBE_NOMINAL_S = {0: LOOP_NOMINAL_S, 64: 0.1, 128: 0.15}

# A fixed pure-Python loop, the reference for set-up (which is
# interpreter work) and for workloads that build no grid: the median of
# five timings.
LOOP_CODE = """
def loop():
    s = 0
    for i in range(600000):
        s += i * i % 7
    return s
loop_times = []
for _ in range(5):
    start = time.perf_counter()
    loop()
    loop_times.append(time.perf_counter() - start)
loop_times.sort()
"""

# Set-up as a user pays it: a fresh interpreter imports the program and
# parses the workload's configs.  Interpreter start-up is not counted.
# The same process then times the reference loop.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hybridlab.cli
from hybridlab.scenario import parse_config
for path in sys.argv[2:]:
    with open(path) as fh:
        parse_config(fh.read())
setup = time.perf_counter() - start
""" + LOOP_CODE + """
print(setup, loop_times[2])
"""

# The reference for the rounds, run in a fresh process so that its arrays
# never count in the workload's peak memory: the grid work the program
# does most (density, spectral derivatives along each axis, masked
# division) on a fixed n^3 Gaussian, repeated (128/n)^3 times per timing;
# the median of five timings.
PROBE_CODE = """
import sys, time
import numpy as np
n = int(sys.argv[1])
x = np.linspace(-3.0, 3.0, n)
psi = np.exp(-(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)
             + 1j * x[:, None, None] * x[None, None, :])
k = np.fft.fftfreq(n)
def kernel():
    density = np.abs(psi) ** 2
    mask = density > 1e-12 * density.max()
    for axis in range(3):
        shape = [1, 1, 1]
        shape[axis] = n
        d = np.fft.ifft(np.fft.fft(psi, axis=axis) * k.reshape(shape), axis=axis)
        g = np.zeros_like(density)
        np.divide(np.imag(np.conj(psi) * d), density, out=g, where=mask)
kernel()
times = []
for _ in range(5):
    start = time.perf_counter()
    for _ in range((128 // n) ** 3):
        kernel()
    times.append(time.perf_counter() - start)
print(sorted(times)[2])
"""

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def load_program():
    """Import hybridlab from this checkout's sources, and from nowhere else."""
    if not (SRC / "hybridlab" / "__init__.py").is_file():
        sys.exit(f"benchmark: no hybridlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hybridlab
    if not Path(hybridlab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: imported hybridlab from {hybridlab.__file__}")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def run_record(seed: int) -> dict:
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "thread_env": {v: os.environ[v] for v in THREAD_VARS}, "seed": seed}


def python(code: str, *args) -> list[float]:
    """Run `code` in a fresh interpreter; the numbers it prints."""
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         capture_output=True, text=True, timeout=120, check=True)
    return [float(v) for v in out.stdout.split()]


def measure_setup(configs, processes: int) -> list[tuple[float, float]]:
    """Set-up time and reference loop time of each of `processes` fresh
    processes."""
    return [tuple(python(SETUP_CODE, SRC, *configs)) for _ in range(processes)]


def probe(points: int) -> float:
    """Time of the reference grid kernel at `points`^3, or of the
    reference loop if `points` is 0, now."""
    if points:
        return python(PROBE_CODE, points)[0]
    return python("import time\n" + LOOP_CODE + "print(loop_times[2])")[0]


def run_ops(ops, problems: list[str]) -> tuple[list[float], list[float], int]:
    """Run one round: wall and cpu seconds of each program call, failures."""
    walls, cpus = [], []
    failed = 0
    for op in ops:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result, found = op.call(), []
        except (Exception, SystemExit) as exc:
            result, found = None, [f"{op.label}: {type(exc).__name__}: {exc}"]
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        if not found:
            try:
                found = op.check(result)
            except Exception as exc:
                found = [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems += found
    return walls, cpus, failed


def per_round(rounds: list[list[float]]) -> float:
    """Time of one round: the sum over its calls of each call's median
    over the rounds.  A burst of host noise then costs one sample of one
    call, not a whole round."""
    return sum(statistics.median(times) for times in zip(*rounds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    workdir = RUNS / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    if not args.trace:
        measure_setup(wl.configs, 1)  # compiles the bytecode; not counted
        setup_times = measure_setup(wl.configs, SETUP_PROCESSES)

    warmup_problems: list[str] = []
    run_ops(wl.warmup, warmup_problems)

    problems: list[str] = []
    walls, cpus, traced_walls, summaries = [], [], [], []
    probes = [] if args.trace else [probe(wl.probe_points)]
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        wall, cpu, f = run_ops(wl.ops, problems)
        walls.append(wall)
        cpus.append(cpu)
        attempted, failed = attempted + len(wl.ops), failed + f
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                wall, _, f = run_ops(wl.ops, problems)
            traced_walls.append(wall)
            summaries.append(tracer.summary())
            attempted, failed = attempted + len(wl.ops), failed + f
        else:
            probes.append(probe(wl.probe_points))
        # Start another lap only if it would end nearer to the deadline than
        # stopping now does: a run lasts --seconds to within half a lap.
        now = time.perf_counter()
        if now + (now - lap) / 2 >= start + args.seconds:
            break

    if args.trace:
        metrics, units = per_layer(summaries, wl.grid_states,
                                   per_round(walls), per_round(traced_walls), problems)
    else:
        setup_times += measure_setup(wl.configs, SETUP_PROCESSES)
        raw = {"wall_s": per_round(walls), "cpu_s": per_round(cpus),
               "setup_s": statistics.median(setup for setup, _ in setup_times)}
        # Rounds: one factor per run, since single probes spread by up to
        # 30% within a run at 128^3.  Set-up: each process against the
        # loop it timed itself, which follows a change of host speed in
        # the middle of a run.
        scale = PROBE_NOMINAL_S[wl.probe_points] / statistics.median(probes)
        values = {"wall_s": raw["wall_s"] * scale, "cpu_s": raw["cpu_s"] * scale,
                  "setup_s": statistics.median(setup * LOOP_NOMINAL_S / loop
                                               for setup, loop in setup_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics, units = values, END_TO_END
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = run_record(args.seed)

    for line in (warmup_problems + problems)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"run": record, "notes": wl.notes, "ops": [op.label for op in wl.ops],
                    "wall_s": walls, "cpu_s": cpus, "traced_wall_s": traced_walls,
                    "probe_s": probes, "setup_and_loop_s": [] if args.trace else setup_times,
                    "unscaled": {} if args.trace else raw,
                    "problems": problems, "result": result}, indent=1))
    print(json.dumps({"run": record}))
    print(json.dumps({"notes": wl.notes, "rounds": len(walls)}))
    print(json.dumps(result))
    return 0


PER_LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
PER_LAYER = (
    "grid.strang_steps", "grid.split_step_evolve.calls", "grid.split_step_evolve.s",
    "grid.fft_calls", "grid.fft_points",
    "grid.grid_moments.calls", "grid.grid_moments.s",
    "grid.to_ensemble.calls", "grid.to_ensemble.s",
    "brackets.hybrid_bracket.calls", "brackets.hybrid_bracket.self_s",
    "brackets.functional_gradients.calls", "brackets.functional_gradients.self_s",
    "observables.apply_quantum.calls", "observables.apply_quantum.self_s",
    "observables.apply_operator.calls",
    "gaussian.optimize_chsh.calls", "gaussian.optimize_chsh.s",
    "gaussian.evolve_gaussian.calls", "gaussian.evolve_gaussian.s",
    "gaussian.logarithmic_negativity.s", "gaussian.mediator_moment_inversion.s",
    "scenario.run_scenario.self_s", "scenario.validate_backends.self_s",
    "scenario.tomography_demo.s", "scenario.parse_config.s", "scenario.report_write.s",
)


def per_layer(summaries, grid_states, untraced_s, traced_s, problems: list[str]):
    """Per-round layer metrics: counts, which must repeat exactly (a count
    that differs between traced rounds is a problem), and median times
    over the traced rounds."""
    metrics, units = {}, {}
    for name in PER_LAYER:
        kind = name.rsplit(".", 1)[1]
        unit = PER_LAYER_UNITS.get(kind, "count")
        values = [s.get(name, 0) for s in summaries]
        if unit == "count" and len(set(values)) > 1:
            problems.append(f"{name} differs between traced rounds: {values}")
        metrics[name] = statistics.median(values) if unit == "s" else values[0]
        units[name] = unit
    calls = metrics["grid.to_ensemble.calls"]
    metrics["grid.to_ensemble.per_state"] = calls / grid_states if grid_states else 0.0
    units["grid.to_ensemble.per_state"] = "count"
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    units["trace.overhead"] = "ratio"
    return metrics, units


if __name__ == "__main__":
    sys.exit(main())
