"""Benchmark of rainbowcw: one workload, one seed, one process, one thread.

    python3 benchmark/run.py --workload linearity-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
Set-up (import, corpus, input files, warm-up) comes first.  Then cases run in
whole rounds until the timed work reaches ``--seconds``; each case's output
is checked outside the timed region.  Timings are rescaled to a reference
machine speed measured between the cases (see ``speed.py``).  With ``--trace 0`` the last line of
stdout is the JSON result with the end-to-end metrics; with ``--trace 1``
every case runs under the tracer and the result carries the per-layer
metrics instead.  Result and trace files go to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The corpus is this many distinct rounds, generated at set-up; a run that
# completes more rounds cycles through them again.
POOL_ROUNDS = 16
SETUP_REPEATS = 3
# Share of each timed case's wall time, and of each set-up, spent on the
# speed probe right after it; a case's time is rescaled by the probe's pace
# over the cases around it, taken until it holds this many iterations
# (about 0.2 s of probing, 1.3 s of cases).
PROBE_SHARE = 0.15
PROBE_WINDOW = 200
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = [
    ("cases_per_s", "cases/s"),
    ("case_p50_ms", "ms"),
    ("case_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def import_program() -> float:
    """Import rainbowcw from this checkout's src/ with numpy held to one
    thread; returns the import time.  Raises ImportError when the checkout
    has no sources, or when another copy of the package would be measured."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("RAINBOW_PRIME", None)  # the CLI lets it override --prime
    if not (SRC / "rainbowcw" / "__init__.py").is_file():
        raise ImportError(f"no rainbowcw sources under {SRC}")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rainbowcw
    import rainbowcw.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(rainbowcw.__file__).resolve().parent != SRC / "rainbowcw":
        raise ImportError(f"imported {rainbowcw.__file__}, not the checkout's sources")
    return elapsed


def build_corpus(workload, seed: int, tiny: bool, workdir: str) -> list[list]:
    """The run's rounds of cases, every input drawn from ``seed`` alone."""
    rng = random.Random(seed)
    keys = iter(range(1_000_000))
    strata = [workload.TINY] if tiny else [workload.round_strata(j) for j in range(POOL_ROUNDS)]
    rounds = [[workload.make_case(next(keys), s, rng) for s in round_] for round_ in strata]
    for case in (c for round_ in rounds for c in round_):
        workload.prepare(case, workdir)
    return rounds


def set_up(workload, seed: int, tiny: bool, workdir: str):
    """Corpus, input files, and a warm-up case run and checked untimed."""
    rounds = build_corpus(workload, seed, tiny, workdir)
    warm = workload.make_case(-1, workload.TINY[0], random.Random(f"warm-up {seed}"))
    workload.prepare(warm, workdir)
    problems = workload.check(warm, workload.run(warm), {})
    if problems:
        raise RuntimeError(f"warm-up case failed its check: {problems}")
    return rounds


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, tiny: bool = False) -> dict:
    """Run one workload and return the result (the printed JSON object)
    plus a ``detail`` entry for the result file."""
    import speed
    from tracing import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    try:
        setup_probe = speed.probe_for(PROBE_SHARE * import_s)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            rounds = set_up(workload, seed, tiny, workdir)
            setups.append(time.perf_counter() - start)
            setup_probe += speed.probe_for(PROBE_SHARE * setups[-1])
        setup_factor = speed.factor(setup_probe)

        tracer = Tracer() if trace else None
        # Each timed case: its size (None if it failed), its wall time and
        # the probe iterations run after it.
        timings: list[tuple[str | None, float, list[float]]] = []
        attempted = failed = 0
        problems: list[str] = []
        cache: dict = {}
        timed = 0.0

        def attempt(case) -> None:
            nonlocal attempted, failed, timed
            attempted += 1
            if tracer is not None:
                tracer.case = case.key
                tracer.install()
            start = time.perf_counter()
            try:
                out, failure = workload.run(case), None
            except Exception:  # a failed operation is counted, not fatal
                out, failure = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
                probed = []
            else:
                probed = speed.probe_for(PROBE_SHARE * elapsed)
            timed += elapsed
            timings.append((case.label if failure is None else None, elapsed, probed))
            if failure is not None:
                failed += 1
                print(f"case {case.key} ({case.label}) failed:\n{failure}", file=sys.stderr)
                return
            try:
                found = workload.check(case, out, cache)
            except Exception:  # an output the checks cannot even read is wrong
                found = [f"check raised:\n{traceback.format_exc()}"]
            problems.extend(f"case {case.key} ({case.label}): {p}" for p in found)

        completed_rounds = 0
        while True:
            for case in rounds[completed_rounds % len(rounds)]:
                attempt(case)
            completed_rounds += 1
            if timed >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Traced runs report no timings, so they ran no probe.
    if trace:
        factors = [1.0] * len(timings)
    else:
        factors = speed.local_factors([probed for _, _, probed in timings], PROBE_WINDOW)
    timed_ref = sum(f * elapsed for f, (_, elapsed, _) in zip(factors, timings))
    times: dict[str, list[float]] = {}  # rescaled, by case size
    for f, (label, elapsed, _) in zip(factors, timings):
        if label is not None:
            times.setdefault(label, []).append(f * elapsed)
    all_times = [t for ts in times.values() for t in ts]
    if not all_times:
        raise RuntimeError("no case completed")
    if trace:
        values = tracer.layer_metrics(len(all_times))
        metrics = {k: {"value": values[k], "unit": unit} for k, unit, _ in LAYER_METRICS}
    else:
        setup_s = setup_factor * (import_s + statistics.median(setups))
        metrics = _end_to_end(all_times, timed_ref, setup_s)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": completed_rounds, "timed_s": timed, "import_s": import_s,
        "setup_repeats_s": setups, "setup_speed_factor": setup_factor,
        "speed_factors": factors,
        "wall_cases_per_s": len(all_times) / timed,
        "cases_per_s": len(all_times) / timed_ref,
        "by_size": {label: {"cases": len(ts), "median_ref_ms": 1000 * statistics.median(ts)}
                    for label, ts in sorted(times.items())},
        "problems": problems[:50],
    }
    return {"result": result, "detail": detail, "tracer": tracer}


def _end_to_end(times: list[float], timed: float, setup_s: float) -> dict:
    p90 = statistics.quantiles(times, n=10)[8] if len(times) >= 2 else times[0]
    values = {
        "cases_per_s": len(times) / timed,
        "case_p50_ms": 1000 * statistics.median(times),
        "case_p90_ms": 1000 * p90,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["linearity-sweep", "cw-certify", "strand-polarize"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    result, detail, tracer = run["result"], run["detail"], run["tracer"]

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.result.json", "w") as handle:
        json.dump({"result": result, "detail": detail}, handle, indent=1)
    if tracer is not None:
        tracer.write(f"{stem}.spans.json")
    print(f"{args.workload} seed {args.seed}: {result['attempted']} cases "
          f"({result['failed']} failed) in {detail['rounds']} rounds, "
          f"{detail['timed_s']:.1f} s timed, {detail['cases_per_s']:.3f} cases/s "
          f"({detail['wall_cases_per_s']:.3f} in wall time), "
          f"{len(detail['problems'])} problems", file=sys.stderr)
    for problem in detail["problems"][:10]:
        print(f"  {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
