"""The liesym benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload symalg --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seconds 15      # each workload in a child
    python3 bench/run.py --smoke                          # every job once, no timing

One run sets the workload up several times, half of them before the passes
and half after (``setup_s`` is the median).  It then runs one untimed pass,
whose outputs are also checked by the oracles and after which the process's
peak resident memory is read (``peak_mib``), and timed passes for at most
``--seconds`` (at least one); ``pass_s`` and ``max_job_s`` are medians over
them.  Times are in seconds at a reference speed (see ``Speed``).  Each
pass runs the jobs one after another in this single thread.  With
``--trace 1`` the timed passes alternate between untraced and traced ones and
the per-layer metrics of ``BENCHMARK.json`` are reported instead; the spans
go to ``bench/out/``.  A job fails on an exception, an oracle mismatch or a
digest mismatch; so does a hash-seed probe whose digest differs from the
parent's.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MANIFEST = BENCH / "manifest.json"
SETUP_REPEATS = 11
CAL_LOOPS = 1500
TICK_S = 0.25
# The calibration's time on a shared 2-vCPU virtual machine (Python 3.11.7)
# when nothing else slows it: timed metrics are in seconds at that speed.
CAL_REF_S = 0.0035
SCALE_MIN, SCALE_MAX = 1 / 3, 1.1
PROBE_HASH_SEEDS = ("0", "1")
PROBE_TIMEOUT_S = 60


def calibrate() -> float:
    """Time a fixed piece of interpreter work: tuple hashing, dict updates,
    sorting and Fraction arithmetic, the operations liesym spends its time in.

    A shared 2-vCPU virtual machine alternates, over seconds to minutes,
    between phases in which the same code runs 2-3x slower (contention
    from outside the process; no steal time is reported).  ``Speed`` uses
    this loop to convert wall time into time at the reference speed
    ``CAL_REF_S``.  The loop runs with the garbage collector off, so that a
    collection its allocations would trigger is paid by the measured code's
    next allocation, not dropped from the measurement; the faster of two
    runs is taken, so that a preemption in one does not count.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            table, acc = {}, Fraction(0)
            for i in range(CAL_LOOPS):
                key = (i % 97, (i % 13, i % 5))
                table[key] = table.get(key, 0) + 1
                acc += Fraction(i % 7, 1 + i % 5)
                sorted((key, (i, (3, 1))))
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Measures a call in wall seconds and in seconds at the reference speed.

    While the call runs, a SIGALRM timer times ``calibrate`` every
    ``TICK_S``; each stretch of wall time between two calibrations is scaled
    by ``CAL_REF_S`` over their mean, a factor clamped to
    [``SCALE_MIN``, ``SCALE_MAX``] (the machine's slow phases stay within
    it; a calibration outside it was disturbed, and ``clamped`` counts
    them).  The calibrations themselves are not counted.  The calibration
    shares the process's caches with the measured code, so a change that
    evicts them more slows it a little too; the summary prints each pass's
    ratio of reference to wall time next to the gated figures.
    """

    def __init__(self):
        self.last = calibrate()
        self.mark = perf_counter()
        self.wall = self.ref = 0.0
        self.clamped = 0

    def _sample(self, *_):
        now = perf_counter()
        cal = calibrate()
        scale = CAL_REF_S * 2 / (self.last + cal)
        if not SCALE_MIN <= scale <= SCALE_MAX:
            self.clamped += 1
            scale = min(max(scale, SCALE_MIN), SCALE_MAX)
        self.wall += now - self.mark
        self.ref += (now - self.mark) * scale
        self.last = cal
        self.mark = perf_counter()

    def measure(self, fn):
        """Return ``fn()``; ``wall`` and ``ref`` then hold its times."""
        self.wall = self.ref = 0.0
        self.mark = perf_counter()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def purge_liesym():
    for name in [m for m in sys.modules
                 if m == "liesym" or m.startswith("liesym.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int):
    """Time ``import liesym``, parsing the problem files and building the
    seeded inputs, from a freshly emptied module cache, at the reference
    speed (see ``Speed``)."""
    import jobs

    purge_liesym()
    gc.collect()
    speed = Speed()

    def build():
        import liesym  # noqa: F401
        return jobs.WORKLOADS[workload](seed)

    wl = speed.measure(build)
    return speed.ref, wl


class Checker:
    """Counts attempted and failed jobs against oracles and digests."""

    def __init__(self, wl, digests: dict[str, str]):
        self.wl = wl
        self.digests = digests
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, job: str, why: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{job}: {why}")

    def check(self, result, oracles: bool):
        values, errors = result["values"], result["errors"]
        for job in self.wl.jobs:
            self.attempted += 1
            if job.name in errors:
                self.fail(job.name, errors[job.name])
                continue
            value = values[job.name]
            try:
                h = digest(job.text(value))
            except Exception as exc:  # a malformed output fails its job
                self.fail(job.name, f"output not printable: {type(exc).__name__}")
                continue
            if job.seeded:
                want = self.first.setdefault(job.name, h)
            else:
                want = self.digests.get(job.name)
            if h != want:
                self.fail(job.name, "digest mismatch" if want else "no recorded digest")
            elif oracles and job.oracle is not None:
                try:
                    ok = job.oracle(value, values)
                except Exception as exc:  # a malformed output fails its job
                    self.fail(job.name, f"oracle raised {type(exc).__name__}: {exc}")
                    continue
                if not ok:
                    self.fail(job.name, "oracle mismatch")

    def probe(self, workload: str, seed: int):
        """Rerun the workload's probe job in child processes, one at a time,
        under two hash seeds; their digests must equal this process's."""
        want = self.digests.get(self.wl.probe)
        for hs in PROBE_HASH_SEEDS:
            self.attempted += 1
            env = {**os.environ, "PYTHONHASHSEED": hs}
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--probe", workload,
                     self.wl.probe, "--seed", str(seed)],
                    cwd=ROOT, env=env, capture_output=True, text=True,
                    timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.fail(f"{self.wl.probe}@PYTHONHASHSEED={hs}", "probe timed out")
                continue
            got = proc.stdout.strip().splitlines()[-1:] if proc.returncode == 0 else []
            if got != [want]:
                self.fail(f"{self.wl.probe}@PYTHONHASHSEED={hs}",
                          f"probe digest {got} != {want}")


def run_pass(wl, stop_after: str | None = None, tracer=None, label=None) -> dict:
    """Run the jobs in order; ``wall_s`` is in wall seconds, ``pass_s`` and
    ``max_job_s`` in seconds at the reference speed (see ``Speed``)."""
    values, errors, times, ref = {}, {}, {}, {}
    speed = Speed()
    for job in wl.jobs:
        if tracer is not None:
            tracer.job = f"{label}:{job.name}"
        try:
            values[job.name] = speed.measure(lambda: job.run(values))
        except Exception as exc:  # a failing job is counted, the pass goes on
            errors[job.name] = f"{type(exc).__name__}: {exc}"
        times[job.name], ref[job.name] = speed.wall, speed.ref
        if job.name == stop_after:
            break
    return {"values": values, "errors": errors,
            "pass_s": sum(ref.values()), "max_job_s": max(ref.values()),
            "wall_s": sum(times.values()), "clamped": speed.clamped}


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import jobs

    setups, wl = [], None
    for _ in range(SETUP_REPEATS // 2 + 1):
        dt, wl = set_up(workload, seed)
        setups.append(dt)
    checker = Checker(wl, load_manifest()["digests"].get(workload, {}))

    gc.collect()
    first = run_pass(wl)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checker.check(first, oracles=True)
    checker.probe(workload, seed)

    if trace:
        from spans import Tracer
        tracer = Tracer()
    passes, traced, layer, laps = [], [], [], []
    start = perf_counter()
    # Start a pass only if it is expected to end within --seconds.
    while not laps or (trace and not traced) or \
            perf_counter() - start + sum(laps) / len(laps) <= seconds:
        lap = perf_counter()
        gc.collect()
        if trace and len(traced) < len(passes):
            label = f"pass{len(traced)}"
            tracer.reset()
            tracer.install()
            try:
                tracer.job = f"{label}:setup"
                jobs.WORKLOADS[workload](seed)
                result = run_pass(wl, tracer=tracer, label=label)
            finally:
                tracer.remove()
            traced.append(result)
            layer.append(tracer.pass_metrics())
        else:
            result = run_pass(wl)
            passes.append(result)
        checker.check(result, oracles=False)
        laps.append(perf_counter() - lap)
    # The other half of the set-ups, so that their median spans the run.
    setups += [set_up(workload, seed)[0] for _ in range(SETUP_REPEATS // 2)]

    out = {
        "workload": workload, "seed": seed, "checker": checker,
        "setup_s": setups,
        "pass_s": [p["pass_s"] for p in passes],
        "max_job_s": [p["max_job_s"] for p in passes],
        "wall_s": [p["wall_s"] for p in passes],
        "ref_per_wall": [p["pass_s"] / p["wall_s"] for p in passes],
        "clamped": sum(p["clamped"] for p in passes),
        "peak_mib": peak_kib / 1024,
    }
    if trace:
        # Counts and sizes repeat exactly from pass to pass; times are
        # scaled to the reference speed with their pass's own factor.
        metrics = dict(layer[0])
        for k in metrics:
            if k.endswith("_s"):
                metrics[k] = statistics.median(
                    m.get(k, 0.0) * p["pass_s"] / p["wall_s"]
                    for m, p in zip(layer, traced))
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["pass_s"] for p in traced)
            / statistics.median(out["pass_s"]))
        metrics["cli.report_bytes"] = sum(
            len(traced[0]["values"][j.name].encode("utf-8"))
            for j in wl.jobs if j.cli and j.name in traced[0]["values"])
        out["layer"] = metrics
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload}-seed{seed}.json",
                    {"workload": workload, "seed": seed})
    return out


def summary_lines(res: dict) -> list[str]:
    c = res["checker"]
    lines = [f"workload {res['workload']} seed {res['seed']}: "
             f"{len(res['pass_s'])} timed passes; times in seconds at the "
             f"reference speed unless marked wall"]
    for key in ("setup_s", "pass_s", "max_job_s", "wall_s"):
        q1, q2, q3 = quartiles(res[key])
        lines.append(f"  {key:10s} median {q2:.4f} s, quartiles "
                     f"{q1:.4f}..{q3:.4f} s, n={len(res[key])}")
    q1, q2, q3 = quartiles(res["ref_per_wall"])
    lines.append(f"  ref/wall   median {q2:.4f}, quartiles {q1:.4f}..{q3:.4f}, "
                 f"{res['clamped']} clamped calibrations")
    lines.append(f"  peak_mib   {res['peak_mib']:.3f} MiB")
    lines.append(f"  fail_ratio {c.failed / c.attempted:.4f} "
                 f"({c.failed}/{c.attempted} jobs)")
    return lines + [f"  FAILED {p}" for p in c.problems]


def end_to_end(res: dict, spec: dict) -> dict:
    values = {k: statistics.median(res[k])
              for k in ("setup_s", "pass_s", "max_job_s")}
    values["peak_mib"] = res["peak_mib"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def per_layer(res: dict, spec: dict) -> dict:
    layer = res["layer"]
    return {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]}


def cmd_probe(workload: str, job: str, seed: int) -> int:
    import jobs

    wl = jobs.WORKLOADS[workload](seed)
    result = run_pass(wl, stop_after=job)
    if job in result["errors"] or job not in result["values"]:
        print(result["errors"].get(job, f"no job {job!r}"), file=sys.stderr)
        return 1
    text = next(j for j in wl.jobs if j.name == job).text(result["values"][job])
    print(digest(text))
    return 0


def cmd_smoke(seed: int, workloads: list[str]) -> int:
    import jobs

    manifest = load_manifest()
    ok = True
    for name in workloads:
        wl = jobs.WORKLOADS[name](seed)
        checker = Checker(wl, manifest["digests"].get(name, {}))
        checker.check(run_pass(wl), oracles=True)
        checker.probe(name, seed)
        print(f"{name}: {checker.attempted - checker.failed}/{checker.attempted} ok")
        for p in checker.problems:
            print(f"  FAILED {p}")
        ok = ok and checker.failed == 0
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def cmd_all(names: list[str], seed: int, seconds: float, trace: int) -> int:
    """Measure each workload in a child process of its own, one at a time,
    so that ``peak_mib`` and the module state are each workload's own; the
    metrics are merged as ``<workload>.<metric>``."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every job once; check oracles, digests and hash seeds")
    ap.add_argument("--probe", nargs=2, metavar=("WORKLOAD", "JOB"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "liesym" / "__init__.py").is_file():
        print(f"error: no liesym sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(src), str(BENCH)]
    import jobs

    names = list(jobs.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in jobs.WORKLOADS for n in names):
        ap.error(f"--workload must be one of {', '.join(jobs.WORKLOADS)} or all")
    if args.probe:
        return cmd_probe(*args.probe, args.seed)
    if args.smoke:
        return cmd_smoke(args.seed, names)

    if len(names) > 1:
        return cmd_all(names, args.seed, args.seconds, args.trace)
    spec = load_benchmark()
    res = measure(names[0], args.seed, args.seconds, bool(args.trace))
    c = res["checker"]
    for line in summary_lines(res):
        print(line)
    if args.trace:
        metrics = per_layer(res, spec)
        for k, v in metrics.items():
            print(f"  {k:45s} {v['value']:.6g} {v['unit']}")
        top = sorted(((v, k) for k, v in res["layer"].items()
                      if k.endswith(".self_s")), reverse=True)[:6]
        print("  largest self times: " + ", ".join(
            f"{k[:-7]} {v:.3f} s" for v, k in top))
    else:
        metrics = end_to_end(res, spec)
    print(json.dumps({"correct": c.failed == 0, "attempted": c.attempted,
                      "failed": c.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
