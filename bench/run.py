"""The radlearn benchmark: one workload per invocation, from a checkout's root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: one child process at a time,
each running one repetition of the workload (``child.py``), stages one after
another, with BLAS threads capped at ``nproc``. A run first starts one
child to warm the bytecode cache, then times set-up in several fresh
children, then repeats the workload while another repetition still fits in
``--seconds`` (at least once).

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``
as medians over the repetitions: ``setup_s`` (process start until
``radlearn.cli`` is imported and the config parsed), ``wall_s`` (the whole
stage sequence) and ``peak_rss_mb`` (the child's ``ru_maxrss``). With
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics instead, plus ``bench.trace_overhead_s``.

``setup_s`` and ``wall_s`` are given at a reference machine speed: each
measured interval is scaled by the speed, relative to ``PROBE_REF_MS``, at
which the probe loop (``probe.py``, on the workload's CPU) ran during it.
On a host whose neighbours slow it by up to 1.6x within minutes this keeps
the figures of one program steady; the figures as measured are printed
beside them and kept in the result file (``bench.*_measured_s``,
``bench.probe_ms``, the probe samples). The workload, its children and the
probe are pinned to one CPU, so a change that spreads work over more CPUs
is not measured here.

Every stage call and every output check is an operation; the error rate is
failed over attempted operations. Artifacts are hashed per repetition and
must repeat byte for byte, within the run and against the record an earlier
run of the same source and seed left under ``.bench_out/records``; so must
the exact counters of traced runs. A failed operation exits 1.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Everything else the run learned (environment,
per-span statistics, digests, spans) is written to
``.bench_out/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from child import COUNT_NAMES, SPAN_NAMES  # noqa: E402
from spans import per_call_stats, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI_STAGES = ("phantom", "extract", "filter", "rfe", "cluster", "train",
              "diagnose", "report")
SETUP_CHILDREN = 5
IMPORTTIME_CHILDREN = 3
RUN_LIMIT_S = 170.0  # every child is stopped before a run reaches this
# the probe loop's time on the quiet host (a 2-vCPU Xeon VM); setup_s and
# wall_s are reported at this machine speed, see probe.py
PROBE_REF_MS = 0.6
PROBE_MIN_WINDOW_S = 2.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TEXTURE_FAMILIES = ("glcm", "glrlm", "glszm", "ngtdm", "gldm")


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def median(values):
    return statistics.median(values) if values else 0.0


def tally(ops) -> tuple[int, int]:
    """(attempted, failed) operations."""
    return len(ops), sum(1 for op in ops if not op["ok"])


def error_rate(ops) -> float:
    attempted, failed = tally(ops)
    return failed / attempted if attempted else 0.0


def tree_digests(directory: str) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    out = {}
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def source_digest(root: str) -> str:
    """sha256 over the program's source files, to key determinism records."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_seconds(stderr: str, package: str) -> float:
    """Cumulative ``-X importtime`` seconds of ``package``: the sum over its
    least nested entries (scipy imports some subpackages without a line of
    their own, only their children)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        if name == package or name.startswith(package + "."):
            entries.append((depth, int(cumulative)))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top) / 1e6


class Run:
    """One invocation: the children it starts and the operations it counts."""

    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.work = os.path.join(root, ".bench_out", "work",
                                 f"{workload.name}-seed{seed}-{os.getpid()}")
        self.config_path = os.path.join(self.work, "config.json")
        self.ops: list[dict] = []
        # the workload and the speed probe share one CPU, so the probe sees
        # what slows the workload; BLAS gets one thread on it
        self.nproc = len(os.sched_getaffinity(0))
        self.cpu = min(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.update((var, "1") for var in BLAS_THREAD_VARS)

    def check(self, name, failure):
        """Record one output check; ``failure`` is None or what went wrong."""
        self.ops.append({"name": name, "ok": failure is None, "detail": failure or ""})

    def _timeout(self) -> float:
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))

    def child(self, *extra):
        """Start child.py, wait for it; (result or None, spawn clock, seconds)."""
        result_path = os.path.join(self.work, "child-result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", self.root,
               "--config", self.config_path, "--result", result_path, *extra]
        spawned = now_ns()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            self.check("child", "child process timed out")
            return None, spawned, (now_ns() - spawned) / 1e9
        elapsed = (now_ns() - spawned) / 1e9
        if proc.returncode != 0:
            self.check("child", f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None, spawned, elapsed
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        expected = os.path.join(self.root, "src", "radlearn")
        if not result["radlearn_file"].startswith(expected + os.sep):
            self.check("child", f"imported radlearn from {result['radlearn_file']}")
            return None, spawned, elapsed
        return result, spawned, elapsed

    def setup_only(self):
        """The (spawn, ready) clock interval of a child that only sets up."""
        result, spawned, _ = self.child()
        return None if result is None else (spawned, result["ready_ns"])

    def import_times(self):
        try:
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import radlearn.cli"],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=self._timeout())
        except subprocess.TimeoutExpired:
            self.check("importtime", "import timing child timed out")
            return 0.0, 0.0
        self.check("importtime", None if proc.returncode == 0 else proc.stderr[-2000:])
        return (import_seconds(proc.stderr, "radlearn"),
                import_seconds(proc.stderr, "scipy.ndimage"))

    def repetition(self, index, traced):
        """One workload repetition: its child, its checks, its digests."""
        rep_dir = os.path.join(self.work, f"rep{index}")
        os.makedirs(rep_dir)
        extra = ["--workload", self.workload.name, "--out-dir", rep_dir]
        result, spawned, elapsed = self.child(*extra, *(["--trace"] if traced else []))
        rep = {"traced": traced, "elapsed_s": elapsed, "result": result}
        if result is not None:
            rep["setup_ns"] = (spawned, result["ready_ns"])
            self.ops.extend(result["ops"])
            if all(op["ok"] for op in result["ops"]):
                for check in self.workload.checks:
                    self.check(check.__name__, check(rep_dir))
            rep["digests"] = tree_digests(rep_dir)
        shutil.rmtree(rep_dir)
        return rep


def layer_values(reps, importtimes, trace_overhead_s) -> tuple[dict, dict]:
    """Per-layer metric values from the traced repetitions, and per-span detail."""
    summaries = [summarize(rep["result"]["spans"]) for rep in reps]
    names = list(dict.fromkeys([f"cli.{s}" for s in CLI_STAGES] + list(SPAN_NAMES)
                               + [n for s in summaries for n in s]))
    values = {name: 0 for name in COUNT_NAMES}
    values.update(reps[0]["result"]["counts"])
    detail = {}
    for name in names:
        entries = [s.get(name) for s in summaries]
        durations = [d for e in entries if e for d in e["durations_ns"]]
        stats = per_call_stats(durations)
        row = {
            "calls": entries[0]["calls"] if entries[0] else 0,
            "s": median([e["total_ns"] / 1e9 if e else 0.0 for e in entries]),
            "self_s": median([e["self_ns"] / 1e9 if e else 0.0 for e in entries]),
            **stats,
        }
        detail[name] = row
        for key in ("s", "self_s", "calls", "median_ms", "tail_ms"):
            values[f"{name}.{key}"] = row[key]
    for family in TEXTURE_FAMILIES:
        for part in ("matrix", "features"):
            values[f"features.{family}.{part}_s"] = values[f"features.{family}.{part}.s"]
    values["nn.steps"] = values["nn.loss_and_grads.calls"]
    values["nn.update_calls"] = values["nn.optimizer_update.calls"]
    values["stats.u_tests"] = values["stats.mann_whitney_u.calls"]
    values["setup.import.radlearn_s"] = median([r for r, _ in importtimes])
    values["setup.import.scipy_ndimage_s"] = median([n for _, n in importtimes])
    values["bench.trace_overhead_s"] = trace_overhead_s
    return values, detail


def exact_counts(rep) -> dict:
    """The counters and span call counts that must repeat exactly for a seed."""
    counts = dict(rep["result"]["counts"])
    for name, entry in summarize(rep["result"]["spans"]).items():
        if name != "bench.counters":
            counts[f"{name}.calls"] = entry["calls"]
    return counts


def compare_with_record(run, key, fresh, label):
    """Check ``fresh`` against an earlier run's record of the same source and seed."""
    path = os.path.join(run.root, ".bench_out", "records", key + ".json")
    record = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    for field, value in fresh.items():
        if field in record and record[field] != value:
            changed = sorted(k for k in set(value) | set(record[field])
                             if value.get(k) != record[field].get(k))
            run.check(f"{label}.{field}", f"differs from an earlier run: {changed[:10]}")
        elif field in record:
            run.check(f"{label}.{field}", None)
        record[field] = value
    if any(not op["ok"] for op in run.ops):
        return  # only a run without failures leaves a record
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)


def all_equal(items) -> bool:
    return all(item == items[0] for item in items[1:])


def measure(run: Run) -> dict:
    """Run the probes and repetitions; returns everything the report needs."""
    run.setup_only()  # fills the bytecode cache; users do not pay that per run
    setups = [run.setup_only() for _ in range(SETUP_CHILDREN)]
    importtimes = [run.import_times() for _ in range(IMPORTTIME_CHILDREN)] if run.trace else []
    reps = []
    while True:
        traced = run.trace and len(reps) % 2 == 1
        same = [r["elapsed_s"] for r in reps if r["traced"] == traced]
        if len(reps) >= (2 if run.trace else 1) and (
                time.monotonic() + median(same or [r["elapsed_s"] for r in reps])
                > run.deadline):
            break
        rep = run.repetition(len(reps), traced)
        reps.append(rep)
        if rep["result"] is None or not all(op["ok"] for op in rep["result"]["ops"]):
            break
    done = [r for r in reps if r["result"] is not None]
    setups += [r["setup_ns"] for r in done]
    return {"setups": [s for s in setups if s is not None], "importtimes": importtimes,
            "reps": done}


class Probe:
    """The speed probe process (``probe.py``) for the length of a ``with`` block."""

    def __init__(self, run: Run):
        self.run = run
        self.out = os.path.join(run.work, "probe.json")
        self.samples: list = []
        self.proc = None

    def __enter__(self):
        os.sched_setaffinity(0, {self.run.cpu})  # inherited by the probe and every child
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), "--out", self.out]
        self.proc = subprocess.Popen(cmd, cwd=self.run.root, env=self.run.env,
                                     stdout=subprocess.PIPE, text=True)
        self.proc.stdout.readline()  # the probe is ready once it has said so
        return self

    def __exit__(self, *exc):
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if os.path.exists(self.out):
            with open(self.out, encoding="utf-8") as fh:
                self.samples = json.load(fh)
        return False


def relative_speed(samples, interval) -> float | None:
    """The machine's speed during ``interval`` relative to the reference:
    ``PROBE_REF_MS`` over each probe loop time in the interval (widened to at
    least ``PROBE_MIN_WINDOW_S`` around its middle), averaged over the middle
    half of those values, so that loops cut short or stretched by the
    scheduler do not weigh in. Seconds at reference speed are measured
    seconds times this."""
    start, end = interval
    half = max(end - start, PROBE_MIN_WINDOW_S * 1e9) / 2
    middle = (start + end) / 2
    speeds = sorted(PROBE_REF_MS * 1e6 / (e - s) for s, e in samples
                    if middle - half <= s <= middle + half)
    quarter = len(speeds) // 4
    return statistics.mean(speeds[quarter:len(speeds) - quarter]) if speeds else None


def report(run: Run, spec: dict, measured: dict) -> tuple[dict, dict]:
    """Checks across repetitions, then (metrics, detail)."""
    reps = measured["reps"]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not reps:
        run.check("repetitions", "no repetition completed")
        return {}, {}
    digests = [r["digests"] for r in reps]
    run.check("artifacts.repeat", None if all_equal(digests)
              else "artifacts differ between repetitions of one seed")
    src_sha256 = source_digest(run.root)
    key = f"{src_sha256[:16]}-{run.workload.name}-seed{run.seed}"
    fresh = {"digests": digests[0]}
    if traced:
        counts = [exact_counts(r) for r in traced]
        run.check("counts.repeat", None if all_equal(counts)
                  else "exact counts drift between traced repetitions")
        fresh["counts"] = counts[0]
    compare_with_record(run, key, fresh, "record")

    versions = reps[0]["result"]["versions"]
    detail = {
        "workload": run.workload.name, "why": run.workload.why,
        "environment": {
            "nproc": run.nproc, "pinned_cpu": run.cpu,
            **versions, "platform": platform.platform(),
            "blas_threads": {var: run.env.get(var) for var in BLAS_THREAD_VARS},
            "seed": run.seed, "git_commit": git_commit(run.root),
            "src_sha256": src_sha256,
        },
        "repetitions": {"untraced": len(plain), "traced": len(traced),
                        "setup_samples": len(measured["setups"])},
        "digests": digests[0],
        "intervals": {},
    }

    def timed(label, intervals):
        """(as measured, at reference speed) medians of interval seconds."""
        raw = [(b - a) / 1e9 for a, b in intervals]
        speeds = [relative_speed(measured["probe"], i) for i in intervals]
        detail["intervals"][label] = [[list(i), r, v] for i, r, v in zip(intervals, raw, speeds)]
        if None in speeds:
            run.check("probe", "no probe sample while a measurement ran")
            return median(raw), median(raw)
        return median(raw), median([r * v for r, v in zip(raw, speeds)])

    setup_raw, setup = timed("setup", measured["setups"])
    wall_raw, wall = timed("wall", [r["result"]["wall_ns"] for r in plain])
    values = {
        "setup_s": setup,
        "wall_s": wall,
        "peak_rss_mb": median([r["result"]["peak_rss_mb"] for r in plain]),
        "bench.setup_measured_s": setup_raw,
        "bench.wall_measured_s": wall_raw,
        "bench.probe_ms": median([(e - s) / 1e6 for s, e in measured["probe"]]),
    }
    if traced:
        overhead = timed("traced_wall", [r["result"]["wall_ns"] for r in traced])[1] - wall
        layer, spans_detail = layer_values(traced, measured["importtimes"], overhead)
        values.update(layer)
        detail["spans"] = spans_detail
        detail["counts"] = traced[0]["result"]["counts"]
        detail["trace"] = traced[-1]["result"]["spans"]
    detail["probe"] = measured["probe"]
    section = "per_layer" if run.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    detail["metrics"] = dict(values)
    return metrics, detail


def print_report(run, metrics, detail):
    attempted, failed = tally(run.ops)
    print(f"radlearn benchmark: workload {run.workload.name}, seed {run.seed}, "
          f"trace {int(run.trace)}")
    print(f"why: {run.workload.why}")
    if detail:
        print("environment: " + json.dumps(detail["environment"], sort_keys=True))
        print("repetitions: " + json.dumps(detail["repetitions"], sort_keys=True))
    if run.trace and detail:
        print(f"{'span':<38}{'calls':>8}{'total s':>11}{'self s':>11}"
              f"{'median ms':>11}  tail ms")
        for name, row in detail["spans"].items():
            if row["calls"]:
                print(f"{name:<38}{row['calls']:>8}{row['s']:>11.4f}{row['self_s']:>11.4f}"
                      f"{row['median_ms']:>11.4f}  {row['tail_ms']:.4f} ({row['tail_label']})")
    for name, metric in metrics.items():
        print(f"{name:<42} {metric['value']:>14.6g} {metric['unit']}")
    if detail and not run.trace:
        for name in ("bench.setup_measured_s", "bench.wall_measured_s", "bench.probe_ms"):
            print(f"{name:<42} {detail['metrics'][name]:>14.6g} (as measured)")
    print(f"{'error_rate':<42} {error_rate(run.ops):>14.6g} "
          f"({failed} failed of {attempted} ops_attempted)")
    for op in run.ops:
        if not op["ok"]:
            print(f"FAILED {op['name']}: {op['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="radlearn benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "radlearn", "__init__.py")):
        print("bench: no radlearn source at ./src/radlearn; run from a checkout's root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    workload = WORKLOADS[args.workload]
    run = Run(root, workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(run.work)
    try:
        with open(run.config_path, "w", encoding="utf-8") as fh:
            json.dump(workload.config(args.seed), fh, sort_keys=True, indent=2)
        with Probe(run) as probe:
            measured = measure(run)
        measured["probe"] = probe.samples
        metrics, detail = report(run, spec, measured)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    results = os.path.join(root, ".bench_out", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**detail, "ops": run.ops}, fh, sort_keys=True)
    print_report(run, metrics, detail)
    attempted, failed = tally(run.ops)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
