"""Time-to-sphere benchmark of sapflow: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``. Each
repetition runs in a fresh process (perfbench/worker.py), so set-up time and
peak memory are per process. ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced repetition paired with an
untraced one. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A record of
every repetition, with provenance, is written to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORK_DIR = os.path.join(HERE, ".work")
WORKER = os.path.join(HERE, "worker.py")

# Set-up-only processes per run, besides one per repetition. Half run before
# the repetitions and half after, so the samples see more than one moment of
# a machine whose speed drifts over seconds.
SETUP_RUNS = 6
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps": "count",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "radius_err_rel": "ratio",
}


class BenchError(Exception):
    pass


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def machine_info():
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        base = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(base)):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, index, key), encoding="ascii") as fh:
                    fields[key] = fh.read().strip()
            info["caches"][f"L{fields['level']} {fields['type']}"] = fields["size"]
    except OSError:
        pass
    return info


def source_identity():
    """The git commit when there is one, and a digest of the program's source."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "sapflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


class Runner:
    """Starts worker processes for one workload and seed, within the deadline."""

    def __init__(self, workload, seed, smoke, tmp):
        self.workload, self.seed, self.smoke, self.tmp = workload, seed, smoke, tmp
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=SRC, **{k: "1" for k in THREAD_ENV})

    def elapsed(self):
        return time.monotonic() - self.started

    def child(self, mode):
        self.count += 1
        tag = f"{mode}{self.count}"
        out = os.path.join(self.tmp, tag + ".json")
        workdir = os.path.join(self.tmp, tag)
        os.makedirs(workdir)
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--out", out,
               "--workdir", workdir] + (["--smoke"] if self.smoke else [])
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(DEADLINE_S - self.elapsed(), 1.0),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} repetition overran the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0 or not os.path.exists(out):
            raise BenchError(
                f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        with open(out, encoding="ascii") as fh:
            res = json.load(fh)
        res["rep_s"] = time.monotonic() - t0
        if not os.path.abspath(res["sapflow_file"]).startswith(SRC + os.sep):
            raise BenchError(f"sapflow was imported from {res['sapflow_file']}, not {SRC}")
        shutil.rmtree(workdir)
        if mode == "traced":
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(
                OUT_DIR, f"{self.workload}-seed{self.seed}-spans{self.count}.json"
            )
            os.replace(out[: -len(".json")] + "-spans.json", spans)
            res["spans_file"] = os.path.relpath(spans, ROOT)
        return res

    def repeat(self, seconds, *modes):
        """Run the modes in turn until another round would pass ``seconds``."""
        rounds, longest, t0 = [], 0.0, time.monotonic()
        while True:
            r0 = time.monotonic()
            rounds.append([self.child(mode) for mode in modes])
            longest = max(longest, time.monotonic() - r0)
            if time.monotonic() - t0 + longest > seconds:
                return rounds


def measure(workload, seed, seconds, trace, smoke):
    """Run one workload; returns (result line, per-metric samples, record)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        runner = Runner(workload, seed, smoke, tmp)
        if trace:
            rounds = runner.repeat(seconds, "run", "traced")
            plain = [r[0] for r in rounds]
            traced = [r[1] for r in rounds]
            reps = plain + traced
        else:
            runner.child("setup")  # warm-up: byte-compiles sapflow, loads libraries
            setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_RUNS // 2)]
            reps = [r[0] for r in runner.repeat(seconds, "run")]
            setups += [runner.child("setup")["setup_s"] for _ in range(SETUP_RUNS // 2)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    run_failures = []
    for rep in reps:
        if "steps" not in rep:
            rep.setdefault("failures", []).append("no series was produced")
    if len({rep.get("steps") for rep in reps}) > 1:
        run_failures.append("step count differs between repetitions of one seed")
    failed = sum(1 for rep in reps if rep["failures"])
    if run_failures:
        failed = len(reps)

    if trace:
        if not all("layers" in rep for rep in traced):
            raise BenchError("a traced repetition produced no series:\n" + json.dumps(traced))
        failures = [f for rep in traced for f in rep["interception_failures"]]
        if failures:
            raise BenchError("interception check failed:\n  " + "\n  ".join(failures))
        per_rep = [
            dict(rep["layers"], **{
                "area_drift_rel": (rep["area_drift_rel"], "ratio"),
                "process.cpu_util": (rep["cpu_s"] / rep["wall_s"], "ratio"),
            })
            for rep in traced
        ]
        units = {name: unit for name, (_, unit) in per_rep[0].items()}
        samples = {name: [r[name][0] for r in per_rep] for name in units}
        untraced_wall = statistics.median(rep["wall_s"] for rep in plain)
        traced_wall = statistics.median(rep["wall_s"] for rep in traced)
        samples["trace_overhead_rel"] = [traced_wall / untraced_wall - 1.0]
        units["trace_overhead_rel"] = "ratio"
    else:
        ok = [rep for rep in reps if "steps" in rep]
        if not ok:
            raise BenchError("no repetition produced a series:\n" + json.dumps(reps))
        units = END_TO_END_UNITS
        samples = {
            "setup_s": setups + [rep["setup_s"] for rep in reps],
            "wall_s": [rep["wall_s"] for rep in ok],
            "steps": [rep["steps"] for rep in ok],
            "steps_per_s": [rep["steps"] / rep["wall_s"] for rep in ok],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in ok],
            "radius_err_rel": [rep["radius_err_rel"] for rep in ok],
        }
    metrics = {
        name: {"value": statistics.median(values), "unit": units[name]}
        for name, values in samples.items()
    }
    if not trace and all("analyze_s" in rep for rep in ok):
        samples["analyze_s"] = [rep["analyze_s"] for rep in ok]  # shown, not gated

    line = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "machine": machine_info(),
        "versions": reps[0]["versions"],
        **source_identity(),
        "run_failures": run_failures,
        "repetitions": [
            {k: v for k, v in rep.items() if k not in ("layers", "sapflow_file")}
            for rep in reps
        ],
        "result": line,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    return line, samples, record


def print_report(workload, line, samples, record):
    print(f"== {workload}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"commit {record['git_commit'] or '-'}  source {record['source_sha256'][:12]}")
    m = record["machine"]
    print(f"   {m['cpu_model']}, nproc {m['nproc']}, caches {m['caches']}, "
          f"python {m['python']}, numpy {record['versions']['numpy']}, "
          f"scipy {record['versions']['scipy']}")
    for rep in record["repetitions"]:
        if "steps" in rep:
            print(f"   rep: steps {rep['steps']}  series sha256 {rep['series_sha256'][:16]}"
                  f"  wall {rep['wall_s']:.3f} s  failures {rep['failures'] or 'none'}")
        else:
            print(f"   rep: failures {rep['failures']}")
    print(f"   {'metric':42s} {'unit':>7s} {'median':>13s} {'q1':>13s} {'q3':>13s} {'n':>3s}")
    units = {name: m["unit"] for name, m in line["metrics"].items()}
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        print(f"   {name:42s} {units.get(name, 's'):>7s} {statistics.median(values):13.6g} "
              f"{q1:13.6g} {q3:13.6g} {len(values):3d}")
    fail_ratio = line["failed"] / line["attempted"]
    print(f"   {'fail_ratio':42s} {'ratio':>7s} {fail_ratio:13.6g} "
          f"{'':13s} {'':13s} {line['attempted']:3d}")
    for reason in record["run_failures"]:
        print(f"   FAILED: {reason}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--smoke", action="store_true",
                   help="subdivision 2 over a short horizon (see smoke.py)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sapflow", "__init__.py")):
        print(f"error: no sapflow source under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    try:
        for name in names:
            line, samples, record = measure(
                name, args.seed, args.seconds, bool(args.trace), args.smoke
            )
            print_report(name, line, samples, record)
            lines[name] = line
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
