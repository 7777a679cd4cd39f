#!/usr/bin/env python3
"""Campaign benchmark for fsim: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 20 --trace 0

Builds the library, CLI and harness from source (Release, into
.bench_build/), generates the workload's batch spec from --seed, runs a
CLI reference, then either times the workload for --seconds (--trace 0,
end-to-end metrics) or makes one traced run (--trace 1, per-layer
metrics). Every repetition is checked against the reference; the last
line of stdout is one JSON object {correct, attempted, failed, metrics}.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

APPS = ["wavetoy", "minimd", "atmo"]
REGIONS = ["regular", "fp", "bss", "data", "stack", "text", "heap", "message"]
# long_sim runs every app at about 8x its default timesteps
# (wavetoy 20, minimd 12, atmo 10).
LONG_STEPS = {"wavetoy": 160, "minimd": 96, "atmo": 80}
JOBS = 4  # compute threads of every in-process workload
FLEET_WORKERS, WORKER_JOBS = 2, 2  # service_fleet: 2 x `fsim worker --jobs=2`
CI = 0.05

# Grid size per workload: runs per (campaign, region) cell, full and smoke.
# ci_target's value is the per-cell cap; its waves stop at the --ci target.
WORKLOADS = {
    "paper_batch": {"runs": 50, "smoke_runs": 2, "prune": "full"},
    "long_sim": {"runs": 16, "smoke_runs": 1, "prune": "off", "long": True},
    "ci_target": {"runs": 2000, "smoke_runs": 30, "prune": "full", "ci": True},
    "service_fleet": {"runs": 50, "smoke_runs": 2, "prune": "full",
                      "service": True},
}

END_TO_END = [("runs_per_s", "1/s"), ("wall_s", "s"), ("setup_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB")]

TIMEOUT = 150  # seconds, for any one child process


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                        or ".bench_build")


def build():
    """Configure (once) and build; returns (fsim, harness) paths."""
    bdir = build_dir()
    os.makedirs(OUT, exist_ok=True)
    logpath = os.path.join(OUT, "build.log")
    with open(logpath, "a") as logf:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j",
                      str(min(4, os.cpu_count() or 1)), "--target",
                      "perfbench_harness", "fsim_cli"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=logf,
                              timeout=840).returncode != 0:
                raise BenchError("build failed (see %s)" % logpath)
    return (os.path.join(bdir, "fsim", "tools", "fsim"),
            os.path.join(bdir, "perfbench_harness"))


# --- inputs ----------------------------------------------------------------

def make_spec(workload, seed, smoke):
    """The workload's fsim-batch-v2 spec. The campaign seeds come from
    --seed alone, so service_fleet gets exactly paper_batch's spec."""
    w = WORKLOADS[workload]
    rng = random.Random(seed)
    campaigns = []
    for app in APPS:
        c = {"app": app, "seed": rng.randrange(1, 2 ** 31)}
        if w.get("long"):
            c["steps"] = LONG_STEPS[app]
        campaigns.append(c)
    return {"format": "fsim-batch-v2",
            "runs": w["smoke_runs"] if smoke else w["runs"],
            "prune": w["prune"], "regions": REGIONS, "campaigns": campaigns}


def fnv1a(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def cli_reference(fsim, workload, spec_path, jobs):
    """Monolithic `fsim batch --json` document bytes for the spec."""
    cmd = [fsim, "batch", "--spec=" + spec_path, "--jobs=%d" % jobs,
           "--json", "--quiet"]
    if WORKLOADS[workload].get("ci"):
        cmd.append("--ci=%g" % CI)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=TIMEOUT)
    if p.returncode != 0:
        raise BenchError("fsim batch failed: " + p.stderr.decode()[-400:])
    return p.stdout


def doc_digests(doc):
    d = json.loads(doc)
    return {"digest": d["digest"], "outcome_digest": d["outcome_digest"],
            "doc_fnv": fnv1a(doc)}


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def check_recorded(workload, seed, smoke, ref):
    """Compare with the recorded jobs=1 digests when this seed has them."""
    if smoke:
        return True
    rec = load_reference()["digests"].get(workload, {}).get(str(seed))
    if rec is None:
        return True
    if rec != ref:
        log("perfbench: %s seed %d digests %s != recorded %s"
            % (workload, seed, ref, rec))
        return False
    return True


# --- provenance ------------------------------------------------------------

def provenance(harness, workload, seed):
    info = json.loads(subprocess.run([harness, "info"], stdout=subprocess.PIPE,
                                     check=True, timeout=30).stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if p.returncode == 0:
            commit = p.stdout.decode().strip()
    src = hashlib.sha256()
    for d, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            path = os.path.join(d, name)
            src.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                src.update(f.read())
    threads = (FLEET_WORKERS * WORKER_JOBS
               if WORKLOADS[workload].get("service") else JOBS)
    flags = []
    if info["build_type"] != "Release":
        flags.append("non-Release build (%s)" % info["build_type"])
    if nproc < threads:
        flags.append("nproc %d below the workload's %d threads"
                     % (nproc, threads))
    return {"nproc": nproc, "cpu_model": cpu, "compiler": info["compiler"],
            "build_type": info["build_type"], "git_commit": commit,
            "source_sha256": src.hexdigest(), "seed": seed,
            "workload": workload, "threads": threads, "flags": flags}


# --- timed runs ------------------------------------------------------------

def timed_inprocess(harness, workload, spec_path, seconds, work, ref_fnv):
    cmd = [harness, "timed", "--spec=" + spec_path, "--jobs=%d" % JOBS,
           "--seconds=%g" % seconds]
    if WORKLOADS[workload].get("ci"):
        cmd += ["--ci=%g" % CI, "--checkpoint=" + os.path.join(work, "ckpt")]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=TIMEOUT)
    if p.returncode != 0:
        raise BenchError("harness failed: " + p.stderr.decode()[-400:])
    lines = [json.loads(l) for l in p.stdout.decode().splitlines()]
    reps = []
    for r in lines[:-1]:
        r["ok"] = r["doc_fnv"] == ref_fnv
        r["peak_rss_mb"] = lines[-1]["peak_rss_mb"]
        reps.append(r)
    return reps


def wait_for(pred, what, timeout=60.0):
    deadline = time.perf_counter() + timeout
    while not pred():
        if time.perf_counter() > deadline:
            raise BenchError("timed out waiting for " + what)
        time.sleep(0.001)


def file_has(path, text):
    try:
        with open(path) as f:
            return text in f.read()
    except OSError:
        return False


def reap(proc, timeout):
    """Wait for a child (killing it after `timeout` seconds) and return its
    rusage, which carries the child's own peak RSS."""
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return ru
        if time.perf_counter() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.001)


def service_rep(fsim, rep_dir, spec_path, ref_doc):
    """One service_fleet repetition: daemon + two workers, submit, fetch."""
    os.makedirs(rep_dir)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    procs, logs = [], []

    def spawn(args, name):
        logf = open(os.path.join(rep_dir, name + ".log"), "w")
        logs.append(logf)
        p = subprocess.Popen([fsim] + args, cwd=rep_dir,
                             stdout=subprocess.DEVNULL, stderr=logf)
        procs.append(p)
        return p

    def cli(args):
        p = subprocess.run([fsim] + args + ["--socket=fsim.sock"],
                           cwd=rep_dir, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, timeout=TIMEOUT)
        if p.returncode != 0:
            raise BenchError("fsim %s failed: %s"
                             % (args[0], p.stderr.decode()[-400:]))
        return p.stdout.decode()

    try:
        t0 = time.perf_counter()
        spawn(["serve", "--socket=fsim.sock", "--state=state"], "serve")
        wait_for(lambda: file_has(os.path.join(rep_dir, "serve.log"),
                                  "listening"), "daemon")
        for i in range(FLEET_WORKERS):
            spawn(["worker", "--socket=fsim.sock", "--name=w%d" % i,
                   "--jobs=%d" % WORKER_JOBS], "w%d" % i)
        for i in range(FLEET_WORKERS):
            wait_for(lambda: file_has(os.path.join(rep_dir, "w%d.log" % i),
                                      "connected"), "worker")
        t1 = time.perf_counter()
        job = cli(["submit", "--tenant=bench", "--spec=" + spec_path]).strip()
        result = os.path.join(rep_dir, "state", "jobs", job, "result.json")
        wait_for(lambda: os.path.exists(result), "job " + job, TIMEOUT)
        cli(["fetch", "--job=" + job, "--out=fetched.json"])
        t2 = time.perf_counter()
        with open(os.path.join(rep_dir, "fetched.json"), "rb") as f:
            fetched = f.read()
        cli(["shutdown"])
        rusages = [reap(p, 30) for p in procs]
    finally:
        for p in procs:
            if p.returncode is None:
                reap(p, 0)
        for f in logs:
            f.close()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    peaks = sum(r.ru_maxrss for r in rusages)
    return {"setup_s": t1 - t0, "wall_s": t2 - t1, "run_s": t2 - t1,
            "cpu_s": cpu, "peak_rss_mb": peaks * 1024 / 1e6,
            "ok": fetched == ref_doc}


def timed_service(fsim, spec_path, seconds, work, ref_doc, runs):
    reps, start, last = [], time.perf_counter(), 0.0
    while len(reps) < 3 or time.perf_counter() - start + last <= seconds:
        r0 = time.perf_counter()
        r = service_rep(fsim, os.path.join(work, "rep%d" % len(reps)),
                        spec_path, ref_doc)
        last = time.perf_counter() - r0
        r["runs"] = runs
        reps.append(r)
    return reps


def grid_runs(spec):
    return spec["runs"] * len(spec["regions"]) * len(spec["campaigns"])


# --- traced run ------------------------------------------------------------

def self_times(spans):
    """Per span name: count, total ms and self ms (duration minus the part
    of the interval its children cover)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ms"], s["end_ms"]
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ms"]):
            a, b = max(lo, c["start_ms"]), min(hi, c["end_ms"])
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        e = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0,
                                       "self_ms": 0.0})
        e["count"] += 1
        e["total_ms"] += hi - lo
        e["self_ms"] += (hi - lo) - covered
    return out


def traced(harness, workload, spec_path, work, ref_fnv):
    cmd = [harness, "traced", "--spec=" + spec_path, "--jobs=%d" % JOBS,
           "--out=" + work]
    w = WORKLOADS[workload]
    if w.get("ci"):
        cmd += ["--ci=%g" % CI, "--checkpoint=" + os.path.join(work, "ckpt")]
    if w.get("service"):
        cmd += ["--fleet-workers=%d" % FLEET_WORKERS,
                "--worker-jobs=%d" % WORKER_JOBS]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=TIMEOUT)
    if p.returncode != 0:
        raise BenchError("harness failed: " + p.stderr.decode()[-400:])
    res = json.loads(p.stdout.decode().splitlines()[-1])
    with open(os.path.join(work, "spans.jsonl")) as f:
        spans = [json.loads(l) for l in f]
    summary = self_times(spans)
    with open(os.path.join(work, "trace_summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    log("perfbench: traced %d runs in %.3f s (untraced %.3f s); self time:"
        % (res["runs"], res["traced_s"], res["untraced_s"]))
    for name, e in sorted(summary.items(), key=lambda kv: -kv[1]["self_ms"]):
        log("  %-26s %7d spans %11.1f ms total %11.1f ms self"
            % (name, e["count"], e["total_ms"], e["self_ms"]))
    ok = res["agree"] and res["doc_fnv"] == ref_fnv
    if not ok:
        log("perfbench: traced run disagrees with the library/CLI reference")
    return ok, res["runs"], res["metrics"]


# --- main ------------------------------------------------------------------

def run(args):
    fsim, harness = build()
    work = os.path.join(OUT, "%s-s%d-t%d%s" % (args.workload, args.seed,
                                              args.trace,
                                              "-smoke" if args.smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = make_spec(args.workload, args.seed, args.smoke)
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)

    prov = provenance(harness, args.workload, args.seed)
    with open(os.path.join(work, "provenance.json"), "w") as f:
        json.dump(prov, f, indent=1)
    print(json.dumps({"provenance": prov}), flush=True)
    for flag in prov["flags"]:
        log("perfbench: WARNING: " + flag)

    ref_doc = cli_reference(fsim, args.workload, spec_path, JOBS)
    ref = doc_digests(ref_doc)
    correct = check_recorded(args.workload, args.seed, args.smoke, ref)
    if args.smoke:
        serial = cli_reference(fsim, args.workload, spec_path, 1)
        if serial != ref_doc:
            log("perfbench: jobs=1 and jobs=%d documents differ" % JOBS)
            correct = False

    if args.trace:
        ok, attempted, metrics = traced(harness, args.workload, spec_path,
                                        work, ref["doc_fnv"])
        correct = correct and ok
        failed = 0 if correct else attempted
    else:
        if WORKLOADS[args.workload].get("service"):
            reps = timed_service(fsim, spec_path, args.seconds, work, ref_doc,
                                 grid_runs(spec))
        else:
            reps = timed_inprocess(harness, args.workload, spec_path,
                                   args.seconds, work, ref["doc_fnv"])
        attempted = sum(r["runs"] for r in reps)
        # A repetition whose document differs from the reference has none
        # of its grid points folded into a verified result.
        failed = sum(r["runs"] for r in reps if not (r["ok"] and correct))
        correct = correct and failed == 0
        med = lambda key: statistics.median(r[key] for r in reps)
        values = {
            "runs_per_s": statistics.median(r["runs"] / r["run_s"]
                                            for r in reps),
            "wall_s": med("wall_s"), "setup_s": med("setup_s"),
            "cpu_s": med("cpu_s"), "peak_rss_mb": med("peak_rss_mb"),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        with open(os.path.join(work, "reps.json"), "w") as f:
            json.dump(reps, f, indent=1)
        log("perfbench: %d repetitions, %d of %d grid points failed"
            % (len(reps), failed, attempted))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grid; also checks jobs=1 against jobs=4")
    args = ap.parse_args()
    try:
        return run(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        log("perfbench: error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
