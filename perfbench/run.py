#!/usr/bin/env python3
"""End-to-end benchmark of the Abagnale reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reno_sec61 --seed 1 --seconds 25 --trace 0

It builds the system from the checkout's sources into .bench_build (Release),
generates the workload's inputs, runs it for --seconds, checks every output
against perfbench/goldens.json, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, timed from outside the program.
--trace 1 runs the separate traced run (abg_perfbench traced) and reports the
per-layer metrics. Workloads:

    reno_sec61  the §6.1 Reno job through api::Engine, one job at a time
    sweep       reno, cubic, vegas and a repeat of reno on one Engine,
                3 threads, 2 jobs in flight; not listed in BENCHMARK.json,
                because one batch fills a run and its run-to-run spread
                (12-18% on a shared 4-core host) left no margin
    served      abagnale_serve (3 threads, 2 jobs in flight) under a closed
                loop of 2 HTTP clients submitting the serve-smoke job
    dist3       the same job, one at a time, on abagnale_serve --workers 3

End-to-end metrics: setup_s is launch until the workload is ready (inputs
generated; Engine, daemon or workers answering), the median of nine set-ups.
cold_job_s is the median of three cold jobs: each the first job of a fresh
process (reno_sec61) or a job run alone on a fresh daemon (served, dist3). job_s is the
median submit-to-result time of the other jobs, result_s that of all jobs,
jobs_per_min the jobs completed per minute of the measured period, and
peak_rss_mb the summed peak RSS of every process of the system under test.

The seed drives the load generator only (client poll jitter, the replay and
DTW samples of the traced run); the traces are fixed so the goldens hold.
"""
import argparse
import glob
import http.client
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
HARNESS = os.path.join(BUILD, "abg_perfbench")
TOOLS = os.path.join(BUILD, "abagnale", "tools")
WORKLOADS = ("reno_sec61", "sweep", "served", "dist3")
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "cold_job_s": "s",
    "job_s": "s",
    "jobs_per_min": "jobs/min",
    "result_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "net.collect_s": "s",
    "trace.segment_s": "s",
    "trace.load_csv_s": "s",
    "enum.build_s": "s",
    "enum.solve_s": "s",
    "enum.teardown_s": "s",
    "enum.models": "count",
    "enum.sketches": "count",
    "enum.yield": "share",
    "enum.rss_mb_per_bucket": "MB",
    "score.pass_s": "s",
    "score.handlers": "count",
    "replay.us_per_handler": "us",
    "dtw.us_per_eval": "us",
    "distance.dtw_cells": "count",
    "distance.dtw_evals": "count",
    "distance.prune_ratio": "share",
    "cache.hit_ratio": "share",
    "cache.entries": "count",
    "refine.iter1_s": "s",
    "refine.iter2_s": "s",
    "refine.iter3_s": "s",
    "refine.untimed_s": "s",
    "refine.critical_bucket_s": "s",
    "refine.validation_s": "s",
    "checkpoint.save_s": "s",
    "pool.queue_wait_us": "us",
    "api.start_delay_s": "s",
    "serve.submit_handler_ms": "ms",
    "serve.get_handler_ms": "ms",
    "serve.wal_append_ms": "ms",
    "serve.http_rtt_ms": "ms",
    "dist.load_ms": "ms",
    "dist.pass_s": "s",
    "dist.passes": "count",
    "dist.overhead_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD, *gen, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=log)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-2000:])
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("configure failed")
        rc = subprocess.call(
            ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4), "--target",
             "abg_perfbench", "abagnale_serve", "abagnale_worker"],
            stdout=log, stderr=log)
    if rc != 0:
        fail("build failed; see " + log_path)


def environment():
    env = json.loads(subprocess.check_output([HARNESS, "env"], text=True))
    try:
        env["git_sha"] = subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stderr=subprocess.DEVNULL).strip()
    except (OSError, subprocess.CalledProcessError):
        env["git_sha"] = "unknown (not a git checkout)"
    env["nproc"] = os.cpu_count()
    env["build_type"] = "Release"
    lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.[ch]pp"), recursive=True):
        with open(path, "rb") as f:
            lines += sum(1 for _ in f)
    env["src_lines"] = lines
    return env


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it, with the
    sample count; None when there are too few samples for one."""
    if len(values) < 11:
        return None, len(values)
    return sorted(values)[len(values) - 11], len(values)


def slope(points):
    """Least-squares slope of (x, y) points; 0 for fewer than two."""
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in points)
    my = statistics.fmean(p[1] for p in points)
    den = sum((p[0] - mx) ** 2 for p in points)
    return sum((p[0] - mx) * (p[1] - my) for p in points) / den if den else 0.0


# --- Output checks ----------------------------------------------------------

with open(os.path.join(HERE, "goldens.json")) as _f:
    GOLDENS = json.load(_f)


def check_job(golden, job):
    """None when the job matches its golden, else the first difference.
    Distances compare bit for bit (hex floats)."""
    if golden is None:
        return "no golden for job " + job.get("name", "?")
    for key, want in golden.items():
        got = job.get(key)
        if key == "distance":
            same = got is not None and float.fromhex(got) == float.fromhex(want)
        elif key == "convergence":
            same = got is not None and [float.fromhex(x) for x in got] == \
                [float.fromhex(x) for x in want]
        else:
            same = got == want
        if not same:
            return "%s: %r != golden %r" % (key, got, want)
    return None


def served_job_view(doc):
    """A daemon result document in the harness's job-record shape."""
    return {
        "name": "served",
        "handler": doc.get("handler", ""),
        "distance": float(doc["distance"]).hex() if doc.get("found") else "inf",
        "exit_class": doc.get("exit_class"),
        "convergence": [float(c["best_distance"]).hex() for c in doc.get("convergence", [])],
    }


# --- In-process workloads ---------------------------------------------------

def harness(args, timeout):
    try:
        out = subprocess.run([HARNESS, *args], capture_output=True, text=True,
                             timeout=timeout, env=dict(os.environ, ABG_LOG_LEVEL="error"))
    except subprocess.TimeoutExpired:
        fail("abg_perfbench %s timed out" % args[0])
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        fail("abg_perfbench %s exited %d" % (args[0], out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_inproc(workload, seconds, seed, work):
    # reno_sec61 splits its seconds over three fresh processes, so each run
    # has three cold jobs (one per process) next to the warm ones; a sweep
    # batch fills a run on its own. Nine set-ups either way.
    parts = 3 if workload == "reno_sec61" else 1
    setup, jobs, cold, warm, elapsed, peak = [], [], [], [], 0.0, 0.0
    for _ in range(parts):
        launched = time.monotonic()
        d = harness(["inproc", "--workload", workload, "--work", work,
                     "--seconds", str(seconds / parts), "--setups", str(9 // parts),
                     "--seed", str(seed), "--launched-at", repr(launched)], RUN_TIMEOUT_S)
        setup += d["setup_s"]
        cold.append(d["jobs"][0]["wall_s"])
        warm += [j["wall_s"] for j in d["jobs"][1:]]
        jobs += d["jobs"]
        elapsed += d["elapsed_s"]
        peak = max(peak, d["peak_rss_mb"])
    goldens = GOLDENS[workload]
    failures = [f for f in (check_job(goldens.get(j["name"]), j) for j in jobs) if f]
    walls = [j["wall_s"] for j in jobs]
    metrics = {
        "setup_s": median(setup),
        "cold_job_s": median(cold),
        "job_s": median(warm),
        "jobs_per_min": 60.0 * len(jobs) / elapsed,
        "result_s": median(walls),
        "peak_rss_mb": peak,
    }
    notes = {
        "submit_ms": median([j["submit_ms"] for j in jobs]),
        "synthesize_untimed_s": [round(j["wall_s"] - j["synth_seconds"], 4) for j in jobs],
        "synthesize_seconds": [round(j["synth_seconds"], 4) for j in jobs],
        "rss_after_job_mb": [round(j["rss_after_mb"], 1) for j in jobs],
        "submit_ms_tail": tail([j["submit_ms"] for j in jobs]),
        "setup_runs_s": setup,
    }
    return metrics, len(jobs), failures, notes


# --- Served workloads -------------------------------------------------------

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def request(port, method, path, body=None, client="perfbench"):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body, headers={"X-Abg-Client": client})
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def children(pid):
    out = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as f:
                fields = f.read().rsplit(")", 1)[1].split()
            if int(fields[1]) == pid:
                out.append(int(stat.split("/")[2]))
        except (OSError, IndexError, ValueError):
            pass
    return out


def status_mb(pid, key):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Daemon:
    def __init__(self, work, index, dist):
        self.port = free_port()
        self.state = os.path.join(work, "state-%d" % index)
        args = [os.path.join(TOOLS, "abagnale_serve"), "--state-dir", self.state,
                "--port", str(self.port), "--threads", "3",
                "--max-concurrent-jobs", "1" if dist else "2"]
        if dist:
            args += ["--workers", "3"]
        self.log = open(os.path.join(work, "serve-%d.log" % index), "w")
        self.proc = subprocess.Popen(args, stdout=self.log, stderr=self.log,
                                     env=dict(os.environ, ABG_LOG_LEVEL="error"))

    def wait_ready(self):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                fail("abagnale_serve exited during start-up")
            try:
                if request(self.port, "GET", "/v1/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        fail("abagnale_serve never answered /v1/healthz")

    def pids(self):
        return [self.proc.pid] + children(self.proc.pid)

    def stop(self):
        workers = children(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.log.close()


def served_job(daemon, spec, golden, client, rng):
    """One closed-loop job: POST, poll the job (reading the job table every
    fifth poll), fetch the result and check it. Returns its record."""
    rec = {}
    t0 = time.monotonic()
    code, body = request(daemon.port, "POST", "/v1/jobs", spec, client)
    rec["submit_ms"] = (time.monotonic() - t0) * 1e3
    if code != 202:
        rec["failure"] = "submit answered %d" % code
        return rec
    jid = json.loads(body)["id"]
    polls = 0
    while True:
        time.sleep(rng.uniform(0.01, 0.03))
        code, body = request(daemon.port, "GET", "/v1/jobs/" + jid, client=client)
        polls += 1
        if polls % 5 == 0:
            request(daemon.port, "GET", "/v1/jobs", client=client)
        if code != 200 or json.loads(body).get("state") not in ("queued", "running"):
            break
    code, body = request(daemon.port, "GET", "/v1/jobs/%s/result" % jid, client=client)
    rec["done_at"] = time.monotonic()
    rec["result_s"] = rec["done_at"] - t0
    rec["rss_mb"] = status_mb(daemon.proc.pid, "VmRSS")
    if code != 200:
        rec["failure"] = "result answered %d" % code
    else:
        rec["failure"] = check_job(golden, served_job_view(json.loads(body)))
    return rec


def run_served(workload, seconds, seed, work):
    dist = workload == "dist3"
    clients = 1 if dist else 2
    golden = GOLDENS["served"]["served"]
    rng = random.Random(seed)

    # Set-up, nine times: inputs generated and the daemon (and, for dist3,
    # its three workers) answering. All but the last are torn down again.
    # The last three fresh daemons each run one job alone first: the cold
    # samples. The daemon is stopped on every exit path, failures included.
    setup = []
    cold = []
    records = []
    lock = threading.Lock()
    daemon = None
    try:
        for i in range(9):
            t0 = time.monotonic()
            harness(["inputs", work], 60)
            daemon = Daemon(work, i, dist)
            daemon.wait_ready()
            setup.append(time.monotonic() - t0)
            if i >= 6:
                with open(os.path.join(work, "served_job.json")) as f:
                    spec = f.read()
                cold.append(served_job(daemon, spec, golden, "perfbench-cold", rng))
            if i < 8:
                daemon.stop()
                shutil.rmtree(daemon.state, ignore_errors=True)

        start = time.monotonic()
        deadline = start + seconds

        def client(cid):
            crng = random.Random(seed * 1000 + cid)
            while time.monotonic() < deadline:
                rec = served_job(daemon, spec, golden, "perfbench-%d" % cid, crng)
                with lock:
                    records.append(rec)
                if "result_s" not in rec:
                    time.sleep(0.5)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        peak = sum(status_mb(pid, "VmHWM") for pid in daemon.pids())
    finally:
        if daemon is not None:
            daemon.stop()

    everything = cold + records
    done = [r for r in records if "result_s" in r]
    colds = [r["result_s"] for r in cold if "result_s" in r]
    failures = [r["failure"] for r in everything if r.get("failure")]
    if not done or not colds:
        fail("no job completed")
    metrics = {
        "setup_s": median(setup),
        "cold_job_s": median(colds),
        "job_s": median([r["result_s"] for r in done]),
        "jobs_per_min": 60.0 * len(done) / (max(r["done_at"] for r in done) - start),
        "result_s": median(colds + [r["result_s"] for r in done]),
        "peak_rss_mb": peak,
    }
    notes = {
        "submit_ms": median([r["submit_ms"] for r in everything]),
        "submit_ms_tail": tail([r["submit_ms"] for r in everything]),
        "daemon_rss_after_job_mb": [round(r["rss_mb"], 1) for r in done],
        "rss_growth_mb_per_job": slope([(i, r["rss_mb"]) for i, r in enumerate(done)]),
        "setup_runs_s": setup,
    }
    return metrics, len(everything), failures, notes


# --- Traced run -------------------------------------------------------------

def run_traced(workload, seed, work):
    d = harness(["traced", "--workload", workload, "--work", work, "--seed", str(seed),
                 "--bin", TOOLS], RUN_TIMEOUT_S)
    golden_set = GOLDENS["served" if workload in ("served", "dist3") else workload]
    failures = list(d["failures"])
    for job in d["jobs"]:
        failures.append(check_job(golden_set.get(job["name"]), job))
    for doc in d["served_results"]:
        failures.append(check_job(GOLDENS["served"]["served"], served_job_view(doc)))
    failures = [f for f in failures if f]
    attempted = len(d["jobs"]) + len(d["served_results"])
    return d["metrics"], attempted, failures, {"spans": "spans.json"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    env = environment()
    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            metrics, attempted, failures, notes = run_traced(args.workload, args.seed, work)
            units = PER_LAYER
        elif args.workload in ("served", "dist3"):
            metrics, attempted, failures, notes = run_served(
                args.workload, args.seconds, args.seed, work)
            units = END_TO_END
        else:
            metrics, attempted, failures, notes = run_inproc(
                args.workload, args.seconds, args.seed, work)
            units = END_TO_END
        missing = sorted(set(units) - set(metrics))
        if missing:
            fail("metrics not measured: " + ", ".join(missing))
        results = os.path.join(BUILD, "results")
        os.makedirs(results, exist_ok=True)
        stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        if args.trace:
            shutil.copy(os.path.join(work, "spans.json"),
                        os.path.join(results, stem + ".spans.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump({"environment": env, "notes": notes, "failures": failures, **out}, f,
                  indent=1)

    print("environment: " + json.dumps(env, sort_keys=True))
    for k, u in units.items():
        print("  %-28s %16.6g %s" % (k, metrics[k], u))
    for k, v in notes.items():
        print("  note %s: %s" % (k, v))
    for f in failures:
        print("  FAILED " + f)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
