#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer numbers for mcirbm.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline_vt --seed 1 --seconds 8 --trace 0

It builds `mcirbm_cli` and `perfbench_tool` (perfbench/CMakeLists.txt) into
.bench_build/, generates every input from --seed into .bench_run/, runs the
workload, checks the outputs, and prints one JSON object as its last line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
perfbench/README.md says why each workload exists and which layer metric
should move which end-to-end metric.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
CLI = os.path.join(BUILD, "mcirbm", "mcirbm_cli")
TOOL = os.path.join(BUILD, "perfbench_tool")
# Compute threads of every program run (pool width). Half the 4 vCPUs:
# the pool's workers meet at a barrier per kernel, so at 4 threads any
# core another tenant takes stalls all of them. One busy-looping process
# beside the VT pipeline added 25% to its wall at 4 threads and 2% at 2;
# two added 60% and 10%.
THREADS = 2
SETUP_REPEATS = 3      # at least; cheap set-ups repeat for SETUP_MIN_S
SETUP_MIN_S = 1.0
DATASET_SEED = 7       # the repository's canonical paper-equivalent sets
REQUEST_ROWS = 4       # rows per interactive request (op=transform chunk=1)
REQUEST_FILES = 6      # + the bulk set stays inside the 8-entry dataset cache
PIPELINE_SEEDS = 3     # pipeline seeds a run cycles through (see measure)
EVAL_SEEDS = 5         # k-means seeds hidden_acc evaluates each model with

# Both workloads run `mcirbm_cli pipeline`. conns/depth/bulk give the
# request mix the traced run serves the freshly trained encoder with.
WORKLOADS = {
    # The paper's headline run; CD training dominates (kernel-bound). Its
    # traced run serves the VT-shaped encoder with the mixed mix: 3 depth-1
    # interactive clients beside 1 bulk client (879 rows at chunk=64), so
    # head-of-line blocking in the batcher shows per layer.
    "pipeline_vt": dict(family="msra", index=8, model="sls-grbm",
                        transform="standardize", conns=3, depth=1, bulk=True),
    # The voter ensemble dominates (clustering-bound); CD is tiny. Its
    # traced run serves the tiny QB encoder with the interactive mix: 4
    # connections x 8 pipelined 4-row requests, so per-request overhead
    # (net, handler pool, executor, batcher deadline) dominates.
    "pipeline_qb": dict(family="uci", index=1, model="sls-rbm",
                        transform="binarize", conns=4, depth=8, bulk=False),
}

# Metric names and units come from BENCHMARK.json, the benchmark's contract.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _CONTRACT = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}


class BenchError(Exception):
    pass


class Ledger:
    """Operations attempted and failed; the first failures are kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.add(1, not ok, what)

    def add(self, attempted, failed, what):
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed and len(self.notes) < 20:
            self.notes.append(what)


CHILDREN = []


def child_env():
    env = dict(os.environ)
    env["MCIRBM_THREADS"] = str(THREADS)
    return env


def run(cmd, log, timeout=170):
    """Runs cmd to completion; returns (exit code, wall s, cpu s, rss MB)."""
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env())
        CHILDREN.append(proc)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        CHILDREN.remove(proc)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def must(cmd, log, timeout=170):
    code = run(cmd, log, timeout)[0]
    if code != 0:
        raise BenchError("%s exited %d (see %s)" % (cmd[1], code, log))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("run from the root of an mcirbm checkout "
                         "(no CMakeLists.txt/src in %s)" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "perfbench_build.log")
    with open(log, "w") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=out,
                           stderr=subprocess.STDOUT, check=True, timeout=300)
        subprocess.run(["cmake", "--build", BUILD, "-j",
                        str(os.cpu_count() or 1),
                        "--target", "mcirbm_cli", "perfbench_tool"],
                       stdout=out, stderr=subprocess.STDOUT, check=True,
                       timeout=840)


def environment_stamp():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": build_type,
        "cxx_flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " + cache.get(
            "CMAKE_CXX_FLAGS_" + build_type.upper(), "")).strip(),
        "MCIRBM_THREADS": str(THREADS),
        "MCIRBM_DETERMINISTIC": os.environ.get("MCIRBM_DETERMINISTIC",
                                               "unset (deterministic)"),
        "git_commit": commit or "none (not a git checkout)",
        "source_sha256": digest.hexdigest(),
    }


class Server:
    """`mcirbm_cli serve --listen 0` as its own process."""

    def __init__(self, work, name):
        self.log = os.path.join(work, name + ".log")
        self.out = open(self.log, "w")
        self.proc = subprocess.Popen(
            [CLI, "serve", "--listen", "0", "--threads", str(THREADS)],
            stdout=self.out, stderr=subprocess.STDOUT, env=child_env())
        CHILDREN.append(self.proc)
        deadline = time.time() + 60
        self.port = None
        while self.port is None:
            with open(self.log) as f:
                m = re.search(r"# listening port=(\d+)", f.read())
            if m:
                self.port = int(m.group(1))
            elif self.proc.poll() is not None or time.time() > deadline:
                self.stop()
                raise BenchError("server did not start (see %s)" % self.log)
            else:
                time.sleep(0.005)

    def stop(self):
        """SIGTERM drain; returns (exit code, '# served=' summary fields)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        if self.proc in CHILDREN:
            CHILDREN.remove(self.proc)
        self.out.close()
        summary = {}
        with open(self.log) as f:
            for line in f:
                if line.startswith("# served="):
                    summary = dict(kv.split("=", 1) for kv in line[2:].split())
        return code, summary


def write_requests(work, seed, pre_csv):
    """Request files: REQUEST_FILES slices of REQUEST_ROWS preprocessed
    rows, at seed-chosen offsets."""
    with open(pre_csv) as f:
        header, *rows = f.read().splitlines()
    rng = random.Random(seed)
    starts = rng.sample(range(0, len(rows) - REQUEST_ROWS), REQUEST_FILES)
    files = []
    for i, start in enumerate(starts):
        path = os.path.join(work, "req%d.csv" % i)
        with open(path, "w") as f:
            f.write("\n".join([header] + rows[start:start + REQUEST_ROWS]))
            f.write("\n")
        files.append(path)
    return files


def pipeline_config(work, data, model, transform, seed, i):
    """Writes work/run<i>.cfg for `mcirbm_cli pipeline`; its artifacts land
    in work/model<i>.txt and work/features<i>.csv."""
    lines = ["data = " + data, "model = " + model, "seed = %d" % seed,
             "data.transform = " + transform,
             "supervision.voters = dp,kmeans*3,ap",
             "parallel.threads = %d" % THREADS,
             "out.model = " + os.path.join(work, "model%d.txt" % i),
             "out.features = " + os.path.join(work, "features%d.csv" % i),
             "eval.clusterer = kmeans"]
    path = os.path.join(work, "run%d.cfg" % i)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


HIDDEN_ACC = re.compile(r"hidden:\s+accuracy ([0-9.]+)")
ACCURACY = re.compile(r"^accuracy ([0-9.]+)", re.M)


def hidden_accuracies(work, features, ledger):
    """K-means accuracies of `mcirbm_cli eval` on a hidden-feature CSV, one
    per k-means seed 1..EVAL_SEEDS."""
    accuracies = []
    for seed in range(1, EVAL_SEEDS + 1):
        log = os.path.join(work, "eval%d.log" % seed)
        code = run([CLI, "eval", "--data", features, "--clusterer", "kmeans",
                    "--seed", str(seed)], log)[0]
        with open(log) as f:
            m = ACCURACY.search(f.read())
        ledger.check(code == 0 and m is not None,
                     "eval seed %d exited %d" % (seed, code))
        if m:
            accuracies.append(float(m.group(1)))
    return accuracies


def run_pipeline(work, config, tag, ledger):
    """One `mcirbm_cli pipeline` run; returns its measurements."""
    log = os.path.join(work, tag + ".log")
    code, wall, cpu, rss = run([CLI, "pipeline", "--config", config], log)
    ledger.check(code == 0, "pipeline %s exited %d" % (tag, code))
    with open(log) as f:
        m = HIDDEN_ACC.search(f.read())
    ledger.check(m is not None, "pipeline %s printed no hidden accuracy" % tag)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "hidden_acc": float(m.group(1)) if m else 0.0}


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def mix_flags(w, files, bulk_file):
    """perfbench_tool flags naming the workload's request mix."""
    flags = ["--files", ",".join(files), "--conns", str(w["conns"]),
             "--depth", str(w["depth"])]
    return flags + (["--bulk", bulk_file] if bulk_file else [])


def load(work, port, model, mix, ledger, tag):
    """perfbench_tool load: 2 s of the mix, every response checked."""
    out = os.path.join(work, tag + ".json")
    must([TOOL, "load", "--port", str(port), "--model", model, "--out", out]
         + mix, os.path.join(work, tag + ".log"))
    with open(out) as f:
        result = json.load(f)
    ledger.add(result["attempted"], result["failed"],
               "%s: %s" % (tag, result["first_error"]))


class Workload:
    def __init__(self, name, seed, work):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.ledger = Ledger()
        self.server = None

    # --- set-up: inputs from the seed ---
    def setup_once(self):
        w = self.w
        # The canonical dataset with its rows permuted by the seed: the
        # seed changes every input file, but not how hard the data is
        # (AP's iteration count and the consensus coverage depend on the
        # draw, so a fresh draw per seed would swamp the run-to-run spread).
        synth = os.path.join(self.work, "synth.csv")
        must([CLI, "synth", "--family", w["family"], "--index",
              str(w["index"]), "--seed", str(DATASET_SEED), "--out", synth],
             os.path.join(self.work, "synth.log"))
        raw = os.path.join(self.work, "data.csv")
        self.pre = os.path.join(self.work, "data_pre.csv")
        must([TOOL, "prep", "--data", synth, "--shuffle-seed", str(self.seed),
              "--raw-out", raw, "--transform", w["transform"],
              "--out", self.pre], os.path.join(self.work, "prep.log"))
        self.files = write_requests(self.work, self.seed, self.pre)
        self.configs = [
            pipeline_config(self.work, raw, w["model"], w["transform"],
                            self.seed * PIPELINE_SEEDS + i, i)
            for i in range(PIPELINE_SEEDS)]

    def model(self, i=0):
        return os.path.join(self.work, "model%d.txt" % i)

    def features(self, i=0):
        return os.path.join(self.work, "features%d.csv" % i)

    def mix(self):
        return mix_flags(self.w, self.files,
                         self.pre if self.w["bulk"] else None)

    def setup(self, repeats):
        times = []
        while len(times) < repeats or (
                repeats > 1 and sum(times) < SETUP_MIN_S and len(times) < 15):
            start = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def stop_server(self, tag):
        code, summary = self.server.stop()
        self.server = None
        self.ledger.check(code == 0, "%s server exited %d" % (tag, code))
        self.ledger.check(summary.get("failed") == "0",
                          "%s server summary: %s" % (tag, summary))
        return summary

    # --- end-to-end measurement ---
    def measure(self, seconds):
        """`pipeline` runs for `seconds`, at least one per pipeline seed,
        cycling through the PIPELINE_SEEDS configs. The trained model, and
        with it the hidden accuracy, depends on the pipeline seed (on VT
        one seed's model scores 0.41 and another's 0.58), so hidden_acc is
        the mean over the seeds' models; timings do not depend on it."""
        runs, outputs = [], {}
        start = time.perf_counter()
        while True:
            i = len(runs) % PIPELINE_SEEDS
            r = run_pipeline(self.work, self.configs[i],
                             "pipeline%d" % len(runs), self.ledger)
            out = (digest(self.features(i)), r["hidden_acc"])
            self.ledger.check(outputs.setdefault(i, out) == out,
                              "pipeline run %d output differs from the "
                              "earlier run with its seed" % len(runs))
            runs.append(r)
            elapsed = time.perf_counter() - start
            if len(runs) >= PIPELINE_SEEDS and elapsed + statistics.median(
                    x["wall_s"] for x in runs) > seconds:
                break
        metrics = {key: statistics.median(r[key] for r in runs) for key in
                   ("wall_s", "cpu_s", "peak_rss_mb")}
        accuracies = [acc for i in range(PIPELINE_SEEDS)
                      for acc in hidden_accuracies(self.work, self.features(i),
                                                   self.ledger)]
        metrics["hidden_acc"] = statistics.mean(accuracies or [0.0])
        # Every run's wall, for result.json: a host stall shows as one
        # outlier, a slow host as all of them.
        metrics["pipeline_walls_s"] = [r["wall_s"] for r in runs]
        return metrics

    # --- traced run ---
    def trace(self):
        e2e = run_pipeline(self.work, self.configs[0], "pipeline0",
                           self.ledger)["wall_s"]
        reference = (digest(self.features()), digest(self.model()))
        # Server-side batching counters under the workload's own mix.
        self.server = Server(self.work, "server")
        load(self.work, self.server.port, self.model(), self.mix(),
             self.ledger, "counters")
        summary = self.stop_server("counters")
        batches = max(1, int(summary.get("batches", "0")))
        layers = {
            "serve.mean_batch_rows": float(summary.get("mean_batch_rows", 0)),
            "serve.deadline_flush_frac":
                int(summary.get("deadline_flushes", "0")) / batches,
            "serve.rejected_total": int(summary.get("rejected", "0")),
        }
        # The traced run; the descent's top layer is a fresh server.
        self.server = Server(self.work, "server")
        out = os.path.join(self.work, "trace.json")
        traced_features = os.path.join(self.work, "traced_features.csv")
        traced_model = os.path.join(self.work, "traced_model.txt")
        cmd = [TOOL, "trace", "--config", self.configs[0],
               "--features-out", traced_features,
               "--model-out", traced_model, "--served-model", self.model(),
               "--port", str(self.server.port), "--out", out] + self.mix()
        must(cmd, os.path.join(self.work, "trace.log"))
        self.stop_server("trace")
        with open(out) as f:
            traced = json.load(f)
        self.ledger.check(
            (digest(traced_features), digest(traced_model)) == reference,
            "traced run's features/model differ from the program's")
        self.ledger.check(traced["integration_matches"],
                          "standalone voters do not reproduce supervision")
        self.ledger.add(1, traced["descent_failures"] > 0,
                        "layer descent saw wrong responses")
        for key in PER_LAYER:
            if key in traced:
                layers[key] = traced[key]
        layers["trace.overhead_frac"] = traced["traced_wall_s"] / e2e
        return layers


def result_line(correct, ledger, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    env = environment_stamp()
    # One directory per workload and mode, replaced by the next run: the
    # CSVs are megabytes each and a ten-seed sweep makes dozens of runs.
    work = os.path.join(ROOT, ".bench_run", "%s-trace%d" % (
        args.workload, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Workload(args.workload, args.seed, work)
    try:
        setup_s = bench.setup(1 if args.trace else SETUP_REPEATS)
        if args.trace:
            metrics, units = bench.trace(), PER_LAYER
        else:
            metrics = bench.measure(args.seconds)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        if bench.server is not None:
            bench.server.stop()
    missing = [k for k in units if k not in metrics]
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    ledger = bench.ledger
    correct = ledger.failed == 0
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"env": env, "metrics": metrics, "failures": ledger.notes},
                  f, indent=1)
    for note in ledger.notes:
        print("# failed: " + note)
    print("# env " + json.dumps(env, sort_keys=True))
    print(result_line(correct, ledger, metrics, units))
    return 0


def kill_children():
    for proc in list(CHILDREN):
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def on_sigterm(*_):
    kill_children()
    sys.exit(1)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        kill_children()
        print("perfbench: error: %s" % e, file=sys.stderr)
        sys.exit(1)
