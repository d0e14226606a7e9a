#!/usr/bin/env python3
"""serve.cli_summary: `mcirbm_cli serve` end to end.

Trains a small encoder, serves a four-request file (per-row transform
with out=, evaluate, chunked transform, op=stats) and checks that

  - all four requests answer ok and the summary reads
    `# served=4 failed=0 replicas=1`;
  - every summary token is key=value (perfbench/run.py parses the line
    with dict(kv.split("=", 1) ...));
  - requests=, batches= and rejected= equal the summed
    serve_requests_total, serve_batches_total and serve_rejected_total
    of the op=stats payload (an absent counter counts as 0);
  - full_flushes + deadline_flushes + swap_flushes == batches;
  - the served feature CSV is byte-identical to the one-shot
    `transform` subcommand's.

Then it serves the same file twice more over 2 replicas, and each run
must again answer `# served=4 failed=0 replicas=2` with a byte-identical
feature CSV:

  - under backpressure (`--max-pending 8`): the bound rejects at least
    once (rejected= >= 1), and the CLI's retries still complete every
    request;
  - with periodic stats (`--stats-every 2`): a
    `# serve_queue_wait_micros{` metric line streams before the summary.

Finally the retired `--routing` and `--max-inflight` flags must each
exit with code 1, naming the unknown parameter.

Usage: cli_summary.py PATH_TO_MCIRBM_CLI
"""

import filecmp
import os
import subprocess
import sys
import tempfile

TRAIN_CONFIG = """\
rbm.hidden = 8
rbm.epochs = 3
"""

REQUESTS = """\
op=transform model=serve_model.txt data=serve.csv transform=standardize chunk=1 out=served_hidden.csv
op=evaluate model=serve_model.txt data=serve.csv transform=standardize clusterer=kmeans seed=7
op=transform model=serve_model.txt data=serve.csv transform=standardize chunk=16
op=stats
"""


def run(cli, work, *args):
    done = subprocess.run([cli, *args], cwd=work, capture_output=True,
                          text=True, timeout=300)
    if done.returncode != 0:
        sys.exit("FAIL: %s exited %d\n%s%s" % (
            " ".join(args), done.returncode, done.stdout, done.stderr))
    return done.stdout


def stats_counter_totals(lines):
    """Sums each counter of the op=stats payload over its labels."""
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("ok op=stats metrics="))
    count = int(lines[start].split("metrics=", 1)[1].split()[0])
    totals = {}
    for line in lines[start + 1:start + 1 + count]:
        series, value = line.rsplit(" ", 1)
        name = series.split("{", 1)[0]
        if name.endswith("_total"):
            totals[name] = totals.get(name, 0) + int(value)
    return totals


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    cli = os.path.abspath(sys.argv[1])
    failures = []

    def check(condition, message):
        if not condition:
            failures.append(message)

    with tempfile.TemporaryDirectory() as work:
        run(cli, work, "synth", "--family", "uci", "--index", "0",
            "--out", "serve.csv", "--seed", "3")
        with open(work + "/train.cfg", "w") as f:
            f.write(TRAIN_CONFIG)
        run(cli, work, "train", "--data", "serve.csv", "--model", "grbm",
            "--standardize", "--config", "train.cfg",
            "--out", "serve_model.txt")
        run(cli, work, "transform", "--data", "serve.csv", "--model-file",
            "serve_model.txt", "--standardize", "--out", "direct_hidden.csv")
        with open(work + "/serve_requests.txt", "w") as f:
            f.write(REQUESTS)

        def serve(*flags):
            """Serves the request file; the summary and CSV checks."""
            served = work + "/served_hidden.csv"
            if os.path.exists(served):
                os.remove(served)
            lines = run(cli, work, "serve", "--requests",
                        "serve_requests.txt", "--max-batch-rows", "32",
                        "--max-queue-micros", "500", *flags).splitlines()
            check(os.path.exists(served) and filecmp.cmp(
                served, work + "/direct_hidden.csv", shallow=False),
                  "served_hidden.csv differs from the one-shot transform "
                  "(serve %s)" % " ".join(flags))
            return lines

        lines = serve()

        ok_lines = [line for line in lines if line.startswith("ok ")]
        check(len(ok_lines) == 4, "expected 4 ok lines, got %d" %
              len(ok_lines))
        summaries = [line for line in lines if line.startswith("# served=")]
        check(len(summaries) == 1, "expected one summary line, got %d" %
              len(summaries))
        if failures:
            sys.exit("FAIL:\n  " + "\n  ".join(failures))
        summary_line = summaries[0]
        check(summary_line.startswith("# served=4 failed=0 replicas=1 "),
              "summary: " + summary_line)
        tokens = summary_line[2:].split()
        check(all("=" in t and not t.startswith("=") for t in tokens),
              "summary token without key=value: " + summary_line)
        summary = dict(t.split("=", 1) for t in tokens)

        totals = stats_counter_totals(lines)
        for key, counter in (("requests", "serve_requests_total"),
                             ("batches", "serve_batches_total"),
                             ("rejected", "serve_rejected_total")):
            check(int(summary.get(key, -1)) == totals.get(counter, 0),
                  "%s=%s but op=stats %s sums to %d" % (
                      key, summary.get(key), counter,
                      totals.get(counter, 0)))
        flushes = sum(int(summary.get(k, 0)) for k in (
            "full_flushes", "deadline_flushes", "swap_flushes"))
        check(flushes == int(summary.get("batches", -1)),
              "flush triggers sum to %d, batches=%s" % (
                  flushes, summary.get("batches")))

        def replicated_summary(lines, what):
            """The 2-replica run's summary tokens and the lines before it."""
            at = [i for i, line in enumerate(lines)
                  if line.startswith("# served=")]
            if len(at) != 1 or not lines[at[0]].startswith(
                    "# served=4 failed=0 replicas=2 "):
                failures.append("%s: summary lines %r" % (
                    what, [lines[i] for i in at]))
                return None, []
            tokens = lines[at[0]][2:].split()
            return dict(t.split("=", 1) for t in tokens), lines[:at[0]]

        bounded, _ = replicated_summary(
            serve("--replicas", "2", "--max-pending", "8"),
            "--max-pending 8")
        if bounded is not None:
            check(int(bounded.get("rejected", 0)) >= 1,
                  "--max-pending 8 rejected nothing: rejected=%s" %
                  bounded.get("rejected"))

        streamed, before = replicated_summary(
            serve("--replicas", "2", "--stats-every", "2"),
            "--stats-every 2")
        if streamed is not None:
            check(any(line.startswith("# serve_queue_wait_micros{")
                      for line in before),
                  "--stats-every 2 streamed no serve_queue_wait_micros "
                  "line before the summary")

        for flag, value in (("routing", "key_hash"),
                            ("max-inflight", "4")):
            done = subprocess.run(
                [cli, "serve", "--requests", "serve_requests.txt",
                 "--" + flag, value], cwd=work, capture_output=True,
                text=True, timeout=300)
            check(done.returncode == 1 and
                  "unknown parameter '%s'" % flag in done.stderr,
                  "serve --%s %s: exit %d, stderr %r" % (
                      flag, value, done.returncode, done.stderr))

    if failures:
        sys.exit("FAIL:\n  " + "\n  ".join(failures))
    print("PASS " + summary_line)


if __name__ == "__main__":
    main()
