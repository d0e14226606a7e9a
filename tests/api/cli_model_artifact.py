#!/usr/bin/env python3
"""api.cli_model_artifact: the one model file format through the CLI.

Generates the uci:0 set, trains a grbm, and checks that the saved file is
`mcirbm-model v1`, `kind: grbm`, then the `mcirbm-rbm v1` payload, and that
`transform` reads it. `train` takes its hyper-parameters from a --config
file only: an sls-grbm trained that way must be byte-identical to the
`pipeline` subcommand's model from the same keys, also when the file sets
`supervision.clusters = 0` ("the class count"). Then each of these must
fail with exit code 1 (not an abort) and the expected message:
  - `train --hidden` and `train --lr`, flags that are gone;
  - a truncated model file;
  - a bare `mcirbm-rbm v1` payload, a file of an unknown kind, a grbm
    payload under `kind: rbm`, and a retired `mcirbm-stack v1` manifest
    (with its sidecar present);
  - `eval --clusterer nonexistent`, and `eval --clusterer ap` with a
    negative `--k`;
  - `train`, `pipeline` and `dataset convert` writing to /dev/full, whose
    few bytes reach the device only at the final flush (skipped where
    /dev/full does not exist).

Usage: cli_model_artifact.py PATH_TO_MCIRBM_CLI
"""

import filecmp
import os
import subprocess
import sys
import tempfile

TRAIN = ["train", "--data", "data.csv", "--model", "grbm", "--standardize",
         "--config", "train.cfg", "--seed", "3"]

TRAIN_CONFIG = """\
rbm.hidden = 4
rbm.epochs = 1
"""

SLS_CONFIG = """\
model      = sls-grbm
rbm.hidden = 4
rbm.epochs = 2
"""

PIPELINE = """\
data           = data.csv
model          = grbm
rbm.hidden     = 4
rbm.epochs     = 1
eval.clusterer = none
out.model      = /dev/full
"""


def run(cli, work, *args):
    return subprocess.run([cli, *args], cwd=work, capture_output=True,
                          text=True, timeout=120)


def write(work, name, contents):
    with open(os.path.join(work, name), "w") as f:
        f.write(contents)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    cli = os.path.abspath(sys.argv[1])
    failures = []

    def expect_ok(*args):
        done = run(cli, work, *args)
        if done.returncode != 0:
            sys.exit("FAIL: %s exited %d\n%s%s" % (
                " ".join(args), done.returncode, done.stdout, done.stderr))

    def expect_error(what, expected, *args):
        done = run(cli, work, *args)
        if done.returncode != 1 or expected not in done.stderr:
            failures.append("%s: exit %d, stderr %r (want exit 1 and %r)" % (
                what, done.returncode, done.stderr, expected))

    def transform(model_file):
        return ("transform", "--data", "data.csv", "--model-file",
                model_file, "--standardize", "--out", "features.csv")

    def expect_same(what, a, b):
        if not filecmp.cmp(os.path.join(work, a), os.path.join(work, b),
                           shallow=False):
            failures.append("%s: %s and %s differ" % (what, a, b))

    with tempfile.TemporaryDirectory() as work:
        expect_ok("synth", "--family", "uci", "--index", "0", "--seed", "3",
                  "--out", "data.csv")
        write(work, "train.cfg", TRAIN_CONFIG)
        expect_ok(*TRAIN, "--out", "model.txt")
        with open(os.path.join(work, "model.txt")) as f:
            model = f.read()
        header = "mcirbm-model v1\nkind: grbm\n"
        if not model.startswith(header + "mcirbm-rbm v1\n"):
            failures.append("model file starts %r" % model[:60])
        payload = model[len(header):]
        expect_ok(*transform("model.txt"))

        sls_train = ("train", "--data", "data.csv", "--standardize",
                     "--seed", "3", "--config")
        write(work, "sls.cfg", SLS_CONFIG)
        expect_ok(*sls_train, "sls.cfg", "--out", "sls_train.txt")
        write(work, "sls0.cfg", SLS_CONFIG + "supervision.clusters = 0\n")
        expect_ok(*sls_train, "sls0.cfg", "--out", "sls_train0.txt")
        expect_same("supervision.clusters = 0", "sls_train.txt",
                    "sls_train0.txt")
        write(work, "sls_pipeline.cfg", SLS_CONFIG +
              "data = data.csv\neval.clusterer = none\n"
              "out.model = sls_pipeline.txt\n")
        expect_ok("pipeline", "--config", "sls_pipeline.cfg", "--seed", "3")
        expect_same("train --config vs pipeline", "sls_train.txt",
                    "sls_pipeline.txt")
        for flag, value in (("--hidden", "4"), ("--lr", "0.1")):
            expect_error("train " + flag, "unknown parameter '%s'" % flag[2:],
                         *TRAIN, flag, value, "--out", "gone.txt")

        write(work, "truncated.txt", model[:len(model) // 2])
        expect_error("truncated model", "PARSE_ERROR",
                     *transform("truncated.txt"))
        write(work, "bare.txt", payload)
        expect_error("bare payload", "bad model magic",
                     *transform("bare.txt"))
        write(work, "banana.txt", "mcirbm-model v1\nkind: banana\n" + payload)
        expect_error("unknown kind", "unknown model kind 'banana'",
                     *transform("banana.txt"))
        write(work, "relabeled.txt", "mcirbm-model v1\nkind: rbm\n" + payload)
        expect_error("grbm payload under kind: rbm",
                     "relabeled.txt: payload family 'grbm' does not match "
                     "kind 'rbm'", *transform("relabeled.txt"))
        write(work, "stack.txt", "mcirbm-stack v1\n1\ngrbm linear .layer0\n")
        write(work, "stack.txt.layer0", payload)
        expect_error("stack manifest", "bad model magic",
                     *transform("stack.txt"))
        expect_error("unknown clusterer", "unknown clusterer 'nonexistent'",
                     "eval", "--data", "data.csv", "--clusterer",
                     "nonexistent")
        expect_error("negative ap k", "ap: k must be positive",
                     "eval", "--data", "data.csv", "--clusterer", "ap",
                     "--k", "-3", "--standardize")

        if os.path.exists("/dev/full"):
            expect_error("train --out /dev/full", "IO_ERROR",
                         *TRAIN, "--out", "/dev/full")
            write(work, "full.cfg", PIPELINE)
            expect_error("pipeline out.model = /dev/full", "IO_ERROR",
                         "pipeline", "--config", "full.cfg", "--seed", "3")
            with open(os.path.join(work, "data.csv")) as f:
                write(work, "small.csv", "".join(f.readlines()[:4]))
            expect_error("dataset convert --out /dev/full", "IO_ERROR",
                         "dataset", "convert", "--in", "small.csv",
                         "--out", "/dev/full")
        else:
            print("SKIP the /dev/full cases: no /dev/full on this system")
    if failures:
        sys.exit("FAIL:\n  " + "\n  ".join(failures))
    print("PASS one-file model artifact written and read; train --config "
          "matches pipeline; malformed, mislabeled, retired, invalid and "
          "unwritable cases exit 1")


if __name__ == "__main__":
    main()
