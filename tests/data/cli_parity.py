#!/usr/bin/env python3
"""data.cli_parity: the ingestion layer end to end through the CLI.

Generates the uci:0 set as CSV, then checks:
  - `dataset info` reads the CSV, and `dataset convert --chunk-rows 32`
    streams it into the mcirbm-data binary, whose `dataset info` reports
    `random_access yes`;
  - csv -> binary -> csv reproduces the CSV byte for byte;
  - the same pipeline config over the CSV, the binary, and the binary out
    of core (data.max_resident_rows = 32, below the row count) exports
    byte-identical features;
  - out-of-core training over the CSV (a sequential source) fails, and
    the error names `dataset convert`.

Usage: cli_parity.py PATH_TO_MCIRBM_CLI
"""

import filecmp
import os
import subprocess
import sys
import tempfile

CONFIG = """\
data           = data.csv
model          = grbm
rbm.hidden     = 8
rbm.epochs     = 3
data.transform = none
eval.clusterer = none
out.features   = features.csv
"""

OUT_OF_CORE = CONFIG + "data.max_resident_rows = 32\n"


def run(cli, work, *args, expect_ok=True):
    done = subprocess.run([cli, *args], cwd=work, capture_output=True,
                          text=True, timeout=300)
    if expect_ok and done.returncode != 0:
        sys.exit("FAIL: %s exited %d\n%s%s" % (
            " ".join(args), done.returncode, done.stdout, done.stderr))
    return done


def same(work, a, b):
    return filecmp.cmp(os.path.join(work, a), os.path.join(work, b),
                       shallow=False)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    cli = os.path.abspath(sys.argv[1])
    failures = []
    with tempfile.TemporaryDirectory() as work:
        run(cli, work, "synth", "--family", "uci", "--index", "0",
            "--seed", "3", "--out", "data.csv")

        # Convert with a chunk smaller than the dataset, so the conversion
        # itself streams.
        run(cli, work, "dataset", "info", "--in", "data.csv")
        run(cli, work, "dataset", "convert", "--in", "data.csv",
            "--out", "data.bin", "--chunk-rows", "32")
        info = run(cli, work, "dataset", "info", "--in", "data.bin").stdout
        if "random_access yes" not in info.splitlines():
            failures.append("dataset info on the binary does not report "
                            "random_access yes:\n" + info)

        run(cli, work, "dataset", "convert", "--in", "data.bin",
            "--out", "roundtrip.csv")
        if not same(work, "data.csv", "roundtrip.csv"):
            failures.append("csv -> binary -> csv changed the bytes")

        with open(os.path.join(work, "smoke.cfg"), "w") as f:
            f.write(CONFIG)
        with open(os.path.join(work, "ooc.cfg"), "w") as f:
            f.write(OUT_OF_CORE)
        legs = [("csv", "smoke.cfg", "data.csv"),
                ("bin", "smoke.cfg", "data.bin"),
                ("bin_out_of_core", "ooc.cfg", "data.bin")]
        for tag, config, data in legs:
            run(cli, work, "pipeline", "--config", config, "--data", data,
                "--seed", "3")
            os.replace(os.path.join(work, "features.csv"),
                       os.path.join(work, "features_%s.csv" % tag))
        for tag, _, _ in legs[1:]:
            if not same(work, "features_csv.csv", "features_%s.csv" % tag):
                failures.append("pipeline features over %s differ from "
                                "those over the CSV" % tag)

        # A sequential source cannot back out-of-core training; the error
        # must point at `dataset convert`, not abort.
        done = run(cli, work, "pipeline", "--config", "ooc.cfg", "--data",
                   "data.csv", "--seed", "3", expect_ok=False)
        if done.returncode != 1 or "dataset convert" not in done.stderr:
            failures.append("out-of-core over the CSV: exit %d, stderr %r "
                            "(want exit 1 naming `dataset convert`)" % (
                                done.returncode, done.stderr))
    if failures:
        sys.exit("FAIL:\n  " + "\n  ".join(failures))
    print("PASS dataset info/convert, csv -> bin -> csv bytes, and pipeline "
          "features over csv, bin and out-of-core bin byte-identical")


if __name__ == "__main__":
    main()
