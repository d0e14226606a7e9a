#!/usr/bin/env python3
"""core.pipeline_width_parity: `mcirbm_cli pipeline` at any pool width.

Generates the QB-shaped uci:1 set, then runs the sls-RBM pipeline with
the paper's voters (dp,kmeans*3,ap) at --threads 1 and --threads 4, once
with MCIRBM_DETERMINISTIC=1 and once with =0. Within each mode the saved
hidden features and model files must be byte-identical across the two
widths: every kernel shards by problem size, never by thread count, and
the fast mode draws from ShardRng substreams keyed the same way.

Usage: pipeline_width_parity.py PATH_TO_MCIRBM_CLI
"""

import filecmp
import os
import subprocess
import sys
import tempfile

CONFIG = """\
data = qb.csv
model = sls-rbm
seed = 3
data.transform = binarize
data.max_instances = 240
rbm.hidden = 16
rbm.epochs = 5
supervision.voters = dp,kmeans*3,ap
eval.clusterer = none
out.model = {tag}_model.txt
out.features = {tag}_features.csv
"""


def run(cli, work, env, *args):
    done = subprocess.run([cli, *args], cwd=work, env=env,
                          capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        sys.exit("FAIL: %s exited %d\n%s%s" % (
            " ".join(args), done.returncode, done.stdout, done.stderr))


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    cli = os.path.abspath(sys.argv[1])
    failures = []
    with tempfile.TemporaryDirectory() as work:
        run(cli, work, None, "synth", "--family", "uci", "--index", "1",
            "--seed", "3", "--out", "qb.csv")
        for mode in ("1", "0"):
            env = dict(os.environ, MCIRBM_DETERMINISTIC=mode)
            tags = []
            for threads in ("1", "4"):
                tag = "det%s_t%s" % (mode, threads)
                with open(os.path.join(work, tag + ".cfg"), "w") as f:
                    f.write(CONFIG.format(tag=tag))
                run(cli, work, env, "pipeline", "--config", tag + ".cfg",
                    "--threads", threads)
                tags.append(tag)
            for suffix in ("_features.csv", "_model.txt"):
                a, b = (os.path.join(work, t + suffix) for t in tags)
                if not filecmp.cmp(a, b, shallow=False):
                    failures.append("MCIRBM_DETERMINISTIC=%s: %s differs "
                                    "between --threads 1 and 4" % (
                                        mode, suffix.lstrip("_")))
    if failures:
        sys.exit("FAIL:\n  " + "\n  ".join(failures))
    print("PASS features and model byte-identical at 1 and 4 threads, "
          "deterministic and fast mode")


if __name__ == "__main__":
    main()
