"""Run the seed-5 pipeline chain and print the SHA-256 of everything it writes.

The chain runs in a temporary directory, each command as its own
``python -m textuq`` process with one BLAS thread:

  synth --n 10000 --dim 200 --disagreement 0.04 --seed 5
  prepare
  train --model gp --inducing 64, train --model ens at --epochs 2 and at 10
  evaluate, evaluate --calibrate and report for each of the three models

It prints one ``<sha256>  <file>`` line for each of the 30 files written,
then one for each command's standard output, and removes the directory.
Two source trees write byte-identical outputs exactly when they print the
same lines:

  python tools/chain_digests.py                  # this tree's src/
  python tools/chain_digests.py --src OTHER/src  # another checkout
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "5"
MODELS = {  # model file stem -> its train flags
    "gp": ["--model", "gp", "--inducing", "64"],
    "ens2": ["--model", "ens", "--epochs", "2"],
    "ens10": ["--model", "ens", "--epochs", "10"],
}


def chain():
    """(stdout name, textuq arguments) of each command, in order."""
    yield "synth.out", ["synth", "--n", "10000", "--dim", "200", "--disagreement", "0.04",
                        "--seed", SEED, "--out-corpus", "corpus.csv",
                        "--out-embeddings", "emb.txt"]
    yield "prepare.out", ["prepare", "--corpus", "corpus.csv", "--embeddings", "emb.txt",
                          "--out", "features.csv"]
    for stem, flags in MODELS.items():
        yield f"{stem}.train.out", ["train", *flags, "--features", "features.csv",
                                    "--seed", SEED, "--out-model", f"{stem}.json",
                                    "--out-trace", f"{stem}_trace.csv"]
    for stem in MODELS:
        for tag, extra in (("e", []), ("c", ["--calibrate"])):
            yield f"{stem}.{tag}.out", ["evaluate", "--model", f"{stem}.json",
                                        "--features", "features.csv", *extra,
                                        "--out-json", f"{stem}.{tag}.json",
                                        "--out-csv", f"{stem}.{tag}.csv",
                                        "--out-reliability", f"{stem}.{tag}_rel.csv"]
        yield f"{stem}.report.out", ["report", "--reliability", f"{stem}.e_rel.csv",
                                     "--out", f"{stem}.svg"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the textuq package to run")
    args = parser.parse_args(argv)
    # no bytecode is written into the source tree
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    stdouts = []
    with tempfile.TemporaryDirectory(prefix="chain-digests-") as work:
        for name, argv_ in chain():
            done = subprocess.run([sys.executable, "-m", "textuq", *argv_], cwd=work, env=env,
                                  capture_output=True)
            if done.returncode:
                sys.stderr.write(done.stderr.decode("utf-8", "replace"))
                print(f"{argv_[0]} exited {done.returncode}", file=sys.stderr)
                return 1
            stdouts.append((name, done.stdout))
        for path in sorted(Path(work).iterdir()):
            print(f"{sha256(path.read_bytes())}  {path.name}")
    for name, out in stdouts:
        print(f"{sha256(out)}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
