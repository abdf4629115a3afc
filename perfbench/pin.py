"""Rewrite pins.json from the program in this checkout.

    python3 perfbench/pin.py

Pins the engine-sweep summary (verdict|lhs total|rhs) of every instance
at seed 0 and the sha256 of `lscat corpus run --format structured`.
Re-pin only when a change is meant to alter those outputs, and say so.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from run import ROOT, load_program


def main():
    workloads = load_program()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as vdir:
        os.environ["LSCAT_VIOLATIONS_DIR"] = vdir
        engine = [workloads.engine_summary(workloads.engine_instance(s))
                  for s in range(workloads.ENGINE_INSTANCES)]
        code, text = workloads.corpus_pass(None)
        if code != 0 or os.listdir(vdir):
            raise SystemExit("the program fails its own checks; not pinning")
    pins = {"engine-sweep": engine,
            "corpus-cli": hashlib.sha256(text.encode()).hexdigest()}
    path = Path(__file__).parent / "pins.json"
    path.write_text(json.dumps(pins, indent=0) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
