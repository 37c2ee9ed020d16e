"""Recompute ``references.json``: the reference digest of every
workload on every input variant, each in a fresh process.

    python3 perfbench/references.py [--workload NAME]

Run it only when the program's outputs are meant to change; the
benchmark's output check compares every run against these digests.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workload import HERE, REFERENCES, ROOT, VARIANTS, WORK_DIR, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    references = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as handle:
            references = json.load(handle)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))
        if part)
    os.makedirs(WORK_DIR, exist_ok=True)
    out = os.path.join(WORK_DIR, f"reference-{os.getpid()}.json")
    for workload in ([args.workload] if args.workload else WORKLOADS):
        for variant in range(VARIANTS):
            subprocess.run(
                [sys.executable, os.path.join(HERE, "workload.py"),
                 "--workload", workload, "--seed", str(variant),
                 "--out", out, "--reference"],
                cwd=ROOT, env=env, check=True)
            with open(out, encoding="utf-8") as handle:
                found = json.load(handle)["digest"]
            references.setdefault(workload, {})[str(variant)] = found
            print(f"{workload} variant {variant}: {found}", flush=True)
    os.remove(out)
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
