"""Record the reference outputs that the benchmark checks every job against.

For every workload, input variant and size (full and the smoke test's tiny
sizes), runs each job once and stores the sha256 of each CSV it writes and
the values the checks compare. Run from the repository root, on the code the
benchmark should treat as correct:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    run.bootstrap()
    reference = {}
    for workload in workloads.WORKLOADS:
        entries = reference[workload] = {}
        for sizes in (workloads.FULL, workloads.TINY):
            for variant in range(workloads.VARIANTS):
                for job in workloads.jobs(workload, variant, sizes):
                    if job.key in entries:
                        continue
                    out_dir = Path(tempfile.mkdtemp(prefix="perfbench-ref-", dir=run.ROOT))
                    try:
                        networks = workloads.execute(job, workload, out_dir)
                        entries[job.key] = {
                            "sha256": workloads.digests(out_dir) if job.argv else {},
                            "values": workloads.values(job, out_dir, networks),
                        }
                    finally:
                        shutil.rmtree(out_dir)
                    print(f"{workload}: {job.key}", flush=True)
    # one entry per line keeps the file diffable
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, (workload, entries) in enumerate(reference.items()):
            fh.write(f"{json.dumps(workload)}: {{\n")
            lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(entries.items())]
            fh.write(",\n".join(lines))
            fh.write("\n}" + (",\n" if i < len(reference) - 1 else "\n"))
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
