"""Regenerate bench/reference.json from the current sources.

    python3 bench/make_reference.py

Runs every pool entry of every workload once and stores the facts the
benchmark's output check compares (see workloads.facts) plus the SHA-256 of
each emitted CSV. Regenerate only when a change to the model's outputs is
intended, and say why in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import dyncomp  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workdir = BENCH_DIR.parent / ".bench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = Path.cwd()
    entries = {}
    try:
        os.chdir(workdir)
        for workload in workloads.WORKLOADS:
            workloads.prepare(workload, workdir)
            for call in workloads.all_calls(workload):
                rc, stderr = workloads.run_call(call.argv)
                if rc != 0:
                    raise SystemExit(f"{call.key}: exit {rc!r} {stderr}")
                entries[call.key] = workloads.facts(call, workdir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    lines = [f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in entries.items()]
    header = json.dumps({"dyncomp_version": dyncomp.__version__,
                         "generated_by": "bench/make_reference.py"})[1:-1]
    workloads.REFERENCE_PATH.write_text(
        "{" + header + ',\n"entries": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
