"""Record the golden sha256 of every CSV product of every workload.

    python3 bench/record_golden.py

For each workload this runs the full-size config and the ``PROBE_PATHS``
probe, both at the default seed, and writes ``golden.json``.  The recorded
bytes are the reference every later run is held to, so re-record only when a
change to the program's outputs is intended and explained.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from harness import (
    DEFAULT_SEED,
    GOLDEN_PATH,
    PROBE_PATHS,
    ROOT,
    WORKLOADS,
    import_program,
    run_cli,
)


def main() -> int:
    cli = import_program()["cli"]
    revision = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    work = ROOT / ".bench_work" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    golden = {"revision": revision or None}
    try:
        for name, workload in WORKLOADS.items():
            entry = {}
            for kind, n_paths in (("probe", PROBE_PATHS), ("full", workload.n_paths)):
                result = run_cli(cli, workload, work, DEFAULT_SEED, n_paths)
                if result.exit_code != 0:
                    print(f"{name} {kind}: exit code {result.exit_code}", file=sys.stderr)
                    return 1
                entry[kind] = {"seed": DEFAULT_SEED, "n_paths": n_paths, "sha256": result.hashes}
                print(f"{name} {kind}: {result.wall_s:.2f} s")
            golden[name] = entry
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
