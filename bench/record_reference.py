"""Record the reference outputs that check.py compares against.

    python3 bench/record_reference.py

Runs every task of every part, full and tiny, once with seed 0 and
writes bench/reference.json.  Run it only on a commit whose outputs are
known to be right (the references in the repository come from the seed
commit), and say in the change that re-records them why the outputs
moved.
"""

from __future__ import annotations

import json
import sys

import run  # noqa: F401  -- pins the thread counts before numpy loads

sys.path.insert(0, str(run.SRC))

import check  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for size, tiny in (("full", False), ("tiny", True)):
        entries = reference[size] = {}
        for part in workloads.PARTS:
            for task in workloads.build(part, 0, tiny):
                out = run._run_task(task)
                problems = check._cli_problems(out) if task.argv else ([repr(out)] if isinstance(out, Exception) else [])
                if problems:
                    print(f"{size} {task.key}: {problems}", file=sys.stderr)
                    return 1
                entries[task.key] = check.record(task, out)
    path = run.HERE / "reference.json"
    # one line per task keeps a re-recording's diff readable
    lines = []
    for size, entries in reference.items():
        body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(entry)}" for key, entry in entries.items())
        lines.append(f" {json.dumps(size)}: {{\n{body}\n }}")
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
