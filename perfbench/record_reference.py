"""Record the reference CSVs of the study workloads and the machine record.

    python3 perfbench/record_reference.py

Runs every study command, at full and at tiny size, exactly as the
benchmark does, and writes reference/{full,tiny}/<command>.csv plus
machine.json (nproc, CPU model, versions, thread count and commit).
Re-record only on purpose: the references are what every later commit
is checked against.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import bootstrap


def _cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _commit():
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main():
    bootstrap.pin_threads()
    bootstrap.import_program()
    import dofde.cli

    import run
    import workloads

    for tiny in (False, True):
        target = workloads.REFERENCE_DIR / ("tiny" if tiny else "full")
        target.mkdir(parents=True, exist_ok=True)
        bootstrap.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bootstrap.OUT_DIR) as out_dir:
            for commands in workloads.STUDY_COMMANDS.values():
                for command in commands:
                    status = dofde.cli.main(workloads.study_argv(command, out_dir, tiny))
                    if status != 0:
                        raise SystemExit(f"{command} exited with {status}")
                    text = Path(out_dir, f"{command}.csv").read_text(encoding="utf-8")
                    (target / f"{command}.csv").write_text(text, encoding="utf-8")
                    print(f"recorded {target.name}/{command}.csv")

    record = run.machine_record()
    record["cpu_model"] = _cpu_model()
    record["commit"] = _commit()
    path = bootstrap.BENCH_DIR / "machine.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    sys.exit(main())
