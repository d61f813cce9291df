"""Run every igdist subcommand in two source trees and diff the results.

    python tools/compare_results.py <parent tree> <change tree>

For each `configs/*.json` of either tree, each subcommand of the second
tree and each of `--workers 1` and `--workers 2`, both trees run
`python -m igdist.cli` on their own copy of the config, with
`PYTHONDONTWRITEBYTECODE=1` and their own `src` on `PYTHONPATH`.  The
two runs must agree on the exit code, on stdout and stderr (output
directory and tree normalized), on every result file byte for byte,
and on the manifest apart from its `started` and `finished` times.
Prints one line per run and each difference; exits 1 when any run
differs, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKERS = (1, 2)
OUT, TREE = "<out>", "<tree>"


def _run(tree: Path, config: Path, sub: str, workers: int, out: Path) -> dict:
    """One CLI run; returns what must agree between the trees."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "igdist.cli", sub, "--config", str(config),
           "--out", str(out), "--workers", str(workers)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    files, manifest = {}, None
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name == "manifest.json":
                manifest = json.loads(path.read_text())
                manifest.pop("started", None)
                manifest.pop("finished", None)
            else:
                files[path.name] = path.read_bytes()
    return {
        "exit code": proc.returncode,
        "stdout": proc.stdout.replace(str(out), OUT).replace(str(tree), TREE),
        "stderr": proc.stderr.replace(str(out), OUT).replace(str(tree), TREE),
        "manifest": manifest,
        "files": files,
    }


def _differences(a: dict, b: dict) -> list[str]:
    diffs = [key for key in ("exit code", "stdout", "stderr", "manifest") if a[key] != b[key]]
    for name in sorted(a["files"].keys() | b["files"].keys()):
        if a["files"].get(name) != b["files"].get(name):
            diffs.append(name)
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    sys.dont_write_bytecode = True  # leave both trees as they were
    sys.path.insert(0, str(trees[1] / "src"))
    from igdist.runner import SUBCOMMANDS
    configs = sorted({c.name for t in trees for c in (t / "configs").glob("*.json")})
    failures = 0
    with tempfile.TemporaryDirectory(prefix="compare_results-") as tmp:
        for name in configs:
            for sub in SUBCOMMANDS:
                for workers in WORKERS:
                    runs = [
                        _run(t, t / "configs" / name, sub, workers,
                             Path(tmp) / f"tree{i}" / name / sub / f"w{workers}")
                        for i, t in enumerate(trees)
                    ]
                    diffs = _differences(*runs)
                    failures += bool(diffs)
                    status = "DIFFERS: " + ", ".join(diffs) if diffs else "same"
                    print(
                        f"{name} {sub} --workers {workers}: exit {runs[0]['exit code']}, "
                        f"{len(runs[0]['files'])} result files, {status}",
                        flush=True,
                    )
    total = len(configs) * len(SUBCOMMANDS) * len(WORKERS)
    print(f"{total - failures} of {total} runs identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
