"""Plumbing shared by the workloads: paths, child processes, the host
and revision stamp, and the result record."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for one run; removed when the run ends.
WORK_ROOT = ROOT / ".perfbench_work"
#: Where traced runs write their span files.
OUT_DIR = ROOT / ".perfbench_out"


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def ensure_program() -> None:
    """Put ``src/`` first on the import path, or fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: Sequence[str], timeout: float = 120.0) -> Tuple[float, str]:
    """Run a child interpreter to completion; returns (wall s, stdout).

    Raises :class:`RuntimeError` on a non-zero exit.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=str(ROOT),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(args[:3])} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-400:]}"
        )
    return wall, proc.stdout


def median_child_wall(args: Sequence[str], repeats: int, outcome: "Outcome") -> Optional[float]:
    """Median wall time of ``repeats`` fresh child interpreters (each one
    an operation); None when every one failed."""
    from .stats import median

    walls = []
    for _ in range(repeats):
        try:
            walls.append(run_child(args)[0])
            outcome.op(True)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            outcome.op(outcome.check(f"child {' '.join(args)[:40]}", False, str(exc)))
    return median(walls) if walls else None


def call_cli(argv: Sequence[str]) -> Tuple[int, str, float]:
    """Run ``repro.cli.main`` in-process; returns (exit code, stdout,
    wall seconds).

    The garbage of earlier commands is collected first, so each command
    starts from a heap like a fresh process's rather than paying for
    its predecessor's cyclic collection at a random point.
    """
    from repro.cli import main

    buf = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue(), time.perf_counter() - start


def self_peak_rss_mib() -> float:
    """High-water RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_digest(root: Path, names: Sequence[str]) -> str:
    """sha256 over the named files and directories (sorted, relative
    paths and contents)."""
    digest = hashlib.sha256()
    for name in names:
        path = root / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in files:
            digest.update(str(file.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(file.read_bytes())
    return digest.hexdigest()


def _revision() -> str:
    """git revision when the checkout is a repository, else a digest of
    the program sources (an exported checkout carries no .git)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        )
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for file in sorted(SRC.rglob("*.py")):
        digest.update(str(file.relative_to(SRC)).encode())
        digest.update(file.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_stamp() -> Dict[str, object]:
    """Core count, CPU model, Python version and program revision."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": os.cpu_count() or 1,
        "cpu": cpu,
        "python": platform.python_version(),
        "revision": _revision(),
    }


class WorkDir:
    """A per-run scratch directory inside the checkout, removed on exit."""

    def __init__(self, tag: str) -> None:
        self.path = WORK_ROOT / f"{tag}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)
    omitted: Dict[str, str] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def op(self, ok: bool) -> bool:
        """Count one operation (a command or call with its check, or one
        HTTP request); returns ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        return bool(ok)

    def check(self, name: str, ok: bool, note: str = "") -> bool:
        self.checks.append((name, bool(ok), note))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            },
            sort_keys=True,
        )

