"""Child processes: one at a time, each with its own peak RSS.

Each child is reaped with ``os.wait4`` so its rusage is its own; the
``RUSAGE_CHILDREN`` total would only give a running maximum over all of
them.
"""

import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass


@dataclass
class ChildResult:
    exit_code: int
    max_rss_kb: int
    stdout: str
    stderr: str


def child_env(root) -> dict:
    """The caller's environment with the checkout's ``src`` first on the path.

    BLAS and OpenMP thread variables are passed through as found.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, cwd, env, timeout_s: float) -> ChildResult:
    """Run ``argv`` to completion; kill it if it outlives ``timeout_s``."""
    out_path = os.path.join(cwd, ".child_stdout")
    err_path = os.path.join(cwd, ".child_stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(max(timeout_s, 0.1), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    return ChildResult(proc.returncode, usage.ru_maxrss, stdout, stderr)


def cli_argv(args) -> list:
    return [sys.executable, "-m", "atcadet.cli", *args]


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict:
    """Seconds spent importing atcadet.cli and, within it, scipy, numpy and click.

    ``-X importtime`` prints each module after its children, indented two
    spaces per level. A root package is charged the cumulative time of
    each entry that no entry of the same root encloses, so nested
    ``scipy.*`` imports are not counted twice.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((int(m.group(2)), len(m.group(3)), m.group(4)))
    totals = {"atcadet": 0, "scipy": 0, "numpy": 0, "click": 0}
    enclosing = []  # (indent, root) of entries enclosing the current one
    for cumulative_us, indent, name in reversed(rows):
        while enclosing and enclosing[-1][0] >= indent:
            enclosing.pop()
        root = name.split(".")[0]
        if root in totals and all(r != root for _, r in enclosing):
            totals[root] += cumulative_us
        enclosing.append((indent, root))
    if totals["atcadet"] == 0:
        raise ValueError("importtime output has no atcadet entry")
    return {k: v / 1e6 for k, v in totals.items()}
