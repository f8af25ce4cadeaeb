"""Serving processes: spawn the real CLIs, read their stats from /proc, stop them.

Every process is started in its own session so the whole tree (a router and
the workers its pool spawned) can be killed together.  CPU time and peak RSS
are read from ``/proc`` for the process and all of its descendants.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

CLK_TCK = os.sysconf("SC_CLK_TCK")
_LISTEN = re.compile(r"on http://([\d.]+):(\d+)")
#: Every started process not yet stopped.
LIVE: set["ServingProcess"] = set()


class ServingProcess:
    """One serving CLI (``repro.serving.server`` or ``repro.serving.router``).

    ``traced`` starts it through ``tracehost.py`` so the layer wrappers are
    installed before the CLI's ``main`` runs, and the trace is written to
    ``trace_dir`` when the process exits.
    """

    def __init__(self, module: str, args: list[str], *, root: Path,
                 run_dir: Path, traced: bool = False, name: str = "server",
                 timeout: float = 120.0) -> None:
        self.module = module
        self.args = list(args)
        self.root = root
        self.run_dir = run_dir
        self.traced = traced
        self.name = name
        self.timeout = timeout
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.spawned_at = 0.0
        self.listening_at = 0.0

    @property
    def trace_dir(self) -> Path:
        return self.run_dir / f"trace-{self.name}"

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        return env

    def command(self) -> list[str]:
        if not self.traced:
            return [sys.executable, "-m", self.module, *self.args]
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        return [sys.executable, str(Path(__file__).with_name("tracehost.py")),
                "--trace-dir", str(self.trace_dir), "--module", self.module,
                "--", *self.args]

    def start(self) -> "ServingProcess":
        """Spawn and block until the CLI prints its listening address."""
        log = open(self.run_dir / f"{self.name}.log", "ab")
        self.spawned_at = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                self.command(), cwd=self.root, env=self.env(),
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
                start_new_session=True)
        finally:
            log.close()
        LIVE.add(self)
        deadline = time.monotonic() + self.timeout
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _LISTEN.search(line.decode("utf-8", "replace"))
            if match:
                self.port = int(match.group(2))
                self.listening_at = time.perf_counter()
                return self
        self.stop()
        raise RuntimeError(f"{self.module} did not start "
                           f"(see {self.run_dir / (self.name + '.log')})")

    # --------------------------------------------------------------- stats

    def pids(self) -> list[int]:
        """This process and every descendant (router workers included)."""
        if self.proc is None:
            return []
        found = [self.proc.pid]
        index = 0
        while index < len(found):
            pid = found[index]
            index += 1
            for task in _listdir(f"/proc/{pid}/task"):
                try:
                    children = Path(f"/proc/{pid}/task/{task}/children").read_text()
                except OSError:
                    continue
                found.extend(int(c) for c in children.split() if int(c) not in found)
        return found

    def cpu_times(self) -> tuple[float, float]:
        """User and system CPU seconds of the process tree (exited children
        excluded)."""
        user = system = 0
        for pid in self.pids():
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            user += int(fields[11])
            system += int(fields[12])
        return user / CLK_TCK, system / CLK_TCK

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident set (VmHWM) over the process tree."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def start_timing(self) -> None:
        """Tell a traced tree that the timed part starts now (SIGUSR1)."""
        if not self.traced:
            return
        for pid in self.pids():
            try:
                # Only tracehost processes handle SIGUSR1; it kills others.
                if b"tracehost.py" in Path(f"/proc/{pid}/cmdline").read_bytes():
                    os.kill(pid, signal.SIGUSR1)
            except (OSError, ProcessLookupError):
                pass

    # ---------------------------------------------------------------- stop

    def stop(self, timeout: float = 10.0) -> None:
        """Kill the process tree; a traced tree first writes its traces.

        Traced processes write their trace and exit on SIGTERM; everything
        left after ``timeout`` (and every untraced process) is SIGKILLed.
        """
        proc = self.proc
        if proc is None:
            return
        LIVE.discard(self)
        if self.traced and proc.poll() is None:
            pids = self.pids()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline and any(
                    _alive(pid) for pid in pids):
                time.sleep(0.02)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        # The router's workers are reparented when the router dies; wait for
        # them too, so no process of this tree outlives the run.
        deadline = time.monotonic() + timeout
        while group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)


def stop_all() -> None:
    """Stop every serving process still running (interrupted runs)."""
    for proc in list(LIVE):
        proc.stop(timeout=2.0)


def group_members(pgid: int) -> list[int]:
    """Processes of process group ``pgid`` that have not yet exited."""
    members = []
    for entry in _listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _listdir(path: str) -> list[str]:
    try:
        return os.listdir(path)
    except OSError:
        return []
