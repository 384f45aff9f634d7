"""One ``repro serve`` process: spawn, wait for health, observe, stop."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

BANNER = re.compile(r"listening on (\S+):(\d+) ")
STOP_TIMEOUT_S = 30.0


def server_env(root: Path) -> dict[str, str]:
    """The parent environment without any ``REPRO_*`` switch, so a CI
    matrix variable cannot change the measured path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


class Server:
    """A live server; ``spans_path`` set means it runs under the tracing
    launcher, which adds ``--metrics`` and writes spans there on exit."""

    def __init__(self, root: Path, serve_args: list[str], log_path: Path,
                 spans_path: Path | None = None) -> None:
        self.root = root
        self.spans_path = spans_path
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            argv = [sys.executable,
                    str(Path(__file__).with_name("launch_traced.py")),
                    str(spans_path), "serve", *serve_args, "--metrics"]
        self.argv = argv
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        self.spawned_at = 0.0
        self.stdout = ""

    def spawn(self) -> None:
        """Start the process and read the port from its banner."""
        self._log = open(self.log_path, "w")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=self.root, env=server_env(self.root),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._log, text=True)
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited before listening: {self.stderr()}")
            self.stdout += line
            match = BANNER.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return

    def start(self, connect: Callable[[str, int], Any]) -> tuple[Any, float]:
        """Spawn, connect through ``connect(host, port)`` and wait for the
        first successful ``health()``; returns the connection and the
        spawn-to-health seconds."""
        self.spawn()
        conn = connect(self.host, self.port)
        conn.health()
        return conn, time.perf_counter() - self.spawned_at

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the server's peak resident set, in MB."""
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def stderr(self) -> str:
        return self.log_path.read_text()

    def stop(self) -> tuple[float, int]:
        """SIGINT, then wait; returns ``(seconds to exit, stop errors)``.

        A stop error is a traceback on stderr, a non-zero exit, or a
        server that had to be killed.  Callers close every client
        connection first.  The stderr text is echoed, never dropped."""
        if self.proc is None:
            return 0.0, 0
        errors = 0
        start = time.perf_counter()
        self.proc.send_signal(signal.SIGINT)
        try:
            self.stdout += self.proc.communicate(timeout=STOP_TIMEOUT_S)[0]
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.stdout += self.proc.communicate()[0]
            errors += 1
        stop_s = time.perf_counter() - start
        if self.proc.returncode != 0:
            errors += 1
        self._log.close()
        text = self.log_path.read_text()
        errors += text.count("Traceback (most recent call last)")
        if text.strip():
            sys.stderr.write(f"--- server stderr ({self.log_path.name}) ---\n"
                             f"{text}")
        self.proc = None
        return stop_s, errors

    def kill(self) -> None:
        """Last-resort cleanup for a run that failed midway."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.communicate()
            self._log.close()
        self.proc = None
