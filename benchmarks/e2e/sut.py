"""The system under test, run as real ``cryowire`` subprocesses.

Every run starts a fresh interpreter on ``python -m repro.experiments.cli``
(or, for a traced run, :mod:`benchmarks.e2e.launch`) from the checkout's
``src``, so nothing is measured inside the benchmark's own process. CLI
runs are reaped with ``os.wait4`` for their CPU time and peak RSS; a server
is read through ``/proc/<pid>`` while it runs and stopped with SIGTERM,
which makes it drain gracefully.

On a host with two or more CPUs the measured process runs on one CPU and
the benchmark (the load generator) on another, so client and server never
take turns on a core.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from benchmarks.e2e.load import Client

#: A CLI run or server start that takes longer than this has hung.
TIMEOUT_S = 150.0

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class SutError(RuntimeError):
    """The system under test could not be started or stopped cleanly."""


@dataclass
class CliRun:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


class Checkout:
    """The tree the benchmark runs in: ``src/`` and a scratch directory.

    ``sut_cpus`` is the CPU set a measured process runs on; ``all_cpus``
    is used for ``--jobs 2`` set-up runs, which need both cores.
    """

    def __init__(self, root: Path, workdir: Path, sut_cpus: Set[int], all_cpus: Set[int]) -> None:
        self.root = root
        self.workdir = workdir
        self.sut_cpus = sut_cpus
        self.all_cpus = all_cpus
        self._n = 0
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("CRYOWIRE_")
        }
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        env["CRYOWIRE_CACHE_DIR"] = str(workdir / "cache")  # never ~/.cache
        # The "listening" line is parsed off a pipe as soon as it is printed.
        env["PYTHONUNBUFFERED"] = "1"
        self.env = env

    def fresh_dir(self, label: str) -> Path:
        self._n += 1
        path = self.workdir / f"{label}-{self._n}"
        path.mkdir(parents=True)
        return path

    @staticmethod
    def cli(*args: str) -> List[str]:
        return [sys.executable, "-m", "repro.experiments.cli", *args]

    @staticmethod
    def traced(trace_out: Path, *args: str) -> List[str]:
        return [
            sys.executable, "-m", "benchmarks.e2e.launch",
            "--trace-out", str(trace_out), "--", *args,
        ]

    def spawn(self, argv: Sequence[str], cpus: Set[int], **kwargs) -> subprocess.Popen:
        """Start ``argv`` on ``cpus`` (a child inherits the CPU set it forks with)."""
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            return subprocess.Popen(list(argv), cwd=self.root, **kwargs)
        finally:
            os.sched_setaffinity(0, previous)

    def run(self, argv: Sequence[str], cache_dir: Optional[Path] = None,
            both_cpus: bool = False) -> CliRun:
        """Run one CLI process to completion and measure it."""
        env = dict(self.env)
        if cache_dir is not None:
            env["CRYOWIRE_CACHE_DIR"] = str(cache_dir)
        out_path = self.fresh_dir("out") / "stdout"
        with open(out_path, "wb") as out, open(out_path.with_name("stderr"), "wb") as err:
            start = time.perf_counter()
            proc = self.spawn(
                argv, self.all_cpus if both_cpus else self.sut_cpus,
                stdout=out, stderr=err, env=env,
            )
            watchdog = threading.Timer(TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliRun(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_bytes(),
            stderr=out_path.with_name("stderr").read_bytes(),
        )

    def start_server(self, argv: Sequence[str]) -> "Server":
        return Server(self, argv)


class Server:
    """A running ``cryowire serve --port 0`` process."""

    def __init__(self, checkout: Checkout, argv: Sequence[str]) -> None:
        start = time.perf_counter()
        self._stderr = open(checkout.fresh_dir("server") / "stderr", "wb")
        self.proc = checkout.spawn(
            argv, checkout.sut_cpus, stdout=subprocess.PIPE, stderr=self._stderr,
            env=checkout.env, text=True,
        )
        try:
            self.port = self._await_port(start + TIMEOUT_S)
            self._await_ready(start + TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        #: Seconds from spawn until ``GET /readyz`` answered 200.
        self.ready_s = time.perf_counter() - start

    def _await_port(self, deadline: float) -> int:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise SutError("server printed no 'listening' line")
            readable, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not readable:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise SutError(f"server exited with {self.proc.wait()} before listening")
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))

    def _await_ready(self, deadline: float) -> None:
        client = Client(self.port)
        try:
            while time.perf_counter() < deadline:
                try:
                    status, _ = client.get("/readyz")
                except OSError:
                    status = None
                if status == 200:
                    return
                time.sleep(0.01)
        finally:
            client.close()
        raise SutError("server never became ready")

    def cpu_s(self) -> float:
        """User plus system CPU time of the server so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the server's peak resident set so far."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise SutError("no VmHWM in /proc status")

    def stop(self) -> Tuple[int, str]:
        """SIGTERM, wait for the drain; returns (exit code, stdout tail)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise SutError("server did not drain within 30 s of SIGTERM")
        finally:
            self._stderr.close()
        return self.proc.returncode, out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        self._stderr.close()
