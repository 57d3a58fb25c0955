"""The reference process: the same jobs on a frozen copy of sublat.

The machine the benchmark was tuned on changes speed by up to a factor of
two over tens of seconds, so a job's time alone says as much about the
machine as about the program. `run.py` therefore forks, before it imports
sublat, a reference process that runs every job a second time on the copy
of the library kept in `perfbench/ref/sublat` (the sources the benchmark
was defined on; it never changes). The reference process puts
`perfbench/ref` first on its path, so its `import sublat` loads that copy,
and it builds the same job list from the same seed with the same code
(`workloads.py`). The two processes take turns, one step at a time, so the
reference's time for a step is measured seconds from the program's time for
the same step, and the ratio of the two follows the program, not the
machine.

The processes speak over two pipes, one line per message:
`import`, `build` and `job <k>` are answered with `ok <seconds>` (or
`error <type>` when the step raised); end of input ends the process.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from pathlib import Path
from typing import Callable

REF_SRC = Path(__file__).resolve().parent / "ref"
# Benchmark modules that import sublat by name: they are imported afresh in
# the reference process, so that there they bind to the frozen copy.
BOUND_TO_SUBLAT = ("workloads", "families", "tracer")


class ReferenceFailed(RuntimeError):
    """A step failed in the reference process, or the process ended."""


class Reference:
    """The parent's handle on the reference process."""

    def __init__(self, import_sublat: Callable[[], object], build: Callable[[Path], list],
                 workdir: Path) -> None:
        """Fork the reference process. `import_sublat()` imports sublat afresh;
        `build(workdir)` returns the flat job list. Both run in the reference
        process, where sublat is the frozen copy."""
        sys.stdout.flush()
        sys.stderr.flush()
        to_child_r, to_child_w = os.pipe()
        from_child_r, from_child_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the reference process; it never returns from here
            code = 1
            try:
                os.close(to_child_w)
                os.close(from_child_r)
                _serve(os.fdopen(to_child_r, "r"), os.fdopen(from_child_w, "w"),
                       import_sublat, build, workdir)
                code = 0
            finally:
                os._exit(code)
        os.close(to_child_r)
        os.close(from_child_w)
        self.pid = pid
        self._send = os.fdopen(to_child_w, "w")
        self._receive = os.fdopen(from_child_r, "r")

    def ask(self, message: str) -> float:
        """Send one step; its time in seconds, or raise when it failed."""
        self._send.write(message + "\n")
        self._send.flush()
        reply = self._receive.readline().split()
        if not reply:
            raise ReferenceFailed(f"the reference process ended during {message!r}")
        if reply[0] != "ok":
            raise ReferenceFailed(f"{message!r} failed in the reference process: {reply[1]}")
        return float(reply[1])

    def close(self) -> None:
        """End the reference process and wait until it has ended."""
        for stream in (self._send, self._receive):
            try:
                stream.close()
            except OSError:
                pass
        os.waitpid(self.pid, 0)


def _serve(requests, replies, import_sublat, build, workdir: Path) -> None:
    for name in [m for m in sys.modules
                 if m.partition(".")[0] == "sublat" or m in BOUND_TO_SUBLAT]:
        del sys.modules[name]
    sys.path.insert(0, str(REF_SRC))
    jobs = []
    try:
        for line in requests:
            command, *rest = line.split()
            began = time.perf_counter()
            try:
                if command == "import":
                    import_sublat()
                elif command == "build":
                    jobs = build(workdir)
                elif command == "job":
                    jobs[int(rest[0])].run()
                else:
                    raise ValueError(command)
            except Exception as exc:  # reported to the parent, which decides
                replies.write(f"error {type(exc).__name__}\n")
            else:
                replies.write(f"ok {time.perf_counter() - began!r}\n")
            replies.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
