"""Run one workload as a child and leave no process behind, whatever happens.

A workload that ends normally stops its own workers (``run._stop_children``).
This is for every other way out: the child killed from outside or by the
kernel, an exception before its clean-up, a hang.  Workers of ``sharded-mp``
and multiprocessing's resource tracker then outlive their parent, and a later
run finds them still holding cores and shared memory.

The supervisor makes itself the *subreaper* of its descendants, so an orphan is
handed to it instead of to init; once the child has ended (or the supervisor is
told to stop, or the deadline passes) it kills whatever is left of the tree and
waits until each process has ended.  Standard library only: it is up before
NumPy or ``repro`` are imported, and idle while the child measures.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time

#: A run has to end within 180 s; a child still going this late has hung.
DEADLINE_S = 170.0

#: How long what a run left behind gets to end by itself.
GRACE_S = 2.0

_PR_SET_CHILD_SUBREAPER = 36


def descendants(root: int) -> list[int]:
    """Every process (zombies too) below ``root``, read from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # "pid (comm) state ppid ...": comm may hold spaces and brackets.
                parent = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # ended while we were looking
        children.setdefault(parent, []).append(int(entry))
    found, queue = [], [root]
    while queue:
        below = children.get(queue.pop(), [])
        found.extend(below)
        queue.extend(below)
    return found


def _reap(patience_s: float) -> bool:
    """Wait for children, own and inherited; ``True`` once none is left."""
    deadline = time.monotonic() + patience_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)


def stop_descendants() -> int:
    """Stop every descendant of this process and wait for each; return how many.

    ``SIGTERM`` first: workers die of it, and the resource tracker, which
    ignores it, ends by itself once they no longer hold its pipe, unlinking on
    its way out the shared memory they leaked.  Whatever is still there after
    ``GRACE_S`` is killed.
    """
    stopped: set[int] = set()
    signum = signal.SIGTERM
    while True:
        left = descendants(os.getpid())
        if not left:
            return len(stopped)
        stopped.update(left)
        for pid in left:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        # Our own children, and as their parents end the orphans handed to us.
        if not _reap(GRACE_S):
            signum = signal.SIGKILL


def supervise(command: list[str], deadline_s: float = DEADLINE_S) -> int:
    """Run ``command``, then stop what it left behind; return its exit code."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: only direct children can be waited for

    def told_to_stop(signum, frame):
        stop_descendants()
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, told_to_stop)
    child = subprocess.Popen(command)
    try:
        code = child.wait(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        print(f"no result after {deadline_s:.0f} s: stopping the run", file=sys.stderr)
        child.kill()
        child.wait()
        code = 1
    left = stop_descendants()
    if left:
        # The result, if one was printed, stands; say what had to be stopped.
        print(f"stopped {left} process(es) the run left behind", file=sys.stderr)
    return code if code >= 0 else 1
