"""Record which functions of one source tree a Python process enters.

``tools/reachability_scan.py`` puts this directory first on ``PYTHONPATH``,
so every Python process it starts imports this module at start-up: CLI
children, harness children, ``multiprocessing`` spawn and forkserver
workers.  Forked children inherit the installed hook.

With ``REACHABILITY_SCAN_ROOT`` (a source directory) and
``REACHABILITY_SCAN_OUT`` (a directory) set, it installs a
``sys.setprofile`` / ``threading.setprofile`` hook.  On the first entry of
each code object whose file lies under the root, the hook appends
``file<TAB>co_firstlineno`` to ``<out>/<pid>.txt`` at once, so a child that
leaves by ``os._exit`` loses nothing.  Without the two variables it does
nothing.
"""

import os
import sys
import threading


def _install(root: str, out: str) -> None:
    prefix = os.path.join(os.path.realpath(root), "")
    seen = set()
    sink = {"pid": None, "fd": None}

    def record(code) -> None:
        pid = os.getpid()
        if sink["pid"] != pid:  # first record of this process, or a forked child
            sink["pid"] = pid
            sink["fd"] = os.open(
                os.path.join(out, f"{pid}.txt"), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        os.write(sink["fd"], f"{code.co_filename}\t{code.co_firstlineno}\n".encode())

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                if code.co_filename.startswith(prefix):
                    record(code)

    sys.setprofile(hook)
    threading.setprofile(hook)


if os.environ.get("REACHABILITY_SCAN_ROOT") and os.environ.get("REACHABILITY_SCAN_OUT"):
    _install(os.environ["REACHABILITY_SCAN_ROOT"], os.environ["REACHABILITY_SCAN_OUT"])
