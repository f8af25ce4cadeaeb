"""Run a serving CLI with the perfbench layer wrappers installed.

    python perfbench/tracehost.py --trace-dir DIR --module repro.serving.server -- ARGS...

Imports the module (timed as ``setup.import``), wraps every target of
:data:`layers.TARGETS`, then calls the module's ``main(ARGS)``.  A router's
pool workers are started through this host too, so their layers are traced.
SIGUSR1 marks the start of the timed part (everything but the ``setup.*``
values recorded so far is dropped).  On SIGTERM or SIGINT the trace is
written to ``DIR/<pid>.json`` and the process exits at once.
"""

from __future__ import annotations

import argparse
import importlib
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import TARGETS  # noqa: E402
from spans import Tracer  # noqa: E402


def _trace_workers(router_module, trace_dir: str) -> None:
    """Start the router's pool workers through this host as well."""
    original = getattr(router_module, "server_worker_command", None)
    if original is None:
        return

    def server_worker_command(checkpoint, **kwargs):
        command_for = original(checkpoint, **kwargs)

        def command(spec):
            command = list(command_for(spec))
            if command[1:3] != ["-m", "repro.serving.server"]:
                return command
            return [command[0], str(Path(__file__).resolve()),
                    "--trace-dir", trace_dir, "--module", command[2],
                    "--", *command[3:]]
        return command

    router_module.server_worker_command = server_worker_command


def _process_age() -> float:
    """Seconds since this process started (from /proc, 10 ms resolution)."""
    ticks = os.sysconf("SC_CLK_TCK")
    started = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[19])
    uptime = float(Path("/proc/uptime").read_text().split()[0])
    return uptime - started / ticks


def _mark_first_answer(tracer: Tracer, module) -> None:
    """Record listen -> first answered request as ``setup.warmup``."""
    handler = getattr(module, "AdviseRequestHandler", None)
    make_server = getattr(module, "make_server", None)
    if handler is None or make_server is None:
        return
    state = {"listening": None}

    def traced_make_server(*args, **kwargs):
        server = make_server(*args, **kwargs)
        state["listening"] = time.time()
        return server

    original_post = handler.do_POST

    def do_post(self):
        try:
            return original_post(self)
        finally:
            if state["listening"] is not None:
                tracer.value("setup.warmup", time.time() - state["listening"])
                state["listening"] = None

    module.make_server = traced_make_server
    handler.do_POST = do_post


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--module", required=True)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    options = parser.parse_args()
    args = options.args[1:] if options.args[:1] == ["--"] else options.args

    module = importlib.import_module(options.module)
    tracer = Tracer()
    tracer.value("setup.import", _process_age())
    tracer.install(TARGETS)
    if options.module == "repro.serving.router":
        _trace_workers(module, options.trace_dir)
    else:
        _mark_first_answer(tracer, module)
    out = str(Path(options.trace_dir) / f"{os.getpid()}.json")

    def dump_and_exit(signum, frame):
        tracer.dump(out)
        os._exit(0)

    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.reset())
    signal.signal(signal.SIGTERM, dump_and_exit)
    signal.signal(signal.SIGINT, dump_and_exit)
    code = module.main(args)
    tracer.dump(out)
    return int(code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
