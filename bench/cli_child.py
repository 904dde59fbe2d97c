"""Run one dlcz-swap command in a fresh interpreter, as the console script does.

    python3 bench/cli_child.py RECORD TRACE -- <dlcz-swap arguments>

After the command returns, writes RECORD as JSON: the exit code, the time
the `dlcz_swap.cli` import took, this process's thread count and, when
TRACE is 1, the spans of every layer call.  The caller puts `src` on
PYTHONPATH and sets the thread limits in the environment.
"""

import json
import sys
import time


def main(argv) -> int:
    record_path, trace, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: cli_child.py RECORD TRACE -- ARGS...")
    start = time.perf_counter()
    from dlcz_swap import analytic, cli, fock, protocol, series
    import_s = time.perf_counter() - start

    tracer = None
    if trace == "1":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install({"analytic": analytic, "fock": fock, "protocol": protocol,
                        "series": series, "cli": cli})
    rc = cli.main(command)
    if tracer is not None:
        tracer.uninstall()

    from tracing import process_threads
    record = {"rc": rc, "import_s": import_s, "threads": process_threads(),
              "spans": tracer.spans if tracer is not None else []}
    with open(record_path, "w") as handle:
        json.dump(record, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
