"""Start ``repro-wpp serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/launch_serve.py SPANS_DIR serve STORE [...]``.
The daemon's spans are written to ``SPANS_DIR/server-<pid>.json`` when
it shuts down; each forked pool worker writes ``worker-<pid>.json``
when it exits.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    from spans import Recorder, instrument

    spans_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()

    def dump_worker(worker_recorder):
        path = os.path.join(spans_dir, f"worker-{os.getpid()}.json")
        worker_recorder.dump(path, "worker")

    instrument(recorder, on_worker_exit=dump_worker)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(os.path.join(spans_dir, f"server-{os.getpid()}.json"), "server")


if __name__ == "__main__":
    sys.exit(main())
