"""Launch the sweep service the ``fanout-http`` workload sweeps against.

Usage: ``python3 perfbench/serve.py DB [--trace-dir DIR]``

Binds a free localhost port, prints it on stdout and serves until
SIGTERM.  With ``--trace-dir`` the layer wrappers of ``tracing.py`` are
installed (plus ``BrokerService.call``), and the process's totals are
written to ``DIR/trace-<pid>.json`` when it stops.
"""

from __future__ import annotations

import argparse
import signal
from pathlib import Path


def _stop(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("db")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    from repro.service.server import make_server

    tracer = None
    if args.trace_dir is not None:
        from tracing import Tracer, install

        tracer = Tracer(Path(args.trace_dir))
        install(tracer, service=True)
    server = make_server(args.db, port=0)
    signal.signal(signal.SIGTERM, _stop)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    main()
