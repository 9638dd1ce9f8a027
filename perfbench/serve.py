"""Start ``SimService`` through its own command line, with its defaults.

Used by the service-mixed workload: ``--trace-dir`` installs the span
tracer before the service forks any worker and writes this process's
spans there when the service stops; ``--negative-control`` corrupts
every spmv/lima result before its check.  The service prints
``SERVICE-READY port=N`` once it listens and stops on SIGTERM.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

    from repro.harness import service
    from workloads import confine_temp_files

    confine_temp_files(Path(args.workdir))
    tracer = None
    if args.trace_dir is not None:
        from tracing import Tracer, install
        tracer = Tracer(dump_dir=Path(args.trace_dir))
        install(tracer)
    if args.negative_control:
        from workloads import install_negative_control
        install_negative_control("spmv", "lima")
    try:
        return service.main(["--workdir", args.workdir, "--port", "0"])
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    raise SystemExit(main())
