"""Run one pdefisher CLI task in this process, as the ``pdefisher`` console
script would, and write what the benchmark measures from inside it.

usage: python child.py STATS_JSON MODE CLI_ARGS...

MODE is ``plain`` (no tracing) or ``trace`` (wrap each layer, see
layers.py).  run.py passes the monotonic clock reading taken just
before it spawned this process in ``PERFBENCH_T0``; set-up time is
measured from there to the return of ``build_experiment``.
"""

import atexit
import json
import os
import sys
import time


def _dump(path, stats, tracer):
    stats["kernels"] = getattr(sys.modules.get("pdefisher._kernels"), "IMPL", None)
    if tracer is not None:
        stats["layers"] = tracer.summary()
    with open(path, "w") as fh:
        json.dump(stats, fh)


def main():
    stats_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    t_spawn = float(os.environ["PERFBENCH_T0"])
    stats = {}
    tracer = None
    if mode == "trace":
        from layers import Tracer

        tracer = Tracer()
        with tracer.span("config.import"):
            import pdefisher.cli as cli
        tracer.install(cli)
    else:
        import pdefisher.cli as cli
    atexit.register(_dump, stats_path, stats, tracer)

    build = cli.build_experiment

    def timed_build(cfg):
        exp = build(cfg)
        stats["setup_s"] = time.monotonic() - t_spawn
        return exp

    cli.build_experiment = timed_build
    cli.main(args=cli_args, prog_name="pdefisher")


if __name__ == "__main__":
    main()
