"""Run one sectionlab CLI command and record where its time went.

    python3 cli_child.py TIMING_JSON MODE -- CLI_ARGS...

Set-up (interpreter start, ``import sectionlab`` and ``resolve_shape`` of
the command's ``--shape``) ends at ``t_ready``.  MODE ``setup`` stops
there.  MODE ``run`` and ``trace`` then run the command through the CLI's
own entry point, ``sectionlab.cli.main``, which returns at
``t_main_end``.  With ``trace`` the layer calls are recorded as spans under
one root span named after the command; the deferred counters are computed
after ``t_main_end``, and ``t_counted`` marks their end.  The timing file
is written once, after the command, and the CLI's exit code is kept.  All
times are ``time.perf_counter`` values, which on Linux share one monotonic
clock across processes.
"""

import json
import sys
import time


def main() -> int:
    timing_path, mode = sys.argv[1], sys.argv[2]
    args = sys.argv[sys.argv.index("--") + 1:]
    from sectionlab import cli

    cli.resolve_shape(args[args.index("--shape") + 1],
                      "--normalize-volume" in args)
    timing = {"t_ready": time.perf_counter()}
    code = 0
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            if tracer is None:
                cli.main.main(args=args, prog_name="sectionlab")
            else:
                tracer.call(f"cli.{args[0]}", cli.main.main, args=args,
                            prog_name="sectionlab")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        timing["t_main_end"] = time.perf_counter()
        if tracer is not None:
            timing["spans"] = tracer.finish()
            timing["t_counted"] = time.perf_counter()
    timing["exit_code"] = code
    with open(timing_path, "w") as fh:
        json.dump(timing, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
