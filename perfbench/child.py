"""One benchmark iteration in a fresh process: the real CLI, timed from outside.

    python3 child.py SRC RESULT_JSON TRACE MODE CLI_ARGS...

SRC is the checkout's ``src`` directory.  MODE ``run`` calls
``opnet.cli.main(CLI_ARGS)``; MODE ``setup`` stops once the config is resolved.
RESULT_JSON receives the exit code, the CLOCK_MONOTONIC times at which
``opnet.cli.resolve`` returned and the command ended, the peak RSS, the CPU
time and, with TRACE 1, the spans.  The process exits with the CLI's exit code.
"""

import json
import resource
import sys

from layers import Tracer, now, peak_rss_kb


def main(argv: list[str]) -> int:
    src, result_path, trace, mode = argv[:4]
    cli_args = argv[4:]
    sys.path.insert(0, src)
    import opnet.cli as cli

    marks = {}
    resolve = cli.resolve

    def timed_resolve(cfg):
        out = resolve(cfg)
        marks.setdefault("resolved", now())
        return out

    cli.resolve = timed_resolve
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()

    if mode == "setup":
        with open(cli_args[1]) as fh:
            cli.resolve(cli.parse_config(fh.read()))
        code = 0
    else:
        code = cli.main(cli_args)
    end = now()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit": code,
        "module": cli.__file__,
        "resolved": marks.get("resolved"),
        "end": end,
        "peak_rss_kb": peak_rss_kb(),
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        result.update(spans=tracer.spans, missing=tracer.missing,
                      absent=tracer.absent_layers())
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
