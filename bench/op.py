"""One benchmark operation: a fresh process that imports ecsim and runs one
`ecsim` command line, as a user's invocation does.

    python3 bench/op.py REPORT.json [--trace] [--probe] -- run --config C --out D

The report records, on the system-wide monotonic clock, when ecsim was
imported (`ready`) and when the command returned (`end`), the exit code and
the process's peak resident memory. With --trace it also holds the spans of
every call into ecsim's layers; with --probe the process stops after import.
The command's own output goes to this process's stdout and stderr.
"""

import json
import resource
import sys
import time


def main() -> int:
    split = sys.argv.index("--")
    report_path, *flags = sys.argv[1:split]
    argv = sys.argv[split + 1 :]
    start = time.perf_counter()
    import ecsim.cli

    import_s = time.perf_counter() - start
    ready = time.monotonic()
    report = {"ready": ready, "import_s": import_s, "code": 0}
    if "--probe" not in flags:
        tracer = None
        if "--trace" in flags:
            import tracer as tracing

            tracer = tracing.install()
        try:
            code = ecsim.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
        report["end"] = time.monotonic()
        report["code"] = code
        if tracer is not None:
            report.update(spans=tracer.spans, vectors_built=tracer.vectors_built,
                          bytes_frozen=tracer.bytes_frozen)
    report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return report["code"]


if __name__ == "__main__":
    sys.exit(main())
