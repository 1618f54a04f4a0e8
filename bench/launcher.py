"""Run one ``bezmat`` CLI request with layer spans recorded.

Usage: python bench/launcher.py SPANS_OUT VERB ARGS...

Times ``import bezmat.cli``, installs the tracer, calls
``bezmat.cli.main(argv)`` and writes the import time, the in-child time,
the spans and the kernel counts to SPANS_OUT as JSON.  stdout and the
exit code are those of the CLI.
"""

import json
import os
import sys
from time import perf_counter

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import bezmat.cli

    import_s = perf_counter() - t0
    import tracer
    from bezmat import faults

    if faults._active:
        raise SystemExit(f"fault switches active: {sorted(faults._active)}")
    tr = tracer.Tracer()
    tr.op = 0
    tr.install()
    try:
        code = bezmat.cli.main(argv)
    finally:
        tr.uninstall()
    sys.stdout.flush()
    child_s = perf_counter() - t0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"import_s": import_s, "child_s": child_s, "spans": tr.spans, "counts": tr.counts},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
