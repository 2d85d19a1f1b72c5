"""Run one ``polymap`` CLI subcommand with tracing on.

Usage: python3 perfbench/cli_child.py SPANS_JSON {all,train} SUBCOMMAND [ARGS...]

``polymap`` must be importable (the benchmark puts ``src`` on
PYTHONPATH).  The import is timed, the functions of the named target set
are wrapped (``all``: every traced function and ``cli.main``; ``train``:
the two training calls), ``polymap.cli.main`` runs with the remaining
arguments, and the spans,
the import time and the warnings raised are written to SPANS_JSON.  The
exit code is the subcommand's.
"""

import time

_started = time.perf_counter()
import polymap.cli  # noqa: E402

_import_s = time.perf_counter() - _started

import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

from layers import CLI_TARGET, TARGET_SETS  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    out, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    targets = TARGET_SETS[kind]
    tracer = Tracer([CLI_TARGET, *targets] if kind == "all" else targets)
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = polymap.cli.main(argv)
    finally:
        tracer.uninstall()
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    with open(out, "w") as f:
        json.dump(
            {
                "import_s": _import_s,
                "spans": [s.to_dict() for s in tracer.spans],
                "warnings": [[w.category.__name__, str(w.message)] for w in caught],
            },
            f,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
