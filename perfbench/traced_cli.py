"""Run one orthokleis command line with the layer functions traced.

    python3 perfbench/traced_cli.py TRACE_FILE ARGS...

Runs ``orthokleis.cli.main(ARGS)`` as the console script would, then
writes the aggregated spans to TRACE_FILE and exits with the command's
exit code.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from tracer import Tracer  # noqa: E402


def main(argv) -> int:
    trace_file, args = Path(argv[0]), argv[1:]
    import orthokleis.cli

    tracer = Tracer()
    tracer.install()
    try:
        return orthokleis.cli.main(args)
    finally:
        trace_file.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
