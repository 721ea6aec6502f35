"""In-process CLI timings, run in a fresh interpreter by the traced run.

    PYTHONPATH=src python3 perfbench/cli_probe.py PATTERN_SET_FILE

Prints one JSON object: the time to import tilecraft.cli, and the first
and second ``cli.main(["decide", FILE])`` calls, in ms.  The first call
pays for importing jsonschema and loading the schema.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    path = sys.argv[1]
    t0 = time.perf_counter()
    import tilecraft.cli as cli
    t1 = time.perf_counter()
    codes, marks = [], [t1]
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(["decide", path]))
        marks.append(time.perf_counter())
    print(json.dumps({"import_ms": (t1 - t0) * 1e3,
                      "first_call_ms": (marks[1] - marks[0]) * 1e3,
                      "warm_call_ms": (marks[2] - marks[1]) * 1e3,
                      "exit_codes": codes}))
    return 0 if codes[0] == codes[1] and codes[0] in (0, 1) else 1


if __name__ == "__main__":
    sys.exit(main())
