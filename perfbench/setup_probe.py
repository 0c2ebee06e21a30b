"""One fresh-interpreter set-up sample: import akgrowth, then one cold call.

Usage: python3 setup_probe.py <src dir> <akgrowth cli arguments...>
Prints {"import_s", "first_call_s", "rc"} as one JSON line.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from akgrowth import cli  # noqa: E402  (timed import)

imported = time.perf_counter()
rc = cli.main(sys.argv[2:])
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "first_call_s": done - imported, "rc": rc}))
