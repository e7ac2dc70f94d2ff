"""Time a fresh interpreter's `import graphhodge` and the parsing of a workload's inputs.

    python3 bench/setup_probe.py import
    python3 bench/setup_probe.py <workload> FILE...

Prints one JSON object: `import_s` (seconds to import the package) and
`setup_s` (import plus reading and parsing the files with the library
parsers). The clock starts before graphhodge, numpy or scipy is imported, so
both figures include those imports; interpreter start-up is not included.
The caller sets PYTHONPATH to the checkout's `src`.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import graphhodge  # noqa: E402

t1 = time.perf_counter()
mode, files = sys.argv[1], [Path(f).read_text() for f in sys.argv[2:]]
if mode == "rank-ratings":
    graphhodge.ComparisonData.from_csv(files[0])
elif mode in ("spectra-gnp", "cheeger-plap"):
    for text in files:
        graphhodge.parse_graph(text)
elif mode == "game-profiles":
    doc = json.loads(files[0])
    graphhodge.GameForm.from_tables(doc["strategies"], doc["utilities"])
elif mode != "import":
    sys.exit(f"setup_probe: unknown workload {mode!r}")
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
