"""Self-tests of the benchmark (``python -m pytest perf/tests -q``).

Not collected by the repo's tier-1 run (``pytest.ini`` lists ``benchmarks``
and ``tests`` only).  The benchmark's modules import each other by bare
name, as they do when ``perf/run.py`` runs as a script.
"""

import pathlib
import sys

PERF_DIR = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERF_DIR))
