"""One child process of the benchmark: a cold start and its share of the run.

Started by ``run.py`` as ``python3 perfbench/worker.py <kind> <json args>``;
prints one JSON report line.
"""

import json
import sys

import fit_csv
import ingest_watch

KINDS = {
    "fit-csv": fit_csv.worker,
    "fit-csv-speedup": fit_csv.speedup_worker,
    "ingest-watch": ingest_watch.worker,
}

if __name__ == "__main__":
    print(json.dumps(KINDS[sys.argv[1]](json.loads(sys.argv[2]))))
