"""One fresh process's set-up: import mdd and load one workload input.

    python3 perfbench/setup_probe.py csv <file.csv>
    python3 perfbench/setup_probe.py cache <file.dist>

The parent times the whole process, from spawn to exit; ``src`` must be on
PYTHONPATH.
"""

import csv
import sys

import mdd


def main(kind: str, path: str) -> int:
    if kind == "csv":
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            relation = mdd.Relation.from_rows(header, reader)
        return 0 if relation.tuple_count > 1 else 1
    dist = mdd.load_distribution(path)
    return 0 if dist.n > 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
