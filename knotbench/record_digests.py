"""
Record the digest of every answer the growth workload can ask for, from the
current implementation, into digests.json.  Run from the repository root
when the recorded answers are to be re-based on purpose:

    python3 knotbench/record_digests.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import growth_queries

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from oracle import DIGESTS_PATH, call_cli, canonical_digest, query_key

    digests = {}
    for argv in growth_queries():
        code, out, err = call_cli(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}: {err}")
        digests[query_key(argv)] = canonical_digest(out)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
