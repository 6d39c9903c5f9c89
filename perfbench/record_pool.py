"""Regenerate perfbench/link_pool.json: the fixed link_eval inputs that no
independent identity checks, with the digest of each response.

    python3 perfbench/record_pool.py

Run from a checkout root at a commit whose results are trusted; the digests
it records are what every later run compares against.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

POOL_SEED = 0
POOL_SIZE = 320


def main():
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from workloads import (POOL_FILE, canonical_digest, execute_link, link_pool_inputs,
                           response_json)
    from skeinrep import skein

    entries = []
    for i, req in enumerate(link_pool_inputs(POOL_SEED, POOL_SIZE)):
        req["link"] = skein.closed_braid_link(list(req["word"]), req["n"],
                                              labels=list(req["labels"]),
                                              framings=list(req["framings"]))
        digest = canonical_digest(response_json(req, execute_link(req)))
        entries.append({k: (list(v) if isinstance(v, tuple) else v)
                        for k, v in req.items() if k != "link"} | {"digest": digest})
        print(f"{i + 1}/{POOL_SIZE}", file=sys.stderr)
    with open(POOL_FILE, "w") as fh:
        json.dump({"seed": POOL_SEED, "requests": entries}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
