"""Rewrite tests/golden/parity.json from this checkout.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Only a change that moves artifact bytes on purpose should rerun it; the
commit then names the moved artifacts.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from test_parity import GOLDEN, environment, parity_hashes  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as root:
        hashes = parity_hashes(root)
    with open(GOLDEN, "w") as f:
        json.dump({"environment": environment(), "sha256": hashes}, f,
                  indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")


if __name__ == "__main__":
    main()
