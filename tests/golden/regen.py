"""Rewrite tests/golden/parity.json from this checkout.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Only a change that moves artifact bytes on purpose should rerun it; the
commit then names the moved artifacts, which it prints against the
parity.json it replaces, with the count of those that stayed.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from test_parity import GOLDEN, environment, parity_hashes  # noqa: E402


def main():
    with open(GOLDEN) as f:
        before = json.load(f)["sha256"]
    with tempfile.TemporaryDirectory() as root:
        hashes = parity_hashes(root)
    with open(GOLDEN, "w") as f:
        json.dump({"environment": environment(), "sha256": hashes}, f,
                  indent=2, sort_keys=True)
        f.write("\n")
    for name in sorted(before.keys() | hashes.keys()):
        if name not in hashes:
            print(f"removed: {name}")
        elif name not in before:
            print(f"added: {name}")
        elif before[name] != hashes[name]:
            print(f"moved: {name}")
    stayed = sum(before.get(name) == digest for name, digest in hashes.items())
    print(f"{stayed} of {len(hashes)} hashes stayed; wrote "
          f"{os.path.relpath(GOLDEN, os.path.dirname(os.path.dirname(HERE)))}")


if __name__ == "__main__":
    main()
