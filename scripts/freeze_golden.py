#!/usr/bin/env python3
"""Rewrite the frozen reference data under golden/.

``xtrees.verify`` computes every file and checks the paper's rules for it;
this script only writes what it returns, and writes nothing if a rule
fails. Rerunning must be a no-op on a correct build.
"""

import sys
from pathlib import Path

from xtrees.verify import GOLDEN_FILES, golden_text

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


def main() -> int:
    texts = {name: golden_text(name) for name in GOLDEN_FILES}
    GOLDEN.mkdir(exist_ok=True)
    for name, text in texts.items():
        path = GOLDEN / name
        path.write_text(text)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
