"""The largest relative move of each field between two fingerprint dumps.

Usage: python tests/fingerprint_moves.py BASE HEAD

BASE and HEAD are files that ``tests/fingerprint.py SRC --dump PATH``
wrote for two trees. A field is the innermost key that names a number
in a fit's document ("point", "rbc_se", "h_left", "plugin", ...), so the
entries of a list or a matrix share their key. A move is
|a - b| / max(|a|, |b|), 0 where a == b. The script prints the number of
fits, the fits that raise on one side only or differ in shape, then per
field that moved its largest move and the fit it occurs in, largest
first, and then the fields that did not move. A text or flag that
differs counts as a move of 1. It needs only the standard
library, and pytest does not collect it.
"""

import json
import math
import sys


def _leaves(doc, key=""):
    """(field, value) for each number, text or flag in doc."""
    if isinstance(doc, dict):
        for name, value in doc.items():
            yield from _leaves(value, name)
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value, key)
    else:
        yield key, doc


def _move(a, b) -> float:
    if a == b or (a != a and b != b):  # equal, or both NaN
        return 0.0
    if isinstance(a, (bool, str)) or isinstance(b, (bool, str)) or None in (
        a, b
    ):
        return 1.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def _read(path) -> dict:
    with open(path) as fh:
        return {
            line["fit"]: line["doc"] for line in map(json.loads, fh)
        }


def main() -> None:
    base, head = (_read(path) for path in sys.argv[1:3])
    worst: dict[str, tuple[float, str]] = {}
    mismatched = []
    for fit, doc in head.items():
        old = base.get(fit)
        a = list(_leaves(old)) if old is not None else None
        b = list(_leaves(doc))
        if a is None or [k for k, _ in a] != [k for k, _ in b]:
            mismatched.append(fit)
            continue
        for (field, va), (_, vb) in zip(a, b):
            move = _move(va, vb)
            if move > worst.get(field, (-1.0, ""))[0]:
                worst[field] = (move, fit)
    print(f"fits: {len(head)} (base {len(base)}); raising on one side only "
          f"or differently shaped: {len(mismatched)}")
    for fit in mismatched:
        print(f"  {fit}")
    for field, (move, fit) in sorted(worst.items(), key=lambda kv: (
        -kv[1][0], kv[0]
    )):
        if move:
            print(f"{field:<16} {move:.2e}  {fit}")
    still = sorted(field for field, (move, _) in worst.items() if not move)
    print(f"unchanged: {', '.join(still)}")


if __name__ == "__main__":
    main()
