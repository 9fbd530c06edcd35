"""Compare the outputs of two ``output_digests.py`` work trees numerically.

    python tools/compare_outputs.py OUT_A OUT_B

OUT_A and OUT_B are work directories written by ``tools/output_digests.py``,
for example from a parent tree and from a change; the files compared are
those its digest list covers.  For each file whose bytes differ it prints the
largest difference of a numeric entry relative to the file's largest entry
(over both trees), and where that difference sits: a JSON path, a CSV row
and column, or an .npz array and index.  Beside it stands the largest
difference relative to the largest entry of the same key (a JSON key, a CSV
column such as ``c_hat``, or an .npz array name), and that key, since a
file's largest entry may be a setting such as n.  A dataset sidecar is
compared by its ``values``: its ``sha256`` follows from the CSV, which has
its own line.  Each group of files, the command and the file name with its
omega and replication stripped, then gets its count and both largest
relative differences.  Last come the changed decision fields, every entry
whose key is one of DECISIONS or starts with one of them and "_", old value
then new.

Exit status: 0 when no decision field changed and both trees hold the same
files, 1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import sys

import numpy as np
from output_digests import output_files

DECISIONS = (
    "p_value",
    "reject",
    "rejection_rate",
    "best_lambda",
    "gcv_best_lambda",
    "ess_min_lambda",
)


def _flatten(node, path: str, key: str, entries: list) -> None:
    if isinstance(node, dict):
        for name, child in node.items():
            _flatten(child, f"{path}.{name}" if path else name, name, entries)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            _flatten(child, f"{path}[{i}]", key, entries)
    else:
        entries.append((path, key, node))


def npz_entries(path: str) -> list[tuple[str, str, object]]:
    """(location, key, value) for every entry of every array in an .npz archive.

    An entry's key is its array's name and its location the name and index,
    such as ``values[3, 1]``.  Entries of numeric arrays are floats; those
    of other arrays, such as a sidecar's ``sha256``, are strings.
    """
    found = []
    with np.load(path, allow_pickle=False) as archive:
        for name in archive.files:
            array = archive[name]
            numeric = array.dtype.kind in "biuf"
            for index, value in np.ndenumerate(array):
                location = f"{name}[{', '.join(map(str, index))}]" if index else name
                found.append((location, name, float(value) if numeric else str(value)))
    return found


def entries(path: str) -> list[tuple[str, str, object]]:
    """(location, key, value) for every leaf of a JSON file, cell of a headed CSV or .npz entry.

    A CSV cell's key is its column name.  Values that parse as numbers are
    floats, booleans included; anything else stays a string.  An .npz
    archive is read by :func:`npz_entries`.
    """
    if path.endswith(".npz"):
        return npz_entries(path)
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".json"):
            found = []
            _flatten(json.load(fh), "", "", found)
        else:
            header, *rows = list(csv.reader(fh))
            found = [
                (f"row {i} {col}", col, cell)
                for i, row in enumerate(rows)
                for col, cell in zip(header, row)
            ]
    out = []
    for location, key, value in found:
        try:
            value = float(value)
        except (TypeError, ValueError):
            pass
        out.append((location, key, value))
    return out


def is_decision(key: str) -> bool:
    return any(key == name or key.startswith(name + "_") for name in DECISIONS)


def compare(path_a: str, path_b: str) -> tuple[float, str, float, str, list]:
    """Largest differences of two files and their changed decision fields.

    Returns the largest difference over the file's largest entry and where
    it sits, the largest over the largest entry of the same key and that
    key, and the changed decision fields.
    """
    # a sidecar's sha256 follows from its CSV, which is compared on its own line
    a, b = ([e for e in entries(path) if not (path.endswith(".npz") and e[1] == "sha256")]
            for path in (path_a, path_b))
    if [loc for loc, _, _ in a] != [loc for loc, _, _ in b]:
        return math.inf, "the layout differs", math.inf, "", []
    scales, gaps, worst, where, decisions = {}, {}, 0.0, "", []
    for (loc, key, old), (_, _, new) in zip(a, b):
        numeric = isinstance(old, float) and isinstance(new, float)
        if numeric:
            finite = [abs(v) for v in (old, new) if math.isfinite(v)]
            scales[key] = max(scales.get(key, 0.0), *finite, 0.0)
        if old == new or (numeric and math.isnan(old) and math.isnan(new)):
            continue
        if is_decision(key):
            decisions.append(f"{loc}: {old!r} -> {new!r}")
        gap = abs(new - old) if numeric else math.inf
        # a NaN against a number, or an infinity against another, counts as infinitely far
        gap = math.inf if math.isnan(gap) else gap
        gaps[key] = max(gaps.get(key, 0.0), gap)
        if gap > worst:
            worst, where = gap, f"{loc}: {old!r} -> {new!r}"
    scale = max(scales.values(), default=0.0)
    own = {key: gap / scales[key] if scales.get(key) else gap for key, gap in gaps.items()}
    key = max(own, key=own.get, default="")
    return (worst / scale if scale else worst), where, own.get(key, 0.0), key, decisions


def group_of(rel: str) -> str:
    folder, name = os.path.split(rel)
    return folder.split("_")[0] + "/" + re.sub(r"_omega.*(?=\.csv$)", "_*", name)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out_a, out_b = argv
    files_a, files_b = output_files(out_a), output_files(out_b)
    status = 0
    for rel in sorted(set(files_a) ^ set(files_b)):
        print(f"only in {out_a if rel in files_a else out_b}: {rel}")
        status = 1
    groups: dict[str, list] = {}
    decisions = []
    print("of file max  of key max  key  file  largest difference")
    for rel in sorted(set(files_a) & set(files_b)):
        pa, pb = os.path.join(out_a, rel), os.path.join(out_b, rel)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            same = fa.read() == fb.read()
        moved = groups.setdefault(group_of(rel), [0, 0, 0.0, 0.0])
        moved[1] += 1
        if same:
            continue
        rel_gap, where, own_gap, key, changed = compare(pa, pb)
        moved[0] += 1
        moved[2], moved[3] = max(moved[2], rel_gap), max(moved[3], own_gap)
        decisions += [f"{rel} {line}" for line in changed]
        print(f"{rel_gap:11.2g}  {own_gap:10.2g}  {key}  {rel}  {where}")
    print("\ngroup  moved/files  largest of file max  largest of key max")
    for name, (count, total, rel_gap, own_gap) in sorted(groups.items()):
        print(f"{name}  {count}/{total}  " + (f"{rel_gap:.2g}  {own_gap:.2g}" if count else "-  -"))
    print(f"\ndecision fields changed: {len(decisions)}")
    for line in decisions:
        print(f"  {line}")
    return 1 if decisions else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
