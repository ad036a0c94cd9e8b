#!/usr/bin/env python3
"""Semantic diff of one regression output against its golden.

    scripts/golden_diff.py GOLDEN CURRENT

Prints one line per value that moved: its section, its name, and
golden -> current (with the change for numbers). A run manifest's
sections are its own (`sections.<name>`), and its values are dotted paths
such as `counters.client.stale_retries` or `hists.phase_e2e.p50`. A
figure table's section is a row, named by its leading non-numeric cells
(`read-heavy/ram/always-direct`), and its values are the column headers.
The `git_describe` line varies run to run and is ignored.
"""

import json
import sys


def is_num(x):
    try:
        float(x)
        return True
    except (TypeError, ValueError):
        return False


def flatten(prefix, value, out):
    if isinstance(value, dict):
        for k, v in value.items():
            flatten(f"{prefix}.{k}" if prefix else k, v, out)
    else:
        out[prefix] = value


def entries(doc):
    """{(section, name): value} for a run manifest or a figure table."""
    out = {}
    if "sections" in doc:
        for section, body in doc["sections"].items():
            flat = {}
            flatten("", body, flat)
            for name, v in flat.items():
                out[(section, name)] = v
        rest = {k: v for k, v in doc.items() if k not in ("sections", "git_describe")}
    elif "rows" in doc:
        headers = doc.get("headers", [])
        for i, row in enumerate(doc["rows"]):
            n = next((j for j, c in enumerate(row) if is_num(c)), len(row))
            label = "/".join(row[:n]) or f"row {i}"
            if any(key[0] == label for key in out):
                label = f"{label} [row {i}]"
            for h, c in zip(headers[n:], row[n:]):
                out[(label, h)] = c
        rest = {k: v for k, v in doc.items() if k != "rows"}
    else:
        rest = doc
    for k, v in rest.items():
        out[("-", k)] = json.dumps(v)
    return out


def show(v):
    return "(absent)" if v is None else str(v)


def main(golden_path, current_path):
    with open(golden_path) as g, open(current_path) as c:
        golden, current = entries(json.load(g)), entries(json.load(c))
    moved = [k for k in dict.fromkeys([*golden, *current]) if golden.get(k) != current.get(k)]
    if not moved:
        print("    (no value moved)")
    width = max((len(s) for s, _ in moved), default=0)
    for section, name in moved:
        old, new = golden.get((section, name)), current.get((section, name))
        line = f"    {section:<{width}}  {name}  {show(old)} -> {show(new)}"
        if is_num(old) and is_num(new):
            delta = float(new) - float(old)
            line += f" ({delta:+g})"
        print(line)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
