"""Reference run: a fixed program the runner times next to every CLI run.

    python3 bench/reference.py

It imports numpy and does a fixed mix of pure-Python work (recursion, dicts,
tuples, sets, sorting, JSON) of the kind the CLI does, and nothing from
``emlang``, so its duration tracks only the speed of the machine at that
moment.  The runner reports end-to-end times in reference seconds (measured
time divided by the reference run's time in the same window), which cancels
the host's speed drift while keeping every change to the program visible.
Never edit this file in a change that is measured against its parent.
"""

import json

import numpy


def tree(depth: int, seed: int):
    if depth == 0:
        return seed % 7
    return {"l": tree(depth - 1, seed * 3 + 1), "r": tree(depth - 1, seed * 5 + 2), "k": (seed, depth)}


def walk(node) -> int:
    if isinstance(node, dict):
        return walk(node["l"]) + walk(node["r"]) + node["k"][0] % 3
    return node


def main() -> int:
    total = 0
    for seed in range(2):
        root = tree(14, seed)
        total += walk(root)
        total += len(json.loads(json.dumps(root))["k"])
        rows = [tuple((i * 7 + j) % 40 for j in range(12)) for i in range(20000)]
        total += len(set(rows)) + sum(row[3] for row in sorted(rows)[:100])
        total += int(numpy.asarray(rows[:5000]).sum() % 11)
    return total


if __name__ == "__main__":
    print(main())
