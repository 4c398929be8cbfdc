#!/usr/bin/env python3
"""Compare two saved outputs of perfbench/run.py.

    python3 perfbench/compare.py BASE.txt CHANGE.txt

Each file holds what run.py printed (its last two lines are read). Prints
every metric with both values and the change in percent; a change from
a base of 0 is printed as the new value "from 0". When the two
runs saw different core counts (meta.cores / meta.nproc), every time,
rate and share metric is marked unresolved: it is only comparable on the
same machine.
"""

import json
import sys

MACHINE_INDEPENDENT = ("count", "words", "MB")


def load(path):
    with open(path) as f:
        lines = f.read().strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main():
    (da, ra), (db, rb) = load(sys.argv[1]), load(sys.argv[2])
    cores = lambda d: (d["meta"]["cores"], d["meta"]["nproc"])
    same_machine = cores(da) == cores(db)
    print("%-34s %14s %14s %9s" % ("metric", "base", "change", "delta"))
    for name, ma in ra["metrics"].items():
        mb = rb["metrics"].get(name)
        if mb is None:
            continue
        a, b = ma["value"], mb["value"]
        if a:
            delta = "%+8.2f%%" % (100.0 * (b - a) / a)
        else:
            delta = "%+9.3g from 0" % b if b else "%+8.2f%%" % 0.0
        note = ""
        if not same_machine and ma["unit"] not in MACHINE_INDEPENDENT:
            note = "unresolved: cores %s vs %s" % (cores(da), cores(db))
        print("%-34s %14.6g %14.6g %s %s" % (name, a, b, delta, note))


if __name__ == "__main__":
    main()
