#!/usr/bin/env python3
"""Record the jobs=1 reference digests of every workload for the default
and held-out seeds into perfbench/reference.json.

Run it only when a change is meant to alter results; run.py compares the
reference of a recorded seed against these values.

    python3 perfbench/record_reference.py
"""

import json
import os
import sys

import run


def main():
    fsim, _ = run.build()
    ref = run.load_reference()
    work = os.path.join(run.OUT, "record")
    os.makedirs(work, exist_ok=True)
    digests = {}
    for workload in run.WORKLOADS:
        digests[workload] = {}
        for seed in (ref["default_seed"], ref["heldout_seed"]):
            spec_path = os.path.join(work, "%s-s%d.json" % (workload, seed))
            with open(spec_path, "w") as f:
                json.dump(run.make_spec(workload, seed, False), f)
            doc = run.cli_reference(fsim, workload, spec_path, 1)
            digests[workload][str(seed)] = run.doc_digests(doc)
            print(workload, seed, digests[workload][str(seed)], flush=True)
    ref["digests"] = digests
    with open(os.path.join(run.HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
