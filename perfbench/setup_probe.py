"""One fresh-interpreter set-up, as a CLI user pays it on every call.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports pattherm, then loads, validates and minimizes every machine the
workload's ops read, and loads every memory file against its causal
machine. Prints one JSON line with ``import_s`` and ``load_s``. The
caller times the whole process, interpreter start included.
"""

from __future__ import annotations

import json
import sys
import time

from common import pin_threads, use_checkout_src
from ops import Plan


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    pin_threads()
    use_checkout_src()
    plan = Plan(workload, seed)
    t0 = time.perf_counter()
    import pattherm
    from pattherm.errors import PatthermError

    t1 = time.perf_counter()
    machines, memories = plan.input_files()
    causal = {}
    refused = 0
    for path in machines:
        machine = pattherm.validate_machine(pattherm.load_machine_file(path))
        causal[path] = pattherm.minimize_to_causal(machine)
    for path, memory in memories:
        try:
            pattherm.load_memory_file(memory, causal[path])
        except PatthermError:
            refused += 1
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                      "machines": len(machines), "memories": len(memories),
                      "refused": refused}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
