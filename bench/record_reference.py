"""Record the fixed-seed reference job of every workload into reference.json.

Run from the root of a checkout, only when the program's outputs are meant to
change:

    python3 bench/record_reference.py
"""

import json

from run import BENCH, load_program


def main():
    workloads = load_program()
    reference = {name: cls(0).reference_job() for name, cls in workloads.WORKLOADS.items()}
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
