"""Write the seven canonical runs of the bundled ``paper.cfg``, one
directory per experiment, so that two source trees can be compared file
by file::

    PYTHONPATH=src python3 tools/paper_set.py OUT_DIR
    diff -r OUT_DIR OTHER_OUT_DIR

Each run goes through ``atsplit.cli.main`` of whichever ``atsplit`` the
Python path provides.  Exits 1 if any run fails, 2 on a usage error.
"""

from __future__ import annotations

import sys
from pathlib import Path

from atsplit import cli

#: Experiment -> ``--set`` overrides on the bundled paper.cfg.
RUNS = {
    "at_slice": [],
    "probe_spec": ["experiment=probe_spec", "drive.omega_c_mhz=0.0"],
    "coupler_spec": ["experiment=coupler_spec", "drive.omega_p_mhz=0.0",
                     "drive.omega_c_mhz=2.82", "drive.delta_c_mhz=auto"],
    "rabi": ["experiment=rabi", "drive.omega_c_mhz=0.0",
             "pulse.durations_us={start: 0.0, stop: 20.0, count: 401}"],
    "at_map": ["experiment=at_map", "drive.omega_c_mhz=2.82", "drive.delta_c_mhz=auto"],
    "fidelity_scan": ["experiment=fidelity_scan"],
    "eit_scan": ["experiment=eit_scan"],
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    failed = []
    for name, overrides in RUNS.items():
        args = ["run", "paper.cfg", "--out", str(Path(argv[0]) / name)]
        code = cli.main(args + [a for item in overrides for a in ("--set", item)])
        if code != 0:
            failed.append(f"{name} (exit {code})")
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
