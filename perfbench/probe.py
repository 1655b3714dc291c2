"""Set-up probe: the work every levyfock pipeline does before its own command.

Imports levyfock, loads the configuration, builds the measure, runs the
Stieltjes procedure and constructs the Fock space, exactly as the CLI's
operator pipelines do, then exits.  Its wall time is the benchmark's
``setup_s``.

Usage: python probe.py CONFIG

Prints one JSON line naming the levyfock file imported and the numpy
version.
"""
import json
import sys

import numpy

import levyfock
from levyfock import FockSpace, stieltjes
from levyfock.cli import load_config


def main(path: str) -> None:
    cfg = load_config(path)
    measure = cfg.measure()
    table = stieltjes(measure, min(cfg.depth, measure.atom_count))
    FockSpace(cfg.grid(), measure, table, cfg.depth)
    print(json.dumps({"levyfock": levyfock.__file__, "numpy": numpy.__version__}))


if __name__ == "__main__":
    main(sys.argv[1])
