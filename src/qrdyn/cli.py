"""Command line interface of qrdyn.

    qrdyn build [--json]
    qrdyn --version

``build`` derives the constants, builds the five-chart atlas, certifies it
exactly on its affine cells with the default parameters of ``build_maps``,
and prints the constants report (``global_map.build_report``): ``key =
value`` lines, or one JSON object with ``--json``.  The beam constants are
certified bounds from a finite rational computation: c0 a lower bound of
the least singular value of the normalised derivative of Z, L a dyadic level
with e^L * c0 > 33, and K_F, ``jac_margin`` and ``norm_margin`` bounds that
hold at every point above L.  Besides them, the report gives L', the number
of affine cells of the slab atlas (``cells``), the least determinant of
their linear parts (``min_cell_det``, which the build requires to be
positive), the largest dilatation of a cell (``K_slab``) and each chart's
verdict from the exact boundary-map validation, and each chart's
Lipschitz constants (``lipschitz``): on its box, max sigma_max over its
cells, and of its inverse, max 1 / sigma_min, with the method that took
them.  Every chart passed its exact cone signs when it was built, and its
boundary-map validation certifies degree 1 about its image solid's
centre: each ray from the centre crosses the solid's boundary once, in the
image cell whose cone holds it, which is how the chart's inverse finds its
cell.  The JSON object also gives ``phase_s``: the wall
seconds of each build phase, keyed by module and function.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .global_map import build_maps, build_report, constants_report_text


def _parser():
    p = argparse.ArgumentParser(prog="qrdyn", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    b = sub.add_parser("build", help="build the maps and print the constants")
    b.add_argument("--json", action="store_true",
                   help="print one JSON object instead of key = value lines")
    return p


def entrypoint(argv=None):
    args = _parser().parse_args(argv)
    build = build_maps()
    if args.json:
        print(json.dumps(build_report(build)))
    else:
        sys.stdout.write(constants_report_text(build))
    return 0
