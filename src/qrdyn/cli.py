"""Command line interface of qrdyn.

    qrdyn build [--json]

``build`` derives the constants, builds the five-chart atlas, certifies it
exactly on its affine cells with the default parameters of ``build_maps``,
and prints the constants report: ``key = value`` lines, or one JSON object
with ``--json``.  Besides the constants and their margins, the report gives
the number of affine cells of the slab atlas (``cells``), the least
determinant of their linear parts (``min_cell_det``, which the build
requires to be positive), the largest dilatation of a cell (``K_slab``) and
each chart's verdict from the exact boundary-map validation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .global_map import build_maps, constants_report_text


def build_report(build):
    """The constants, their margins, the affine cell count, the least cell
    determinant, the largest cell dilatation and each chart's validation
    verdict."""
    c = build.constants
    return {
        "c0": c.c0,
        "L": c.L,
        "L_prime": build.L_prime,
        "K_F": c.K_F,
        "exp_margin": c.exp_margin,
        "jac_margin": c.jac_margin,
        "norm_margin": c.norm_margin,
        "cells": build.cells,
        "min_cell_det": build.min_cell_det,
        "K_slab": build.K_slab,
        "validations": {cid: rep.passed for cid, rep in build.validations.items()},
    }


def _parser():
    p = argparse.ArgumentParser(prog="qrdyn", description=__doc__.splitlines()[0])
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
