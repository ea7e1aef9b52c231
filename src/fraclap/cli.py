"""Command-line entry point of the ``fraclap`` console script.

    fraclap verify [--check ID] [--format text|csv|json]

runs one verification check (all of them without ``--check``) and prints
each Report as ``key: value`` text, as CSV rows (check_id, kind, key,
value) or as one JSON array with one object per check (``Report.to_dict``).
The exit status is 0 when every check passed, 1 otherwise; a check whose
integrator raises ``ToleranceNotMet`` is reported on standard error, counts
as not passed and, in JSON, becomes an object with ``check_id``,
``raised``, ``estimate`` and ``error``.  A reader that closes the pipe
early (``| head``) ends the run with status 1 and no traceback.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import verify
from .quadrature import ToleranceNotMet


def _parser():
    ap = argparse.ArgumentParser(prog="fraclap", description="fractional Laplacian toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    ver = sub.add_parser("verify", help="run verification checks and print their reports")
    ver.add_argument("--check", choices=verify.CHECK_IDS, help="run only this check")
    ver.add_argument("--format", choices=("text", "csv", "json"), default="text")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _verify(args)
    except BrokenPipeError:
        # the reader is gone: send the rest of the output, and Python's own
        # flush at exit, to devnull instead of a second BrokenPipeError
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _numpy_scalar(v):
    """Reports carry NumPy scalars (np.bool_ pass flags, np.int64 counts): plain values in JSON."""
    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _verify(args) -> int:
    ids = [args.check] if args.check else list(verify.CHECK_IDS)
    writer = csv.writer(sys.stdout, lineterminator="\n") if args.format == "csv" else None
    if writer:
        writer.writerow(("check_id", "kind", "key", "value"))
    objects = []
    all_passed = True
    for cid in ids:
        try:
            report = verify.run_check(cid)
        except ToleranceNotMet as exc:
            print(f"{cid}: raised ToleranceNotMet: {exc} (estimate {exc.estimate}, error {exc.error})",
                  file=sys.stderr)
            objects.append({"check_id": cid, "raised": f"ToleranceNotMet: {exc}",
                            "estimate": exc.estimate, "error": exc.error})
            all_passed = False
            continue
        all_passed &= bool(report.passed)
        if args.format == "json":
            objects.append(report.to_dict())
        elif writer:
            writer.writerows(report.csv_rows())
        else:
            sys.stdout.write(report.to_text(strict=False))
    if args.format == "json":
        json.dump(objects, sys.stdout, indent=1, default=_numpy_scalar)
        sys.stdout.write("\n")
    sys.stdout.flush()
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
