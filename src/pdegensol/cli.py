"""Command line front end.

    pdegensol list                  families and their shapes
    pdegensol show 3.7              one family in full
    pdegensol verify 3.1 3.2 ...    randomized verification (default: all),
                                    each family's line printed as it
                                    finishes
    pdegensol sample 3.1 --grid t=0.2:1.2:9 --grid x=0.2:1.2:9 -o w.csv

Exit codes: 0 all verified PASS, 1 any FAIL, 2 unknown family id or a
command line argparse rejects (an unknown option, a missing or malformed
value), 3 any INDETERMINATE (and no FAIL), 4 an argument argparse accepts
but the command rejects (a bad --set or --grid, a negative seed), an I/O
error or an evaluation error (EvalError: a malformed tree, an unbound
name, the nesting limit).  An output path that is a directory, or whose
directory is missing or not writable, exits 4 before any work; the file
is written at the end.

The command line keeps freed memory in its process for reuse (glibc only,
through mallopt; elsewhere nothing changes).  By default glibc hands each
large freed block back to the kernel, so the next numpy temporary of the
same size page-faults on fresh zeroed pages, and a `sample 3.8` run spent
about a third of its wall time in the kernel.  main() therefore serves
large blocks from the heap and never trims the heap's top.  The
package's Python runs on the main thread, whose blocks come from the main
arena, so the policy needs no arena setting.  The cost is that a run
holds its peak heap until it exits: a few percent more peak RSS on a
`sample` run, none on `verify all`.  Allocation placement changes no
arithmetic, so every output is bit for bit the same.  `import pdegensol`
leaves the allocator alone: a process-wide policy is the program's
choice, not the library's.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .catalog import family_ids, get_family
from .expr_core import to_text
from .numeric import EvalError
from .verifier import (SAMPLE_BOX, _scenario_rng, check_overrides,
                       draw_scenario, solution_values, verify_catalog)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pdegensol",
        description="verify closed-form general solutions of nonlinear PDEs")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sub.add_parser("list", help="list the catalog")

    sp = sub.add_parser("show", help="print one family in full")
    sp.add_argument("id")

    vp = sub.add_parser("verify", help="randomized residual verification")
    vp.add_argument("ids", nargs="*",
                    help="family ids; empty or the word 'all' means "
                         "the whole catalog")
    vp.add_argument("--seed", type=int, default=1)
    vp.add_argument("--scenarios", type=int, default=5)
    vp.add_argument("--points", type=int, default=20)
    vp.add_argument("--base-shift", type=float, default=0.0,
                    help="shift every integral base point by this amount")
    vp.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="PARAM=VALUE",
                    help="pin a parameter (repeatable)")
    vp.add_argument("--probe-branches", action="store_true",
                    help="also try the mirrored implicit-root branch")
    vp.add_argument("--json", dest="as_json", nargs="?", const=True,
                    default=None, metavar="PATH",
                    help="emit report records as JSON, to PATH if given")

    gp = sub.add_parser(
        "sample",
        help="tabulate one sampled solution on a rectangular grid")
    gp.add_argument("id")
    gp.add_argument("--grid", action="append", default=[],
                    metavar="VAR=LO:HI:COUNT",
                    help="grid for one variable (others default to 5 "
                         "points over the sample box)")
    gp.add_argument("--seed", type=int, default=1)
    gp.add_argument("-o", "--out", default=None,
                    help="CSV path; a .scenario.json sidecar records the "
                         "drawn parameters and functions")
    return ap


# mallopt(3) parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_INT_MAX = 2**31 - 1


def _libc():
    """The C library's symbols as this process sees them, or None where
    the platform has no such handle (Windows)."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def _keep_freed_memory() -> None:
    """Keep freed blocks in the process for reuse, where libc has mallopt:
    blocks below 2 GiB come from the heap, not from mmap, and the heap's
    top is never trimmed."""
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((_M_MMAP_THRESHOLD, _INT_MAX),
                         (_M_TRIM_THRESHOLD, _INT_MAX)):
        mallopt(param, value)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        if args.cmd == "list":
            return _cmd_list()
        if args.cmd == "show":
            return _cmd_show(args)
        if args.cmd == "verify":
            return _cmd_verify(args)
        if args.cmd == "sample":
            return _cmd_sample(args)
        return 4
    except KeyError as exc:
        print(f"unknown family id: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, ValueError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def _cmd_list() -> int:
    print(f"{'id':6} {'order':5} {'vars':4} {'depth':5}  summary")
    for fid in family_ids():
        fam = get_family(fid)
        print(f"{fid:6} {fam.order:5} {len(fam.variables):4} "
              f"{fam.sol_depth:5}  {fam.describe()}")
    return 0


def _cmd_show(args) -> int:
    fam = get_family(args.id)
    print(f"family {fam.family_id}: {fam.describe()}")
    print(f"  variables:  {', '.join(fam.variables)}")
    if fam.parameters:
        print(f"  parameters: {', '.join(fam.parameters)}")
    if fam.functions:
        fs = ", ".join(f"{n}/{a}" for n, a in sorted(fam.functions.items()))
        print(f"  functions:  {fs}")
    if fam.constraints:
        print(f"  constraints: {' ; '.join(fam.constraints)}")
    print(f"  pde:      {to_text(fam.pde)} = 0")
    print(f"  solution: w = {to_text(fam.solution)}")
    if fam.note:
        print(f"  note: {fam.note}")
    return 0


def _check_out_dir(path) -> None:
    """Raise OSError unless path can be written as a file: it is not a
    directory, and the directory it would be written in exists and is
    writable.  So a bad path fails before the work, not after it."""
    if Path(path).is_dir():
        raise OSError(f"output path {str(path)!r} is a directory")
    d = Path(path).parent
    if not d.is_dir():
        raise OSError(f"output directory {str(d)!r} does not exist")
    if not os.access(d, os.W_OK):
        raise OSError(f"output directory {str(d)!r} is not writable")


def _parse_overrides(pairs):
    out = {}
    for item in pairs:
        name, _, val = item.partition("=")
        if not _ or not name:
            raise ValueError(f"bad --set {item!r}, expected PARAM=VALUE")
        if name in out:
            raise ValueError(f"--set gives {name!r} twice")
        out[name] = float(val)
    return out


def _cmd_verify(args) -> int:
    if not args.ids or args.ids == ["all"]:
        ids = family_ids()
    else:
        ids = args.ids
    overrides = _parse_overrides(args.overrides) or None
    for fid in ids:
        # surface unknown ids and parameters before any work
        check_overrides(get_family(fid), overrides)
    if isinstance(args.as_json, str):
        _check_out_dir(args.as_json)

    t0 = time.monotonic()
    reports = []
    for r in verify_catalog(ids, n_scenarios=args.scenarios,
                            n_points=args.points, seed=args.seed,
                            base_shift=args.base_shift,
                            param_overrides=overrides,
                            probe_branches=args.probe_branches):
        reports.append(r)
        if args.as_json:
            continue
        print(f"{r.family:6} {r.verdict:13} "
              f"max rel {r.max_rel_residual:9.2e}  "
              f"xcheck {r.xcheck_max_dev:9.2e}  "
              f"({r.wall_time_s:6.2f}s)", flush=True)
        for note in r.notes:
            print(f"       note: {note}")
        if r.branch_probe:
            print(f"       branch probe: {r.branch_probe}")

    if args.as_json:
        payload = json.dumps([r.to_dict() for r in reports], indent=2,
                             sort_keys=True)
        if args.as_json is True:
            print(payload)
        else:
            with open(args.as_json, "w") as fh:
                fh.write(payload + "\n")
    else:
        npass = sum(r.verdict == "PASS" for r in reports)
        # NaN: a report with no evaluated scenario
        worst = max((r.max_rel_residual for r in reports
                     if not np.isnan(r.max_rel_residual)),
                    default=float("nan"))
        print(f"{npass}/{len(reports)} PASS, worst rel {worst:.2e}, "
              f"{time.monotonic() - t0:.1f}s total")

    verdicts = {r.verdict for r in reports}
    if "FAIL" in verdicts:
        return 1
    if "INDETERMINATE" in verdicts:
        return 3
    return 0


def _parse_grid(pairs, fam):
    ranges = {}
    for item in pairs:
        name, _, spec = item.partition("=")
        parts = spec.split(":")
        if not _ or len(parts) != 3:
            raise ValueError(
                f"bad --grid {item!r}, expected VAR=LO:HI:COUNT")
        if name not in fam.variables:
            raise ValueError(f"{fam.family_id} has no variable {name!r}")
        if name in ranges:
            raise ValueError(f"--grid gives {name!r} twice")
        lo, hi, cnt = float(parts[0]), float(parts[1]), int(parts[2])
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"bad --grid {item!r}, limits must be finite")
        if cnt < 1:
            raise ValueError("grid count must be >= 1")
        ranges[name] = np.linspace(lo, hi, cnt)
    for v in fam.variables:
        ranges.setdefault(v, np.linspace(*SAMPLE_BOX, 5))
    return [ranges[v] for v in fam.variables]


def _function_dict(fi):
    d = {
        "name": fi.name,
        "arity": fi.arity,
        "coeffs": [[list(exps), c] for exps, c in fi.coeffs],
    }
    if fi.sin_amp:
        d.update(sin_amp=fi.sin_amp, sin_freq=fi.sin_freq,
                 sin_phase=fi.sin_phase)
    return d


def _cmd_sample(args) -> int:
    fam = get_family(args.id)
    axes = _parse_grid(args.grid, fam)
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    if args.out:
        _check_out_dir(args.out)
        _check_out_dir(Path(args.out).with_suffix(".scenario.json"))
    scn = draw_scenario(fam, _scenario_rng(args.seed, fam.family_id), 0)

    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    w = solution_values(fam, scn, pts)
    n_bad = int((~np.isfinite(w)).sum())

    scen_doc = {
        "family": fam.family_id,
        "seed": args.seed,
        "parameters": {k: float(v) for k, v in
                       sorted(scn.parameters.items())},
        "functions": {k: _function_dict(v) for k, v in
                      sorted(scn.functions.items())},
        "base_points": dict(sorted(scn.base_points.items())),
    }

    header = list(fam.variables) + ["w"]
    rows = ([f"{x:.10g}" for x in pts[i]] + [f"{w[i]:.17g}"]
            for i in range(len(pts)))
    if args.out:
        out = Path(args.out)
        with out.open("w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            wr.writerows(rows)
        side = out.with_suffix(".scenario.json")
        side.write_text(json.dumps(scen_doc, indent=2, sort_keys=True))
        print(f"wrote {len(pts)} rows to {out} "
              f"({n_bad} outside the solution's domain), scenario in {side}")
    else:
        print("# scenario: " + json.dumps(scen_doc, sort_keys=True))
        wr = csv.writer(sys.stdout)
        wr.writerow(header)
        wr.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
