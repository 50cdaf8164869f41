"""Command-line interface for batch computations.

Subcommands:
  delaunay   print the Delaunay star of a form
  dvcell     print the Dirichlet-Voronoi polytope summary of a form
  classify   enumerate all secondary cones up to GL_d(Z), with checkpointing
  masscheck  print the Euler-Poincare mass and the flag identity of a
             finished database

Exit codes: 0 success, 1 usage or parse error, 2 mathematical precondition
failure, 3 incomplete or incompatible database.
"""

from __future__ import annotations

import argparse
import os
import sys

from .classify import (
    DimensionUnsupported,
    IncompatibleCheckpoint,
    IncompleteDatabase,
    _dv_summary,
    dimension_table,
    flag_check,
    load_db,
    mass_check,
    read_manifest,
    run_classification,
)
from .delaunay import delaunay_star, is_triangulation
from .equiv import check_digest
from .exact import NotPositiveDefinite, parse_form
from .polyhedral import dv_polytope


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _digest_name(name: str) -> str:
    """The `--digest` type: a hashlib algorithm with a fixed-length hex
    digest, checked while the arguments are parsed, before anything runs."""
    try:
        return check_digest(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _worker_count(text: str) -> int:
    """The `--jobs` type: an integer of at least 1, checked while the
    arguments are parsed, before anything runs."""
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid worker count: {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"worker count must be at least 1, got {workers}")
    return workers


def _read_form(path: str):
    try:
        with open(path) as fh:
            return parse_form(fh.read())
    except OSError as exc:
        print(f"error: cannot read form file: {exc}", file=sys.stderr)
        sys.exit(1)
    except ValueError as exc:
        print(f"error: bad form file: {exc}", file=sys.stderr)
        sys.exit(1)


def cmd_delaunay(args) -> int:
    q = _read_form(args.form)
    try:
        star = delaunay_star(q)
    except NotPositiveDefinite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tri = "true" if is_triangulation(star) else "false"
    print(f"cells: {len(star.cells)}, classes: {len(star.keys)}, triangulation: {tri}")
    for cell in star.cells:
        print(" ".join(str(tuple(v)) for v in cell.vertices))
    return 0


def cmd_dvcell(args) -> int:
    q = _read_form(args.form)
    try:
        poly = dv_polytope(q)
    except NotPositiveDefinite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dv_hash, fv, scheme = _dv_summary(poly, args.digest)
    print(f"facets: {poly.n_facets}, vertices: {poly.n_vertices}, "
          f"f: ({','.join(str(x) for x in fv)})")
    print(f"subordination: {scheme if scheme else '-'}")
    print(f"incidence hash: {dv_hash}")
    return 0


def cmd_classify(args) -> int:
    out = args.out or os.environ.get("LCONE_OUT") or f"lcone_d{args.dimension}"
    seed = _read_form(args.seed_form) if args.seed_form else None
    try:
        db = run_classification(args.dimension, out, workers=args.jobs,
                                resume=args.resume, digest=args.digest, seed=seed,
                                verbose=args.verbose)
    except DimensionUnsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotPositiveDefinite, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IncompatibleCheckpoint, IncompleteDatabase) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    manifest = read_manifest(out)
    print(f"total: {manifest['total']}, primitive: {manifest['primitive']}, "
          f"mass: {manifest['mass']}, distinct: {'true' if manifest['distinct'] else 'false'}")
    for k, n in sorted(dimension_table(db).items(), reverse=True):
        print(f"dim {k}: {n}")
    print(f"database: {out}")
    return 0


def cmd_masscheck(args) -> int:
    try:
        db = load_db(args.db)
        db.require_complete()
        mass = mass_check(db)
        cones, walls = flag_check(db)
    except IncompleteDatabase as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for k, frac in sorted(mass.by_dim.items()):
        print(f"dim {k}: {frac}")
    print(f"total: {mass.total}")
    print(f"flags: {cones} {'=' if cones == walls else '!='} {walls}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="lcone",
                     description="Exact classification of lattice Delaunay "
                                 "subdivisions and Dirichlet-Voronoi polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delaunay", help="print the Delaunay star of a form")
    p.add_argument("form", help="form file: dimension then lower-triangular entries")
    p.set_defaults(func=cmd_delaunay)

    p = sub.add_parser("dvcell", help="print the Dirichlet-Voronoi polytope summary")
    p.add_argument("form")
    p.add_argument("--digest", default="sha256", type=_digest_name,
                   help="hash algorithm for the incidence hash")
    p.set_defaults(func=cmd_dvcell)

    p = sub.add_parser("classify", help="classify all secondary cones up to GL_d(Z)")
    p.add_argument("-d", "--dimension", type=int, required=True)
    p.add_argument("-o", "--out", default=None,
                   help="output directory (default: $LCONE_OUT or lcone_d<d>)")
    p.add_argument("-j", "--jobs", type=_worker_count, default=1,
                   help="worker processes (at least 1)")
    p.add_argument("--resume", action="store_true",
                   help="resume from an existing checkpoint")
    p.add_argument("--digest", default="sha256", type=_digest_name,
                   help="hash algorithm for certificates")
    p.add_argument("--seed-form", default=None,
                   help="override the default traversal seed form")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="progress reporting on stderr")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("masscheck",
                       help="Euler-Poincare mass and flag identity of a database")
    p.add_argument("db", help="database directory")
    p.set_defaults(func=cmd_masscheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
