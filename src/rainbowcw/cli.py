"""Command-line interface.

Every command validates its inputs, runs on one seeded random generator, and
embeds a reproducible manifest in each output: rerunning with an equal
manifest produces byte-identical output.  Files are written atomically
(temp file, then rename).  All failures exit nonzero with a structured
message on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
from dataclasses import dataclass
from functools import cache
from math import comb

from . import __version__
from .complexes import koszul_betti
from .cwposet import CWCertificate, export_poset, face_poset, is_cw_poset
from .determinantal import (
    PureComplex,
    alexander_dual_complex,
    initial_ideal_maximal_minors,
    random_pure_complex,
    random_term_order,
    rainbow_dfi,
)
from .eagon_northcott import sparse_eagon_northcott
from .errors import ParseError, RainbowError, SizeCap
from .gfp import DEFAULT_PRIME, is_valid_modulus
from .ideals import MonomialIdeal
from .monomials import check_one_ring, format_monomial, parse_monomial
from .polarization import FreeSequenceReport, certify_polarization, find_free_sequence, free_vertices
from .strands import rainbow_linear_strand, vertex_label
from .termorders import TermOrder, diagonal_order

MAX_N, MAX_M, MAX_CHOOSE = 4, 8, 70


@dataclass
class RunManifest:
    command: str
    n: int | None = None
    m: int | None = None
    order: dict | None = None
    prime: int = DEFAULT_PRIME
    input_facets: list | None = None
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "tool": "rainbowcw",
            "version": __version__,
            "command": self.command,
            "n": self.n,
            "m": self.m,
            "order": self.order,
            "prime": self.prime,
            "input_facets": self.input_facets,
            "seed": self.seed,
        }


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rainbowcw-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(payload: dict, manifest: RunManifest, out: str | None) -> None:
    payload = dict(payload)
    payload["manifest"] = manifest.to_json()
    _emit(json.dumps(payload, indent=2, sort_keys=True), out)


def _emit_csv(header: list[str], rows: list[list], manifest: RunManifest, out: str | None) -> None:
    import csv
    import io

    buffer = io.StringIO()
    buffer.write("# manifest: " + json.dumps(manifest.to_json(), sort_keys=True) + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buffer.getvalue(), out)


def _check_size(n: int, m: int, force: bool) -> None:
    if n < 1 or m < n:
        raise RainbowError(f"need 1 <= n <= m, got n={n}, m={m}")
    if n > MAX_N or m > MAX_M or comb(m, n) > MAX_CHOOSE:
        if not force:
            raise SizeCap(
                f"size {n}x{m} exceeds the default caps (n<={MAX_N}, m<={MAX_M}, "
                f"C(m,n)<={MAX_CHOOSE}); pass --force to override"
            )
        print(f"warning: {n}x{m} exceeds the desk-scale caps", file=sys.stderr)


def _prime(args) -> int:
    """The --prime value; rejected unless it is a prime below gfp.MAX_PRIME."""
    if not is_valid_modulus(args.prime):
        raise RainbowError(f"the modulus must be a prime below 2^31, got {args.prime}")
    return args.prime


def _read_json(path: str, kind: str):
    """The JSON value in the file at ``path``; ParseError on bad JSON, bytes
    that do not decode or over-long integers (ValueError) and deep nesting."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad {kind} file: {exc}") from exc


def _load_order(args, n: int, m: int) -> TermOrder:
    if args.order_file:
        order = TermOrder.from_json(_read_json(args.order_file, "term-order"))
        if (order.n, order.m) != (n, m):
            raise RainbowError(f"order file is {order.n}x{order.m}, expected {n}x{m}")
        return order
    return diagonal_order(n, m)


def _parse_facet(spec: str, n: int, m: int) -> tuple[int, ...]:
    """A facet given as 'c1,c2,...' on the command line: n distinct columns
    in 1..m."""
    try:
        facet = tuple(sorted(int(x) for x in spec.split(",")))
    except ValueError as exc:
        raise ParseError(f"bad facet {spec!r}: expected comma-separated column numbers") from exc
    if len(facet) != n or len(set(facet)) != n or not all(1 <= c <= m for c in facet):
        raise ParseError(f"bad facet {spec!r}: expected {n} distinct columns in 1..{m}")
    return facet


def _delta_from_args(args) -> PureComplex:
    """Delta from --delta-file, or the dual of --dual-file, less the
    --delete facets.  The size caps are checked on the loaded file, before
    a dual lists every n-subset of [m]."""
    loaded = PureComplex.from_json(_read_json(args.delta_file or args.dual_file, "complex"))
    _check_size(loaded.n, loaded.m, args.force)
    delta = loaded if args.delta_file else alexander_dual_complex(loaded)
    if args.delete:
        drop = set()
        for spec in args.delete:
            facet = _parse_facet(spec, delta.n, delta.m)
            if facet not in delta.facets:
                raise RainbowError(f"--delete {spec!r}: {list(facet)} is not a facet of Delta")
            drop.add(facet)
        delta = PureComplex(delta.n, delta.m, delta.facets - drop)
    return delta


def _ideal_json(ideal: MonomialIdeal) -> list[str]:
    return [format_monomial(g) for g in ideal.gens]


def _dual_free_sequence(cx, order: TermOrder, dual: PureComplex) -> FreeSequenceReport:
    """The free-sequence search on ``cx`` for the vertices that label the
    facets of ``dual`` under ``order``."""
    return find_free_sequence(cx, [vertex_label(order, f) for f in dual.sorted_facets()])


# -- subcommands ----------------------------------------------------------------


def cmd_initial_ideal(args) -> int:
    _check_size(args.n, args.m, args.force)
    order = _load_order(args, args.n, args.m)
    ideal = initial_ideal_maximal_minors(order)
    manifest = RunManifest("initial-ideal", args.n, args.m, order.to_json(), _prime(args))
    _emit_json({"generators": _ideal_json(ideal)}, manifest, args.output)
    return 0


def _cw_certificate(cx, order: TermOrder, p: int) -> CWCertificate:
    """The CW certificate of a sparse EN complex's face poset, each interval's
    atoms ordered by their multidegrees under ``order``."""
    key = lambda label: order.sort_key(cx.mdeg(label))
    return is_cw_poset(face_poset(cx), p=p, atom_key=key)


def cmd_sparse_en(args) -> int:
    if args.export == "dot" and args.certify_cw:
        raise RainbowError("--certify-cw applies to --export json only")
    _check_size(args.n, args.m, args.force)
    order = _load_order(args, args.n, args.m)
    p = _prime(args)
    cx = sparse_eagon_northcott(order)
    manifest = RunManifest("sparse-en", args.n, args.m, order.to_json(), p)
    if args.export == "dot":
        _emit(export_poset(cx), args.output)
        return 0
    payload: dict = {"complex": cx.to_json(), "ranks": list(cx.ranks())}
    if args.certify_cw:
        payload["cw_certificate"] = _cw_certificate(cx, order, p).to_json()
        payload["is_resolution"] = cx.is_resolution(p)
    _emit_json(payload, manifest, args.output)
    return 0


def cmd_strand(args) -> int:
    delta = _delta_from_args(args)
    order = _load_order(args, delta.n, delta.m)
    p = _prime(args)
    strand = rainbow_linear_strand(delta, order)
    rain = rainbow_dfi(delta, order)
    table = koszul_betti(rain, p=p) if not rain.is_zero() else None
    manifest = RunManifest(
        "strand", delta.n, delta.m, order.to_json(), p, [list(f) for f in delta.sorted_facets()]
    )
    if args.betti_csv:
        rows = table.to_csv_rows() if table else []
        _emit_csv(["i", "j", "alpha", "rank"], [list(r) for r in rows], manifest, args.betti_csv)
    payload = {
        "complex": strand.to_json(),
        "ranks": list(strand.ranks()),
        "betti_total": list(table.total_vector()) if table else [1],
    }
    _emit_json(payload, manifest, args.output)
    return 0


def cmd_betti(args) -> int:
    entries = _read_json(args.ideal_file, "ideal")
    if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
        raise ParseError("bad ideal file: expected a JSON array of monomial strings")
    gens = [parse_monomial(e) for e in entries]
    try:
        check_one_ring(gens)
    except ValueError as exc:
        raise ParseError("bad ideal file: it mixes grid and plain variables") from exc
    ideal = MonomialIdeal(gens)
    p = _prime(args)
    table = koszul_betti(ideal, p=p)
    manifest = RunManifest("betti", prime=p)
    _emit_csv(
        ["i", "j", "alpha", "rank"],
        [list(r) for r in table.to_csv_rows()],
        manifest,
        args.output,
    )
    return 0


def cmd_free_seq(args) -> int:
    p = _prime(args)
    dual = PureComplex.from_json(_read_json(args.dual_file, "complex"))
    _check_size(dual.n, dual.m, args.force)
    order = _load_order(args, dual.n, dual.m)
    report = _dual_free_sequence(sparse_eagon_northcott(order), order, dual)
    manifest = RunManifest(
        "free-seq", dual.n, dual.m, order.to_json(), p,
        [list(f) for f in dual.sorted_facets()],
    )
    _emit_json(report.to_json(), manifest, args.output)
    return 0


def cmd_polarize(args) -> int:
    if args.max_degree is not None and args.max_degree < 1:
        raise RainbowError(f"--max-degree must be at least 1, got {args.max_degree}")
    p = _prime(args)
    delta = _delta_from_args(args)
    order = _load_order(args, delta.n, delta.m)
    report = certify_polarization(delta, order, max_degree=args.max_degree)
    manifest = RunManifest(
        "polarize", delta.n, delta.m, order.to_json(), p,
        [list(f) for f in delta.sorted_facets()],
    )
    if args.summary_csv:
        dual = alexander_dual_complex(delta)
        free = _dual_free_sequence(sparse_eagon_northcott(order), order, dual).found
        _emit_csv(
            ["n", "m", "r", "linear", "free_seq", "polarization", "power_of_max"],
            [[report.n, report.m, report.r, int(report.linear), int(free),
              int(report.certified), int(report.is_power_of_maximal)]],
            manifest,
            args.summary_csv,
        )
    _emit_json(report.to_json(), manifest, args.output)
    return 0


def cmd_cw_check(args) -> int:
    _check_size(args.n, args.m, args.force)
    order = _load_order(args, args.n, args.m)
    p = _prime(args)
    cx = sparse_eagon_northcott(order)
    cert = _cw_certificate(cx, order, p)
    manifest = RunManifest("cw-check", args.n, args.m, order.to_json(), p)
    _emit_json(
        {"certificate": cert.to_json(), "ranks": list(cx.ranks())}, manifest, args.output
    )
    return 0


def cmd_experiment(args) -> int:
    _check_size(args.n, args.m, args.force)
    if args.samples < 0:
        raise RainbowError(f"--samples must be at least 0, got {args.samples}")
    rng = random.Random(args.seed)
    p = _prime(args)
    n, m = args.n, args.m
    manifest = RunManifest(args.mode, n, m, None, p, seed=args.seed)
    rows: list[list] = []
    if args.mode == "free-seq-necessity":
        # Does linear resolution force a free sequence on the dual facets?
        # Tabulated only; no overlap hypothesis is imposed.
        if args.targets:
            raise RainbowError("--targets applies to --mode free-vertex-orders only")
        header = ["sample", "n", "m", "r", "linear", "free_seq"]
        if not args.random_orders:
            order = diagonal_order(n, m)
            cx = sparse_eagon_northcott(order)
            manifest.order = order.to_json()
        for k in range(args.samples):
            dual = random_pure_complex(n, m, rng, rng.randint(0, comb(m, n)))
            delta = alexander_dual_complex(dual)
            if args.random_orders:
                order = random_term_order(n, m, rng)
            rain = rainbow_dfi(delta, order)
            if rain.is_zero():
                continue
            table = koszul_betti(rain, p=p)
            linear = table.rows_present() <= {0, n - 1}
            if args.random_orders:
                cx = sparse_eagon_northcott(order)
            free = _dual_free_sequence(cx, order, dual).found
            rows.append([k, n, m, len(dual), int(linear), int(free)])
    else:
        # For the given facets, how often does a random order make them all
        # free vertices of the supporting complex?
        if args.random_orders:
            raise RainbowError("--random-orders applies to --mode free-seq-necessity only")
        header = ["sample", "n", "m", "targets", "all_free"]
        targets = [_parse_facet(spec, n, m) for spec in args.targets]
        if not targets:
            raise RainbowError("--targets is required for free-vertex-orders")
        for k in range(args.samples):
            order = random_term_order(n, m, rng)
            cx = sparse_eagon_northcott(order)
            free = free_vertices(face_poset(cx))
            rows.append(
                [k, n, m, ";".join(",".join(map(str, t)) for t in targets),
                 int(all(vertex_label(order, t) in free for t in targets))]
            )
    _emit_csv(header, rows, manifest, args.output)
    return 0


# -- parser ----------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and every call of :func:`main` gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="rainbowcw",
        description="Sparse Eagon-Northcott complexes, CW certificates, rainbow "
        "DFI strands, and polarizations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, size: bool = True, order: bool = True) -> None:
        """--prime and -o always; -n, -m if sized, --order-file if ordered, --force if either."""
        if size:
            p.add_argument("-n", type=int, required=True)
            p.add_argument("-m", type=int, required=True)
        if order:
            p.add_argument("--order-file", help="term order JSON (default: diagonal order)")
        p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
        if size or order:
            p.add_argument("--force", action="store_true", help="override the size caps")
        p.add_argument("-o", "--output", help="output file (default: stdout)")

    def delta_source(p: argparse.ArgumentParser) -> None:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--delta-file", help="pure complex JSON for Delta")
        source.add_argument("--dual-file", help="pure complex JSON for the dual of Delta")

    p = sub.add_parser("initial-ideal", help="initial ideal of maximal minors")
    common(p)
    p.set_defaults(func=cmd_initial_ideal)

    p = sub.add_parser("sparse-en", help="sparse Eagon-Northcott complex")
    common(p)
    p.add_argument("--export", choices=["json", "dot"], default="json")
    p.add_argument("--certify-cw", action="store_true")
    p.set_defaults(func=cmd_sparse_en)

    p = sub.add_parser("strand", help="linear strand of a rainbow DFI")
    common(p, size=False)
    delta_source(p)
    p.add_argument("--delete", action="append", default=[],
                   help="facet 'c1,c2,...' to delete from Delta (repeatable)")
    p.add_argument("--betti-csv", help="also write the Betti oracle table as CSV")
    p.set_defaults(func=cmd_strand)

    p = sub.add_parser("betti", help="Koszul-homology Betti table of a monomial ideal")
    common(p, size=False, order=False)
    p.add_argument("--ideal-file", required=True, help="JSON array of monomial strings")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("free-seq", help="search a free sequence for dual facets")
    common(p, size=False)
    p.add_argument("--dual-file", required=True)
    p.set_defaults(func=cmd_free_seq)

    p = sub.add_parser("polarize", help="certify the dual as a polarization")
    common(p, size=False)
    delta_source(p)
    p.add_argument("--delete", action="append", default=[])
    p.add_argument("--max-degree", type=int, default=None,
                   help="check the Hilbert functions up to this degree, at least 1 "
                   "(default: m - n + 2)")
    p.add_argument("--summary-csv", help="also write the one-row CSV summary")
    p.set_defaults(func=cmd_polarize)

    p = sub.add_parser("cw-check", help="CW-poset certificate of the sparse complex")
    common(p)
    p.set_defaults(func=cmd_cw_check)

    p = sub.add_parser("experiment", help="randomized exploratory sweeps (tabulates only)")
    common(p, order=False)
    p.add_argument("--mode", choices=["free-seq-necessity", "free-vertex-orders"], required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random-orders", action="store_true",
                   help="a fresh random term order per sample (free-seq-necessity mode)")
    p.add_argument("--targets", action="append", default=[],
                   help="facet 'c1,c2,...' (repeatable; free-vertex-orders mode)")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RainbowError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
