"""Command-line front end: summand tables, polynomials, cubes, reports.

Exit codes, so CI can tell math findings from plumbing failures:

    0   success, all requested verifications passed
    2   usage error (bad arguments or unparsable descriptor)
    3   engine mismatch: Molien and Cartan disagree, or the Cartan
        engine's complete-intersection answer disagrees with its Koszul
        witness (a math bug signal)
    4   a verification verdict failed (the report is still emitted)
    5   resource limit hit (the offending degree is reported)
    6   invariant violation: a result failed a built-in check such as
        b_0 = 1, the dimension bound, Poincare duality or the Euler
        characteristic (a math bug signal)

Without ``--cutoff`` every answer is exact.  A cutoff truncates a Cartan
answer; a Molien answer is exact whatever the cutoff.  ``poincare --json``
states the truncation as ``cutoff`` and ``report --json`` as
``first_stage_cutoff``, null when the answer is exact.

Output is deterministic.  JSON is written with sorted keys and a 2-space
indent, byte for byte as ``json.dumps(doc, sort_keys=True, indent=2)``
spells it, but streamed piece by piece by ``write_json`` from a document
built in full first.  Polynomial maps are keyed by degree as a string, so
their keys sort as strings: "11" comes before "2".

A persistent JSON result cache can be pointed at with ``--cache`` or the
RANKFILT_CACHE environment variable; a corrupt cache is ignored with a
warning, never fatal.  Each entry carries the engine version, the CRC-32 of
the source of the modules that compute an answer (``cartan``, ``linalg``,
``orbitspace`` and ``poly``), so any edit to them drops the old entries.
``poincare --verify-cache`` audits that cache and is a usage error without
one.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
import zlib
from json.encoder import encode_basestring_ascii as _encode_str

from . import cartan, combinat, decomp, spectra
from .combinat import ContractViolation
from .orbitspace import DescriptorError, NotTorusCommensurable, parse_descriptor
from .poly import Poly

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ENGINE_MISMATCH = 3
EXIT_VERIFICATION = 4
EXIT_RESOURCE = 5
EXIT_INVARIANT = 6


# ---------------------------------------------------------------------------
# persistent result cache


@functools.cache
def engine_version():
    """The CRC-32 of the source of the modules that compute an answer."""
    crc = 0
    for name in ("cartan", "linalg", "orbitspace", "poly"):
        with open(os.path.join(os.path.dirname(__file__), name + ".py"), "rb") as fh:
            crc = zlib.crc32(fh.read(), crc)
    return "rankfilt-%08x" % crc


class ResultCache:
    """Single-document JSON cache of polynomial computations.

    Entries written by another ``engine_version`` are dropped on load, so
    an engine change never serves old values; the version is computed only
    for a cache with a path.  Saving writes a temporary file beside the
    cache and renames it over the old one, so a crash leaves either the old
    document or the new one, never a torn file.
    """

    def __init__(self, path):
        self.path = path
        self.version = engine_version() if path else None
        self.entries = {}
        self.dirty = False
        if path and os.path.exists(path):
            try:
                with open(path) as fh:
                    doc = json.load(fh)
                if not isinstance(doc, dict) or not isinstance(doc.get("entries"), dict):
                    raise ValueError("unexpected cache layout")
                self.entries = {
                    key: entry for key, entry in doc["entries"].items()
                    if isinstance(entry, dict) and entry.get("engine_version") == self.version
                }
            except (OSError, ValueError) as exc:
                print("warning: ignoring cache %s (%s)" % (path, exc), file=sys.stderr)

    @staticmethod
    def key(descriptor, engine, cutoff):
        return "%s|%s|%s" % (descriptor, engine, "exact" if cutoff is None else cutoff)

    def get(self, key):
        entry = self.entries.get(key)
        if entry is None:
            return None
        try:
            return Poly.from_map(entry["value"], entry["truncation"])
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    def put(self, key, poly):
        self.entries[key] = {
            "value": poly.to_map(),
            "truncation": poly.truncation,
            "engine_version": self.version,
        }
        self.dirty = True

    def save(self):
        if not self.path or not self.dirty:
            return
        doc = {"version": 1, "engine_version": self.version, "entries": self.entries}
        tmp = "%s.%d.tmp" % (self.path, os.getpid())
        try:
            with open(tmp, "w") as fh:
                # json.dump streams through the pure-Python encoder; dumps
                # takes the C one and spells the same bytes
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
            os.replace(tmp, self.path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            print("warning: could not write cache %s (%s)" % (self.path, exc), file=sys.stderr)


def _recompute_entry(key):
    desc_str, engine, cutoff_tag = key.rsplit("|", 2)
    desc = parse_descriptor(desc_str)
    cutoff = None if cutoff_tag == "exact" else int(cutoff_tag)
    return cartan.poincare(desc, cutoff=cutoff, engine=engine)


# ---------------------------------------------------------------------------
# output helpers


def write_json(value, write, indent=""):
    """Write ``value`` through ``write`` exactly as ``json.dumps(value,
    sort_keys=True, indent=2)`` spells it, a piece at a time.

    A list, tuple or dict whose items (for a dict, values) are all plain
    ints is written in one join; a bool is not a plain int here.  A list or
    tuple of rows, each a non-empty list or tuple of plain ints (a summand
    table), is written one ``write`` per row, from one ``%d`` template per
    row length; one join of every row would hold the whole text at once.
    Any other container recurses, one ``write`` per item.  Keys must be
    strings.
    """
    if isinstance(value, str):
        write(_encode_str(value))
    elif value is None or value is True or value is False:
        write("null" if value is None else "true" if value else "false")
    elif type(value) is int:
        write(str(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON keys must be strings")
        inner = indent + "  "
        keys = sorted(value)
        if all(type(v) is int for v in value.values()):
            write("{\n%s%s\n%s}" % (inner, (",\n" + inner).join(
                "%s: %d" % (_encode_str(key), value[key]) for key in keys), indent))
            return
        sep = "{\n" + inner
        for key in keys:
            write("%s%s: " % (sep, _encode_str(key)))
            write_json(value[key], write, inner)
            sep = ",\n" + inner
        write("\n%s}" % indent)
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = indent + "  "
        if all(type(v) is int for v in value):
            write("[\n%s%s\n%s]" % (inner, (",\n" + inner).join(map(str, value)), indent))
            return
        sep = "[\n" + inner
        if _int_rows(value):
            templates = {}
            for row in value:
                template = templates.get(len(row))
                if template is None:
                    template = templates[len(row)] = "[\n%s  %s\n%s]" % (
                        inner, (",\n%s  " % inner).join(["%d"] * len(row)), inner)
                write(sep + template % tuple(row))
                sep = ",\n" + inner
            write("\n%s]" % indent)
            return
        for item in value:
            write(sep)
            write_json(item, write, inner)
            sep = ",\n" + inner
        write("\n%s]" % indent)
    else:
        write(json.dumps(value))


def _int_rows(value):
    """True when every item of ``value`` is a non-empty list or tuple of
    plain ints (a bool is not one), tested at C speed."""
    return (set(map(type, value)) <= {list, tuple} and all(value)
            and set(map(type, itertools.chain.from_iterable(value))) == {int})


def emit_json(doc):
    """Print a fully built document as sorted, 2-space-indented JSON."""
    write_json(doc, sys.stdout.write)
    sys.stdout.write("\n")


def emit_csv(rows):
    """Print each row of an iterable as one comma-separated line."""
    for row in rows:
        print(",".join(str(cell) for cell in row))


# ---------------------------------------------------------------------------
# subcommands


def cmd_summands(args):
    k, l, t = args.k, args.l, args.t
    if args.positive and args.subquotient is None:
        raise ContractViolation("--positive applies only with --subquotient")
    if args.max_rank is not None and args.subquotient is not None:
        raise ContractViolation("--max-rank does not apply with --subquotient")
    if args.subquotient is not None:
        ss = combinat.subquotient_summands(k, l, t, args.subquotient, positive_only=args.positive)
        mode = "subquotient m=%d%s" % (args.subquotient, " (positive)" if args.positive else "")
    elif args.latching:
        ss = combinat.latching_quotient(k, l, t, args.max_rank)
        mode = "latching"
    else:
        ss = combinat.enumerate_summands(k, l, t, args.max_rank)
        mode = "filtration"
    if args.json:
        doc = ss.to_json()
        doc["mode"] = mode
        if l > k:
            doc["note"] = "l>k: the mapping spectrum is contractible"
        emit_json(doc)
    elif args.csv:
        emit_csv(_summand_rows(ss, t))
    else:
        print("summands k=%d l=%d t=%d (%s): %d" % (k, l, t, mode, len(ss)))
        for it in ss:
            print("  (%s)  rank %d" % (", ".join(map(str, it)), sum(it)))
        if l > k:
            print("  note: l>k, the mapping spectrum is contractible")
    return EXIT_OK


def _summand_rows(ss, t):
    yield ["index"] + ["m%d" % (i + 1) for i in range(t)] + ["rank"]
    for i, it in enumerate(ss):
        yield (i,) + it + (sum(it),)


def cmd_poincare(args):
    desc = parse_descriptor(args.descriptor)
    path = args.cache or os.environ.get("RANKFILT_CACHE")
    if args.verify_cache and not path:
        print("error: --verify-cache needs a cache: pass --cache or set RANKFILT_CACHE",
              file=sys.stderr)
        return EXIT_USAGE
    cache = ResultCache(path)
    key = ResultCache.key(desc.canonical_string(), args.engine, args.cutoff)

    if args.verify_cache:
        bad = []
        for entry_key in sorted(cache.entries):
            try:
                fresh = _recompute_entry(entry_key)
            except Exception as exc:  # unparsable key counts as a stale entry
                bad.append((entry_key, "recompute failed: %s" % exc))
                continue
            if cache.get(entry_key) != fresh:
                bad.append((entry_key, "value differs"))
        if bad:
            for entry_key, why in bad:
                print("cache audit FAILED for %s: %s" % (entry_key, why), file=sys.stderr)
            return EXIT_VERIFICATION
        print("cache audit passed: %d entries recomputed bit-identically" % len(cache.entries))

    poly = cache.get(key)
    if poly is None:
        poly = cartan.poincare(desc, cutoff=args.cutoff, engine=args.engine)
        cache.put(key, poly)
        cache.save()
    if args.json:
        emit_json(
            {
                "descriptor": desc.canonical_string(),
                "engine": args.engine,
                "cutoff": poly.truncation,
                "poincare": poly.to_map(),
                "pretty": poly.pretty(),
            }
        )
    else:
        print(poly.pretty())
    return EXIT_OK


def cmd_cube(args):
    if args.m > spectra.M_MAX and not args.allow_large:
        raise ContractViolation(
            "m=%d is beyond M_max=%d; pass --allow-large to force" % (args.m, spectra.M_MAX)
        )
    report = decomp.cube_report(args.m, args.l, args.k, cutoff=args.cutoff, chains=args.json)
    if args.json:
        emit_json(report.to_json())
    else:
        print(
            "cube m=%d (k=%d, l=%d): %d vertices, %d edges"
            % (report.m, report.k, report.l, len(report.vertices), len(report.edges))
        )
        for v in report.vertices:
            print("  X(%s): %s" % ("{%s}" % ",".join(map(str, v.subset)), v.poincare.pretty()))
        for e in report.edges:
            status = "ok" if e.ok else "FAILED: " + "; ".join(e.mismatches)
            print("  edge {%s} <-> +{%d}: %s" % (",".join(map(str, e.subset)), report.m, status))
        print("  signed sum: %s" % report.signed_sum.pretty())
        print("  verified: %s" % report.verified)
    return EXIT_OK if report.verified else EXIT_VERIFICATION


def cmd_report(args):
    report = spectra.small_range_report(args.k, args.l, cutoff=args.cutoff)
    if args.json:
        emit_json(report.to_json())
    elif args.csv:
        emit_csv(report.csv_rows())
    else:
        if report.vanishes:
            print("report k=%d l=%d: vanishes (l > k), pi0 = 0" % (args.k, args.l))
        else:
            kind = "one-stage" if report.one_stage else "%d stages" % report.length
            print("report k=%d l=%d: %s, pi0 = %d" % (args.k, args.l, kind, report.pi0))
            print("  rational homology (first stage): %s" % report.first_stage.pretty())
            if report.endomorphism is not None:
                print("  endomorphism polynomial: %s" % report.endomorphism.pretty())
            for s in report.stages:
                flag = "-" if s.prime_power is None else ("yes" if s.prime_power else "no")
                print("  stage m=%d  prime power: %s  %s" % (s.m, flag, s.verdict))
            print("  note: %s" % report.note)
    return EXIT_OK if report.verified else EXIT_VERIFICATION


def cmd_ku_series(args):
    series = spectra.ku_limit_series(
        args.l,
        args.t,
        args.cutoff,
        max_rank=args.max_rank,
        sample_ks=tuple(args.sample_k or ()),
    )
    if args.json:
        emit_json(
            {
                "l": args.l,
                "t": args.t,
                "cutoff": args.cutoff,
                "max_rank": args.max_rank,
                "series": series.to_map(),
                "pretty": series.pretty(),
            }
        )
    else:
        print(series.pretty())
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one in the process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="rankfilt",
        description="Exact invariants of the rank filtration of matrix mapping spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summands", help="wedge-summand index tuples for a pointed set")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--max-rank", type=int, default=None, dest="max_rank")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--subquotient", type=int, default=None, metavar="M")
    mode.add_argument("--latching", action="store_true")
    p.add_argument("--positive", action="store_true", help="all entries >= 1 (with --subquotient)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_summands)

    p = sub.add_parser("poincare", help="Poincare polynomial of an orbit descriptor")
    p.add_argument("descriptor")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--engine", choices=["molien", "cartan", "auto"], default="auto")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cache", help="JSON cache path (or RANKFILT_CACHE)")
    p.add_argument("--verify-cache", action="store_true", dest="verify_cache")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("cube", help="decomposition-chain cube with rational verification")
    p.add_argument("m", type=int)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--allow-large", action="store_true", help="permit m beyond M_max")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cube)

    p = sub.add_parser("report", help="rank-filtration report for a pair (k, l)")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--cutoff", type=int, default=None)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("ku-series", help="classifying-space limit series of a filtration stage")
    p.add_argument("l", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--max-rank", type=int, default=1, dest="max_rank")
    p.add_argument("--sample-k", type=int, action="append", dest="sample_k")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ku_series)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "cutoff", None) is not None and args.cutoff < 0:
        print("error: the cutoff must be an integer >= 0, got %d" % args.cutoff, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except cartan.EngineMismatch as exc:
        print("engine mismatch on %s" % exc.descriptor.canonical_string(), file=sys.stderr)
        for name, poly in exc.answers:
            print("  %s: %s" % (name, poly.pretty()), file=sys.stderr)
        return EXIT_ENGINE_MISMATCH
    except cartan.InvariantViolation as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INVARIANT
    except cartan.ResourceLimit as exc:
        print(
            "resource limit: degree %d needs %d basis elements (budget %d)"
            % (exc.degree, exc.size, exc.budget),
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    except (ContractViolation, DescriptorError, NotTorusCommensurable) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
