"""Command line front end.

Subcommands:
    check    full report for one (family, n, d, t) query
    table    reports for a d-range and a list of t values
    kva      k-very-ampleness bound for a line bundle on a surface
    witness  just the witness class for one query

Output formats: human (default), json, csv (table only).  JSON output is
canonical: fixed key order, integers, booleans, strings and lists only (no
floats; exact rationals are rendered as strings), so re-serializing the
parsed output reproduces the bytes.  Each output shape is written from one
format string with the bytes of json.dumps(obj, indent=2), so json, whose
encoder runs in pure Python once an indent is set, is not imported.

The four commands and their options are declared once, in _COMMANDS.  A
plain argv of any command (each option once, as its own word followed by
its value) is read from that table without argparse; see _plain_args.
argparse is imported and the parser is built from the same table only for
--help, usage errors, abbreviations, --opt=value and repeated options, so
those keep argparse's messages.

Exit codes: 0 success, 1 usage error or a reader that closed standard
output early (nothing more is written, not even to stderr), 2 internal
inconsistency (the closed formulas and the brute-force oracle, or two
formulas, disagree; this is a bug report, not a user error).  The parser is
a plain argparse.ArgumentParser, which exits 2 on a usage error; main maps
that status to 1, so every exit code is decided in main.

check and witness answer through one step, _answer: the report of the
query, with its count guard, and under --oracle one call,
oracle.cross_check(report), which holds the search, its cap and every
comparison.  The two commands differ only in how they render the answer.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, NoReturn, Optional, Sequence

# argparse, the bundles module and the oracle are imported in the
# branches that use them, so a one-shot call does not pay for what it does
# not run.
from .moduli import (Family, InternalInconsistency, ModuliQuery, ModuliReport,
                     _cells, _report_notes, _reports, report)

if TYPE_CHECKING:
    import argparse

    from .oracle import SearchBounds

__all__ = ["main"]

# the program name in usage lines and in the "hkmoduli: error: " prefix,
# which is also written when no parser has been built
_PROG = "hkmoduli"

_CSV_HEADER = ("family,n,d,t,non_empty,components,witness_a,witness_b,"
               "witness_e,bpf_some_component,va_some_component,fujita_power,"
               "applies_to_all_components").split(",")

# the values of bundles.SurfaceKind, written out so that building the parser
# does not import the bundles module (a test keeps the two equal)
_SURFACES = ("k3", "abelian")

def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        _refuse("expected LO..HI, got %r" % (text,))
    if a < 1 or b < a:
        _refuse("need 1 <= LO <= HI, got %r" % (text,))
    return range(a, b + 1)


def _parse_t_list(text: str) -> list[int]:
    try:
        out = [int(part) for part in text.split(",") if part]
    except ValueError:
        out = []
    if not out or any(t < 1 for t in out):
        _refuse("need a comma separated list of t >= 1, got %r" % (text,))
    return out


def _refuse(message: str) -> NoReturn:
    # ArgumentTypeError (not ValueError) so argparse reports these messages
    # verbatim instead of a generic "invalid value"; argparse is imported
    # here, so a valid value does not load it.
    import argparse

    raise argparse.ArgumentTypeError(message) from None


# JSON output is written from these formats, with the bytes of
# json.dumps(obj, indent=2).  No value needs escaping: each string is a
# Family or SurfaceKind value or a threshold note, printable ASCII without
# '"' or '\\', and a report has two or more notes (a test checks both).
_FLAGS = ("false", "true")
_TRIPLE_JSON = "[\n    %d,\n    %d,\n    %d\n  ]"
_NOTE_SEP = '",\n    "'
_REPORT_JSON = """{
  "family": "%s",
  "n": %d,
  "d": %d,
  "t": %d,
  "non_empty": %s,
  "components": %d,
  "witness": %s,
  "bpf_some_component": %s,
  "va_some_component": %s,
  "fujita_power": %d,
  "applies_to_all_components": %s,
  "threshold_notes": [
    "%s"
  ]%s
}"""
_WITNESS_JSON = """{
  "family": "%s",
  "n": %d,
  "d": %d,
  "t": %d,
  "non_empty": %s,
  "witness": %s%s
}
"""
# the last member of a check or witness object under --oracle
_ORACLE_JSON = """,
  "oracle": {
    "bounds": {
      "max_a": %d,
      "max_b": %d,
      "max_e": %d
    },
    "witness_found": %s,
    "agrees": true
  }"""
_KVA_JSON = """{
  "surface": "%s",
  "a": %d,
  "e": %d,
  "max_k_very_ample": %d%s
}
"""
_KVA_N_JSON = """,
  "n": %d,
  "induced_bpf": %s,
  "induced_very_ample": %s"""

_REPORT_HUMAN = """query: family=%s n=%d d=%d t=%d
non-empty: %s
components: %d
witness: %s
base point free on some component: %s
very ample on some component: %s
applies to all components: %s
note: %s
%s"""
_ORACLE_HUMAN = ("oracle: agrees (witness found: %s; "
                 "bounds a<=%d |b|<=%d e<=%d)\n")
_YESNO = ("no", "yes")


def _report_json(rep: ModuliReport, oracle: str = "") -> str:
    # the report's JSON object with `oracle` as its last member and no final
    # newline, since a table writes it as an element
    (family, n, d, t, non_empty, components, w, bpf, va, fujita, every,
     _) = rep
    return _REPORT_JSON % (
        family.value, n, d, t, _FLAGS[non_empty], components,
        "null" if w is None else _TRIPLE_JSON % w, _FLAGS[bpf], _FLAGS[va],
        fujita, _FLAGS[every], _report_notes(rep, _NOTE_SEP), oracle)


def _csv_lines(family: Family, n: int, t: int, ds: range) -> Iterator[str]:
    # The rows of one t's sweep, in the columns of _CSV_HEADER, each from its
    # cell of `_cells`, whose flags are a report's; %d writes a bool as 0/1.
    # family, n, t and the Fujita power are the same in every row, so both
    # formats are made once: an empty cell has no witness, count 0 and every
    # flag False, so its row depends on d alone.
    head = "%s,%d,%%d,%d," % (family.value, n, t)
    empty = head + "0,0,,,,0,0,%d,0\n" % (n + 2)
    full = head + "1,%%d,%%d,%%d,%%d,%%d,%%d,%d,%%d\n" % (n + 2)
    for d, w, count, _, bpf, va in _cells(family, n, t, ds):
        yield empty % d if w is None else full % (d, count, *w, bpf, va,
                                                  count == 1)


def _answer(args: argparse.Namespace
            ) -> tuple[ModuliReport, Optional[SearchBounds]]:
    # The report of a check or witness query and, under --oracle, the bounds
    # of the search that agreed with it.  Both commands answer here, so both
    # exit 2 on the count guard of `report` and on every oracle comparison.
    rep = report(ModuliQuery(Family(args.family), args.n, args.d, args.t))
    if not args.oracle:
        return rep, None
    from .oracle import cross_check
    return rep, cross_check(rep)


def _cmd_check(args: argparse.Namespace) -> None:
    rep, bounds = _answer(args)
    oracle = ("" if bounds is None else
              _ORACLE_JSON % (*bounds, _FLAGS[rep.non_empty])
              if args.format == "json" else
              _ORACLE_HUMAN % (_YESNO[rep.non_empty], *bounds))
    if args.format == "json":
        sys.stdout.write(_report_json(rep, oracle) + "\n")
    else:
        (family, n, d, t, non_empty, components, w, bpf, va, _, every,
         _) = rep
        sys.stdout.write(_REPORT_HUMAN % (
            family.value, n, d, t, _YESNO[non_empty], components,
            "none" if w is None else "a=%d b=%d e=%d" % w, _YESNO[bpf],
            _YESNO[va], _YESNO[every], _report_notes(rep, "\nnote: "),
            oracle))


def _cmd_table(args: argparse.Namespace) -> None:
    family, n, ds = Family(args.family), args.n, args.d_range
    # n < 2 raises here, before the first byte; every t and d is already
    # >= 1, as _parse_t_list and _parse_range refuse the rest
    family.m(n)
    ts = sorted(set(args.t))
    if args.format == "json":
        # each element is a check's object one level deeper; no value
        # holds a newline, so indenting every line indents the object
        items = (_report_json(r).replace("\n", "\n  ")
                 for t in ts for r in _reports(family, n, t, ds))
        sys.stdout.write("[\n  " + next(items))
        sys.stdout.writelines(",\n  " + item for item in items)
        sys.stdout.write("\n]\n")
    elif args.format == "csv":
        sys.stdout.write(",".join(_CSV_HEADER) + "\n")
        for t in ts:
            sys.stdout.writelines(_csv_lines(family, n, t, ds))
    else:
        print("family=%s n=%d" % (family.value, n))
        print("%4s %5s %6s %5s %8s %4s %4s %4s" %
              ("t", "d", "empty?", "comps", "witness", "bpf", "va", "all"))
        # the rows from the cells of each t, as csv reads them
        for t in ts:
            for d, w, count, _, bpf, va in _cells(family, n, t, ds):
                print("%4d %5d %6s %5d %8s %4s %4s %4s" % (
                    t, d, _YESNO[w is None], count,
                    "-" if w is None else "%d,%d,%d" % w, _YESNO[bpf],
                    _YESNO[va], _YESNO[count == 1]))


def _cmd_kva(args: argparse.Namespace) -> None:
    from .bundles import (BundleSpec, SurfaceKind, induced_bundle_status,
                          max_k_very_ample)
    spec = BundleSpec(SurfaceKind(args.surface), args.a, args.e)
    k = max_k_very_ample(spec)
    # before either format writes, so a bad n exits 1 with nothing printed
    status = None if args.n is None else induced_bundle_status(spec, args.n)
    if args.format == "json":
        induced = ("" if status is None else _KVA_N_JSON % (
            args.n, _FLAGS[status.bpf], _FLAGS[status.very_ample]))
        sys.stdout.write(_KVA_JSON % (spec.surface.value, spec.a, spec.e, k,
                                      induced))
    else:
        print("surface=%s a=%d e=%d" % (spec.surface.value, spec.a, spec.e))
        print("max k with L k-very ample: %d" % k)
        if k < 0:
            print("negative bound: L is not base point free")
        if status is not None:
            print("induced bundle at n=%d: base point free: %s, "
                  "very ample: %s" % (args.n, _YESNO[status.bpf],
                                      _YESNO[status.very_ample]))


def _cmd_witness(args: argparse.Namespace) -> None:
    rep, bounds = _answer(args)
    family, n, d, t, non_empty, _, w = rep[:7]
    oracle = ("" if bounds is None else
              _ORACLE_JSON % (*bounds, _FLAGS[non_empty])
              if args.format == "json" else "oracle: agrees\n")
    if args.format == "json":
        sys.stdout.write(_WITNESS_JSON % (
            family.value, n, d, t, _FLAGS[non_empty],
            "null" if w is None else _TRIPLE_JSON % w, oracle))
    else:
        print("witness: none (moduli space is empty)" if w is None
              else "witness: a=%d b=%d e=%d" % w)
        sys.stdout.write(oracle)


# The options of check and witness, each with the keyword arguments of its
# add_argument call; table takes its --family and --n from here.
_QUERY = {
    "--family": {"required": True, "choices": [f.value for f in Family],
                 "help": "k3n: Hilbert schemes of points on K3; "
                         "kum: generalized Kummer varieties"},
    "--n": {"required": True, "type": int,
            "help": "half the complex dimension, n >= 2"},
    "--d": {"required": True, "type": int, "help": "half the BBF square"},
    "--t": {"required": True, "type": int, "help": "divisibility"},
    "--format": {"choices": ["human", "json"], "default": "human"},
    "--oracle": {"action": "store_true",
                 "help": "cross-check with brute-force lattice search"},
}

# Each command's function, help and options, in the order of --help.  The
# parser is declared from this table and _plain_args reads a plain argv by
# it, so the two cannot disagree on an option's name, choices or type.
_COMMANDS = {
    "check": (_cmd_check, "full report for one query", _QUERY),
    "table": (_cmd_table, "sweep d and t at fixed family and n", {
        "--family": _QUERY["--family"],
        "--n": _QUERY["--n"],
        "--d-range": {"required": True, "type": _parse_range,
                      "metavar": "LO..HI"},
        "--t": {"required": True, "type": _parse_t_list,
                "metavar": "T1,T2,..."},
        "--format": {"choices": ["human", "json", "csv"], "default": "human"},
    }),
    "kva": (_cmd_kva, "k-very-ampleness bound on a surface", {
        "--surface": {"required": True, "choices": _SURFACES},
        "--a": {"required": True, "type": int, "help": "multiple of H"},
        "--e": {"required": True, "type": int, "help": "H^2 = 2e"},
        "--n": {"type": int, "default": None,
                "help": "also report the induced bundle status at this n"},
        "--format": {"choices": ["human", "json"], "default": "human"},
    }),
    "witness": (_cmd_witness, "polarization class for one query", _QUERY),
}

# Every option's dest, as argparse would derive it (--d-range: d_range), so
# that _plain_args names a field with one lookup.
for _command in _COMMANDS.values():
    for _option, _spec in _command[2].items():
        _spec.setdefault("dest", _option[2:].replace("-", "_"))
del _command, _option, _spec


def _plain_args(argv: Sequence[str]) -> Optional[dict]:
    """The fields argparse would set for an argv in plain form, func
    included and command left out, or None for any other argv.

    Plain: a command of _COMMANDS, then only the option words of that
    command, each at most once and every required one present; an option
    that takes a value is followed by a word that does not start with "-"
    and that its choices hold or its type accepts.  argparse reads such an
    argv to the same fields.  Any other argv is left to it, so usage
    errors, --help, abbreviations, --opt=value and repeated options all
    come from argparse.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    func, _, options = command
    fields = {"func": func}
    words = iter(argv[1:])
    for word in words:
        spec = options.get(word)
        if spec is None or spec["dest"] in fields:  # unknown or repeated
            return None
        name = spec["dest"]
        if "action" in spec:  # --oracle, a store_true flag
            fields[name] = True
            continue
        value = next(words, "-")
        if value[:1] == "-":
            return None
        if "type" in spec:
            # int raises ValueError and _refuse ArgumentTypeError; that class
            # is looked up only once a value is refused, so a valid value
            # does not import argparse
            try:
                value = spec["type"](value)
            except (ValueError, __import__("argparse").ArgumentTypeError):
                return None
        elif value not in spec["choices"]:
            return None
        fields[name] = value
    for spec in options.values():
        name = spec["dest"]
        if name not in fields:
            if spec.get("required"):
                return None
            fields[name] = spec.get("default", False)
    return fields


# built on first use, not at import, and never for a plain argv: it costs
# several times a `check` query
@functools.cache
def _parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Moduli of polarized hyperkaehler manifolds: exact "
                    "arithmetic answers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, kwargs in options.items():
            p.add_argument(option, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        fields = _plain_args(argv)
        args = (_parser().parse_args(argv) if fields is None
                else SimpleNamespace(**fields))
        args.func(args)
        # flushed here, so that a reader that closed the pipe is met inside
        # this try
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader of stdout is gone (`... | head`): stdout now points at
        # os.devnull, so the interpreter's final flush writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SystemExit as exc:
        # argparse exits 0 on --help and 2 on a usage error, after writing
        # its usage and message; a usage error is 1 here, as 2 is reserved
        # for internal inconsistencies
        return 0 if exc.code == 0 else 1
    except InternalInconsistency as exc:
        message, code = "internal inconsistency: %s" % exc, 2
    except ValueError as exc:
        # bad values that argparse cannot see (domain checks, oracle cap)
        message, code = "%s: error: %s" % (_PROG, exc), 1
    # the reader of stderr may be gone as well: the code still stands, and
    # the interpreter ignores a failed final flush of stderr
    try:
        print(message, file=sys.stderr)
    except BrokenPipeError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
