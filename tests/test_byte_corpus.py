"""The CLI's output bytes on one fixed corpus of argv, against digests.

Every argv of the corpus runs through `cli.main` in process.  Each group of
the corpus, one per (command, format) plus one for errors, has one sha256
over the (argv, stdout, stderr, exit code) of its argv, in order.  The
digests were recorded at commit dafbff8.  A change that moves any byte of
any answer, or any exit code, fails here and names its group; a change
that alters bytes on purpose records the new digest and says which argv
changed.

The usage errors are ones whose argparse text has not changed across the
Python versions the project supports: a missing or unknown option, a
refused value and a bad int (no `--help` and no "invalid choice" line).
"""

import hashlib
import io
import sys
import time
from math import isqrt

from hkmoduli import cli
from hkmoduli.moduli import Family


def divisors(m):
    # the positive divisors of m, increasing
    low = [k for k in range(1, isqrt(m) + 1) if m % k == 0]
    return low + [m // k for k in reversed(low) if k * k != m]


def _ts(family, n):
    # every t | 2m, and 3, 5 and 7 (most of them do not divide 2m)
    return sorted(set(divisors(2 * family.m(n))) | {3, 5, 7})


_CELLS = [(family, n) for family in Family for n in range(2, 10)]


def _corpus():
    groups = {}
    for command in ("check", "witness"):
        for fmt in ("human", "json"):
            groups["%s %s" % (command, fmt)] = [
                [command, "--family", family.value, "--n", str(n),
                 "--d", str(d), "--t", str(t), "--format", fmt, *oracle]
                for oracle in ((), ("--oracle",))
                for family, n in _CELLS for t in _ts(family, n)
                for d in range(1, 41)]
    for fmt in ("csv", "json", "human"):
        groups["table " + fmt] = [
            ["table", "--family", family.value, "--n", str(n),
             "--d-range", "1..60",
             "--t", ",".join(map(str, _ts(family, n)[::-1] + [2])),
             "--format", fmt]
            for family, n in _CELLS]
    for fmt in ("human", "json"):
        groups["kva " + fmt] = [
            ["kva", "--surface", surface, "--a", str(a), "--e", str(e),
             "--format", fmt, *n]
            for surface in cli._SURFACES for a in range(1, 5)
            for e in range(1, 6) for n in ((), ("--n", "2"), ("--n", "6"))]
    query = ["--family", "k3n", "--n", "2", "--d", "3", "--t", "2"]
    table = ["table", "--family", "kum", "--n", "3", "--d-range", "1..5",
             "--t", "1,2"]
    groups["errors"] = [
        [],
        ["check"],
        ["check", *query[:-2]],
        ["check", *query, "--x"],
        ["check", "--family", "k3n", "--n", "x", "--d", "3", "--t", "2"],
        ["check", "--family", "k3n", "--n", "1", "--d", "3", "--t", "2"],
        ["check", "--family", "k3n", "--n", "2", "--d", "0", "--t", "2"],
        ["witness", "--family", "kum", "--n", "2", "--d", "3", "--t", "0",
         "--format", "json"],
        ["witness", "--family", "kum", "--n", "2", "--d", "-1", "--t", "0"],
        [*table[:6], "5..1", *table[7:]],
        [*table[:6], "1-5", *table[7:]],
        [*table[:8], "0,2"],
        [*table[:8], "2,x"],
        *([*table[:4], "1", *table[5:], "--format", fmt]
          for fmt in ("csv", "json", "human")),
        ["kva", "--surface", "k3", "--a", "0", "--e", "1"],
        ["kva", "--surface", "abelian", "--a", "1", "--e", "0"],
        ["kva", "--surface", "k3", "--a", "1", "--e", "1", "--n", "1",
         "--format", "json"],
        # an abbreviation and --opt=value go through argparse and answer
        ["check", "--fam", "k3n", *query[2:]],
        ["check", "--family=kum", *query[2:], "--format=json"],
        # the --oracle search over its cap is refused with exit 1
        ["check", "--family", "k3n", "--n", "62502", "--d", "62501",
         "--t", "62501", "--oracle"],
    ]
    return groups


# sha256 of each group's (argv, stdout, stderr, exit code) records
_DIGESTS = {
    "check human":
        "50e691351687872c4e61820efa61131ba2a1c9730061faffd13740fadd2b4820",
    "check json":
        "8fd8d094dc8ae0820b7c8077a4974a9c14f69257fe1c9eeff6810e3fd6cd97ca",
    "witness human":
        "af6af2a23adb297189efc97cc91ad1b346a4b91197d833d78c43a74d39b94957",
    "witness json":
        "698247a91a12c463757eeb146c61c40ad5553929f96dc2763da14f0fe460a72b",
    "table csv":
        "e102fb98be8eea6b3aee22e3c3fae525513d01b3cd4878ee921694db09159936",
    "table json":
        "c8a4202bd657c9de645b365b9d0709b18a03e4730ed69100a9337d7cc3f8e28f",
    "table human":
        "172f2f664da64eadde16712d08c412230b28b170eb45b057afdd008deea51a02",
    "kva human":
        "8002fbea3d16149dad16b62ebb3524059558fad1994ead45a495826b69dd1d75",
    "kva json":
        "0e47256ce7233f82aba24fc09b53f4ec835544cc1db4091563b3dacb9ac07a7b",
    "errors":
        "79e5fa86be4a597d6bbf8d75c58b25ba35736b293eb4b1340c2ba3c6c65594a9",
}


def _digest(argvs):
    digest = hashlib.sha256()
    saved = sys.stdout, sys.stderr
    try:
        for argv in argvs:
            sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
            code = cli.main(argv)
            digest.update(repr((argv, out.getvalue(), err.getvalue(),
                                code)).encode())
    finally:
        sys.stdout, sys.stderr = saved
    return digest.hexdigest()


def test_cli_bytes_match_the_recorded_corpus(monkeypatch):
    # argparse wraps its usage lines at the terminal width it reads from
    # COLUMNS; the digests were recorded at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    start = time.perf_counter()
    digests = {name: _digest(argvs) for name, argvs in _corpus().items()}
    elapsed = time.perf_counter() - start
    assert digests == _DIGESTS
    assert elapsed < 3.0, elapsed
