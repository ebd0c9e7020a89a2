import csv
import io
import json
import sys
import time
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkmoduli import cli, moduli, oracle
from hkmoduli.lattice import Family
from hkmoduli.moduli import (InternalInconsistency, ModuliQuery,
                             ModuliReport, Witness, report, reports,
                             thresholds)


def divisors(m):
    # the positive divisors of m, increasing
    low = [k for k in range(1, isqrt(m) + 1) if m % k == 0]
    return low + [m // k for k in reversed(low) if k * k != m]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------------- check

def test_check_json_golden(capsys):
    code, out, _ = run(capsys, "check", "--family", "k3n", "--n", "2",
                       "--d", "3", "--t", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "k3n"
    assert obj["non_empty"] is True
    assert obj["components"] == 1
    assert obj["witness"] == [2, 1, 1]
    assert obj["bpf_some_component"] is False
    assert obj["va_some_component"] is False
    assert obj["fujita_power"] == 4
    assert obj["applies_to_all_components"] is True
    assert list(obj.keys()) == [
        "family", "n", "d", "t", "non_empty", "components", "witness",
        "bpf_some_component", "va_some_component", "fujita_power",
        "applies_to_all_components", "threshold_notes",
    ]


def test_check_json_round_trips_byte_identical(capsys):
    for args in (["check", "--family", "kum", "--n", "3", "--d", "12",
                  "--t", "4", "--format", "json"],
                 ["check", "--family", "k3n", "--n", "10", "--d", "27",
                  "--t", "3", "--format", "json", "--oracle"],
                 ["witness", "--family", "kum", "--n", "2", "--d", "3",
                  "--t", "3", "--format", "json"],
                 ["kva", "--surface", "abelian", "--a", "1", "--e", "2",
                  "--format", "json", "--n", "4"]):
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out, args


def test_check_human_output(capsys):
    code, out, _ = run(capsys, "check", "--family", "k3n", "--n", "2",
                       "--d", "3", "--t", "2")
    assert code == 0
    assert "non-empty: yes" in out
    assert "components: 1" in out
    assert "witness: a=2 b=1 e=1" in out


def test_check_empty_space(capsys):
    code, out, _ = run(capsys, "check", "--family", "kum", "--n", "2",
                       "--d", "3", "--t", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["non_empty"] is False
    assert obj["components"] == 0
    assert obj["witness"] is None
    assert obj["applies_to_all_components"] is False


def test_check_with_oracle(capsys):
    code, out, _ = run(capsys, "check", "--family", "k3n", "--n", "2",
                       "--d", "3", "--t", "2", "--format", "json", "--oracle")
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle"]["agrees"] is True
    assert obj["oracle"]["witness_found"] is True
    assert obj["oracle"]["bounds"] == {"max_a": 2, "max_b": 4, "max_e": 7}


def test_check_with_oracle_at_large_t(capsys):
    # t = 62497 is the largest prime t whose default search, 4*t + 1 pairs,
    # is under the cap, and t = 62500 the largest t.  With n = t + 1, d = 1
    # is empty (t must divide 2d) and d = t^2 - t non-empty with few hits
    # (b^2 = 1 mod t), witness (t, 1, 1).  With n = t^2 + 1 and d = t^2
    # (t^2 | m, t^2 | d) every b prime to t is a hit, the most a search
    # checks: at t = 62497, 4t - 4 hits in ~0.5 s (README).  Each query
    # answers within 1 s.
    for t in (62497, 62500):
        for n, d, non_empty in ((t + 1, 1, False), (t + 1, t * t - t, True),
                                (t * t + 1, t * t, True)):
            start = time.perf_counter()
            code, out, _ = run(capsys, "check", "--family", "k3n",
                               "--n", str(n), "--d", str(d), "--t", str(t),
                               "--format", "json", "--oracle")
            elapsed = time.perf_counter() - start
            assert code == 0
            obj = json.loads(out)
            assert obj["non_empty"] is non_empty
            assert obj["oracle"] == {
                "bounds": {"max_a": t, "max_b": 2 * t,
                           "max_e": d + 4 * (n - 1)},
                "witness_found": non_empty, "agrees": True}
            if non_empty:
                assert obj["witness"][:2] == [t, 1]
            assert elapsed < 1.0, (t, n, d, elapsed)


# ------------------------------------------------------------------- table

def test_table_csv_contract(capsys):
    code, out, _ = run(capsys, "table", "--family", "k3n", "--n", "2",
                       "--d-range", "1..20", "--t", "2,1",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == cli._CSV_HEADER
    body = rows[1:]
    assert len(body) == 20 * 2
    # sorted by (t, d)
    keys = [(int(r[3]), int(r[2])) for r in body]
    assert keys == sorted(keys)
    for r in body:
        assert r[4] in ("0", "1") and r[9] in ("0", "1") and r[10] in ("0", "1")
        if r[4] == "0":
            assert r[6] == r[7] == r[8] == ""
        else:
            assert r[6] and r[8]


def test_csv_header_golden():
    # the bytes are part of the CSV contract
    assert ",".join(cli._CSV_HEADER) == (
        "family,n,d,t,non_empty,components,witness_a,witness_b,witness_e,"
        "bpf_some_component,va_some_component,fujita_power,"
        "applies_to_all_components")


# The per-report rendering the CSV table used before its per-t row formats,
# kept as their reference: one format string over the report's fields but
# the last (`halved`), the family by value, the witness as three cells that
# are empty when there is none, and bools as 0/1.
_REFERENCE_LINE = ",".join("%s" if field in ("family", "witness") else "%d"
                           for field in ModuliReport._fields[:-1]) + "\n"


def _csv_line(rep):
    cells = list(rep[:-1])
    cells[0] = rep.family.value
    w = rep.witness
    cells[ModuliReport._fields.index("witness")] = (
        ",," if w is None else "%d,%d,%d" % w)
    return _REFERENCE_LINE % tuple(cells)


def test_table_csv_matches_per_report_reference(capsys):
    d_range = range(1, 241)
    seen = set()
    for family in Family:
        for n in range(2, 31):
            two_m = 2 * family.m(n)
            ts = divisors(two_m)
            ts.append(next(t for t in range(3, two_m + 3) if two_m % t))
            code, out, err = run(capsys, "table", "--family", family.value,
                                 "--n", str(n), "--d-range", "1..240",
                                 "--t", ",".join(map(str, ts)),
                                 "--format", "csv")
            assert (code, err) == (0, "")
            expected = [",".join(cli._CSV_HEADER) + "\n"]
            for t in sorted(ts):
                for rep in reports(family, n, t, d_range):
                    expected.append(_csv_line(rep))
                    seen.add("non-empty" if rep.non_empty else "empty")
                    if rep.halved:
                        seen.add("halved")
                    if rep.components > 1:
                        seen.add("several components")
            assert out == "".join(expected), (family, n)
    assert seen == {"empty", "non-empty", "halved", "several components"}
    code, out, _ = run(capsys, "table", "--family", "k3n", "--n", "16",
                       "--d-range", "210..210", "--t", "15", "--format", "csv")
    assert out.splitlines()[1] == "k3n,16,210,15,1,2,15,1,1,1,1,18,0"


def test_table_json_sorted(capsys):
    code, out, _ = run(capsys, "table", "--family", "kum", "--n", "3",
                       "--d-range", "1..5", "--t", "4,2", "--format", "json")
    assert code == 0
    arr = json.loads(out)
    assert len(arr) == 10
    assert [(r["t"], r["d"]) for r in arr] == sorted(
        (r["t"], r["d"]) for r in arr)
    assert json.dumps(arr, indent=2) + "\n" == out


def test_table_renders_no_notes(capsys, monkeypatch):
    # csv and the human table print no note, so none may be rendered
    def rendered(*args):
        raise AssertionError("a threshold note was rendered")

    monkeypatch.setattr(moduli, "_ratio", rendered)
    monkeypatch.setattr(moduli.ThresholdDecision, "notes", property(rendered))
    monkeypatch.setattr(moduli, "_notes_text", rendered)
    monkeypatch.setattr(cli, "_report_notes", rendered)
    for fmt in ("csv", "human"):
        code, out, err = run(capsys, "table", "--family", "kum", "--n", "5",
                             "--d-range", "1..40", "--t", "1,2,3,4,6,12",
                             "--format", fmt)
        assert code == 0 and err == "", fmt
        assert len(out.splitlines()) == 2 + 40 * 6 - (fmt == "csv"), fmt
    # the patches bite: `check` prints the notes in both of its formats
    for fmt in ("json", "human"):
        with pytest.raises(AssertionError, match="note was rendered"):
            cli.main(["check", *QUERY, "--format", fmt])


def test_table_input_error_prints_nothing(capsys):
    # rows stream, but an input error still exits 1 before the header
    for fmt in ("csv", "json", "human"):
        code, out, err = run(capsys, "table", "--family", "k3n", "--n", "1",
                             "--d-range", "1..5", "--t", "1,2",
                             "--format", fmt)
        assert (code, out) == (1, ""), fmt
        assert "n must be >= 2" in err, fmt


def test_table_csv_internal_inconsistency_exits_2(capsys, monkeypatch):
    # the count guard runs on the CSV path too: with every count forced to
    # 0, the first non-empty cell (d = 3) stops the sweep with exit 2
    monkeypatch.setattr(moduli, "_count_detail",
                        lambda dec, t: (0, None, False))
    code, out, err = run(capsys, "table", "--family", "k3n", "--n", "2",
                         "--d-range", "1..9", "--t", "2", "--format", "csv")
    assert code == 2
    assert err.startswith("internal inconsistency: ")
    assert "n=2, d=3, t=2)" in err
    assert out.startswith(",".join(cli._CSV_HEADER) + "\n")


def test_witness_internal_inconsistency_exits_2(capsys, monkeypatch):
    # `witness` answers through `report`, so the count guard stops it too:
    # with every count forced to 0, the non-empty (k3n, 2, 3, 2) exits 2
    monkeypatch.setattr(moduli, "_count_detail",
                        lambda dec, t: (0, None, False))
    for fmt in ("human", "json"):
        code, out, err = run(capsys, "witness", "--family", "k3n", "--n",
                             "2", "--d", "3", "--t", "2", "--format", fmt)
        assert (code, out) == (2, ""), fmt
        assert err.startswith("internal inconsistency: "), fmt
        assert "n=2, d=3, t=2)" in err, fmt


class _Discard:
    # a stdout that keeps nothing of what is written to it
    def write(self, text):
        return len(text)

    def writelines(self, lines):
        for _ in lines:
            pass

    def flush(self):
        pass


@pytest.mark.parametrize("fmt, d_range", [("csv", "1..25000"),
                                          ("json", "1..1500")])
def test_table_streams(monkeypatch, fmt, d_range):
    # README: CSV and JSON rows are written as they are made, so memory does
    # not grow with the sweep.  Two t of 25,000 (csv) or 1,500 (json) rows
    # each peak at a few KB; holding the text of one t's rows takes 0.9 MB
    # (json) to 3 MB (csv).
    import tracemalloc

    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        code = cli.main(["table", "--family", "k3n", "--n", "5", "--d-range",
                         d_range, "--t", "1,2", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 ** 19, peak


def test_table_human(capsys):
    code, out, _ = run(capsys, "table", "--family", "k3n", "--n", "2",
                       "--d-range", "3..3", "--t", "2")
    assert code == 0
    assert "family=k3n n=2" in out


# --------------------------------------------------------------------- kva

def test_kva_json(capsys):
    code, out, _ = run(capsys, "kva", "--surface", "k3", "--a", "1",
                       "--e", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"surface": "k3", "a": 1, "e": 4,
                               "max_k_very_ample": 2}


def test_kva_with_n(capsys):
    code, out, _ = run(capsys, "kva", "--surface", "abelian", "--a", "1",
                       "--e", "2", "--n", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["max_k_very_ample"] == -1
    assert obj["induced_bpf"] is False
    assert obj["induced_very_ample"] is False
    code, out, _ = run(capsys, "kva", "--surface", "k3", "--a", "2",
                       "--e", "3", "--n", "4")
    assert (code, out) == (0, "surface=k3 a=2 e=3\n"
                              "max k with L k-very ample: 4\n"
                              "induced bundle at n=4: base point free: yes, "
                              "very ample: yes\n")


def test_surface_choices_match_surface_kind():
    from hkmoduli.bundles import SurfaceKind

    assert cli._SURFACES == tuple(s.value for s in SurfaceKind)


def test_kva_human_negative_bound(capsys):
    code, out, _ = run(capsys, "kva", "--surface", "abelian", "--a", "1",
                       "--e", "1")
    assert code == 0
    assert "not base point free" in out


def test_kva_bad_n_writes_nothing(capsys):
    # the n check runs before either format writes its first line
    for fmt in ("human", "json"):
        code, out, err = run(capsys, "kva", "--surface", "k3", "--a", "1",
                             "--e", "4", "--n", "1", "--format", fmt)
        assert (code, out) == (1, ""), fmt
        assert "n must be >= 2" in err


# ----------------------------------------------------------------- witness

def test_witness_human(capsys):
    code, out, _ = run(capsys, "witness", "--family", "k3n", "--n", "2",
                       "--d", "3", "--t", "2")
    assert code == 0
    assert out == "witness: a=2 b=1 e=1\n"
    code, out, _ = run(capsys, "witness", "--family", "kum", "--n", "2",
                       "--d", "3", "--t", "3")
    assert code == 0
    assert "none" in out


def test_witness_json_with_oracle(capsys):
    code, out, _ = run(capsys, "witness", "--family", "kum", "--n", "3",
                       "--d", "28", "--t", "8", "--format", "json",
                       "--oracle")
    assert code == 0
    obj = json.loads(out)
    assert obj["witness"] == [8, 3, 1]
    assert obj["oracle"]["agrees"] is True


# ------------------------------------------------------------ parser reuse

CHECK = ["check", "--family", "kum", "--n", "11", "--d", "36", "--t", "24",
         "--format", "json"]
TABLE = ["table", "--family", "k3n", "--n", "2", "--d-range", "1..3",
         "--t", "1,2", "--format", "csv"]
KVA = ["kva", "--surface", "k3", "--a", "1", "--e", "4"]


def test_parser_is_built_once(capsys):
    # a plain argv of any command is read without the parser; any other
    # argv builds it on first use, and later calls reuse it
    cli._parser.cache_clear()
    for argv in (CHECK, TABLE, KVA,
                 ["witness", "--family", "k3n", "--n", "2", "--d", "3",
                  "--t", "2", "--oracle"]):
        assert run(capsys, *argv)[0] == 0
    assert cli._parser.cache_info().misses == 0
    for argv, code in ((["check", "--family", "k3n", "--n", "2"], 1),
                       (CHECK, 0), (TABLE, 0),
                       (["kva", "--surface", "k3", "--a", "1", "--e=4"], 0)):
        assert run(capsys, *argv)[0] == code, argv
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_reused_parser_keeps_no_state(capsys):
    first = run(capsys, *CHECK)
    code, out, err = run(capsys, "check", "--family", "k3n", "--n", "2")
    assert code == 1 and out == "" and "required" in err
    code, out, _ = run(capsys, "check", "--help")
    assert code == 0 and "--oracle" in out
    assert run(capsys, *CHECK) == first
    assert first[0] == 0 and first[2] == ""


# main without the plain reader: the whole argv goes through the parser.
def _reference_main(argv):
    parser = cli._parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except InternalInconsistency as exc:
        print("internal inconsistency: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return 1


QUERY = ["--family", "k3n", "--n", "10", "--d", "27", "--t", "3"]

# argv that are not in plain form, or hold a value a type or choice refuses:
# argparse reads them
NOT_PLAIN = [
    ["check", "--family", "k3n", "--n", "10", "--d=27", "--t", "3"],
    ["check", "--family", "k3n", "--n", "-3", "--d", "27", "--t", "3"],
    ["check", *QUERY, "--d", "28"],
    ["witness", *QUERY, "--oracle", "--oracle"],
    ["check", *QUERY, "--format", "xml"],
    ["check", "--family", "k3n", "--n", "2.0", "--d", "27", "--t", "3"],
    ["check", "--family", "k3n", "--n", "10", "--d", "27"],
    ["witness", "--family", "k3n", "--n", "10", "--", "--d", "27", "--t", "3"],
    ["check", *QUERY, "--format"],
    ["check", "--family", "k3n", "--n", "", "--d", "27", "--t", "3"],
    ["witness", *QUERY, "--help"],
    ["table", "--family", "k3n", "--n", "2", "--d-range", "5..1", "--t", "1"],
    ["table", "--family", "k3n", "--n", "2", "--d-range", "abc", "--t", "1"],
    ["table", "--family", "k3n", "--n", "2", "--d-range", "1..4", "--t", "0,2"],
    ["table", "--family", "k3n", "--n", "2", "--d-range", "1..4", "--t", ","],
    ["table", "--family", "k3n", "--n", "2", "--d", "1..4", "--t", "1"],
    ["table", "--family", "k3n", "--n", "2", "--d-range=1..4", "--t", "1"],
    ["table", "--family", "k3n", "--n", "2", "--d-range", "1..4", "--t", "1",
     "--t", "2"],
    ["kva", "--surface", "x", "--a", "1", "--e", "4"],
    ["kva", "--surface", "k3", "--a", "1", "--e", "4", "--n", "1.5"],
    ["kva", "--surface", "k3", "--a", "1", "--e", "4", "--format", "csv"],
    ["kva", "--surface", "k3", "--a", "1", "--n", "3"],
]


@pytest.mark.parametrize("argv", [
    ["check", *QUERY, "extra"],
    ["check", *QUERY, "--bogus", "1"],
    ["--", "check", *QUERY],
    ["check", *QUERY, "-h"],
    ["check", "--fam", "k3n", "--n", "10", "--d", "27", "--t", "3",
     "--format", "json"],
    ["nosuchcommand"],
    [],
    ["table", "--family", "kum", "--n", "3", "--t", "1,2",
     "--d-range", "0..3"],
    ["kva", "--surface", "k3", "--a", "1", "--e", "4", "x", "y"],
    ["check", *QUERY, "--format", "json"],
    ["witness", "--oracle", "--t", "+5", "--d", "1_000", "--n", " 7",
     "--family", "kum", "--format", "json"],
    ["check", "--t", "0", "--family", "kum", "--n", str(10 ** 30), "--d",
     " -7"],
    *NOT_PLAIN,
], ids=repr)
def test_main_matches_the_full_parser(capsys, argv):
    expected = (_reference_main(list(argv)),) + capsys.readouterr()
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize("argv", NOT_PLAIN, ids=repr)
def test_plain_reader_leaves_other_argv_to_argparse(argv):
    assert cli._plain_args(argv) is None


@st.composite
def int_texts(draw, min_value=0):
    # what int() and so argparse's type=int accept, in several spellings;
    # negative ones only when min_value is 0
    k = draw(st.integers(min_value, 10 ** 40))
    digits = "{:_}".format(k) if draw(st.booleans()) else str(k)
    signs = ["", "+", " ", " +0"] + ([" -"] if min_value == 0 else [])
    return (draw(st.sampled_from(signs)) + digits
            + draw(st.sampled_from(["", " ", "\t"])))


@st.composite
def plain_argvs(draw):
    # a plain argv of one of the four commands, its options in any order
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    formats = ["human", "json"]
    if command == "kva":
        options = [["--surface", draw(st.sampled_from(cli._SURFACES))],
                   ["--a", draw(int_texts())], ["--e", draw(int_texts())]]
        if draw(st.booleans()):
            options.append(["--n", draw(int_texts())])
    else:
        options = [["--family", draw(st.sampled_from(["k3n", "kum"]))],
                   ["--n", draw(int_texts())]]
    if command == "table":
        lo = draw(st.integers(1, 10 ** 6))
        hi = lo + draw(st.integers(0, 10 ** 6))
        ts = draw(st.lists(int_texts(min_value=1), min_size=1, max_size=4))
        options += [["--d-range", "%s..%s" % (lo, hi)],
                    ["--t", ",".join(ts) + draw(st.sampled_from(["", ","]))]]
        formats.append("csv")
    elif command != "kva":
        options += [["--d", draw(int_texts())], ["--t", draw(int_texts())]]
        if draw(st.booleans()):
            options.append(["--oracle"])
    if draw(st.booleans()):
        options.append(["--format", draw(st.sampled_from(formats))])
    words = [w for option in draw(st.permutations(options)) for w in option]
    return [command, *words]


@settings(max_examples=400, deadline=None)
@given(plain_argvs())
def test_plain_reader_matches_the_parser(argv):
    expected = vars(cli._parser().parse_args(argv))
    assert expected.pop("command") == argv[0]
    assert cli._plain_args(argv) == expected


def test_check_validates_the_query_once(capsys, monkeypatch):
    calls = []
    validate = moduli._validate

    def counted(q):
        calls.append(q)
        validate(q)

    monkeypatch.setattr(moduli, "_validate", counted)
    for fmt in ("json", "human"):
        calls.clear()
        assert run(capsys, "check", *QUERY, "--format", fmt)[0] == 0
        assert len(calls) == 1, fmt


# ------------------------------------------------------------ output bytes

def _needs_no_escaping(text):
    # json.dumps writes such a string as '"' + text + '"'
    return (text.isascii() and text.isprintable()
            and '"' not in text and "\\" not in text)


def test_output_strings_need_no_escaping():
    # cli writes every string into its formats between quotes as it is
    from hkmoduli.bundles import SurfaceKind

    notes, seen = set(), set()
    for family in Family:
        for n in range(2, 41):
            two_m = 2 * family.m(n)
            for t in range(1, 61):
                if two_m % t:
                    continue
                for rep in reports(family, n, t, range(1, 121)):
                    assert len(rep.threshold_notes) >= 2
                    notes.update(rep.threshold_notes)
                    seen.add("halved" if rep.halved else "not halved")
    assert seen == {"halved", "not halved"}
    values = [f.value for f in Family] + [s.value for s in SurfaceKind]
    for text in sorted(notes) + values:
        assert _needs_no_escaping(text), text


# (family, n) at n = 2, 3, 9, 10 and 17, each with every t | 2m up to 16
# and d = 1..60: t = 1 and t = 2, empty and non-empty, halved and not, one
# and two components
_GRID = [(family, n) for family in Family for n in (2, 3, 9, 10, 17)]
_D_RANGE = range(1, 61)


def _grid_reports(family, n):
    return [rep for t in range(1, 17) if 2 * family.m(n) % t == 0
            for rep in reports(family, n, t, _D_RANGE)]


def _report_ref(rep):
    # the check object: the report's fields but `halved`, then the notes
    obj = rep._asdict()
    obj["family"] = rep.family.value
    del obj["halved"]
    obj["threshold_notes"] = rep.threshold_notes
    return obj


def test_grid_covers_every_kind_of_cell():
    seen = set()
    for rep in (rep for cell in _GRID for rep in _grid_reports(*cell)):
        seen.add("t = %d" % rep.t if rep.t <= 2 else "t > 2")
        seen.add("non-empty" if rep.non_empty else "empty")
        seen.add("halved" if rep.halved else "not halved")
        seen.add("components = %d" % min(rep.components, 2))
    assert seen == {"t = 1", "t = 2", "t > 2", "non-empty", "empty", "halved",
                    "not halved", "components = 0", "components = 1",
                    "components = 2"}


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("family, n", _GRID)
def test_one_query_json_is_json_dumps_of_the_answer(capsys, family, n,
                                                    oracle):
    from hkmoduli.oracle import default_bounds

    for rep in _grid_reports(family, n):
        argv = ["--family", rep.family.value, "--n", str(rep.n),
                "--d", str(rep.d), "--t", str(rep.t), "--format", "json"]
        check = _report_ref(rep)
        short = {key: check[key]
                 for key in ("family", "n", "d", "t", "non_empty", "witness")}
        if oracle:
            argv.append("--oracle")
            bounds = default_bounds(ModuliQuery(*rep[:4]))
            check["oracle"] = short["oracle"] = {
                "bounds": bounds._asdict(), "witness_found": rep.non_empty,
                "agrees": True}
        for command, obj in (("check", check), ("witness", short)):
            expected = (0, json.dumps(obj, indent=2) + "\n", "")
            assert run(capsys, command, *argv) == expected, (command, argv)


@pytest.mark.parametrize("family, n", _GRID)
def test_table_json_is_json_dumps_of_the_list(capsys, family, n):
    reps = _grid_reports(family, n)
    ts = sorted({rep.t for rep in reps}, reverse=True)
    code, out, err = run(capsys, "table", "--family", family.value,
                         "--n", str(n), "--d-range", "1..60",
                         "--t", ",".join(map(str, ts)), "--format", "json")
    ref = [_report_ref(rep) for rep in reps]
    assert (code, out, err) == (0, json.dumps(ref, indent=2) + "\n", "")


def _human_line(rep):
    # the per-report rendering the human table used before it read its
    # cells, kept as their reference: one format over the report's fields
    yesno = ("no", "yes")
    w = "-" if rep.witness is None else "%d,%d,%d" % rep.witness
    return "%4d %5d %6s %5d %8s %4s %4s %4s" % (
        rep.t, rep.d, yesno[not rep.non_empty], rep.components, w,
        yesno[rep.bpf_some_component], yesno[rep.va_some_component],
        yesno[rep.applies_to_all_components])


@pytest.mark.parametrize("family, n", _GRID)
def test_table_human_matches_per_report_reference(capsys, family, n):
    # every t up to 16, whether or not it divides 2m, given unsorted and
    # once twice; the rows come sorted by (t, d), each t once
    ts = list(range(16, 0, -1)) + [2]
    code, out, err = run(capsys, "table", "--family", family.value,
                         "--n", str(n), "--d-range", "1..60",
                         "--t", ",".join(map(str, ts)))
    expected = ["family=%s n=%d" % (family.value, n),
                "   t     d empty? comps  witness  bpf   va  all"]
    expected += [_human_line(report(ModuliQuery(family, n, d, t)))
                 for t in range(1, 17) for d in _D_RANGE]
    assert (code, err) == (0, "")
    assert out == "\n".join(expected) + "\n"


@pytest.mark.parametrize("surface", cli._SURFACES)
def test_kva_json_is_json_dumps_of_the_answer(capsys, surface):
    from hkmoduli.bundles import (BundleSpec, SurfaceKind,
                                  induced_bundle_status, max_k_very_ample)

    for a in range(1, 5):
        for e in range(1, 6):
            spec = BundleSpec(SurfaceKind(surface), a, e)
            argv = ["kva", "--surface", surface, "--a", str(a),
                    "--e", str(e), "--format", "json"]
            ref = {"surface": surface, "a": a, "e": e,
                   "max_k_very_ample": max_k_very_ample(spec)}
            expected = (0, json.dumps(ref, indent=2) + "\n", "")
            assert run(capsys, *argv) == expected, argv
            for n in (2, 3, 6):
                status = induced_bundle_status(spec, n)
                ref.update(n=n, induced_bpf=status.bpf,
                           induced_very_ample=status.very_ample)
                expected = (0, json.dumps(ref, indent=2) + "\n", "")
                assert run(capsys, *argv, "--n", str(n)) == expected


def _near_bounds(family, n, t):
    # the d on both sides of each threshold bound, and the d of _D_RANGE
    th = thresholds(ModuliQuery(family, n, 1, t))
    ds = set(_D_RANGE)
    for d_min in (th.d_min_bpf, th.d_min_va):
        ds.update(d for d in (d_min - 1, d_min) if d >= 1)
    return sorted(ds)


def test_check_notes_are_the_report_notes(capsys):
    # Both `check` formats print rep.threshold_notes, joined with their
    # separator, and those are the threshold notes of the query (matched
    # against a Fraction reference in test_moduli) plus the halving note.
    seen = set()
    for family, n in _GRID:
        for t in range(1, 17):
            if 2 * family.m(n) % t:
                continue
            for rep in reports(family, n, t, _near_bounds(family, n, t)):
                th = thresholds(ModuliQuery(family, n, rep.d, t))
                notes = th.notes
                if rep.halved:
                    notes += ("component count used exact halving "
                              "(rho = 0 case)",)
                assert rep.threshold_notes == notes, rep
                argv = ["check", "--family", family.value, "--n", str(n),
                        "--d", str(rep.d), "--t", str(t)]
                code, out, _ = run(capsys, *argv, "--format", "json")
                assert code == 0
                assert json.loads(out)["threshold_notes"] == list(notes)
                code, out, _ = run(capsys, *argv)
                assert code == 0
                assert [line[6:] for line in out.splitlines()
                        if line.startswith("note: ")] == list(notes), argv
                seen.add("t = 1" if t == 1 else "t > 1")
                seen.add("halved" if rep.halved else "not halved")
                seen.add("bpf %s" % th.bpf)
                seen.add("va %s" % th.very_ample)
    assert seen == {"t = 1", "t > 1", "halved", "not halved", "bpf True",
                    "bpf False", "va True", "va False"}


def test_oracle_checks_the_witness_is_a_hit(capsys, monkeypatch):
    # (2, 1, 2) has square 2*(4*2 - 1) = 14, not 2d = 6: a witness the
    # formulas would print must be among the oracle's hits, even where the
    # search finds the space non-empty
    argv = ["--family", "k3n", "--n", "2", "--d", "3", "--t", "2", "--oracle"]
    rep = moduli.report(ModuliQuery(Family.K3HILB, 2, 3, 2))
    monkeypatch.setattr(cli, "report",
                        lambda q: rep._replace(witness=Witness(2, 1, 2)))
    for command in ("check", "witness"):
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, ""), command
        assert err.startswith("internal inconsistency: "), command


def test_oracle_checks_an_empty_answer_has_no_hit(capsys, monkeypatch):
    # (k3n, 2, 3, 2) is non-empty: formulas that answered "no witness" there
    # are caught by the search's hits alone (the count is left at its value)
    argv = ["--family", "k3n", "--n", "2", "--d", "3", "--t", "2", "--oracle"]
    rep = moduli.report(ModuliQuery(Family.K3HILB, 2, 3, 2))
    monkeypatch.setattr(cli, "report", lambda q: rep._replace(witness=None))
    for command in ("check", "witness"):
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, ""), command
        assert err.startswith("internal inconsistency: "), command


def test_oracle_checks_the_component_count_by_value(capsys, monkeypatch):
    # A count one too high on a non-empty cell keeps the sign guard of
    # `report` quiet; only the oracle's class count sees it.
    count_detail = moduli._count_detail

    def one_too_many(dec, t):
        count, branch, halved = count_detail(dec, t)
        return count + (count > 0), branch, halved

    monkeypatch.setattr(moduli, "_count_detail", one_too_many)
    query = ["--family", "k3n", "--n", "17", "--d", "48", "--t", "8"]
    code, out, _ = run(capsys, "check", *query, "--format", "json")
    assert code == 0 and json.loads(out)["components"] == 3
    # `witness` prints no count, but it answers through `report` too
    code, out, _ = run(capsys, "witness", *query)
    assert code == 0 and out == "witness: a=8 b=1 e=1\n"
    for command in ("check", "witness"):
        code, out, err = run(capsys, command, *query, "--oracle")
        assert (code, out) == (2, ""), command
        assert err.startswith("internal inconsistency: "), command
    # an empty cell's count 0 is left as it is, and agrees
    code, out, _ = run(capsys, "check", "--family", "k3n", "--n", "17",
                       "--d", "47", "--t", "8", "--oracle")
    assert code == 0 and "components: 0" in out


def test_oracle_checks_the_flags_against_the_bundle_status(capsys,
                                                         monkeypatch):
    # Doubling both bounds of `report` turns its flags off at (k3n, 17,
    # 112, 8), whose witness is (8, 1, 2): the class 8 L + delta, L^2 = 4.
    # Nothing else in `check` reads them, so only the bundle status sees it.
    bounds = moduli._bounds

    def doubled(family, n, t):
        den, bpf_num, va_num = bounds(family, n, t)
        return den, 2 * bpf_num, 2 * va_num

    argv = ["check", "--family", "k3n", "--n", "17", "--d", "112", "--t",
            "8", "--format", "json"]
    code, out, _ = run(capsys, *argv, "--oracle")
    obj = json.loads(out)
    assert code == 0 and obj["witness"] == [8, 1, 2]
    assert obj["bpf_some_component"] and obj["va_some_component"]
    monkeypatch.setattr(moduli, "_bounds", doubled)
    code, out, _ = run(capsys, *argv)
    obj = json.loads(out)
    assert code == 0 and not obj["bpf_some_component"]
    code, out, err = run(capsys, *argv, "--oracle")
    assert (code, out) == (2, "")
    assert err.startswith("internal inconsistency: ")
    # with the witness (8, 3, 1) the doubled bounds turn the flag off too,
    # but that class is not t*L_n + delta and the flags are not compared
    code, out, _ = run(capsys, "check", "--family", "k3n", "--n", "5",
                       "--d", "28", "--t", "8", "--oracle")
    assert code == 0 and "witness: a=8 b=3 e=1" in out
    assert "base point free on some component: no" in out


def test_check_human_golden(capsys):
    code, out, err = run(capsys, "check", "--family", "k3n", "--n", "17",
                         "--d", "48", "--t", "8", "--oracle")
    assert (code, err) == (0, "")
    assert out == (
        "query: family=k3n n=17 d=48 t=8\n"
        "non-empty: yes\n"
        "components: 2\n"
        "witness: a=8 b=1 e=1\n"
        "base point free on some component: no\n"
        "very ample on some component: no\n"
        "applies to all components: no\n"
        "note: tau = t^2/(2(t-1)) = 32/7\n"
        "note: base point free on some component iff d >= 464/7 (minimal "
        "integer d = 67); d = 48: not satisfied\n"
        "note: very ample on some component iff d >= 496/7 (minimal integer "
        "d = 71); d = 48: not satisfied\n"
        "note: component count used exact halving (rho = 0 case)\n"
        "oracle: agrees (witness found: yes; bounds a<=8 |b|<=16 e<=112)\n")
    code, out, err = run(capsys, "check", "--family", "kum", "--n", "5",
                         "--d", "10", "--t", "1")
    assert (code, err) == (0, "")
    assert out == (
        "query: family=kum n=5 d=10 t=1\n"
        "non-empty: yes\n"
        "components: 1\n"
        "witness: a=1 b=1 e=16\n"
        "base point free on some component: yes\n"
        "very ample on some component: yes\n"
        "applies to all components: yes\n"
        "note: t = 1: base point free on some component iff d >= 3\n"
        "note: very ample on some component iff d >= 9; d = 10: satisfied\n"
        "note: H^7 is very ample on the base point free component\n")
    code, out, err = run(capsys, "check", "--family", "kum", "--n", "3",
                         "--d", "1", "--t", "4", "--oracle")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:4] == ["query: family=kum n=3 d=1 t=4", "non-empty: no",
                         "components: 0", "witness: none"]
    assert lines[-1] == ("oracle: agrees (witness found: no; "
                         "bounds a<=4 |b|<=8 e<=17)")


# -------------------------------------------------------- errors and bounds

def test_usage_errors_exit_1(capsys):
    assert run(capsys, "check", "--family", "bad", "--n", "2", "--d", "1",
               "--t", "1")[0] == 1
    assert run(capsys, "check", "--family", "k3n", "--n", "2")[0] == 1
    assert run(capsys, "table", "--family", "k3n", "--n", "2",
               "--d-range", "5..1", "--t", "1")[0] == 1
    assert run(capsys, "table", "--family", "k3n", "--n", "2",
               "--d-range", "abc", "--t", "1")[0] == 1
    assert run(capsys, "table", "--family", "k3n", "--n", "2",
               "--d-range", "1..4", "--t", "0,2")[0] == 1
    code, out, err = run(capsys, "table", "--family", "k3n", "--n", "2",
                         "--d-range", "1..4", "--t", "1,x")
    assert (code, out) == (1, "")
    assert err.endswith(
        "hkmoduli table: error: argument --t: need a comma separated list "
        "of t >= 1, got '1,x'\n")
    assert run(capsys, "nosuchcommand")[0] == 1
    assert run(capsys)[0] == 1


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "check", "--family", "k3n", "--n", "1",
                       "--d", "1", "--t", "1")
    assert code == 1
    assert "error" in err
    code, _, _ = run(capsys, "kva", "--surface", "k3", "--a", "0", "--e", "1")
    assert code == 1


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "check", "--help")[0] == 0


def test_oracle_ignores_hk_oracle_bounds(capsys, monkeypatch):
    # The search always runs within the default bounds, which no wider
    # search could change the verdict of (oracle module docstring), so the
    # old HK_ORACLE_BOUNDS variable, valid or not, changes nothing.
    argvs = (["check", "--family", "k3n", "--n", "2", "--d", "3", "--t", "2",
              "--format", "json", "--oracle"],
             ["witness", "--family", "k3n", "--n", "2", "--d", "3", "--t",
              "2", "--oracle"])
    monkeypatch.delenv("HK_ORACLE_BOUNDS", raising=False)
    unset = [run(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in unset] == [0, 0]
    for value in ("5,50,500", "1,1,1", "1000,100000,1", "not,numbers"):
        monkeypatch.setenv("HK_ORACLE_BOUNDS", value)
        assert [run(capsys, *argv) for argv in argvs] == unset, value


def _no_search(*args, **kwargs):
    raise AssertionError("a refused oracle search must not start")


def test_oracle_refuses_large_t(capsys, monkeypatch):
    # default bounds at t: one multiple of t times (4 * t + 1); t = 62501
    # is the smallest t refused.  Both t are prime and divide 2m = 2t and
    # 2d = 2t, so the search would test its window.
    monkeypatch.setattr("hkmoduli.oracle.enumerate_witnesses", _no_search)
    for n, t, estimate in (("100004", "100003", "400013"),
                           ("62502", "62501", "250005")):
        for command in ("check", "witness"):
            code, out, err = run(capsys, command, "--family", "k3n",
                                 "--n", n, "--d", t, "--t", t, "--oracle")
            assert (code, out) == (1, "")
            assert err == (
                "hkmoduli: error: oracle search over its default bounds, "
                "a = %s and |b| <= %d, would scan 4*t + 1 = %s candidate "
                "pairs (a, b), above the cap of %d\n"
                % (t, 2 * int(t), estimate, oracle.ORACLE_MAX_CANDIDATES))
    # the cap is read from the oracle module when a search is asked for:
    # lowered to 4*7, it refuses t = 7 at d = 7, whose search holds 29 pairs
    monkeypatch.setattr(oracle, "ORACLE_MAX_CANDIDATES", 28)
    for command in ("check", "witness"):
        code, out, err = run(capsys, command, "--family", "k3n", "--n", "8",
                             "--d", "7", "--t", "7", "--oracle")
        assert (code, out) == (1, "")
        assert err.endswith("would scan 4*t + 1 = 29 candidate pairs (a, b), "
                            "above the cap of 28\n")


def test_oracle_answers_cells_it_skips_at_any_t(capsys):
    # t does not divide 2m (first argv) or 2d (second): the search tests no
    # pair there, so the cap does not apply and the oracle agrees that the
    # space is empty, however far above the cap 4*t + 1 lies
    for n, d, t in (("2", "1", "100000"), ("62502", "1", "62501")):
        for command in ("check", "witness"):
            code, out, err = run(capsys, command, "--family", "k3n", "--n",
                                 n, "--d", d, "--t", t, "--oracle")
            assert (code, err) == (0, "")
            assert "oracle: agrees" in out


def test_oracle_cap_counts_the_default_search(capsys, monkeypatch):
    # The refusal sizes the search as the pairs (max_a // t) * (2*max_b + 1)
    # of the default bounds, 4t + 1 at every t; at t = 62500, the largest t
    # under the cap, each query runs exactly one search, within exactly
    # those bounds.
    from hkmoduli.oracle import default_bounds

    for family in Family:
        for n in (2, 3, 17, 62501):
            for t in (1, 2, 7, 62500, 62501):
                b = default_bounds(ModuliQuery(family, n, 1, t))
                assert (b.max_a // t) * (2 * b.max_b + 1) == 4 * t + 1
    assert 4 * 62500 + 1 <= oracle.ORACLE_MAX_CANDIDATES < 4 * 62501 + 1
    searched = []

    def search(*args, **kwargs):
        searched.append((args, kwargs))
        return []

    monkeypatch.setattr("hkmoduli.oracle.enumerate_witnesses", search)
    # d = 1 is empty at t = 62500 (t must divide 2d), so no hit is consistent
    for command in ("check", "witness"):
        searched.clear()
        code, out, _ = run(capsys, command, "--family", "k3n", "--n",
                           "62501", "--d", "1", "--t", "62500", "--oracle")
        assert code == 0 and "oracle: agrees" in out
        [((q, bounds), kwargs)] = searched
        assert bounds == default_bounds(q) and kwargs == {}


def test_internal_inconsistency_exits_2(capsys, monkeypatch):
    def broken(q):
        raise InternalInconsistency("forced for the test")

    monkeypatch.setattr(cli, "report", broken)
    code, _, err = run(capsys, "check", "--family", "k3n", "--n", "2",
                       "--d", "3", "--t", "2")
    assert code == 2
    assert "internal inconsistency" in err


def _entry_env():
    # the environment of a `python -m hkmoduli` child: this checkout's
    # package first on its path, whether or not the package is installed
    import os
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src if not path else src + os.pathsep + path)


def _entry_point(*argv):
    # `python -m hkmoduli` in a fresh process, its stdout a pipe that the
    # caller reads and that the child buffers, as in a shell pipeline:
    # PYTHONUNBUFFERED would make every write meet a closed pipe at once
    import subprocess

    env = _entry_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "hkmoduli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)


def test_module_entry_point():
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-m", "hkmoduli", "witness", "--family", "k3n",
         "--n", "2", "--d", "3", "--t", "2"],
        capture_output=True, text=True, env=_entry_env())
    assert proc.returncode == 0
    assert proc.stdout == "witness: a=2 b=1 e=1\n"
    # a fresh process, so --oracle imports the oracle module itself
    proc = subprocess.run(
        [sys.executable, "-m", "hkmoduli", "check", "--family", "k3n",
         "--n", "2", "--d", "3", "--t", "2", "--format", "json", "--oracle"],
        capture_output=True, text=True, env=_entry_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["oracle"] == {
        "bounds": {"max_a": 2, "max_b": 4, "max_e": 7},
        "witness_found": True, "agrees": True}
    # and with sys.argv read by main itself: a trailing argument is refused
    # by the top-level parser, as parse_args refuses it
    proc = subprocess.run(
        [sys.executable, "-m", "hkmoduli", "check", "--family", "k3n",
         "--n", "2", "--d", "3", "--t", "2", "extra"],
        capture_output=True, text=True, env=_entry_env())
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("usage: hkmoduli [-h]")
    assert proc.stderr.endswith(
        "hkmoduli: error: unrecognized arguments: extra\n")


@pytest.mark.parametrize("fmt", ["csv", "human"])
def test_closed_pipe_exits_1_quietly(fmt):
    # `... | head -2`: the reader leaves after the first line of a table
    # far larger than the pipe holds, so a later write meets a closed pipe
    proc = _entry_point("table", "--family", "k3n", "--n", "5", "--d-range",
                        "1..200000", "--t", "1,2,4,8", "--format", fmt)
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_pipe_closed_before_the_first_write_exits_1_quietly():
    # a short answer is written only when main flushes it, after the reader
    # has gone: that flush, not the interpreter's last one, meets the pipe
    proc = _entry_point("check", "--family", "k3n", "--n", "2", "--d", "3",
                        "--t", "2")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("argv, code", [
    (["check", "--family", "k3n", "--n", "1", "--d", "1", "--t", "1"], 1),
    (["check", "--family", "k3n", "--n", "2", "--d", "3", "--t", "2"], 2),
])
def test_closed_stderr_returns_the_exit_code(argv, code):
    # The reader of stderr has gone before main writes its message (the read
    # end of the pipe is closed before the child starts).  main still returns
    # its code, writing nothing to stdout: the child prints what main
    # returned.  The second query is made inconsistent by forcing every
    # count to 0.
    import os
    import subprocess

    child = ("import sys\n"
             "from hkmoduli import cli, moduli\n"
             "moduli._count_detail = lambda dec, t: (0, None, False)\n"
             "print(cli.main(sys.argv[1:]))\n")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-c", child, *argv],
                              stdout=subprocess.PIPE, stderr=write,
                              env=_entry_env(), timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stdout) == (0, b"%d\n" % code)
