import importlib
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hkmoduli
from hkmoduli.lattice import Family, rank3_model
from hkmoduli.moduli import ModuliQuery, decompose, report, thresholds

SRC = Path(hkmoduli.__file__).resolve().parent.parent


def _modules_loaded_by(statement):
    # A fresh interpreter started with -S, so that no site package preloads
    # anything: what is in sys.modules afterwards is start-up plus what the
    # statement imported.  With -c, the working directory (src/) comes first
    # on sys.path.  The module names are the last line of the output.
    code = "import sys\n%s\nprint(' '.join(sys.modules))" % statement
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=SRC,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


# ------------------------------------------------------------ import hygiene

HEAVY = ("logging", "dataclasses", "fractions", "json", "csv", "argparse",
         "gettext", "hkmoduli.bundles", "hkmoduli.oracle", "hkmoduli.lattice")


def test_cli_import_leaves_unused_modules_out():
    loaded = _modules_loaded_by("import hkmoduli.cli")
    assert "hkmoduli.cli" in loaded
    assert [name for name in HEAVY if name in loaded] == []


def test_plain_check_loads_no_argparse_oracle_or_bundles():
    loaded = _modules_loaded_by(
        "from hkmoduli import cli\n"
        "assert cli.main(['check', '--family', 'k3n', '--n', '10', '--d',"
        " '27', '--t', '3', '--format', 'json']) == 0")
    assert "hkmoduli.cli" in loaded
    assert [name for name in ("argparse", "gettext", "hkmoduli.oracle",
                              "hkmoduli.bundles", "hkmoduli.lattice")
            if name in loaded] == []


def test_moduli_imports_arith_alone():
    # the calculator's chain is arith -> moduli -> cli: moduli holds the
    # families and the class check itself and imports no checker
    loaded = _modules_loaded_by("import hkmoduli.moduli")
    assert sorted(m for m in loaded if m.startswith("hkmoduli.")) == [
        "hkmoduli.arith", "hkmoduli.moduli"]


def test_plain_table_and_kva_load_no_argparse():
    loaded = _modules_loaded_by(
        "from hkmoduli import cli\n"
        "assert cli.main(['table', '--family', 'kum', '--n', '3', '--d-range',"
        " '1..5', '--t', '1,2,', '--format', 'csv']) == 0\n"
        "assert cli.main(['kva', '--surface', 'k3', '--a', '1', '--e', '4',"
        " '--n', '3']) == 0")
    assert "hkmoduli.bundles" in loaded
    assert [name for name in ("argparse", "gettext") if name in loaded] == []


def test_report_loads_no_fractions_logging_or_dataclasses():
    loaded = _modules_loaded_by(
        "from hkmoduli.moduli import Family, ModuliQuery, report\n"
        "report(ModuliQuery(Family.K3HILB, 10, 27, 3))")
    assert "hkmoduli.moduli" in loaded
    assert [name for name in ("logging", "dataclasses", "fractions")
            if name in loaded] == []


def test_bare_package_import_loads_no_submodule():
    loaded = _modules_loaded_by("import hkmoduli")
    assert "hkmoduli" in loaded
    assert sorted(m for m in loaded if m.startswith("hkmoduli.")) == []


# ----------------------------------------------------------- lazy namespace

def test_every_exported_name_is_its_submodule_object():
    assert len(hkmoduli.__all__) == len(set(hkmoduli.__all__))
    for name in hkmoduli.__all__:
        obj = getattr(hkmoduli, name)
        assert obj.__module__.startswith("hkmoduli."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from hkmoduli import *", namespace)
    for name in hkmoduli.__all__:
        assert namespace[name] is getattr(hkmoduli, name), name


def test_submodule_exports_are_defined_in_their_submodule():
    # a name deleted from a submodule but left in its __all__ fails the star
    # import; a name the submodule only re-exports fails the __module__ check
    subs = [info.name for info in pkgutil.iter_modules(hkmoduli.__path__)
            if not info.name.startswith("_")]
    assert {"arith", "lattice", "moduli", "oracle", "cli"} <= set(subs)
    for sub in subs:
        module = importlib.import_module("hkmoduli." + sub)
        namespace = {}
        exec("from hkmoduli.%s import *" % sub, namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), (sub, name)
            assert namespace[name].__module__ == module.__name__, (sub, name)


def test_submodules_resolve_as_attributes():
    for name in ("arith", "lattice", "bundles", "moduli", "oracle"):
        assert getattr(hkmoduli, name) is sys.modules["hkmoduli." + name]
    assert set(hkmoduli.__all__) <= set(dir(hkmoduli))
    # here every submodule is already bound on the package; in a fresh
    # interpreter none is, so the name goes through the package __getattr__
    loaded = _modules_loaded_by(
        "import hkmoduli\n"
        "assert 'oracle' not in vars(hkmoduli)\n"
        "assert hkmoduli.oracle is sys.modules['hkmoduli.oracle']")
    assert "hkmoduli.oracle" in loaded


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hkmoduli.no_such_name
    assert not hasattr(hkmoduli, "main")
    with pytest.raises(ImportError):
        exec("from hkmoduli import no_such_name", {})


# ------------------------------------------------------------- immutability

def test_result_types_reject_assignment():
    q = ModuliQuery(Family.K3HILB, 10, 27, 3)
    th = thresholds(q)
    lat = rank3_model(Family.KUMMER, 3)
    assert lat._fields == ("gram", "terms")
    for value in (decompose(q), th, report(q), lat):
        for field in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
    with pytest.raises(AttributeError):
        th.tau = Fraction(1)
    assert th.tau == Fraction(9, 4)


def test_result_types_are_tuples():
    # the API change from frozen dataclasses: equal to plain tuples, iterable
    q = ModuliQuery(Family.K3HILB, 10, 27, 3)
    rep = report(q)
    assert tuple(rep) == rep
    dec = decompose(q)
    assert dec == (18, 3, 1, 6, 3, 2, 1, 1, 3)
    assert thresholds(q).t == 3
    assert thresholds(ModuliQuery(Family.KUMMER, 4, 5, 1)).tau is None
