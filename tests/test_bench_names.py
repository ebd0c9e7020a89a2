"""The benchmark's dotted names resolve against this checkout's package.

`bench/workloads.py` names the functions each workload calls and
`bench/layers.py` the functions each traced stage wraps.  A name that no
longer resolves makes a workload's items fail or a stage go missing, so a
move inside the package that would break the benchmark fails here first.
The two files are read and executed as they are, not imported, so no
bytecode is written next to them.
"""

import types
from pathlib import Path

import hkmoduli
from hkmoduli import moduli

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    path = ROOT / "bench" / (name + ".py")
    module = types.ModuleType("bench_" + name)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


layers = _load("layers")
workloads = _load("workloads")


def test_package_comes_from_this_checkout():
    package = Path(hkmoduli.__file__).resolve().parent
    assert package == ROOT / "src" / "hkmoduli"


def test_every_workload_api_name_resolves():
    assert sorted(workloads.WORKLOADS) == ["check", "gram", "table", "verify"]
    for workload in workloads.WORKLOADS.values():
        for entry in workload.api:
            candidates = (entry,) if isinstance(entry, str) else entry
            obj, _ = layers.resolve(candidates)
            assert obj is not None, (workload.name, candidates)


def test_every_stage_has_a_candidate_that_resolves():
    assert layers.STAGES
    for name, candidates, _ in layers.STAGES:
        obj, _ = layers.resolve(candidates)
        assert obj is not None, name


def test_lattice_family_is_the_family_of_moduli():
    # verify and gram build their queries from hkmoduli.lattice.Family
    obj, where = layers.resolve(("hkmoduli.lattice.Family",))
    assert (obj, where) == (moduli.Family, "hkmoduli.lattice.Family")
