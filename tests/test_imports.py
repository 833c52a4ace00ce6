"""The package loads its layers on first use: the public names, and what each entry point imports.

Import footprints are read in a fresh interpreter, so that the modules this
test process already holds do not count.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import weylipse

PUBLIC = [
    "BadIndexSetError",
    "CapExceededError",
    "CartanData",
    "ComputationError",
    "DEFAULT_EXPAND_CAP",
    "DEFAULT_TABLE_CAP",
    "DimensionMismatchError",
    "GroupTable",
    "IndexOutOfRangeError",
    "InvariantError",
    "LieTypeSpec",
    "MalformedFormError",
    "NotAMultipleError",
    "NotARootError",
    "NotASolutionError",
    "NotInMainOrbitError",
    "NotOnEllipsoidError",
    "OrbitRecord",
    "P_map",
    "Poset",
    "QuadForm",
    "RankOutOfRangeError",
    "ReducedWordSet",
    "Root",
    "S_map",
    "UnknownFamilyError",
    "UsageError",
    "WeylElement",
    "WeylipseError",
    "apply_T",
    "bilinear",
    "bruhat_from_primary",
    "bruhat_from_subwords",
    "build_cartan",
    "build_group_table",
    "element_from_pvector",
    "emit_dot",
    "enumerate_secondary_nonneg",
    "expand_orbit",
    "first_letters",
    "grade",
    "h_vector",
    "orbit_seeds",
    "orbit_size",
    "p_alpha_b",
    "parabolic_order",
    "parse_type",
    "positive_roots",
    "primary_form",
    "primary_poset",
    "reduced_words",
    "secondary_form",
    "star",
    "weyl_order",
    "word_to_element",
]

BASE = ["weylipse", "weylipse.cartan", "weylipse.errors", "weylipse.exact"]
CLI = BASE + ["weylipse.cli"]
ALL_LAYERS = ["quadrics", "orbits", "weyl", "ordering", "verify", "oracles"]

LIBRARY_USE = """
import sys
import weylipse
{}
print(sorted(m for m in sys.modules if m.split(".")[0] == "weylipse"))
"""

CLI_USE = """
import contextlib, io, json, sys
from weylipse.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "weylipse")]))
"""


def fresh_python(code, *argv):
    src = os.path.dirname(os.path.dirname(weylipse.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def layers(*names):
    return [f"weylipse.{name}" for name in names]


def test_public_names_are_unchanged():
    assert sorted(weylipse.__all__) == PUBLIC
    assert weylipse.__version__ == "0.1.0"


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_is_its_home_modules_object(name):
    home = import_module(f"weylipse.{weylipse._HOME[name]}")
    obj = getattr(weylipse, name)
    assert obj is getattr(home, name)
    if inspect.isfunction(obj) or inspect.isclass(obj):
        assert obj.__module__ == home.__name__


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from weylipse import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert set(PUBLIC) <= set(dir(weylipse))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        weylipse.no_such_name
    assert not hasattr(weylipse, "_HOME_of_nothing")


@pytest.mark.parametrize(
    "call, loaded",
    [
        ("", ["weylipse"]),
        ('weylipse.build_cartan(weylipse.parse_type("E8"))', BASE),
        ("weylipse.DEFAULT_TABLE_CAP", ["weylipse", "weylipse.errors"]),
    ],
)
def test_the_library_loads_only_what_it_calls(call, loaded):
    assert fresh_python(LIBRARY_USE.format(call)) == f"{loaded}\n"


COMMAND_LAYERS = [
    (["info", "F4"], []),
    (["primary-eq", "E8"], ["quadrics"]),
    (["secondary-eq", "E8", "--json"], ["quadrics"]),
    (["orbits", "A3"], ["quadrics", "orbits"]),
    (["expand", "B2"], ["quadrics", "orbits"]),
    (["realize", "A3", "--word", "1,2"], ["quadrics", "weyl"]),
    (["reduced-words", "A3", "--pvector", "3,4,3"], ["quadrics", "weyl", "ordering"]),
    (["bruhat", "A2", "--method", "subword"], ["quadrics", "weyl", "ordering"]),
    (["verify", "A2"], ALL_LAYERS),
]


@pytest.mark.parametrize("argv, loaded", COMMAND_LAYERS)
def test_each_command_loads_only_its_layers(argv, loaded):
    code, modules = json.loads(fresh_python(CLI_USE, *argv))
    assert code == 0
    assert modules == sorted(CLI + layers(*loaded))


# Cartan data is integer and no module of the package imports `fractions`, so
# neither it nor `decimal`, which it imports, loads for any command
NO_FRACTIONS = ["fractions", "decimal"]
CENSUS_TYPES = ["A9", "B8", "C8", "D9", "E8", "E8xA1", "E7xA2", "E6xA3"]


def test_building_cartan_data_loads_no_fractions():
    call = "\n".join(f'weylipse.build_cartan(weylipse.parse_type("{t}"))' for t in CENSUS_TYPES)
    code = LIBRARY_USE.format(call).replace(
        'm.split(".")[0] == "weylipse"', f"m in {NO_FRACTIONS}"
    )
    assert fresh_python(code) == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["orbits", "E8"],
        ["primary-eq", "E8"],
        ["expand", "B3"],
        ["realize", "E8", "--word", "1,2"],
        ["info", "F4"],
        ["verify", "B2"],
    ],
)
def test_integer_commands_load_no_fractions(argv):
    code = CLI_USE.replace('m.split(".")[0] == "weylipse"', f"m in {NO_FRACTIONS}")
    assert json.loads(fresh_python(code, *argv)) == [0, []]


# records are named tuples, so nothing loads `dataclasses`, nor `inspect` with
# it; `json` loads only for the commands that print JSON, so CLI_WATCH, unlike
# CLI_USE, imports no `json` of its own
WATCHED = ["dataclasses", "inspect", "json"]

CLI_WATCH = """
import contextlib, io, sys
from weylipse.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print([code, sorted(m for m in sys.modules if m in {})])
"""


def test_building_cartan_data_loads_no_dataclasses():
    call = "\n".join(f'weylipse.build_cartan(weylipse.parse_type("{t}"))' for t in CENSUS_TYPES)
    code = LIBRARY_USE.format(call).replace('m.split(".")[0] == "weylipse"', f"m in {WATCHED}")
    assert fresh_python(code) == "[]\n"


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in COMMAND_LAYERS] + [["orbits", "E8", "--csv"]], ids=" ".join
)
def test_commands_load_no_dataclasses_and_json_only_to_print_it(argv):
    expected = ["json"] if "--json" in argv else []
    out = fresh_python(CLI_WATCH.format(WATCHED), *argv)
    assert ast.literal_eval(out) == [0, expected]


def test_no_module_imports_fractions():
    package = os.path.dirname(weylipse.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    assert all(a.name.split(".")[0] != "fractions" for a in node.names), name
                elif isinstance(node, ast.ImportFrom):
                    assert node.module != "fractions", name


@pytest.mark.parametrize("folder", ["src/weylipse", "scripts"])
def test_sources_parse_as_python_3_10(folder):
    # pyproject.toml declares requires-python >= 3.10: no file may need newer grammar
    directory = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), folder)
    names = sorted(name for name in os.listdir(directory) if name.endswith(".py"))
    assert names
    for name in names:
        with open(os.path.join(directory, name)) as f:
            ast.parse(f.read(), filename=name, feature_version=(3, 10))


WALK_KERNELS = ["_t_step", "_strip_descents", "ascend", "_t_walk"]
# the layers that step by the walk, and the kernels each one imports, in WALK_KERNELS order
WALK_USERS = {
    "quadrics": [],
    "weyl": ["_strip_descents", "ascend", "_t_walk"],
    "orbits": ["_strip_descents", "ascend"],
    "ordering": ["_t_step", "_t_walk"],
}


def test_the_walk_kernels_are_defined_once_in_cartan():
    # "add h_i to x_i, move h by column i of A", and the T-walk of a word that
    # carries no h, are written in one module; the layers that walk hold
    # cartan's objects themselves, with no re-export
    package = os.path.dirname(weylipse.__file__)
    defined = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in WALK_KERNELS:
                    defined.setdefault(node.name, []).append(name)
    assert defined == {kernel: ["cartan.py"] for kernel in WALK_KERNELS}
    cartan = import_module("weylipse.cartan")
    for layer, kernels in WALK_USERS.items():
        module = import_module(f"weylipse.{layer}")
        assert [k for k in WALK_KERNELS if hasattr(module, k)] == kernels, layer
        for kernel in kernels:
            assert getattr(module, kernel) is getattr(cartan, kernel), (layer, kernel)
        assert not set(WALK_KERNELS) & set(getattr(module, "__all__", ())), layer
