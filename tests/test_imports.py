"""What each command imports, and the lazy package's public surface.

Every name a module imports is used in it (``from __future__`` aside).

``import microloc`` loads no submodule and not numpy; each submodule loads
on first use. A command run through ``cli.main`` in a fresh interpreter
loads the modules it runs and no other. The package resolves every name of
``__all__`` to its submodule's own object.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import microloc
from microloc import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(microloc.__file__)))

# each public name's submodule, as the package imported them all up front
PUBLIC = {
    "errors": ("MicrolocError",),
    "model": ("RssiSample", "Trace", "load_trace", "save_trace"),
    "ranging": ("PathLossModel", "distance_to_rssi", "rssi_to_distance"),
    "filters": ("KalmanParams", "KalmanState", "default_params", "smooth_trace",
                "smooth_trace_dynamic"),
    "position": ("Anchor", "Method", "PositionEstimate", "Zone", "classify_proximity",
                 "fingerprint_build", "fingerprint_locate", "proximity_region", "tdoa_locate",
                 "triangulate", "trilaterate"),
    "codec": ("BeaconFrame", "decode", "encode", "measured_power"),
    "sim": ("Scenario", "SimConfig", "ranging_experiment", "simulate"),
    "evaluate": ("ErrorReport", "accuracy", "error_histogram", "precision", "ranging_report"),
}

# Run in a fresh interpreter: the code in argv[1], then print the microloc
# submodules loaded and whether numpy is.
_PROBE = """
import json, sys
exec(sys.argv[1])
print(json.dumps([sorted(m[len("microloc."):] for m in sys.modules if m.startswith("microloc.")),
                  "numpy" in sys.modules]))
"""


def _loaded(code: str, cwd: str) -> tuple[set[str], bool]:
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", _PROBE, code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules, numpy = json.loads(done.stdout.splitlines()[-1])
    return set(modules), numpy


def test_importing_the_package_loads_no_submodule_and_not_numpy(tmp_path):
    assert _loaded("import microloc", str(tmp_path)) == (set(), False)
    assert _loaded("import microloc; microloc.__version__", str(tmp_path)) == (set(), False)
    assert _loaded("import microloc.cli", str(tmp_path)) == ({"cli", "errors"}, False)


def _inputs(tmp_path) -> dict[str, str]:
    scenario = tmp_path / "scenario.json"
    beacons = [{"beacon_id": b, "x": x, "y": y, "tx_power_dbm": -59.0}
               for b, x, y in (("b0", 0.0, 0.0), ("b1", 8.0, 0.0), ("b2", 0.0, 8.0))]
    scenario.write_text(json.dumps({"beacons": beacons,
                                    "device_path": [{"start_ms": 0, "x": 2.0, "y": 1.0}]}))
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps(beacons))
    trace = tmp_path / "trace.csv"
    assert cli.main(["--set", "duration_ms=2000", "simulate", str(scenario), str(trace)]) == 0
    db = tmp_path / "db.json"
    db.write_text(json.dumps({"metric": "euclidean", "entries": [
        {"x": 0.0, "y": 0.0, "signature": {"b0": -60.0, "b1": -70.0}},
        {"x": 5.0, "y": 5.0, "signature": {"b0": -70.0, "b1": -60.0}}]}))
    return {"scenario": str(scenario), "anchors": str(anchors), "trace": str(trace),
            "db": str(db), "out": str(tmp_path / "out")}


# command line -> the submodules it loads, cli and errors included
COMMANDS = {
    "help": (["--help"], {"cli", "errors"}),
    "filter-static": (["filter", "{trace}", "{out}.csv"], {"cli", "errors", "model", "filters"}),
    "filter-dynamic": (["filter", "--mode", "dynamic", "{trace}", "{out}.json"],
                       {"cli", "errors", "model", "filters"}),
    "locate-lateration": (["locate", "{trace}", "{anchors}", "{out}.json"],
                          {"cli", "errors", "model", "position", "ranging"}),
    "locate-tdoa": (["locate", "--method", "tdoa", "{trace}", "{anchors}", "{out}.json"],
                    {"cli", "errors", "model", "position", "ranging"}),
    "locate-proximity": (["locate", "--method", "proximity", "{trace}", "{anchors}", "{out}.json"],
                         {"cli", "errors", "model", "position", "ranging"}),
    # a fingerprint fix ranges nothing
    "locate-fingerprint": (["locate", "--method", "fingerprint", "{trace}", "{db}", "{out}.json"],
                           {"cli", "errors", "model", "position"}),
    "simulate": (["--set", "duration_ms=2000", "simulate", "{scenario}", "{out}.csv"],
                 {"cli", "errors", "model", "position", "ranging", "rng", "sim"}),
    "decode": (["decode", "4c00021500112233445566778899aabbccddeeff00010002c5"],
               {"cli", "errors", "codec", "model"}),
    "reproduce": (["--set", "duration_ms=1000", "reproduce", "{out}", "--sweep-window", "2"],
                  {"cli", "errors", "model", "ranging", "filters", "position", "rng", "sim",
                   "evaluate"}),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(command, tmp_path):
    argv, expected = COMMANDS[command]
    argv = [arg.format(**_inputs(tmp_path)) for arg in argv]
    code = (f"from microloc import cli\nimport contextlib, io\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0")
    modules, _ = _loaded(code, str(tmp_path))
    assert modules == expected


def test_every_public_name_is_its_submodules_object():
    assert set(microloc.__all__) == {name for names in PUBLIC.values() for name in names} | {
        "__version__"}
    for module, names in PUBLIC.items():
        submodule = importlib.import_module(f"microloc.{module}")
        for name in names:
            assert getattr(microloc, name) is getattr(submodule, name), name
            assert vars(microloc)[name] is getattr(submodule, name)  # bound on first lookup
    assert set(microloc.__all__) <= set(dir(microloc))


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from microloc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(microloc.__all__)


def test_submodules_are_attributes_and_unknown_names_raise():
    assert microloc.sim is importlib.import_module("microloc.sim")
    assert {"cli", "codec", "model", "rng"} <= set(dir(microloc))
    with pytest.raises(AttributeError, match=r"^module 'microloc' has no attribute 'nope'$"):
        microloc.nope  # noqa: B018
    assert microloc.__version__ == "0.1.0"


def _unused_imports(path: str) -> list[str]:
    """The names an import in the module at path binds that no name in it reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # "import a.b" binds a
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_imported_name_is_used():
    package = os.path.dirname(microloc.__file__)
    unused = {name: _unused_imports(os.path.join(package, name))
              for name in sorted(os.listdir(package)) if name.endswith(".py")}
    assert {name: names for name, names in unused.items() if names} == {}
