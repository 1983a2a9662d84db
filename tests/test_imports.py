"""What importing the package loads, checked in fresh interpreters.

Every package ``__init__`` re-exports its names lazily
(:func:`repro.lazy_exports`), so a process compiles only the modules its
run uses.  These tests pin the layering that makes that possible and the
re-exports that keep ``from repro import X`` working.
"""

import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import repro

#: the simulator's layers: they import nothing from the layers above
LOW = ("isa", "machine", "cache", "timing", "core")
#: the layers built on the simulator
HIGH = ("analysis", "obs", "profiling", "harness", "exec", "autoconvert",
        "workloads")

PACKAGES = ["repro"] + [f"repro.{name}" for name in LOW + HIGH]


def fresh(code: str):
    """Run ``code`` in a fresh interpreter; the JSON its last line prints."""
    output = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True)
    return json.loads(output.stdout.splitlines()[-1])


def loaded_by(code: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    return set(fresh(code + (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules"
        " if m.split('.')[0] == 'repro']))\n")))


def in_layers(modules, layers) -> list:
    return sorted(m for m in modules
                  if "." in m and m.split(".")[1] in layers)


def modules_of(package: str) -> list:
    path = importlib.import_module(package).__path__
    return [info.name
            for info in pkgutil.walk_packages(path, prefix=package + ".")]


@pytest.mark.parametrize("layer", LOW)
def test_a_low_layer_loads_no_higher_layer(layer):
    loaded = loaded_by(
        "import importlib, pkgutil\n"
        f"import repro.{layer} as package\n"
        "for info in pkgutil.walk_packages(package.__path__,"
        " prefix=package.__name__ + '.'):\n"
        "    importlib.import_module(info.name)\n")
    assert set(modules_of(f"repro.{layer}")) <= loaded
    assert in_layers(loaded, HIGH) == []


def test_importing_repro_loads_no_subpackage():
    assert loaded_by("import repro") == {"repro"}


def test_the_harness_loads_no_reporting_or_analysis():
    loaded = loaded_by(
        "import repro.harness.experiments, repro.harness.runner")
    unused = {"repro.analysis", "repro.autoconvert", "repro.harness.cli",
              "repro.machine.debugger"} | {
        f"repro.obs.{name}" for name in (
            "flame", "history", "trends", "causality", "report", "ctrace",
            "timeline", "status")}
    assert "repro.harness.runner" in loaded
    assert sorted(loaded & unused) == []


def test_an_exact_profile_loads_no_obs():
    assert in_layers(loaded_by("import repro.profiling.report"),
                     ("obs",)) == []


#: run in a fresh interpreter per package: resolves every name in
#: ``__all__`` cold through ``from package import name`` and prints the
#: names whose object is not the one their defining module holds, or
#: that ``dir(package)`` leaves out
REEXPORTS = """\
import importlib, json, pkgutil
package = importlib.import_module({package!r})
modules = [info.name for info in pkgutil.walk_packages(
    package.__path__, prefix=package.__name__ + ".")]
wrong = []
for name in package.__all__:
    scope = {{}}
    exec(f"from {package} import {{name}} as value", scope)
    value = scope["value"]
    if name not in dir(package):
        wrong.append(name)
    if name == "__version__":  # defined in the package itself
        continue
    home = getattr(value, "__module__", None)
    homes = [home] if home in modules else modules
    if not any(getattr(importlib.import_module(module), name, None)
               is value for module in homes):
        wrong.append(name)
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_its_defining_modules_object(package):
    assert fresh(REEXPORTS.format(package=package)) == []


def test_a_name_shared_with_a_submodule_stays_the_function():
    assert fresh(
        "import importlib, json\n"
        "module = importlib.import_module('repro.autoconvert.synthesize')\n"
        "from repro.autoconvert import synthesize\n"
        "print(json.dumps(synthesize is module.synthesize))\n")


def test_an_unknown_name_raises():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope
    with pytest.raises(ImportError):
        exec("from repro.machine import nope", {})
