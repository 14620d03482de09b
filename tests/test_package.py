"""The public API of the ttckit package, whose names load on first use.

ttckit.simulate names two things: the submodule and the public function.
The function must win however the submodule came to be imported.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ttckit
from ttckit import CameraIntrinsics, Scenario, SceneObject
from ttckit.fileio import write_scenario

SRC = Path(__file__).resolve().parent.parent / "src"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ttckit import *", namespace)
    assert set(ttckit.__all__) <= set(namespace)
    for name in ttckit.__all__:
        value = namespace[name]
        assert value is getattr(importlib.import_module(value.__module__), name)


def test_dir_lists_every_public_name():
    assert set(ttckit.__all__) <= set(dir(ttckit))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ttckit.no_such_name
    assert not hasattr(ttckit, "__no_such_dunder__")


def test_submodules_reachable_as_attributes():
    assert ttckit.stereo is importlib.import_module("ttckit.stereo")
    assert ttckit.fileio is importlib.import_module("ttckit.fileio")


def test_simulate_is_the_function():
    simulate_module = importlib.import_module("ttckit.simulate")
    assert inspect.isfunction(ttckit.simulate)
    assert ttckit.simulate is simulate_module.simulate


# each runs in a fresh interpreter, where it is the first to import ttckit.simulate
@pytest.mark.parametrize("first", [
    "import ttckit.simulate",
    "import ttckit; ttckit.GroundTruth",
    "from ttckit.fileio import read_scenario; read_scenario(sys.argv[1])",
])
def test_simulate_stays_the_function_after_the_submodule_loads(first, tmp_path):
    scene = tmp_path / "scene.json"
    write_scenario(scene, Scenario(
        intrinsics=CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0)),
        objects=(SceneObject("a", np.array([[1.0, 0.5, 20.0]]), np.array([0.1, 0.0, -1.0])),),
        camera_velocity=np.zeros(3), frame_count=3,
    ))
    probe = f"""
import inspect, json, sys
assert "ttckit.simulate" not in sys.modules
{first}
assert "ttckit.simulate" in sys.modules
import ttckit
from ttckit import simulate
print(json.dumps([inspect.isfunction(ttckit.simulate), simulate is sys.modules["ttckit.simulate"].simulate]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe, str(scene)], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [True, True]
