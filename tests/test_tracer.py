"""The benchmark's span tracer (perfbench/tracer.py) binds each mbnsim name
it wraps exactly once. `install` rebinds module and class attributes for the
whole process, so it runs in a child interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL_AND_INSPECT = """
import inspect, json, sys
import mbnsim.cli  # loads every mbnsim module
import tracer
from mbnsim import nets

tracer.install(tracer.Tracer("desk_train"))

def is_wrapper(obj):
    code = getattr(obj, "__code__", None)
    return code is not None and code.co_filename == tracer.__file__

wrapped, twice = [], []
for name, module in sorted(sys.modules.items()):
    if name != "mbnsim" and not name.startswith("mbnsim."):
        continue
    found = list(vars(module).items())
    for cls_name, cls in list(found):
        if inspect.isclass(cls) and cls.__module__ == name:
            found += [(f"{cls_name}.{attr}", value)
                      for attr, value in vars(cls).items()]
    for attr, value in found:
        if is_wrapper(value):
            wrapped.append(f"{name}.{attr}")
            if is_wrapper(value.__wrapped__):
                twice.append(f"{name}.{attr}")

print(json.dumps({
    "wrapped": wrapped,
    "twice": twice,
    "base_wrapped": [attr for attr in ("forward", "backward")
                     if is_wrapper(vars(nets._Network)[attr])],
    "subclass_inner_is_base": [
        getattr(cls, attr).__wrapped__ is vars(nets._Network)[attr]
        for cls in (nets.QNetwork, nets.DuelingQNetwork)
        for attr in ("forward", "backward")],
}))
"""


def test_install_wraps_each_name_once_and_leaves_the_trunk_unwrapped():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", INSTALL_AND_INSPECT],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert "mbnsim.nets.QNetwork.forward" in report["wrapped"]
    assert "mbnsim.nets.DuelingQNetwork.backward" in report["wrapped"]
    assert "mbnsim.nets.AdamOptimizer.step" in report["wrapped"]
    assert report["twice"] == []
    assert report["base_wrapped"] == []
    assert report["subclass_inner_is_base"] == [True] * 4
