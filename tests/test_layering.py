"""The package layering, checked in a fresh interpreter.

``repro.placement`` is the core; ``repro.serving`` sits on it, and
``repro.scheduling.dynamic`` and ``repro.sharding`` sit on serving.
Importing a lower layer must not load a higher one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def _loaded_after_import(module: str) -> list[str]:
    code = (
        "import json, sys\n"
        f"import {module}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("repro.placement", ("repro.serving", "repro.scheduling", "repro.sharding")),
        ("repro.serving", ("repro.scheduling",)),
    ],
)
def test_lower_layer_loads_no_higher_layer(module, forbidden):
    loaded = _loaded_after_import(module)
    assert module in loaded
    leaks = [
        name
        for name in loaded
        if any(name == f or name.startswith(f + ".") for f in forbidden)
    ]
    assert leaks == []
