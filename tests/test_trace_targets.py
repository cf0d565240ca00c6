"""Every call the benchmark's traced run wraps still exists.

perfbench/layers.py names its targets as `module:dotted.attribute`. A target
that no longer resolves drops its per-layer metric without failing the run,
so a rename must fail here instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _resolves(path: str) -> bool:
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_every_trace_target_resolves(monkeypatch):
    layers = _load_layers(monkeypatch)
    assert layers.TARGETS
    missing = [t.path for t in layers.TARGETS if not _resolves(t.path)]
    assert missing == []
