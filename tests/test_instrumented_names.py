"""The names the benchmark instruments exist in fuzznorm.

``perfbench/instrument.py`` wraps the functions listed in ``SPANNED``
and counts calls to ``ChainTable.__call__`` and ``Connective.__call__``
by name. A refactor that renames or deletes one of them would otherwise
break only the traced benchmark run; this reads those names from the
benchmark and resolves each one, changing nothing.
"""

import importlib
import importlib.util
from pathlib import Path
from types import FunctionType

import pytest

INSTRUMENT = Path(__file__).resolve().parent.parent / "perfbench" / "instrument.py"


def _spanned() -> dict:
    spec = importlib.util.spec_from_file_location("bench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED


@pytest.mark.parametrize("layer, path", [
    (layer, path) for layer, paths in _spanned().items() for path in paths])
def test_spanned_name_resolves(layer, path):
    owner = importlib.import_module(f"fuzznorm.{layer}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert isinstance(owner, FunctionType)


@pytest.mark.parametrize("module, cls", [("tables", "ChainTable"),
                                         ("connectives", "Connective")])
def test_counted_call_resolves(module, cls):
    owner = getattr(importlib.import_module(f"fuzznorm.{module}"), cls)
    assert isinstance(vars(owner).get("__call__"), FunctionType)
