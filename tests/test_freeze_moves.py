"""tools/freeze_moves.py still derives the committed standard_moves.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_freeze_tool_reproduces_standard_moves():
    spec = importlib.util.spec_from_file_location("freeze_moves", ROOT / "tools" / "freeze_moves.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.module_text() == (ROOT / "src" / "fanoweb" / "standard_moves.py").read_text()
