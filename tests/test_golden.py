"""Re-deriving the golden files reproduces them byte for byte."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_refreeze_is_byte_identical(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "freeze_golden", ROOT / "scripts" / "freeze_golden.py"
    )
    freeze = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(freeze)
    monkeypatch.setattr(freeze, "GOLDEN", tmp_path)
    assert freeze.main() == 0
    frozen = sorted(p.name for p in (ROOT / "golden").glob("*.json"))
    assert len(frozen) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == frozen
    for name in frozen:
        assert (tmp_path / name).read_bytes() == (ROOT / "golden" / name).read_bytes(), name
