"""Reproduction scripts: each runs end to end and writes the files it lists."""

import importlib.util
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, files", [
    ("run_experiments", ["sweep_p.csv", "sweep_vol.csv", "sweep_na.csv",
                         "hybrid_mc.json", "candle_mc.json"]),
    ("make_figures", ["beta_schedule.svg", "beta_schedule.csv",
                      "uniform_single.svg", "uniform_single.csv"]),
])
def test_script_writes_its_outputs(tmp_path, monkeypatch, name, files):
    script = _load(name)
    monkeypatch.setattr(script, "OUT", tmp_path)
    assert script.run() == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for svg in tmp_path.glob("*.svg"):
        ET.parse(svg)
