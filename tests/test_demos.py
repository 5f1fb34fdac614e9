"""The demos stay runnable: each imports against the current library, and
the training demo still lifts held-out mAP."""

import importlib.util
import pathlib
import re

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


def load_demo(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports(path):
    assert callable(load_demo(path).main)


def test_training_demo_lifts_held_out_map(capsys):
    load_demo(next(p for p in DEMOS if p.name == "04_training.py")).main()
    before, after = map(float, re.findall(
        r"held-out mAP (?:before|after) training: +([0-9.]+)",
        capsys.readouterr().out))
    assert after > before
