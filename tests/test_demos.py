"""The demos stay runnable: each imports against the current library, the
cheap ones run to completion, the training demo still lifts held-out mAP,
and the retrieval demo drives the Extractor through all three query
modes."""

import importlib.util
import pathlib
import re
import tempfile

import pytest

from testkit import child_env

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


def load_demo(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports(path):
    assert callable(load_demo(path).main)


@pytest.mark.parametrize("name", ["01_synthesize_scenes.py",
                                  "02_descriptors.py", "03_mining.py",
                                  "07_cli_pipeline.py"])
def test_demo_runs(name, tmp_path, monkeypatch):
    # demos 01 and 07 leave their files under tempfile.mkdtemp(); demo 07
    # runs the CLI in child interpreters that must import this checkout
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setenv("PYTHONPATH", child_env()["PYTHONPATH"])
    load_demo(next(p for p in DEMOS if p.name == name)).main()


def test_training_demo_lifts_held_out_map(capsys):
    load_demo(next(p for p in DEMOS if p.name == "04_training.py")).main()
    before, after = map(float, re.findall(
        r"held-out mAP (?:before|after) training: +([0-9.]+)",
        capsys.readouterr().out))
    assert after > before


def test_retrieval_demo_scores_every_mode(capsys):
    load_demo(next(p for p in DEMOS if p.name == "06_retrieval_eval.py")).main()
    rows = re.findall(r"^(Full|Crop_I|Crop_X) +([0-9.]+)$",
                      capsys.readouterr().out, flags=re.MULTILINE)
    assert [mode for mode, _ in rows] == ["Full", "Crop_I", "Crop_X"]
    assert all(0.0 <= float(value) <= 1.0 for _, value in rows)
