"""Every demo script runs to completion and prints its headline result."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# a line each demo prints only once its last stage has run
EXPECTED = {
    "demo_codebook_quantization": "commitment penalty:",
    "demo_phantom_anatomy": "lesions:",
    "demo_pretrain_reconstruct": "fused",
    "demo_translate_evaluate": "held-out whole-body MAE",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(capsys, demo):
    runpy.run_path(str(demo), run_name="__main__")
    assert EXPECTED[demo.stem] in capsys.readouterr().out
