"""The demos run to the end: they use the public constructors and fields
(``families.PoissonParams``, ``theta.lam``) the way a reader would."""

from pathlib import Path
import runpy

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_fit_two_blocks.py", "02_model_selection_icl.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
