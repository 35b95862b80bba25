"""scipy is imported at the first logistic evaluation, not with the package.

Each check runs in a fresh interpreter, because this one has long since
loaded scipy through the other test modules."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """
seed: 5
solver: {epsilon: 0.2, xi: 0.01, max_iters: 40}
synthetic:
  modes:
    - {natural_freq: 40.0, damping: 0.04}
  class_shift: [4.0]
  nuisance_band: [60.0, 90.0]
  noise_sd: 0.02
  n_samples: 8
  n_test: 4
  n_tasks: 2
  n_features: 12
"""


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports this tree's package."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_import_leaves_scipy_out_and_the_first_expit_call_binds_scipys_ufunc():
    run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "import frfselect\n"
        "assert 'scipy' not in sys.modules\n"
        "from frfselect import model\n"
        "x = np.array([0.0, -0.0, 1e-17, -1e-17, 36.7, -36.7, 709.8, -709.8,\n"
        "              1e308, -1e308, np.inf, -np.inf, np.nan])\n"
        "first = model.expit(x)\n"
        "import scipy.special\n"
        "assert model.expit is scipy.special.expit\n"
        "want = scipy.special.expit(x)\n"
        "assert first.view(np.uint64).tolist() == want.view(np.uint64).tolist()\n"
    )


def test_generate_leaves_scipy_out_and_fit_loads_it(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG + f"output_dir: {tmp_path / 'out'}\n")
    run_fresh(
        "import contextlib, io, sys\n"
        "from frfselect.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['generate', '--config', {str(config)!r}]) == 0\n"
        "    assert 'scipy' not in sys.modules\n"
        f"    assert main(['fit', '--config', {str(config)!r}]) == 0\n"
        "assert 'scipy.special' in sys.modules\n"
    )
