"""The reproduction driver (scripts/reproduce.py) against the tables it
committed to results/."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"

_spec = importlib.util.spec_from_file_location(
    "reproduce", ROOT / "scripts" / "reproduce.py"
)
reproduce = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reproduce)


def _committed_rates() -> list[str]:
    return (RESULTS / "rates.csv").read_bytes().decode().split("\r\n")


def test_committed_rates_cover_every_configuration():
    lines = _committed_rates()
    assert lines[0] == ",".join(reproduce.RATE_HEADER)
    assert lines[-1] == ""
    keys = [tuple(line.split(",")[:2]) for line in lines[1:-1]]
    configs = reproduce.RATE_CONFIGS
    assert keys == [(label, p) for label in configs for p in reproduce.P_VALUES]


# runge_r1_m4 folds with a two-axis tail; f1_r54_m2 with a one-axis tail
@pytest.mark.parametrize("label, p", [("f1_r54_m2", "1"), ("runge_r1_m4", "1")])
def test_rate_row_matches_committed_table(tmp_path, capsys, label, p):
    row = reproduce.rate_row(label, p, tmp_path)
    header, line, end = reproduce.rates_text([row]).split("\r\n")
    assert (header, end) == (",".join(reproduce.RATE_HEADER), "")
    committed = {tuple(text.split(",")[:2]): text for text in _committed_rates()}
    assert committed[(label, p)] == line


def test_lebesgue_sweep_matches_committed_table(tmp_path, capsys):
    out = reproduce.lebesgue_sweep(1, tmp_path)
    committed = RESULTS / "lebesgue_m1.csv"
    assert out.read_text().splitlines()[0] == committed.read_text().splitlines()[0]
    fresh, kept = (
        np.loadtxt(path, delimiter=",", skiprows=1) for path in (out, committed)
    )
    assert fresh.shape == kept.shape == (15, 5)  # p in {1, 2, inf} x 5 degrees
    np.testing.assert_allclose(fresh, kept, rtol=1e-12, atol=0)
