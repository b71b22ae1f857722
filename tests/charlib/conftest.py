"""Shared fixtures for the charlib tests: one small characterization
dataset (INV, NAND2, DFF at two train corners and one test corner),
built once per test run."""

import pytest

from repro.charlib import CharConfig, Corner, build_char_dataset

FAST_CFG = CharConfig(slews=(8e-9,), loads=(15e-15,), n_bisect=3,
                      max_steps=220)


@pytest.fixture(scope="session")
def dataset(tmp_path_factory):
    cache = tmp_path_factory.mktemp("charcache")
    return build_char_dataset(
        "ltps", cells=("INV_X1", "NAND2_X1", "DFF_X1"),
        train_corners=[Corner(1.0, 0.0, 1.0), Corner(0.9, 0.05, 1.1)],
        test_corners=[Corner(1.05, -0.02, 0.95)],
        config=FAST_CFG, cache_dir=cache)
