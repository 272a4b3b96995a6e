import dataclasses
from pathlib import Path

import numpy as np
import pytest

from irs_multicast.channel import PathSet, load_config
from irs_multicast.harness import DESK_CONFIG

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def desk_cfg():
    return DESK_CONFIG


@pytest.fixture(scope="session")
def multiuser_cfg():
    return load_config(CONFIG_DIR / "desk_multiuser.json")


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def user_paths(chset) -> list[PathSet]:
    """Each user's own path set, sliced from the stacked ``chset.ue_paths``."""
    fields = dataclasses.fields(PathSet)
    return [PathSet(**{f.name: getattr(chset.ue_paths, f.name)[k] for f in fields})
            for k in range(len(chset.h_irs_ue))]
