import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """The environment with the checkout's ``src`` first on PYTHONPATH, so a
    child interpreter imports this scqsim without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env
