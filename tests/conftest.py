import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nambu_dyn import native  # noqa: E402


@pytest.fixture(params=["native", "python"])
def kernel(request, monkeypatch):
    """Which RK4 kernel ``compile_vector_field`` installs: the native build
    or, with the loader patched out, the generated Python.  A case that
    takes no RK4 step (a quantum run) passes None through ``indirect``."""
    if request.param == "python":
        monkeypatch.setattr(native, "load_rk4", lambda source, dim: None)
    elif request.param == "native" and shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    return request.param
