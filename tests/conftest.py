import os
import sys

# Tests leave no bytecode cache under src/, and neither do the CLI
# processes they start, which inherit the environment.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import pytest  # noqa: E402

from foliadex import standard_catalog  # noqa: E402


@pytest.fixture(scope="session")
def std_catalog():
    # built once; catalog construction is deterministic, so sharing is safe
    return standard_catalog()
