import pytest

from lora_sic.analytic import default_config


@pytest.fixture(scope="session")
def cfg():
    """The suburban reference scenario (an immutable record, shared by every test)."""
    return default_config()
