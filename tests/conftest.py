import os

import pytest
from hypothesis import settings

# GitHub Actions sets CI: there every Hypothesis test draws the same
# examples, and a failure in CI replays locally with CI=true.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("CHAINSIM_RUN_IGNORED") == "1":
        return
    skip = pytest.mark.skip(reason="set CHAINSIM_RUN_IGNORED=1 to run")
    for item in items:
        if "ignored" in item.keywords:
            item.add_marker(skip)
