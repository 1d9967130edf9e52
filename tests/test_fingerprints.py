"""The committed CSV fingerprints: every plan of ``scripts/fingerprints.py``
with M <= 16 still gives the recorded bytes at 1 and 2 BLAS threads."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fingerprints.py"


@pytest.fixture(scope="module")
def fingerprints():
    spec = importlib.util.spec_from_file_location("fingerprints", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_file_holds_every_plan_at_every_thread_count(fingerprints):
    _, digests = fingerprints.read()
    assert sorted(digests) == sorted((name, n) for name in fingerprints.PLANS for n in fingerprints.THREADS)


def test_the_small_plans_give_the_recorded_csv_bytes(fingerprints):
    # The digests hold only for the numpy, scipy and machine they were
    # recorded with; elsewhere the test says which differs and skips.
    recorded_env, recorded = fingerprints.read()
    here = fingerprints.environment()
    moved = [
        f"{key} {recorded_env.get(key)} (recorded), {value} (here)"
        for key, value in here.items()
        if recorded_env.get(key) != value
    ]
    if moved:
        pytest.skip("FINGERPRINTS.txt was recorded elsewhere: " + "; ".join(moved))
    small = [name for name in fingerprints.PLANS if fingerprints.largest_mesh(name) <= 16]
    assert len(small) == 21
    got = fingerprints.fingerprints(small)
    assert got == {key: digest for key, digest in recorded.items() if key[0] in small}
