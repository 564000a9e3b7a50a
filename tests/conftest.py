import pytest

from crdf import classical_ba

CLASSICAL_S_LOW = -60.0
CLASSICAL_MAX_STEPS = 60


def _classical_at_distortion(source, dist, target_d):
    """The classical point bisected over s in [-60, 0] to distortion
    ``target_d``; it stops once the bracket is one double wide, where further
    steps would solve the same multiplier again."""
    lo, hi = CLASSICAL_S_LOW, 0.0
    for _ in range(CLASSICAL_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if classical_ba(source, dist, mid).distortion > target_d:
            hi = mid
        else:
            lo = mid
    return classical_ba(source, dist, 0.5 * (lo + hi))


@pytest.fixture(scope="session")
def classical_at_distortion():
    return _classical_at_distortion
