import signal
import time

import pytest

from speed import REF_KERNEL_S, SpeedSampler


def _sampler(samples):
    """A sampler holding synthetic (start, duration) samples."""
    speed = SpeedSampler()
    for start, duration in samples:
        speed.starts.append(start)
        speed.durations.append(duration)
    return speed


def test_interval_is_scaled_by_the_median_kernel_time_inside_it():
    # kernel at 2x the reference time: the CPU ran at half the reference speed
    speed = _sampler([(1.0, 2e-3), (2.0, 2e-3), (3.0, 4e-3), (9.0, 1e-3)])
    wall = 4.0 - 0.5
    busy = 2e-3 + 2e-3 + 4e-3
    assert speed.scaled(0.5, 4.0) == pytest.approx((wall - busy) * REF_KERNEL_S / 2e-3)


def test_short_interval_borrows_the_neighbouring_samples():
    speed = _sampler([(1.0, 1e-3), (2.0, 3e-3)])
    # no sample starts inside [1.5, 1.6]: the median of the two around it
    assert speed.scaled(1.5, 1.6) == pytest.approx(0.1 * REF_KERNEL_S / 2e-3)
    # before the first sample: the first one alone
    assert speed.scaled(0.1, 0.2) == pytest.approx(0.1 * REF_KERNEL_S / 1e-3)


def test_no_samples_is_an_error():
    with pytest.raises(RuntimeError):
        SpeedSampler().scaled(0.0, 1.0)


def test_sampler_samples_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler(period_s=0.005) as speed:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(speed.durations) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
