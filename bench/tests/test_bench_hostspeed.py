"""Host-speed scaling arithmetic and the stopwatch's laps, on a fake clock."""
import types

import pytest

from fraclap_bench.hostspeed import Stopwatch, scaled, scaled_total


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_scaled_uses_mean_of_neighbouring_probes():
    # probes 20 ms and 30 ms around a 5 s segment: the host ran at 10/25 of reference speed
    assert scaled(5.0, 0.02, 0.03, reference=0.01) == pytest.approx(2.0)


def test_scaled_total_scales_each_segment_by_its_own_probes():
    segments = [1.0, 2.0]
    probes = [0.01, 0.01, 0.03]  # the second segment ran at half the reference speed
    assert scaled_total(segments, probes, reference=0.01) == pytest.approx(1.0 + 2.0 * 0.5)
    with pytest.raises(ValueError):
        scaled_total(segments, probes[:2])


def test_stopwatch_laps_only_after_min_segment_and_excludes_probe_time():
    clock = FakeClock()
    probe_times = iter([0.01, 0.02, 0.04])

    def probe():
        clock.now += 100.0  # the probe's own time must not be counted
        return next(probe_times)

    watch = Stopwatch(probe_fn=probe, min_segment_s=1.0, clock=clock)
    watch.start()
    clock.now += 0.4
    watch.lap()  # too short: no probe, the segment goes on
    clock.now += 0.8
    watch.lap()
    clock.now += 0.5
    watch.stop()
    assert watch.segments == pytest.approx([1.2, 0.5])
    assert watch.probes == [0.01, 0.02, 0.04]
    assert watch.raw_s == pytest.approx(1.7)
    assert watch.scaled_s == pytest.approx(scaled_total([1.2, 0.5], [0.01, 0.02, 0.04]))


def test_lapping_after_laps_after_each_call_and_restores():
    clock = FakeClock()
    site = types.SimpleNamespace()

    def work(t, fail=False):
        clock.now += t
        if fail:
            raise ValueError("planted")
        return 2 * t

    site.work = work
    watch = Stopwatch(probe_fn=lambda: 0.01, min_segment_s=1.0, clock=clock)
    with watch.lapping_after([(site, "work")]):
        watch.start()
        assert site.work(1.5) == 3.0
        with pytest.raises(ValueError):
            site.work(1.2, fail=True)  # a raising call still ends with a lap
        watch.stop()
    assert site.work is work
    assert watch.segments == pytest.approx([1.5, 1.2, 0.0])
