"""Sampling profiler: attribution, collapsed rendering, robustness."""

import threading
import time

import pytest

from repro.obs.prof import Profile, SamplingProfiler


def spin_for(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(i * i for i in range(400))


class TestSamplingProfiler:
    def test_attributes_most_of_the_wall_time(self):
        prof = SamplingProfiler(interval_s=0.002).start()
        spin_for(0.25)
        profile = prof.stop()
        assert profile.samples >= 10
        assert profile.duration_s >= 0.25
        # dt-weighting: attributed seconds track profiled duration.
        assert profile.attributed_s >= 0.8 * profile.duration_s

    def test_hot_function_dominates_the_stacks(self):
        prof = SamplingProfiler(interval_s=0.002).start()
        spin_for(0.2)
        profile = prof.stop()
        hot = sum(s for stack, s in profile.stacks.items()
                  if "spin_for" in stack)
        assert hot >= 0.5 * profile.attributed_s

    def test_frames_are_named_module_dot_function(self):
        prof = SamplingProfiler(interval_s=0.002).start()
        spin_for(0.1)
        profile = prof.stop()
        assert any("test_prof.spin_for" in stack.split(";")
                   for stack in profile.stacks)

    def test_profiles_another_thread(self):
        ready, done = threading.Event(), threading.Event()

        def target():
            ready.set()
            spin_for(0.2)
            done.set()

        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        assert ready.wait(5)
        prof = SamplingProfiler(thread_id=worker.ident,
                                interval_s=0.002).start()
        assert done.wait(5)
        profile = prof.stop()
        worker.join(5)
        assert any("target" in stack for stack in profile.stacks)

    def test_missing_thread_yields_empty_profile_not_crash(self):
        # A thread id that exists in no thread table (a joined thread's
        # ident could be recycled by the OS, so invent one instead).
        import sys
        ghost = max(sys._current_frames()) + 104729
        prof = SamplingProfiler(thread_id=ghost,
                                interval_s=0.001).start()
        time.sleep(0.02)
        profile = prof.stop()
        assert profile.samples == 0
        assert profile.stacks == {}

    def test_zero_interval_is_a_noop(self):
        prof = SamplingProfiler(interval_s=0)
        assert prof.start() is prof
        assert prof.stop().samples == 0

    def test_stack_cardinality_is_bounded(self):
        prof = SamplingProfiler(interval_s=3600, max_stacks=2)
        prof.profile.add("a;b", 0.1, prof.max_stacks)
        prof.profile.add("a;c", 0.1, prof.max_stacks)
        prof.profile.add("a;d", 0.1, prof.max_stacks)  # overflows
        prof.profile.add("a;e", 0.1, prof.max_stacks)
        assert prof.profile.truncated
        assert set(prof.profile.stacks) == {"a;b", "a;c", "(overflow)"}
        assert prof.profile.stacks["(overflow)"] == pytest.approx(0.2)


class TestProfileDocument:
    def test_round_trips_through_dict(self):
        prof = SamplingProfiler(interval_s=0.002).start()
        spin_for(0.1)
        profile = prof.stop()
        clone = Profile.from_dict(profile.to_dict())
        assert clone.samples == profile.samples
        assert clone.attributed_s == \
            pytest.approx(profile.attributed_s, abs=1e-4)
        assert set(clone.stacks) == set(profile.stacks)

    def test_collapsed_rendering_is_flamegraph_shaped(self):
        profile = Profile(stacks={"main;work;inner": 0.2,
                                  "main;idle": 0.05}, samples=25)
        lines = profile.render_collapsed().splitlines()
        assert lines[0] == "main;work;inner 200000"   # heaviest first
        assert lines[1] == "main;idle 50000"
        for line in lines:
            frames, _, weight = line.rpartition(" ")
            assert frames and int(weight) > 0

    def test_empty_profile_renders_empty(self):
        assert Profile().render_collapsed() == ""
