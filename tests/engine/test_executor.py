"""Execution backends: ordering, equivalence, spec parsing."""

import pytest

from repro.engine import (ProcessPoolBackend, SerialBackend,
                          available_workers, get_backend)


def _square(x):
    return x * x


def _tag(payload):
    index, value = payload
    return (index, value * 2)


class TestSerialBackend:
    def test_map_in_order(self):
        backend = SerialBackend()
        assert backend.map(_square, [3, 1, 2]) == [9, 1, 4]


class TestProcessBackend:
    def test_matches_serial_and_preserves_order(self):
        backend = ProcessPoolBackend(workers=2)
        try:
            payloads = [(i, i + 10) for i in range(13)]
            results = backend.map(_tag, payloads)
            assert results == [(i, (i + 10) * 2) for i in range(13)]
        finally:
            backend.shutdown()

    def test_single_payload_runs_inline(self):
        backend = ProcessPoolBackend(workers=2)
        assert backend.map(_square, [7]) == [49]
        assert backend._pool is None      # pool never spun up
        backend.shutdown()


class TestGetBackend:
    def test_specs(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("process"), ProcessPoolBackend)

    def test_worker_count_suffix(self):
        backend = get_backend("process:3")
        assert backend.workers == 3

    def test_default_workers_positive(self):
        assert available_workers() >= 1
        assert get_backend("process").workers >= 1

    def test_passthrough_instance(self):
        backend = SerialBackend()
        assert get_backend(backend) is backend

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("quantum")

    @pytest.mark.parametrize("spec, match", [
        ("thread", "'thread' backend was removed"),
        ("thread:4", "'thread' backend was removed"),
        ("serial:3", "takes no worker count"),
        ("process:x", "positive integer"),
        ("process:0", "positive integer"),
        ("process:-2", "positive integer"),
        ("process:", "positive integer"),
    ])
    def test_bad_specs_rejected(self, spec, match):
        with pytest.raises(ValueError, match=match):
            get_backend(spec)
