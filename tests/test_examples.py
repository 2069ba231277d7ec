"""Smoke tests: every example script runs cleanly end to end."""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "5")
        assert "collection:" in out
        assert "broadcast:" in out
        assert "ranking:" in out

    def test_sensor_field_collection(self):
        out = run_example("sensor_field_collection.py", "2", "20")
        assert "leader election" in out
        assert "within" in out  # Theorem 4.4 envelope respected

    def test_emergency_broadcast(self):
        out = run_example("emergency_broadcast.py", "4")
        assert "pipelined broadcast" in out
        assert "delivered everywhere = True" in out

    def test_p2p_messaging(self):
        out = run_example("p2p_messaging.py", "6", "24")
        assert "pipelined:" in out
        assert "sequential store-and-forward" in out

    def test_queueing_playground(self):
        out = run_example("queueing_playground.py", "3")
        assert "Theorem 4.3" in out
        assert "32.27" in out

    def test_examples_accept_default_args(self):
        # The cheapest script with no args, as documented.
        out = run_example("quickstart.py")
        assert "network:" in out

    def test_streaming_telemetry(self):
        out = run_example("streaming_telemetry.py", "2")
        assert "saturation capacity" in out
        assert "load sweep" in out
        assert "level occupancy" in out
        # The open-system sweep crosses the knee: the low rate is read
        # as stable by the drift test, the top rate as unstable.
        assert "stable" in out
        assert "UNSTABLE" in out
