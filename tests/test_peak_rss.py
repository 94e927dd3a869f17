import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "peak_rss.py"


def peak_rss(*cmd):
    return subprocess.run(
        [sys.executable, "-S", str(SCRIPT), "--", *cmd],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_reports_wall_time_and_peak_of_the_command():
    small = peak_rss(sys.executable, "-c", "print('hi')")
    big = peak_rss(sys.executable, "-c", "x = b'x' * (40 << 20); print('hi')")
    for done in (small, big):
        assert done.returncode == 0 and done.stdout == "hi\n"
    first, second = (json.loads(done.stderr) for done in (small, big))
    assert set(first) == {"wall_s", "maxrss_mb", "exit"} and first["exit"] == 0
    assert 0 < first["wall_s"] < 30
    # The 40 MB bytes object shows in the child's peak and nowhere else.
    assert second["maxrss_mb"] - first["maxrss_mb"] > 35


def test_passes_on_the_exit_status():
    done = peak_rss(sys.executable, "-c", "raise SystemExit(3)")
    assert done.returncode == 3 and json.loads(done.stderr)["exit"] == 3
    done = peak_rss("no-such-command-here")
    assert done.returncode == 127 and "cannot run" in done.stderr
    assert peak_rss().returncode == 2
