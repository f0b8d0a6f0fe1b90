"""Tests for the shared-filesystem model (FSglobals substrate)."""

import pytest

from repro.errors import SharedFsError
from repro.fs.sharedfs import SharedFileSystem
from repro.perf.clock import SimClock
from repro.perf.costs import TEST_COSTS


def make(capacity=1 << 30):
    return SharedFileSystem(TEST_COSTS, capacity_bytes=capacity), SimClock()


class TestFiles:
    def test_write_then_stat(self):
        fs, clk = make()
        fs.write_file("a.bin", 1000, clk)
        assert fs.stat("a.bin").size == 1000
        assert fs.exists("a.bin")

    def test_stat_missing(self):
        fs, _ = make()
        with pytest.raises(SharedFsError):
            fs.stat("ghost")

    def test_overwrite_replaces_size(self):
        fs, clk = make()
        fs.write_file("a", 100, clk)
        fs.write_file("a", 200, clk)
        assert fs.stat("a").size == 200
        assert fs.used_bytes() == 200

    def test_copy_file(self):
        fs, clk = make()
        fs.write_file("src", 500, clk)
        fs.copy_file("src", "dst", clk)
        assert fs.stat("dst").size == 500
        assert fs.file_count() == 2

    def test_copy_missing_source(self):
        fs, clk = make()
        with pytest.raises(SharedFsError):
            fs.copy_file("ghost", "dst", clk)

    def test_unlink(self):
        fs, clk = make()
        fs.write_file("a", 10, clk)
        fs.unlink("a", clk)
        assert not fs.exists("a")

    def test_unlink_missing(self):
        fs, _ = make()
        with pytest.raises(SharedFsError):
            fs.unlink("ghost")

    def test_cleanup_prefix(self):
        fs, clk = make()
        fs.write_file("job0/bin.vp0", 10, clk)
        fs.write_file("job0/bin.vp1", 10, clk)
        fs.write_file("job1/bin.vp0", 10, clk)
        assert fs.cleanup_prefix("job0/") == 2
        assert fs.file_count() == 1

    def test_capacity_enforced(self):
        fs, clk = make(capacity=1000)
        fs.write_file("a", 800, clk)
        with pytest.raises(SharedFsError, match="full"):
            fs.write_file("b", 300, clk)

    def test_overwrite_frees_before_capacity_check(self):
        fs, clk = make(capacity=1000)
        fs.write_file("a", 800, clk)
        fs.write_file("a", 900, clk)  # allowed: replaces the old copy

    def test_negative_size_rejected(self):
        fs, clk = make()
        with pytest.raises(SharedFsError):
            fs.write_file("a", -1, clk)


class TestRunningTotal:
    """``used_bytes()`` is a running total; the sum over the files it
    replaced is the oracle."""

    @staticmethod
    def summed(fs):
        return sum(f.size for f in fs._files.values())

    def test_overwrite_unlink_and_prefix_cleanup(self):
        fs, clk = make()
        assert fs.used_bytes() == 0
        for step in (
            lambda: fs.write_file("job0/bin", 700, clk),
            lambda: fs.copy_file("job0/bin", "job0/bin.vp0", clk),
            lambda: fs.copy_file("job0/bin", "job0/bin.vp1", clk),
            lambda: fs.write_file("job0/bin.vp0", 50, clk),    # shrink
            lambda: fs.write_file("job0/bin.vp0", 5000, clk),  # grow
            lambda: fs.write_file("job1/bin", 0, clk),         # empty file
            lambda: fs.unlink("job0/bin.vp1", clk),
            lambda: fs.write_file("job1/out", 33, clk),
            lambda: fs.cleanup_prefix("job0/"),
            lambda: fs.cleanup_prefix("nothing-here/"),
            lambda: fs.unlink("job1/out"),
        ):
            step()
            assert fs.used_bytes() == self.summed(fs)
        assert fs.used_bytes() == 0 and fs.file_count() == 1

    def test_failed_operations_leave_the_total_alone(self):
        fs, clk = make(capacity=1000)
        fs.write_file("a", 600, clk)
        with pytest.raises(SharedFsError, match="full"):
            fs.write_file("b", 401, clk)
        with pytest.raises(SharedFsError):
            fs.write_file("c", -1, clk)
        with pytest.raises(SharedFsError):
            fs.unlink("ghost")
        with pytest.raises(SharedFsError):
            fs.copy_file("ghost", "d", clk)
        assert fs.used_bytes() == self.summed(fs) == 600

    def test_capacity_boundary(self):
        fs, clk = make(capacity=1000)
        fs.write_file("a", 600, clk)
        fs.write_file("b", 400, clk)             # exactly full: allowed
        assert fs.used_bytes() == 1000
        with pytest.raises(SharedFsError) as full:
            fs.write_file("c", 1, clk)
        assert str(full.value) == ("shared filesystem full: cannot write "
                                   "1 bytes (1000 of 1000 used)")
        fs.write_file("b", 400, clk)             # same-size overwrite
        with pytest.raises(SharedFsError, match="1000 of 1000 used"):
            fs.write_file("b", 401, clk)         # one byte over
        fs.unlink("a")
        fs.write_file("c", 600, clk)
        assert fs.used_bytes() == self.summed(fs) == 1000

    def test_many_copies_stay_consistent(self):
        """The FSglobals pattern: one original, one copy per rank."""
        fs, clk = make()
        fs.write_file("job7/app", 12_345, clk)
        for vp in range(300):
            fs.copy_file("job7/app", f"job7/app.vp{vp}", clk)
        assert fs.used_bytes() == self.summed(fs) == 301 * 12_345
        assert fs.cleanup_prefix("job7/") == 301
        assert fs.used_bytes() == 0


class TestCosts:
    def test_write_charges_clock(self):
        fs, clk = make()
        fs.write_file("a", 10_000, clk)
        assert clk.now >= TEST_COSTS.fs_write_ns(10_000)

    def test_contention_costs_more(self):
        fs, c1 = make()[0], SimClock()
        fs.write_file("a", 100_000, c1, concurrent_clients=1)
        c8 = SimClock()
        fs.write_file("b", 100_000, c8, concurrent_clients=8)
        assert c8.now > c1.now

    def test_copy_charges_read_plus_write(self):
        fs, clk = make()
        fs.write_file("src", 100_000, clk)
        before = clk.now
        fs.copy_file("src", "dst", clk)
        spent = clk.now - before
        assert spent >= TEST_COSTS.fs_read_ns(100_000) + \
            TEST_COSTS.fs_write_ns(100_000)
