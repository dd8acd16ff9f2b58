"""Session-level wiring of the persistent cache.

The acceptance bar for the storage layer: a cold session over a warm
cache directory re-runs **zero** passes; pooled sweeps warm the shared
disk with their points and analytic products; ``load()`` generation
bumps invalidate disk entries exactly like memory entries.
"""

import subprocess
import sys

import pytest

from repro.apps import hdiff
from repro.storage import DEFAULT_MAX_BYTES
from repro.tool.session import Session

PARAMS = {"I": 8, "J": 8, "K": 4}
#: The passes a local-view query actually executes (the analytic engine
#: short-circuits the enumeration chain, so trace/layout/stackdist are
#: not part of the hot path).
LOCAL_CHAIN = (
    "local.analytic",
    "local.classify",
    "local.physmove",
)


def _analyze(session):
    lv = session.local_view(dict(PARAMS))
    return (lv.miss_counts(), lv.physical_movement())


class TestWarmSession:
    def test_cold_session_on_warm_dir_runs_nothing(self, tmp_path):
        cold = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        expected = _analyze(cold)
        assert cold.metrics.counter("disk.writes").value > 0

        warm = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        assert _analyze(warm) == expected
        for name in LOCAL_CHAIN:
            assert warm.pipeline.runs(name) == 0, name
        assert warm.metrics.counter("disk.hits").value > 0
        assert warm.metrics.counter("disk.corrupt").value == 0

    def test_global_products_served_from_disk(self, tmp_path):
        cold = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        env = {"I": 32, "J": 32, "K": 8}
        expected = cold.global_view().total_movement(env)

        warm = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        assert warm.global_view().total_movement(env) == expected
        assert warm.pipeline.runs("global.totals") == 0

    def test_env_var_configures_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        session = Session(hdiff.build_sdfg())
        assert session.disk is not None
        assert session.disk.root == tmp_path
        _analyze(session)
        assert len(session.disk) > 0

    def test_no_cache_dir_means_memory_only(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        session = Session(hdiff.build_sdfg())
        assert session.disk is None

    def test_env_var_byte_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BYTES", "123456")
        session = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        assert session.disk.max_bytes == 123456
        monkeypatch.setenv("REPRO_CACHE_BYTES", "not a number")
        fallback = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        assert fallback.disk.max_bytes == DEFAULT_MAX_BYTES


class TestLoadInvalidatesDisk:
    def test_generation_bump_misses_disk(self, tmp_path):
        session = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        first = _analyze(session)
        writes_before = session.metrics.counter("disk.writes").value

        session.load(hdiff.build_sdfg())  # same program, new generation
        assert _analyze(session) == first
        # The generation is part of every key's scope: the old disk
        # entries no longer match, so the passes really re-ran and the
        # new results were persisted under new keys.
        for name in LOCAL_CHAIN:
            assert session.pipeline.runs(name) >= 1, name
        assert session.metrics.counter("disk.writes").value > writes_before

    def test_fresh_session_still_warm_after_other_session_loaded(self, tmp_path):
        # A load() in one session must not wipe the shared directory.
        first = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        _analyze(first)
        first.load(hdiff.build_sdfg())

        fresh = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        _analyze(fresh)
        for name in LOCAL_CHAIN:
            assert fresh.pipeline.runs(name) == 0, name


class TestCrossProcess:
    def test_second_process_served_from_disk(self, tmp_path):
        script = """
import sys
from repro.apps import hdiff
from repro.tool.session import Session
session = Session(hdiff.build_sdfg(), cache_dir=sys.argv[1])
lv = session.local_view({"I": 8, "J": 8, "K": 4})
lv.miss_counts(); lv.physical_movement()
runs = sum(session.pipeline.runs(n) for n in (
    "local.analytic", "local.classify", "local.physmove"))
print(f"runs={runs} hits={session.metrics.counter('disk.hits').value}")
"""
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert outputs[0].startswith("runs=3")
        assert outputs[1].split()[0] == "runs=0"
        assert int(outputs[1].split()[1].removeprefix("hits=")) > 0


class TestSweepWarming:
    GRID = [{"I": 8, "J": 8, "K": k} for k in (3, 4, 5)]

    def test_pool_sweep_writes_shared_disk(self, tmp_path):
        session = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        points = session.sweep([dict(p) for p in self.GRID], workers=2)
        assert len(points) == len(self.GRID)
        # Every evaluated point was written through to the shared disk.
        assert len(session.disk) >= len(self.GRID)

    def test_fresh_session_sweep_served_from_disk(self, tmp_path):
        cold = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        expected = cold.sweep([dict(p) for p in self.GRID], workers=2)

        warm = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        points = warm.sweep([dict(p) for p in self.GRID], workers=2)
        assert [p.params for p in points] == [p.params for p in expected]
        assert [p.total_moved_bytes for p in points] == [
            p.total_moved_bytes for p in expected
        ]
        # Every point came off disk in the parent — no pool was needed.
        assert warm.metrics.counter("disk.hits").value >= len(self.GRID)
        assert warm.metrics.counter("sweep.points").value == 0

    def test_pooled_products_leave_another_process_only_classifying(
        self, tmp_path
    ):
        cold = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        cold.sweep([dict(p) for p in self.GRID], workers=2, adaptive=False)
        assert cold.metrics.counter("sweep.pool_spawns").value == 1
        script = """
import sys
from repro.apps import hdiff
from repro.tool.session import Session
session = Session(hdiff.build_sdfg(), cache_dir=sys.argv[1])
session.sweep([{"I": 8, "J": 8, "K": k} for k in (3, 4, 5)], capacity_lines=4)
print(session.pipeline.runs("local.analytic"), session.pipeline.runs("local.classify"))
"""
        output = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert output == ["0", "3"]

    def test_serial_resweep_also_warm(self, tmp_path):
        cold = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        cold.sweep([dict(p) for p in self.GRID], workers=2)

        warm = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        points = warm.sweep([dict(p) for p in self.GRID])  # serial
        assert len(points) == len(self.GRID)
        assert warm.metrics.counter("disk.hits").value >= len(self.GRID)


class TestCliCacheDir:
    def test_cli_flag_round_trip(self, tmp_path):
        from repro.tool.cli import main

        example = tmp_path / "prog.py"
        example.write_text(
            "import repro\n"
            "from repro.sdfg.dtypes import float64\n"
            "from repro.symbolic import symbols\n"
            "I, J = symbols('I J')\n"
            "@repro.program\n"
            "def tiny(A: float64[I, J], B: float64[I, J]):\n"
            "    for i, j in repro.pmap(I, J):\n"
            "        B[i, j] = A[i, j] + 1\n"
        )
        cache = tmp_path / "cache"
        out = tmp_path / "report.html"
        argv = [
            str(example), "--local", "I=8,J=8",
            "--cache-dir", str(cache), "-o", str(out),
        ]
        assert main(argv) == 0
        assert out.exists()
        assert any(cache.rglob("*.rpc"))
        assert main(argv) == 0  # warm re-run reuses the directory


@pytest.mark.parametrize("product", ["local", "global"])
def test_memory_only_sessions_unaffected(product):
    """No cache_dir: behavior identical to before the storage layer."""
    session = Session(hdiff.build_sdfg())
    if product == "local":
        assert _analyze(session)[0]
    else:
        assert session.global_view().total_movement(
            {"I": 16, "J": 16, "K": 4}
        ) > 0
    assert session.metrics.counter("disk.hits").value == 0
    assert session.metrics.counter("disk.writes").value == 0
