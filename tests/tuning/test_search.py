"""Tests for the auto-tuning beam search over transform sequences."""

import time

import pytest

from repro.analysis.executor import CancelToken
from repro.apps import cloudsc, hdiff
from repro.errors import TuningError
from repro.resilience import chaos as chaos_mod
from repro.resilience.deadline import Deadline
from repro.tuning import MovementObjective, TuningSearch

#: hdiff's manually tuned variant (paper Fig. 8: permute + reorder) moves
#: this many bytes at the Fig. 7 cache model — the bar the search must meet.
HDIFF_MANUAL_BYTES = 177920

#: Restricting the search to the transforms of the paper's manual story
#: keeps the rediscovery test fast while leaving the *choice* of arrays,
#: orders and sequence entirely to the search.
HDIFF_TRANSFORMS = [
    "permute_array_layout",
    "reorder_map",
    "pad_strides_to_multiple",
]


def hdiff_search(sdfg, **overrides):
    settings = dict(
        transforms=HDIFF_TRANSFORMS,
        beam=3,
        depth=4,
        budget=200,
        line_size=hdiff.FIG7_CACHE["line_size"],
        capacity_lines=hdiff.FIG7_CACHE["capacity_lines"],
    )
    settings.update(overrides)
    return TuningSearch(sdfg, hdiff.LOCAL_VIEW_SIZES, **settings)


def cloudsc_search(**overrides):
    settings = dict(
        beam=4, depth=2, budget=60,
        line_size=cloudsc.CACHE["line_size"],
        capacity_lines=cloudsc.CACHE["capacity_lines"],
    )
    settings.update(overrides)
    return TuningSearch(
        cloudsc.build_sdfg(), cloudsc.LOCAL_VIEW_SIZES, **settings
    )


class TestValidation:
    def test_bad_beam(self):
        with pytest.raises(TuningError):
            cloudsc_search(beam=0)

    def test_bad_depth(self):
        with pytest.raises(TuningError):
            cloudsc_search(depth=0)

    def test_bad_budget(self):
        with pytest.raises(TuningError):
            cloudsc_search(budget=0)

    def test_unknown_transform(self):
        with pytest.raises(TuningError):
            cloudsc_search(transforms=["nope"])


class TestCloudscSearch:
    @pytest.fixture(scope="class")
    def result(self):
        return cloudsc_search().run()

    def test_finds_major_reduction(self, result):
        # Acceptance bar is >= 20%; the NBLOCKS stride/interchange story
        # is far past it.
        assert result.improvement >= 0.20
        assert result.best.score.moved_bytes < (
            result.baseline.score.moved_bytes
        )

    def test_best_is_known_optimum(self, result):
        kinds = {m.transform for m in result.best.sequence}
        assert kinds <= {"move_loop_into_map", "change_strides"}
        assert result.best.score.moved_bytes <= 4096

    def test_budget_respected(self, result):
        assert result.evaluated <= 60

    def test_dedup_happened(self, result):
        # Commuting layout transforms produce identical variants.
        assert result.deduplicated > 0

    def test_pass_cache_shared_across_candidates(self, result):
        # The core economics of the search: candidate re-scoring hits
        # the content-addressed pass cache.
        assert result.pass_hits > 0

    def test_trajectory_and_dict_shape(self, result):
        assert result.trajectory[0]["sequence"] == []
        assert all("moved_bytes" in e for e in result.trajectory)
        payload = result.to_dict()
        assert payload["stopped"] in (
            "converged", "depth", "budget", "timeout", "cancelled"
        )
        assert payload["best"]["moved_bytes"] == (
            result.best.score.moved_bytes
        )


class TestHdiffRediscovery:
    @pytest.fixture(scope="class")
    def result(self):
        return hdiff_search(hdiff.build_sdfg()).run()

    def test_beats_manual_sequence(self, result):
        """The search rediscovers (and here outdoes) the paper's manual
        permute+reorder variant."""
        assert result.best.score.moved_bytes <= HDIFF_MANUAL_BYTES

    def test_sequence_contains_manual_ingredients(self, result):
        kinds = {m.transform for m in result.best.sequence}
        assert "permute_array_layout" in kinds
        assert "reorder_map" in kinds

    def test_pass_hits_nonzero(self, result):
        assert result.pass_hits > 0


class TestControls:
    def test_events_emitted(self):
        events = []
        cloudsc_search(budget=20).run(on_event=events.append)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "end"
        assert "candidate" in kinds and "round" in kinds
        assert events[-1]["evaluated"] <= 20

    def test_budget_stops_search(self):
        result = cloudsc_search(budget=5, depth=6).run()
        assert result.evaluated <= 5
        assert result.stopped in ("budget", "depth")

    def test_cancel_before_run(self):
        token = CancelToken()
        token.cancel("test")
        result = cloudsc_search().run(cancel=token)
        assert result.stopped == "cancelled"
        assert result.evaluated == 1  # baseline only

    def test_timeout_zero(self):
        result = cloudsc_search(timeout=0.0).run()
        assert result.stopped == "timeout"

    def test_timer_never_outlives_the_run(self):
        """The timeout arms the caller's token only while the search runs."""
        token = CancelToken()
        result = cloudsc_search(budget=5, timeout=0.3).run(cancel=token)
        assert result.stopped in ("budget", "depth")
        time.sleep(0.4)
        assert not token.cancelled

    def test_baseline_never_mutated(self):
        from repro.sdfg.serialize import sdfg_fingerprint, to_json

        sdfg = cloudsc.build_sdfg()
        before = to_json(sdfg)
        fingerprint = sdfg_fingerprint(sdfg)
        TuningSearch(
            sdfg, cloudsc.LOCAL_VIEW_SIZES, beam=2, depth=1, budget=20,
            capacity_lines=cloudsc.CACHE["capacity_lines"],
        ).run()
        assert to_json(sdfg) == before
        assert sdfg_fingerprint(sdfg) == fingerprint

        # Two rounds: the second copies (and rewrites) copies.
        sdfg = hdiff.build_sdfg()
        before = to_json(sdfg)
        result = hdiff_search(sdfg, depth=2, budget=60).run()
        assert result.rounds == 2
        assert to_json(sdfg) == before

    def test_workers_pool_path(self):
        # The picklable pool path must agree with the serial path.
        serial = cloudsc_search(budget=20).run()
        pooled = cloudsc_search(budget=20, workers=2).run()
        assert (
            pooled.best.score.moved_bytes == serial.best.score.moved_bytes
        )
        assert pooled.evaluated == serial.evaluated

        def scores(result):
            return [
                (e["fingerprint"], e["moved_bytes"], e["ops"])
                for e in result.trajectory
            ]

        assert scores(pooled) == scores(serial)

    def test_recorded_fingerprints_and_ops_hold_at_the_end(self, monkeypatch):
        """Scored candidates still hash to what the search recorded.

        Children are fingerprinted once, when made, and scored with the
        baseline's op count; both must still describe every candidate
        once the whole search (sibling rewrites included) is over.
        """
        from repro.analysis.opcount import program_ops
        from repro.sdfg.serialize import sdfg_fingerprint

        search = hdiff_search(hdiff.build_sdfg(), depth=2, budget=60)
        scored = []
        evaluate = search._evaluate

        def spy(children, ops, cancel):
            out = evaluate(children, ops, cancel=cancel)
            scored.extend(out)
            return out

        monkeypatch.setattr(search, "_evaluate", spy)
        result = search.run()
        assert len(scored) == result.evaluated - 1
        for candidate in [result.baseline, *scored]:
            assert sdfg_fingerprint(candidate.sdfg) == candidate.fingerprint
            ops = program_ops(candidate.sdfg).evaluate(search.params)
            assert candidate.score.ops == ops

    def test_ops_counted_once_per_search(self):
        from repro.tool import Session

        session = Session(cloudsc.build_sdfg())

        def runs():
            counters = session.metrics.to_dict()["counters"]
            return counters.get("pass.global.totals.runs", 0)

        before = runs()
        result = session.tune(
            cloudsc.LOCAL_VIEW_SIZES, beam=2, depth=2, budget=20,
            capacity_lines=cloudsc.CACHE["capacity_lines"],
        )
        assert result.evaluated > 1
        assert runs() == before + 1


class TestStopSignal:
    """One token stops a search, mid-round: a caller's armed deadline or
    the search's own timeout cancels it, and scoring stops at the next
    point instead of finishing the round (23 hdiff children, 0.1 s each
    under the chaos spec)."""

    @pytest.fixture()
    def slow_points(self):
        chaos_mod.install("eval.slow:kind=sleep:delay=0.1")
        yield
        chaos_mod.uninstall()

    def run_with_deadline(self, search, seconds):
        token = CancelToken()
        timer = Deadline.after(seconds).arm(token)
        try:
            return search.run(cancel=token)
        finally:
            timer.cancel()

    def test_deadline_cuts_the_round(self, slow_points):
        began = time.monotonic()
        result = self.run_with_deadline(hdiff_search(hdiff.build_sdfg()), 0.25)
        assert time.monotonic() - began < 1.0
        assert result.stopped == "deadline"
        assert result.rounds == 1

    def test_timeout_cuts_the_round(self, slow_points):
        began = time.monotonic()
        result = hdiff_search(hdiff.build_sdfg(), timeout=0.25).run()
        assert time.monotonic() - began < 1.0
        assert result.stopped == "timeout"

    def test_cancelled_children_are_not_failures(self, slow_points):
        search = hdiff_search(hdiff.build_sdfg())
        result = self.run_with_deadline(search, 0.25)
        counters = search.metrics.to_dict()["counters"]
        assert counters["sweep.cancelled"] > 0
        assert counters.get("tuning.candidates.failed", 0) == 0
        assert len(result.trajectory) == result.evaluated


class TestPooledTune:
    """A pooled tune takes ``Session.sweep``'s path: it reads and fills
    the session store, and each pool task carries its own program."""

    SETTINGS = dict(
        beam=4, depth=2, budget=20, workers=2,
        line_size=cloudsc.CACHE["line_size"],
        capacity_lines=cloudsc.CACHE["capacity_lines"],
    )

    def test_repeat_is_served_from_the_store(self):
        from repro.tool import Session

        session = Session(cloudsc.build_sdfg())
        first = session.tune(cloudsc.LOCAL_VIEW_SIZES, **self.SETTINGS)
        counters = session.metrics.to_dict()["counters"]
        assert counters["sweep.points"] == first.evaluated - 1
        again = session.tune(cloudsc.LOCAL_VIEW_SIZES, **self.SETTINGS)
        repeat = session.metrics.to_dict()["counters"]
        assert repeat["sweep.points"] == counters["sweep.points"]
        assert repeat.get("pass.local.analytic.runs", 0) == counters.get(
            "pass.local.analytic.runs", 0
        )
        assert again.trajectory == first.trajectory

    def test_pool_tasks_carry_only_their_points_programs(self, monkeypatch):
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        import repro.analysis.executor as executor_module
        from repro.sdfg.serialize import loads, sdfg_fingerprint
        from repro.tool import Session

        tasks = []

        class SpyPool(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                if fn is executor_module._worker_evaluate_point:
                    tasks.append(args)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", SpyPool)
        result = Session(cloudsc.build_sdfg()).tune(
            cloudsc.LOCAL_VIEW_SIZES, **self.SETTINGS
        )
        shipped = []
        for fn, item in tasks:
            # The task pickles its point's program and little else: no
            # other round's variant, no baseline.
            assert len(pickle.dumps((fn, item))) < len(item[0]) + 512
            shipped.append(sdfg_fingerprint(loads(item[0])))
        # Each child went to the pool once, with its own program.
        children = [entry["fingerprint"] for entry in result.trajectory[1:]]
        assert sorted(shipped) == sorted(children)


class TestObjective:
    def test_score_components(self):
        from repro.passes import build_pipeline

        sdfg = cloudsc.build_sdfg()
        objective = MovementObjective(
            build_pipeline(), cloudsc.LOCAL_VIEW_SIZES,
            capacity_lines=cloudsc.CACHE["capacity_lines"],
        )
        score = objective.score(sdfg)
        assert score.moved_bytes == 28672
        assert score.ops > 0
        assert 0 < score.intensity < float("inf")
        assert score.to_dict()["moved_bytes"] == 28672

    def test_session_tune_shares_pipeline(self):
        from repro.tool import Session

        session = Session(cloudsc.build_sdfg())
        result = session.tune(
            cloudsc.LOCAL_VIEW_SIZES, beam=2, depth=1, budget=20,
            capacity_lines=cloudsc.CACHE["capacity_lines"],
        )
        assert result.evaluated > 1
        counters = session.metrics.to_dict()["counters"]
        assert counters.get("tuning.rounds", 0) >= 1
