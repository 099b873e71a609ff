"""Chaos campaign: a real SIGKILLed subprocess must resume bit-identically."""

from repro.experiments.stress import run_chaos


class TestChaosCampaign:
    def test_sigkill_resume_interleave(self):
        report = run_chaos(
            scale=6, num_seeds=1, engines=("par", "fast", "dict"),
        )
        # ok means every resumed permutation equals the uninterrupted one
        assert report.ok, report.table()
        # every cell really was killed mid-run and resumed from a snapshot
        assert all(o.resumed_from > 0 for o in report.outcomes)

    def test_cross_engine_resume(self):
        """The ``cross`` case resumes a killed flat-engine run under the
        dict engine and vice versa: the snapshot wire format is
        engine-neutral and both layouts land on the same permutation."""
        report = run_chaos(
            scale=6, num_seeds=1, engines=("par", "par-dict"),
        )
        assert report.ok, report.table()
        cross = [o for o in report.outcomes if o.case == "cross"]
        assert {o.engine for o in cross} == {"par", "par-dict"}
        assert all(o.resumed_from > 0 for o in cross)
