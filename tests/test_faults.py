"""Tests for the deterministic fault-injection framework.

The contract under test: a ``REPRO_FAULTS`` spec parses strictly (a
misspelled site or kind raises, never silently arms nothing), an
installed plan fires deterministically — same spec + same seed → the same
evaluations fire, independent of which other sites are armed — and with
no plan installed every failpoint is inert.  Around that sit the
kind-specific behaviours (``error`` raises an ``OSError`` with the
configured errno, ``crash`` exits with the SIGKILL code, ``torn``
actions are returned to the site), the site table in
``docs/robustness.md``, and the chaos harness's schedule builder.
"""

import errno
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, FaultError
from repro.faults import (
    CRASH_EXIT_CODE,
    SITES,
    InjectedFault,
    active_spec,
    crash_now,
    failpoint,
    fault_stats,
    faults_active,
    install_faults,
    install_faults_from_env,
    parse_faults,
    uninstall_faults,
)
from repro.faults import core as faults_core
from repro.faults.chaos import build_schedules

ROBUSTNESS_DOC = Path(__file__).resolve().parents[1] / "docs" / "robustness.md"


@pytest.fixture(autouse=True)
def inert_after_each():
    yield
    uninstall_faults()


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_site_defaults_apply(self):
        plan = parse_faults("store.fsync")
        action = plan.evaluate("store.fsync")
        assert action.kind == "error"
        assert action.errno == errno.ENOSPC

    def test_full_rule_parses(self):
        plan = parse_faults(
            "store.log.append:kind=error,p=0.5,count=3,after=2")
        state = plan._states["store.log.append"]
        assert (state.rule.kind, state.rule.p, state.rule.count,
                state.rule.after) == ("error", 0.5, 3, 2)

    def test_wildcard_arms_the_layer(self):
        plan = parse_faults("store.*")
        assert plan.sites() == sorted(
            name for name in SITES if name.startswith("store."))
        assert plan.sites() == ["store.fsync", "store.log.append",
                                "store.shard.write"]

    def test_multiple_rules_and_blank_chunks(self):
        plan = parse_faults("store.fsync:count=1; ;service.job.chunk")
        assert plan.sites() == ["service.job.chunk", "store.fsync"]

    def test_unknown_site_raises(self):
        with pytest.raises(FaultError, match="unknown fault site"):
            parse_faults("store.fsink")
        with pytest.raises(FaultError, match="matches no known site"):
            parse_faults("storage.*")

    def test_unknown_kind_raises(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            parse_faults("store.fsync:kind=explode")
        for kind in ("drop", "truncate"):
            with pytest.raises(FaultError, match="unknown fault kind"):
                parse_faults(f"store.log.append:kind={kind}")

    def test_unsupported_kind_for_site_raises(self):
        with pytest.raises(FaultError, match="does not support kind"):
            parse_faults("store.fsync:kind=torn")

    def test_malformed_parameter_raises(self):
        with pytest.raises(FaultError, match="expected key=value"):
            parse_faults("store.fsync:count")
        with pytest.raises(FaultError, match="unknown fault parameter"):
            parse_faults("store.fsync:chance=0.5")
        with pytest.raises(FaultError, match="malformed value"):
            parse_faults("store.fsync:count=lots")

    def test_probability_range_enforced(self):
        with pytest.raises(FaultError, match=r"\[0, 1\]"):
            parse_faults("store.fsync:p=1.5")

    def test_duplicate_site_raises(self):
        with pytest.raises(FaultError, match="armed twice"):
            parse_faults("store.fsync;store.fsync:count=1")
        with pytest.raises(FaultError, match="armed twice"):
            parse_faults("store.fsync;store.*")

    def test_errno_symbolic_and_numeric(self):
        plan = parse_faults("store.fsync:errno=EIO")
        assert plan.evaluate("store.fsync").errno == errno.EIO
        plan = parse_faults(f"store.fsync:errno={errno.EDQUOT}")
        assert plan.evaluate("store.fsync").errno == errno.EDQUOT
        with pytest.raises(FaultError, match="unknown errno"):
            parse_faults("store.fsync:errno=ENOPE")

    def test_fault_error_is_a_configuration_error(self):
        assert issubclass(FaultError, ConfigurationError)


# ----------------------------------------------------------------------
# plan semantics: determinism, count, after, p
# ----------------------------------------------------------------------
class TestPlanSemantics:
    def test_count_disarms_after_n_fires(self):
        plan = parse_faults("store.fsync:count=2")
        fired = [plan.evaluate("store.fsync") is not None
                 for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_after_skips_leading_evaluations(self):
        plan = parse_faults("store.fsync:after=3,count=1")
        fired = [plan.evaluate("store.fsync") is not None
                 for _ in range(5)]
        assert fired == [False, False, False, True, False]

    def test_unarmed_site_never_fires(self):
        plan = parse_faults("store.fsync")
        assert plan.evaluate("service.job.chunk") is None

    def test_same_seed_replays_exactly(self):
        pattern = []
        for s in (7, 7):
            plan = parse_faults("store.log.append:p=0.3", seed=s)
            pattern.append([plan.evaluate("store.log.append") is not None
                            for _ in range(64)])
        assert pattern[0] == pattern[1]
        assert any(pattern[0]) and not all(pattern[0])

    def test_fire_pattern_independent_of_other_armed_sites(self):
        alone = parse_faults("store.log.append:p=0.3", seed=7)
        crowded = parse_faults(
            "store.log.append:p=0.3;store.fsync:p=0.5;"
            "service.job.chunk:kind=delay,p=0.5,ms=0", seed=7)
        for _ in range(64):
            # Interleave draws at the other sites to try to perturb it.
            crowded.evaluate("store.fsync")
            assert (alone.evaluate("store.log.append") is None) == \
                (crowded.evaluate("store.log.append") is None)

    def test_stats_count_evaluations_and_fires(self):
        plan = parse_faults("store.fsync:count=1")
        for _ in range(3):
            plan.evaluate("store.fsync")
        assert plan.stats()["store.fsync"] == {
            "kind": "error", "evaluations": 3, "fires": 1}


# ----------------------------------------------------------------------
# the failpoint entry and the global plan
# ----------------------------------------------------------------------
class TestFailpoint:
    def test_inert_without_a_plan(self):
        assert not faults_active()
        assert failpoint("store.fsync") is None
        assert failpoint("not.even.a.site") is None
        assert fault_stats() == {}

    def test_error_kind_raises_injected_osError(self):
        install_faults("store.fsync:count=1")
        with pytest.raises(InjectedFault) as excinfo:
            failpoint("store.fsync")
        assert isinstance(excinfo.value, OSError)
        assert excinfo.value.errno == errno.ENOSPC
        assert excinfo.value.site == "store.fsync"
        assert failpoint("store.fsync") is None  # count exhausted

    def test_delay_kind_sleeps_and_continues(self):
        install_faults("service.job.chunk:kind=delay,ms=1,count=1")
        assert failpoint("service.job.chunk") is None

    def test_drop_action_returned_to_the_site(self):
        # ``torn`` is a kind the framework cannot perform: it comes back
        # to the site, which writes part of its record and then fails.
        install_faults("store.log.append:count=1")
        action = failpoint("store.log.append")
        assert (action.site, action.kind) == ("store.log.append", "torn")
        assert action.error().errno == errno.EIO
        assert failpoint("store.log.append") is None  # count exhausted

    def test_crash_kind_exits_with_sigkill_code(self, monkeypatch, capsys):
        codes = []
        monkeypatch.setattr(faults_core, "_exit", codes.append)
        install_faults("service.job.chunk:kind=crash,count=1")
        failpoint("service.job.chunk")
        assert codes == [CRASH_EXIT_CODE]
        assert "injected crash at service.job.chunk" in \
            capsys.readouterr().err

    def test_crash_now_uses_the_same_exit(self, monkeypatch):
        codes = []
        monkeypatch.setattr(faults_core, "_exit", codes.append)
        install_faults("service.journal.append:count=1")
        action = failpoint("service.journal.append")
        assert action.kind == "torn"
        crash_now(action)
        assert codes == [CRASH_EXIT_CODE]

    def test_install_and_uninstall(self):
        install_faults("store.fsync:count=1", seed=3)
        assert faults_active()
        assert active_spec() == "store.fsync:count=1"
        uninstall_faults()
        assert not faults_active()
        assert active_spec() is None

    def test_install_empty_clears(self):
        install_faults("store.fsync")
        assert install_faults(None) is None
        assert not faults_active()
        install_faults("store.fsync")
        assert install_faults("   ") is None
        assert not faults_active()

    def test_install_from_env(self):
        plan = install_faults_from_env(
            {"REPRO_FAULTS": "store.fsync:count=1",
             "REPRO_FAULTS_SEED": "11"})
        assert plan.seed == 11
        assert faults_active()

    def test_install_from_env_absent_is_inert(self):
        assert install_faults_from_env({}) is None

    def test_install_from_env_bad_seed_raises(self):
        with pytest.raises(FaultError, match="must be an integer"):
            install_faults_from_env(
                {"REPRO_FAULTS": "store.fsync",
                 "REPRO_FAULTS_SEED": "tuesday"})


# ----------------------------------------------------------------------
# the site table operators read
# ----------------------------------------------------------------------
class TestSiteTableDocs:
    def test_robustness_table_matches_the_catalogue(self):
        """Every row of the ``docs/robustness.md`` site table names a
        catalogued site with its layer and its kinds, default first."""
        rows = {}
        for line in ROBUSTNESS_DOC.read_text().splitlines():
            if not line.startswith("| `"):
                continue
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            name = cells[0].strip("`")
            rows[name] = (cells[1],
                          tuple(kind.strip() for kind in cells[2].split(",")))
        assert sorted(rows) == sorted(SITES)
        for name, site in SITES.items():
            assert rows[name] == (site.layer, site.kinds), name
            assert site.kinds[0] == site.default_kind, name


# ----------------------------------------------------------------------
# chaos schedule builder
# ----------------------------------------------------------------------
class TestChaosSchedules:
    def test_union_covers_the_whole_catalogue(self):
        plans = build_schedules(3, seed=9)
        covered = {site for plan in plans for site in plan["sites"]}
        assert covered == set(SITES)

    def test_schedules_are_deterministic(self):
        assert build_schedules(3, seed=9) == build_schedules(3, seed=9)
        assert build_schedules(3, seed=9) != build_schedules(3, seed=10)

    def test_every_rule_parses_and_is_count_limited(self):
        for plan in build_schedules(4, seed=1):
            for site, rule in plan["rules"].items():
                parsed = parse_faults(rule, seed=plan["seed"])
                assert parsed.sites() == [site]
                state = parsed._states[site]
                # Termination guarantee: probabilistic rules must carry a
                # fire cap, otherwise the soak could loop forever.
                assert state.rule.count is not None

    def test_placement_specs_partition_the_sites(self):
        for plan in build_schedules(2, seed=5):
            grouped = ";".join(spec for spec in plan["specs"].values()
                               if spec)
            assert parse_faults(grouped).sites() == plan["sites"]

    def test_zero_schedules_rejected(self):
        with pytest.raises(FaultError, match="at least one"):
            build_schedules(0, seed=1)
