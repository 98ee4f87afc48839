"""Dynamic-traffic harness: generation, replay, and spectrum conservation."""

import dataclasses

import pytest

from conftest import make_net

import ddpp.traffic
from ddpp import (
    Demand,
    RouteLeg,
    SearchOptions,
    SearchStats,
    Solution,
    TrafficEvent,
    UnitInterval,
    dump_traffic,
    gen_traffic,
    load_traffic,
    lobe_network,
    random_network,
    run,
    solve,
)


class TestGenTraffic:
    def test_empty(self):
        assert gen_traffic(lobe_network(1, 1), 0, 1.0, 1.0, (1, 1), 0) == []

    def test_structure_and_monotone_times(self):
        net = random_network(6, 2.5, 8, 1.0, 3)
        events = gen_traffic(net, 100, 2.0, 0.5, (1, 3), 7)
        assert len(events) == 100
        assert [ev.id for ev in events] == list(range(100))
        ordered = sorted(events, key=lambda ev: (ev.time, ev.id))
        times = [ev.time for ev in ordered]
        assert all(earlier < later for earlier, later in zip(times, times[1:]))
        assert all(1 <= ev.units <= 3 for ev in events)
        assert all(ev.src != ev.dst for ev in events)
        assert all(ev.hold > 0 for ev in events)

    def test_fixed_units_range(self):
        events = gen_traffic(lobe_network(2, 4), 50, 1.0, 1.0, (1, 1), 5)
        assert all(ev.units == 1 for ev in events)

    def test_deterministic_per_seed(self):
        net = lobe_network(2, 4)
        assert gen_traffic(net, 30, 1.0, 1.0, (1, 2), 9) == gen_traffic(
            net, 30, 1.0, 1.0, (1, 2), 9
        )

    def test_degenerate_network(self):
        solo = make_net(2, ["a"], [])
        with pytest.raises(ValueError, match="at least 2 nodes"):
            gen_traffic(solo, 1, 1.0, 1.0, (1, 1), 0)
        net = lobe_network(2, 8)
        for hold, gap in ((float("nan"), 1.0), (1.0, float("inf")), (float("inf"), 1.0),
                          (0.0, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError, match="positive and finite"):
                gen_traffic(net, 5, hold, gap, (1, 1), 0)
        # never emits what run() rejects: too many units, or times past a float
        with pytest.raises(ValueError, match="demands"):
            gen_traffic(net, 20, 1.0, 1.0, (1, 99), 0)
        with pytest.raises(ValueError, match="malformed time or hold"):
            gen_traffic(net, 20, 1.0, 1e308, (1, 1), 0)

    def test_document_round_trip(self):
        events = gen_traffic(lobe_network(2, 4), 20, 1.5, 0.7, (1, 2), 11)
        assert load_traffic(dump_traffic(events)) == events


class TestRun:
    def test_empty_event_list(self):
        report = run(lobe_network(2, 1), [])
        assert report.offered == 0 and report.blocked == 0
        assert report.blocking_probability == 0.0

    def test_hold_then_release_on_single_unit(self):
        # one unit everywhere: a held connection blocks its twin, and a
        # third copy routes again once the first departs
        net = lobe_network(2, 1)
        events = [
            TrafficEvent(0, 0.0, "n_s", "n_x", 1, 2.0),
            TrafficEvent(1, 1.0, "n_s", "n_x", 1, 1.0),
            TrafficEvent(2, 3.0, "n_s", "n_x", 1, 1.0),
        ]
        report = run(net, events)
        assert report.offered == 3
        assert report.routed == 2
        assert report.blocked == 1
        assert report.blocking_probability == pytest.approx(1 / 3)

    def test_departure_frees_exactly_at_arrival_time(self):
        net = lobe_network(1, 1)
        events = [
            TrafficEvent(0, 0.0, "n_s", "n_x", 1, 1.0),
            TrafficEvent(1, 1.0, "n_s", "n_x", 1, 1.0),
        ]
        report = run(net, events)
        assert report.blocked == 0

    def test_counts_add_up_under_load(self):
        net = random_network(6, 2.5, 4, 0.8, seed=21)
        events = gen_traffic(net, 200, 4.0, 0.2, (1, 2), seed=3)
        report = run(net, events, SearchOptions(mode="prime"))
        assert report.offered == 200
        assert report.offered == report.routed + report.blocked
        assert report.blocked > 0, "load too light to exercise blocking"
        assert report.max_labels >= report.mean_labels > 0

    def test_replay_is_identical(self):
        net = random_network(6, 2.5, 4, 0.8, seed=21)
        events = load_traffic(dump_traffic(gen_traffic(net, 150, 3.0, 0.3, (1, 2), 5)))
        first = run(net, events)
        second = run(net, events)
        # wall time is measured, everything else must replay exactly
        strip = ("mean_wall_time",)
        for field in dataclasses.fields(first):
            if field.name not in strip:
                assert getattr(first, field.name) == getattr(second, field.name)

    def test_conservation_is_enforced(self):
        # run() raises unless the final spectrum equals the initial one;
        # a clean return on a loaded instance is the conservation check
        net = random_network(5, 2.4, 4, 0.6, seed=8)
        events = gen_traffic(net, 120, 5.0, 0.1, (1, 2), seed=2)
        run(net, events)

    def test_base_and_prime_agree_on_block_counts(self):
        net = random_network(6, 2.5, 4, 0.7, seed=33)
        events = gen_traffic(net, 80, 3.0, 0.4, (1, 2), seed=6)
        base = run(net, events, SearchOptions(mode="base"))
        prime = run(net, events, SearchOptions(mode="prime"))
        assert base.routed == prime.routed
        assert base.blocked == prime.blocked

    def test_rejects_bad_events(self):
        net = lobe_network(1, 2)
        with pytest.raises(Exception, match="unknown nodes"):
            run(net, [TrafficEvent(0, 0.0, "n_s", "zz", 1, 1.0)])
        with pytest.raises(ValueError, match="duplicate event id"):
            run(net, [TrafficEvent(0, 0.0, "n_s", "n_x", 1, 1.0),
                      TrafficEvent(0, 1.0, "n_s", "n_x", 1, 1.0)])
        with pytest.raises(ValueError, match="demands"):
            run(net, [TrafficEvent(0, 0.0, "n_s", "n_x", 3, 1.0)])
        for time, hold in ((float("nan"), 1.0), (0.0, float("inf")), (-1.0, 1.0)):
            with pytest.raises(ValueError, match="malformed time or hold"):
                run(net, [TrafficEvent(0, time, "n_s", "n_x", 1, hold)])

    def test_malformed_traffic_documents(self):
        with pytest.raises(ValueError):
            load_traffic({"nope": []})
        with pytest.raises(ValueError, match="'events' list"):
            load_traffic({"events": None})
        with pytest.raises(ValueError, match="malformed traffic event"):
            load_traffic({"events": [{"id": 0}]})
        good = {"id": 0, "time": 0.0, "src": "a", "dst": "b", "units": 1, "hold": 1.0}
        assert load_traffic({"events": [good]}) == [TrafficEvent(0, 0.0, "a", "b", 1, 1.0)]
        for key, value in (("src", ["a"]), ("dst", None), ("units", True), ("units", 2.9),
                           ("id", "3"), ("id", False), ("time", "nan"), ("time", "inf"),
                           ("time", float("nan")), ("hold", float("inf")), ("hold", True),
                           ("time", 10**400)):
            with pytest.raises(ValueError, match="malformed traffic event"):
                load_traffic({"events": [{**good, key: value}]})
        with pytest.raises(ValueError, match="malformed traffic event"):
            load_traffic({"events": ["not an object"]})


class TestAllocationSemantics:
    def test_slots_cleared_during_hold(self):
        # while the first connection holds both lobe routes' unit, an
        # identical immediate solve on the loaded snapshot is blocked
        net = lobe_network(2, 1)
        demand = Demand("n_s", "n_x", 1)
        sol = solve(net, demand)
        assert sol.routed
        events = [TrafficEvent(0, 0.0, "n_s", "n_x", 1, 10.0),
                  TrafficEvent(1, 1.0, "n_s", "n_x", 1, 1.0)]
        report = run(net, events)
        assert report.routed == 1 and report.blocked == 1


class TestGoldenReplay:
    FIELDS = ("offered", "routed", "blocked", "blocking_probability", "mean_labels",
              "max_labels")
    # (n, seed, mode) -> FIELDS; every report field but the measured wall time
    GOLDEN = {
        (8, 1, "base"): (50, 29, 21, 0.42, 197.02, 635),
        (8, 1, "prime"): (50, 29, 21, 0.42, 195.12, 623),
        (9, 2, "base"): (50, 21, 29, 0.58, 256.72, 1995),
        (9, 2, "prime"): (50, 21, 29, 0.58, 250.68, 1875),
        (10, 3, "base"): (50, 14, 36, 0.72, 250.02, 2676),
        (10, 3, "prime"): (50, 14, 36, 0.72, 244.04, 2559),
        (12, 4, "base"): (50, 23, 27, 0.54, 594.98, 3516),
        (12, 4, "prime"): (50, 23, 27, 0.54, 547.58, 3082),
    }

    def test_reports_match_golden(self):
        """Seeded replays report exactly the same counts and label effort."""
        for (n, seed, mode), expect in self.GOLDEN.items():
            net = random_network(n, 3.0, 8, 0.8, seed)
            events = gen_traffic(net, 50, 3.0, 0.25, (1, 2), seed)
            doc = run(net, events, SearchOptions(mode=mode)).to_doc()
            del doc["mean_wall_time"]
            assert doc == dict(zip(self.FIELDS, expect)), (n, seed, mode)


class TestFaultChecks:
    """A solver answer that does not fit the free spectrum stops the replay."""

    @staticmethod
    def _fake_solve(working, protecting):
        def fake(net, demand, opts=None):
            return Solution("routed", 0, working, protecting, SearchStats())
        return fake

    def test_slots_not_free_on_a_link(self, monkeypatch):
        net = make_net(2, ["s", "t"], [("s", "t", 1, [(0, 2)]), ("s", "t", 1, [(0, 1)])])
        monkeypatch.setattr(ddpp.traffic, "solve", self._fake_solve(
            RouteLeg(["s", "t"], [0], UnitInterval(1, 2)),
            RouteLeg(["s", "t"], [1], UnitInterval(1, 2))))
        with pytest.raises(RuntimeError, match="allocation breach: link 1"):
            run(net, [TrafficEvent(0, 0.0, "s", "t", 1, 1.0)])

    def test_route_repeats_a_link(self, monkeypatch):
        net = make_net(2, ["s", "t"], [("s", "t", 1, [(0, 2)]), ("s", "t", 1, [(0, 2)])])
        monkeypatch.setattr(ddpp.traffic, "solve", self._fake_solve(
            RouteLeg(["s", "t", "s"], [0, 0], UnitInterval(0, 1)),
            RouteLeg(["s", "t"], [1], UnitInterval(0, 1))))
        with pytest.raises(RuntimeError, match="allocation breach: link 0"):
            run(net, [TrafficEvent(0, 0.0, "s", "t", 1, 1.0)])
