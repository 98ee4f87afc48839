"""Dynamic-traffic harness: generation, replay, and spectrum conservation."""

import dataclasses
import json
import random

import pytest

from conftest import make_net

import ddpp.traffic
from ddpp import (
    Demand,
    NetworkError,
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
from ddpp.spectrum_core import remove_interval


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
        with pytest.raises(ValueError, match=r"demanded units \d+ exceed unit count 8"):
            gen_traffic(net, 20, 1.0, 1.0, (1, 99), 0)
        with pytest.raises(ValueError, match="malformed time or hold"):
            gen_traffic(net, 20, 1.0, 1e308, (1, 1), 0)

    def test_units_range_above_unit_count_rejected_for_every_seed(self):
        # seeds 0-4 draw no 9 for the one event, seed 5 does
        net = random_network(6, 2.5, 8, 0.9, 1)
        for seed in range(6):
            with pytest.raises(ValueError, match="demanded units 9 exceed unit count 8"):
                gen_traffic(net, 1, 1.0, 1.0, (1, 9), seed)

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValueError, match="count must be an integer, got 2.5"):
            gen_traffic(lobe_network(1, 2), 2.5, 1.0, 1.0, (1, 1), 0)

    def test_negative_count_and_reversed_units_range_rejected(self):
        net = lobe_network(1, 2)
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            gen_traffic(net, -1, 1.0, 1.0, (1, 1), 0)
        with pytest.raises(ValueError, match=r"malformed units range \[2, 1\]"):
            gen_traffic(net, 5, 1.0, 1.0, (2, 1), 0)

    @pytest.mark.parametrize("mean_hold, mean_gap, units_range, message", [
        ("1", 1.0, (1, 1), "positive and finite"),
        (1.0, None, (1, 1), "positive and finite"),
        (1.0, 1.0, (1.5, 2), "malformed units range"),
        (1.0, 1.0, ("1", 2), "malformed units range"),
        (1.0, 1.0, (1,), "malformed units range"),
    ], ids=["string-hold", "none-gap", "float-units", "string-units", "one-bound"])
    def test_parameter_types_checked_before_use(self, mean_hold, mean_gap, units_range,
                                                message):
        with pytest.raises(ValueError, match=message):
            gen_traffic(lobe_network(1, 2), 5, mean_hold, mean_gap, units_range, 0)

    @pytest.mark.parametrize("seed", [None, [1], 1.5, True, "1"],
                             ids=["none", "list", "float", "bool", "string"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError) as caught:
            gen_traffic(lobe_network(1, 2), 2, 1.0, 1.0, (1, 1), seed)
        assert str(caught.value) == f"seed must be an integer, got {seed!r}"

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

    def test_equal_time_arrivals_are_served_by_id(self):
        # 0 takes the one unit before 1, whatever the list order; 2
        # arrives after 0 has left
        events = [
            TrafficEvent(2, 5.0, "n_s", "n_x", 1, 1.0),
            TrafficEvent(1, 0.0, "n_s", "n_x", 1, 10.0),
            TrafficEvent(0, 0.0, "n_s", "n_x", 1, 1.0),
        ]
        report = run(lobe_network(1, 1), events)
        assert (report.offered, report.routed, report.blocked) == (3, 2, 1)

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
        with pytest.raises(NetworkError, match="event 0: demand references unknown node 'zz'"):
            run(net, [TrafficEvent(0, 0.0, "n_s", "zz", 1, 1.0)])
        with pytest.raises(ValueError, match="event 0: demand endpoints must differ"):
            run(net, [TrafficEvent(0, 0.0, "n_s", "n_s", 1, 1.0)])
        with pytest.raises(ValueError, match="duplicate event id"):
            run(net, [TrafficEvent(0, 0.0, "n_s", "n_x", 1, 1.0),
                      TrafficEvent(0, 1.0, "n_s", "n_x", 1, 1.0)])
        with pytest.raises(ValueError, match="event 0: demanded units 3 exceed unit count 2"):
            run(net, [TrafficEvent(0, 0.0, "n_s", "n_x", 3, 1.0)])
        for units in (1.5, True):
            with pytest.raises(ValueError, match=f"event 0: demand units {units!r} is not an integer"):
                run(net, [TrafficEvent(0, 0.0, "n_s", "n_x", units, 1.0)])
        for time, hold in ((float("nan"), 1.0), (0.0, float("inf")), (-1.0, 1.0)):
            with pytest.raises(ValueError, match="malformed time or hold"):
                run(net, [TrafficEvent(0, time, "n_s", "n_x", 1, hold)])

    def test_non_string_endpoint_rejected(self):
        with pytest.raises(ValueError, match=r"event 0: demand src \['n_s'\] is not a string"):
            run(lobe_network(1, 2), [TrafficEvent(0, 0.0, ["n_s"], "n_x", 1, 1.0)])

    def test_mixed_id_types_rejected_before_sorting(self):
        with pytest.raises(ValueError, match="event id 'a' is not an integer"):
            run(lobe_network(1, 2), [TrafficEvent(0, 0.0, "n_s", "n_x", 1, 1.0),
                                     TrafficEvent("a", 0.0, "n_s", "n_x", 1, 1.0)])

    def test_string_time_rejected_before_sorting(self):
        with pytest.raises(ValueError, match="malformed time or hold"):
            run(lobe_network(1, 2), [TrafficEvent(0, "0", "n_s", "n_x", 1, 1.0),
                                     TrafficEvent(1, 0.0, "n_s", "n_x", 1, 1.0)])

    def test_input_order_and_iterable_do_not_matter(self):
        net = random_network(6, 2.5, 4, 0.8, 21)
        events = gen_traffic(net, 60, 4.0, 0.2, (1, 2), 3)
        shuffled = list(events)
        random.Random(0).shuffle(shuffled)
        in_order = run(net, events).to_doc()
        assert in_order["offered"] == 60
        del in_order["mean_wall_time"]
        for given in (iter(events), reversed(events), shuffled):
            report = run(net, given).to_doc()
            del report["mean_wall_time"]
            assert report == in_order

    def test_rejects_bad_options_without_arrivals(self):
        with pytest.raises(ValueError, match="unknown mode"):
            run(lobe_network(1, 2), [], SearchOptions(mode="bogus"))

    def test_malformed_traffic_documents(self):
        with pytest.raises(ValueError):
            load_traffic({"nope": []})
        with pytest.raises(ValueError, match="'events' list"):
            load_traffic({"events": None})
        with pytest.raises(ValueError, match="malformed traffic event .*: event 0: demand src "
                                             "None is not a string"):
            load_traffic({"events": [{"id": 0}]})
        good = {"id": 0, "time": 0.0, "src": "a", "dst": "b", "units": 1, "hold": 1.0}
        assert load_traffic({"events": [good]}) == [TrafficEvent(0, 0.0, "a", "b", 1, 1.0)]
        for key, value, reason in (
                ("src", ["a"], "event 0: demand src ['a'] is not a string"),
                ("dst", None, "event 0: demand dst None is not a string"),
                ("units", True, "event 0: demand units True is not an integer"),
                ("units", 2.9, "event 0: demand units 2.9 is not an integer"),
                ("id", "3", "event id '3' is not an integer"),
                ("id", False, "event id False is not an integer"),
                ("time", "nan", "malformed time or hold"),
                ("time", "inf", "malformed time or hold"),
                ("time", float("nan"), "malformed time or hold"),
                ("hold", float("inf"), "malformed time or hold"),
                ("hold", True, "malformed time or hold"),
                ("time", 10**400, "malformed time or hold")):
            with pytest.raises(ValueError, match="malformed traffic event") as caught:
                load_traffic({"events": [{**good, key: value}]})
            assert str(caught.value).endswith(reason), (key, value, str(caught.value))
        with pytest.raises(ValueError,
                           match="malformed traffic event 'not an object': not an object"):
            load_traffic({"events": ["not an object"]})

    def test_events_check_themselves(self):
        with pytest.raises(ValueError, match="event 0 has a malformed time or hold"):
            TrafficEvent(0, float("nan"), "a", "b", 1, 1.0)
        event = TrafficEvent(0, 0.0, "a", "b", 1, 1.0)
        with pytest.raises(ValueError, match="event 0 has a malformed time or hold"):
            dataclasses.replace(event, hold=0)
        with pytest.raises(ValueError, match="event 0: demand endpoints must differ"):
            dataclasses.replace(event, dst="a")

    def test_integer_times_round_trip_unchanged(self):
        doc = {"events": [{"id": 0, "time": 0, "src": "a", "dst": "b", "units": 1, "hold": 1},
                          {"id": 1, "time": 2, "src": "b", "dst": "a", "units": 2, "hold": 0.5}]}
        assert json.dumps(dump_traffic(load_traffic(doc))) == json.dumps(doc)


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

    def test_each_arrival_solves_on_the_current_spectrum(self, monkeypatch):
        # 0 routes on the initial network; 1 and 2 are blocked while 0
        # holds both lobe routes' unit; 3 arrives after 0 departs and sees
        # the spectrum restored
        net = lobe_network(2, 1)
        events = [TrafficEvent(0, 0.0, "n_s", "n_x", 1, 10.0),
                  TrafficEvent(1, 1.0, "n_s", "n_x", 1, 1.0),
                  TrafficEvent(2, 2.0, "n_s", "n_x", 1, 1.0),
                  TrafficEvent(3, 20.0, "n_s", "n_x", 1, 1.0)]
        seen, built = [], []
        inner_solve, inner_network = ddpp.traffic.solve, ddpp.traffic.Network

        def recording_solve(snapshot, demand, opts=None):
            seen.append((snapshot, demand, inner_solve(snapshot, demand, opts)))
            return seen[-1][2]

        def counting_network(*args):
            built.append(inner_network(*args))
            return built[-1]

        monkeypatch.setattr(ddpp.traffic, "solve", recording_solve)
        monkeypatch.setattr(ddpp.traffic, "Network", counting_network)
        report = run(net, events)
        assert (report.routed, report.blocked) == (2, 2)
        assert len(built) == 4
        assert all(snapshot is network for (snapshot, _, _), network in zip(seen, built))
        assert [demand for _, demand, _ in seen] == [
            Demand(ev.src, ev.dst, ev.units) for ev in events]
        first = seen[0][2]
        held = {link_id: leg.slots
                for leg in (first.working, first.protecting) for link_id in leg.links}
        loaded = tuple(
            remove_interval(link.available, held[link.id]) if link.id in held
            else link.available
            for link in net.links)
        for snapshot, _, _ in seen[1:3]:
            assert tuple(link.available for link in snapshot.links) == loaded
        assert seen[0][0].links == seen[3][0].links == net.links


class TestGoldenReplay:
    FIELDS = ("offered", "routed", "blocked", "blocking_probability", "mean_labels",
              "max_labels")
    # (n, seed, mode) -> FIELDS; every report field but the measured wall time
    GOLDEN = {
        (8, 1, "base"): (50, 29, 21, 0.42, 69.12, 452),
        (8, 1, "prime"): (50, 29, 21, 0.42, 68.06, 440),
        (9, 2, "base"): (50, 21, 29, 0.58, 117.72, 1174),
        (9, 2, "prime"): (50, 21, 29, 0.58, 115.28, 1126),
        (10, 3, "base"): (50, 14, 36, 0.72, 91.64, 1107),
        (10, 3, "prime"): (50, 14, 36, 0.72, 89.96, 1037),
        (12, 4, "base"): (50, 23, 27, 0.54, 301.32, 3157),
        (12, 4, "prime"): (50, 23, 27, 0.54, 275.16, 2546),
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

    def test_release_of_units_still_free(self, monkeypatch):
        net = make_net(2, ["s", "t"], [("s", "t", 1, [(0, 2)]), ("s", "t", 1, [(0, 2)])])
        # an allocation that cuts nothing leaves the held units free
        monkeypatch.setattr(ddpp.traffic, "remove_interval", lambda available, cut: available)
        with pytest.raises(RuntimeError, match="double release: link"):
            run(net, [TrafficEvent(0, 0.0, "s", "t", 1, 1.0)])

    def test_release_that_drops_its_window(self, monkeypatch):
        real = ddpp.traffic.normalize_intervals
        # a release whose merge loses the returned window, its last item
        monkeypatch.setattr(ddpp.traffic, "normalize_intervals",
                            lambda items: real(tuple(items)[:-1]))
        with pytest.raises(RuntimeError, match="spectrum not restored on link"):
            run(lobe_network(1, 2), [TrafficEvent(0, 0.0, "n_s", "n_x", 1, 1.0)])

    def test_adjacent_windows_on_one_link_release_cleanly(self, monkeypatch):
        # windows that touch but do not overlap are not a double release
        net = make_net(2, ["s", "t"], [("s", "t", 1, [(0, 2)])])
        monkeypatch.setattr(ddpp.traffic, "solve", self._fake_solve(
            RouteLeg(["s", "t"], [0], UnitInterval(0, 1)),
            RouteLeg(["s", "t"], [0], UnitInterval(1, 2))))
        assert run(net, [TrafficEvent(0, 0.0, "s", "t", 1, 1.0)]).routed == 1
