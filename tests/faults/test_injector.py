"""FaultInjector: seeded decisions, backoff accounting, deferred queue."""

from hypothesis import given, strategies as st

from repro import ChordNetwork, ContinuousQueryEngine
from repro.faults import DelaySpec, FaultInjector, FaultPlan, NetFaultSpec
from repro.sim.messages import Message


class _Recorder(Message):
    type = "probe"


def _ring_with_sink(n=8):
    network = ChordNetwork.build(n)
    received = []
    for node in network.nodes:
        node.register_handler(
            "probe", lambda n_, m, log=received: log.append((n_.ident, m))
        )
    return network, received


class TestSeededDecisions:
    def test_same_seed_same_drop_sequence(self):
        plan = FaultPlan(loss_probability=0.3, seed=99)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        assert [a.should_drop() for _ in range(50)] == [
            b.should_drop() for _ in range(50)
        ]

    def test_zero_loss_never_draws(self):
        injector = FaultInjector(FaultPlan())
        state_before = injector.rng.getstate()
        assert not any(injector.should_drop() for _ in range(10))
        assert injector.rng.getstate() == state_before

    def test_delay_sampling_respects_bounds(self):
        plan = FaultPlan(
            delay=DelaySpec(probability=1.0, minimum=0.5, maximum=2.0), seed=4
        )
        injector = FaultInjector(plan)
        samples = [injector.sample_delay() for _ in range(100)]
        assert all(0.5 <= s <= 2.0 for s in samples)

    def test_noop_delay_samples_zero(self):
        injector = FaultInjector(FaultPlan(loss_probability=0.5))
        assert injector.sample_delay() == 0.0


class TestBackoff:
    def test_backoff_doubles_per_attempt(self):
        injector = FaultInjector(FaultPlan(backoff_base=0.1))
        assert injector.note_backoff(1) == 0.1
        assert injector.note_backoff(2) == 0.2
        assert injector.note_backoff(3) == 0.4
        assert abs(injector.backoff_total - 0.7) < 1e-12

    def test_zero_jitter_is_exact_and_draw_free(self):
        injector = FaultInjector(FaultPlan(backoff_base=0.1))
        state_before = injector.rng.getstate()
        assert injector.jittered(0.4) == 0.4
        # No RNG draw: downstream fault decisions stay byte-identical
        # to pre-jitter behaviour.
        assert injector.rng.getstate() == state_before

    def test_jittered_pause_stays_in_bounds(self):
        plan = FaultPlan(backoff_base=0.1, backoff_jitter=0.5, seed=11)
        injector = FaultInjector(plan)
        samples = [injector.jittered(0.2) for _ in range(200)]
        assert all(0.2 <= s <= 0.2 * 1.5 for s in samples)
        assert len(set(samples)) > 1  # it actually jitters

    def test_jitter_is_reproducible_from_the_seed(self):
        plan = FaultPlan(backoff_jitter=0.5, seed=11)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        assert [a.jittered(1.0) for _ in range(50)] == [
            b.jittered(1.0) for _ in range(50)
        ]


class TestWireFaultSampling:
    def test_same_seed_same_fault_sequence(self):
        plan = FaultPlan(
            seed=42, net=NetFaultSpec(frame_fault_probability=0.4)
        )
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        assert [a.sample_frame_fault() for _ in range(100)] == [
            b.sample_frame_fault() for _ in range(100)
        ]

    def test_all_fault_kinds_appear(self):
        plan = FaultPlan(
            seed=3, net=NetFaultSpec(frame_fault_probability=0.9)
        )
        injector = FaultInjector(plan)
        kinds = {injector.sample_frame_fault() for _ in range(200)}
        assert {"reset", "truncate", "garble"} <= kinds

    def test_zero_probability_never_draws(self):
        injector = FaultInjector(FaultPlan())
        state_before = injector.rng.getstate()
        assert all(
            injector.sample_frame_fault() is None for _ in range(10)
        )
        assert not any(
            injector.should_refuse_connection() for _ in range(10)
        )
        assert injector.rng.getstate() == state_before

    def test_refusal_rate_tracks_probability(self):
        plan = FaultPlan(
            seed=8, net=NetFaultSpec(connect_refusal_probability=0.3)
        )
        injector = FaultInjector(plan)
        refused = sum(
            injector.should_refuse_connection() for _ in range(1000)
        )
        assert 200 < refused < 400


class TestDeferredQueue:
    def test_defer_then_flush_delivers_fifo(self):
        network, received = _ring_with_sink()
        injector = FaultInjector(FaultPlan())
        target = network.nodes[0]
        injector.defer(_Recorder(), target, 1.0)
        injector.defer(_Recorder(), target, 2.0)
        assert injector.pending_deliveries == 2
        assert injector.flush_deferred() == 2
        assert injector.pending_deliveries == 0
        assert [ident for ident, _ in received] == [target.ident] * 2

    def test_lands_in_due_order_with_ties_in_push_order(self):
        network, received = _ring_with_sink()
        injector = FaultInjector(FaultPlan())
        messages = [_Recorder() for _ in range(5)]
        for message, delay in zip(messages, (3.0, 1.0, 2.0, 1.0, 1.0)):
            injector.defer(message, network.nodes[0], delay)
        assert injector.flush_deferred() == 5
        landed = [message for _, message in received]
        assert landed == [messages[i] for i in (1, 3, 4, 2, 0)]
        assert injector.clock.now == 3.0

    def test_land_before_is_strict_and_advances_the_clock(self):
        network, received = _ring_with_sink()
        injector = FaultInjector(FaultPlan())
        for delay in (1.0, 2.0, 2.0, 4.0):
            injector.defer(_Recorder(), network.nodes[0], delay)
        assert injector.land_before(2.0) == 1  # due strictly before
        assert injector.clock.now == 1.0
        assert injector.land_before(2.5) == 2
        assert injector.clock.now == 2.0
        assert injector.pending_deliveries == 1

    def test_landings_land_what_they_defer_when_due(self):
        network, received = _ring_with_sink()
        injector = FaultInjector(FaultPlan())
        seen = []

        def relay(node, message):
            seen.append(injector.clock.now)
            if len(seen) < 3:
                injector.defer(_Recorder(), node, 1.5)

        network.nodes[0].register_handler("probe", relay)
        injector.defer(_Recorder(), network.nodes[0], 1.0)
        assert injector.land_before(4.0) == 2  # 1.0, then 2.5; 4.0 waits
        assert seen == [1.0, 2.5]
        assert injector.flush_deferred() == 1
        assert seen == [1.0, 2.5, 4.0]

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=40))
    def test_property_landing_order_is_sorted_by_due_time(self, delays):
        network = ChordNetwork.build(4)
        order = []
        injector = FaultInjector(FaultPlan())
        network.nodes[0].register_handler(
            "probe", lambda node, message: order.append(injector.clock.now)
        )
        for delay in delays:
            injector.defer(_Recorder(), network.nodes[0], delay)
        injector.flush_deferred()
        assert order == sorted(delays)

    def test_crashed_target_redirects_to_successor(self):
        network, received = _ring_with_sink()
        target = network.nodes[2]
        heir = target.successor
        injector = FaultInjector(FaultPlan())
        injector.defer(_Recorder(), target, 1.0)
        network.fail(target)
        injector.flush_deferred()
        assert received == [(heir.ident, received[0][1])]
        assert injector.messages_lost == 0

    def test_message_lost_when_whole_successor_list_dead(self):
        network, received = _ring_with_sink(3)
        target = network.nodes[0]
        injector = FaultInjector(FaultPlan())
        injector.defer(_Recorder(), target, 1.0)
        for node in list(network.nodes):
            network.fail(node)
        injector.flush_deferred()
        assert received == []
        assert injector.messages_lost == 1

    def test_deferrals_fall_due_on_the_engine_clock(self):
        network, received = _ring_with_sink()
        injector = FaultInjector(FaultPlan())
        network.injector = injector
        engine = ContinuousQueryEngine(network)
        assert injector.clock is engine.clock
        engine.clock.advance(3.0)
        injector.defer(_Recorder(), network.nodes[0], 5.0)
        assert injector.land_before(8.0) == 0
        assert injector.land_before(8.5) == 1
        assert engine.clock.now == 8.0
