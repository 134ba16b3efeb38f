"""Simulated network: latency, FIFO channels and message accounting."""

import pytest

from repro.common.config import CoordinatorCrash, FaultConfig, NetworkConfig, SiteCrash
from repro.common.errors import SimulationError
from repro.sim.actor import Actor, Message
from repro.sim.faults import FaultInjector
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator


class Recorder(Actor):
    """Actor that records every delivered message."""

    def __init__(self, name, site):
        super().__init__(name, site)
        self.received = []

    def handle(self, message: Message) -> None:
        self.received.append(message)


def build_network(fixed=0.01, variable=0.0, local=0.001):
    simulator = Simulator()
    network = Network(
        simulator,
        NetworkConfig(fixed_delay=fixed, variable_delay=variable, local_delay=local),
        RandomStreams(1),
    )
    return simulator, network


class TestRegistration:
    def test_duplicate_names_rejected(self):
        _, network = build_network()
        network.register(Recorder("a", 0))
        with pytest.raises(SimulationError):
            network.register(Recorder("a", 1))

    def test_unknown_actor_lookup_raises(self):
        _, network = build_network()
        with pytest.raises(SimulationError):
            network.actor("missing")


class TestDelivery:
    def test_remote_message_arrives_after_fixed_delay(self):
        simulator, network = build_network(fixed=0.05, variable=0.0)
        sender, receiver = Recorder("s", 0), Recorder("r", 1)
        network.register(sender)
        network.register(receiver)
        network.send(sender, "r", "ping", payload=123)
        simulator.run()
        assert len(receiver.received) == 1
        assert receiver.received[0].payload == 123
        assert simulator.now == pytest.approx(0.05)

    def test_local_message_uses_local_delay(self):
        simulator, network = build_network(fixed=0.05, local=0.001)
        sender, receiver = Recorder("s", 0), Recorder("r", 0)
        network.register(sender)
        network.register(receiver)
        network.send(sender, "r", "ping")
        simulator.run()
        assert simulator.now == pytest.approx(0.001)

    def test_channel_is_fifo_even_with_random_latency(self):
        simulator, network = build_network(fixed=0.01, variable=0.05)
        sender, receiver = Recorder("s", 0), Recorder("r", 1)
        network.register(sender)
        network.register(receiver)
        for index in range(20):
            network.send(sender, "r", "msg", payload=index)
        simulator.run()
        payloads = [message.payload for message in receiver.received]
        assert payloads == list(range(20))


class TestAccounting:
    def test_message_counters(self):
        simulator, network = build_network()
        sender, remote, local = Recorder("s", 0), Recorder("remote", 1), Recorder("local", 0)
        for actor in (sender, remote, local):
            network.register(actor)
        network.send(sender, "remote", "a")
        network.send(sender, "local", "b")
        assert network.messages_sent == 2
        assert network.remote_messages == 1
        assert network.local_messages == 1
        assert network.messages_by_kind() == {"a": 1, "b": 1}

    def test_overhead_messages_are_counted(self):
        _, network = build_network()
        network.charge_overhead_messages("probe", 5)
        assert network.messages_sent == 5
        assert network.messages_by_kind()["probe"] == 5

    def test_negative_overhead_rejected(self):
        _, network = build_network()
        with pytest.raises(SimulationError):
            network.charge_overhead_messages("probe", -1)

    def test_latency_is_deterministic_per_seed(self):
        def sample(seed):
            simulator = Simulator()
            network = Network(simulator, NetworkConfig(variable_delay=0.05), RandomStreams(seed))
            return [network.latency(0, 1) for _ in range(5)]

        assert sample(3) == sample(3)
        assert sample(3) != sample(4)


class TestExplicitRng:
    """Regression: the network must never silently fall back to a default RNG.

    The old signature defaulted to ``RandomStreams(0)`` when no rng was
    passed, which decoupled message delays from the run seed — two runs with
    different seeds drew identical latencies.  The rng is now a required
    argument.
    """

    def test_network_requires_an_rng_argument(self):
        with pytest.raises(TypeError):
            Network(Simulator(), NetworkConfig())

    def test_network_rejects_a_none_rng(self):
        with pytest.raises(SimulationError):
            Network(Simulator(), NetworkConfig(), None)

    def test_latencies_follow_the_provided_seed(self):
        config = NetworkConfig(variable_delay=0.05)
        seeded = Network(Simulator(), config, RandomStreams(7))
        reseeded = Network(Simulator(), config, RandomStreams(8))
        assert [seeded.latency(0, 1) for _ in range(5)] != [
            reseeded.latency(0, 1) for _ in range(5)
        ]


class TestSendContract:
    """What callers and the fault model rely on from ``Network.send``."""

    def test_unknown_receiver_raises_naming_it(self):
        _, network = build_network()
        sender = Recorder("s", 0)
        network.register(sender)
        with pytest.raises(SimulationError, match="'nobody'"):
            network.send(sender, "nobody", "ping")
        assert network.messages_sent == 0

    def test_only_later_sends_on_a_channel_get_a_fifo_bump(self):
        # Zero latency puts the first delivery exactly at the send instant,
        # the one place a wrong "no earlier message" sentinel would bump it.
        simulator, network = build_network(local=0.0)
        sender, first, second = Recorder("s", 0), Recorder("r1", 0), Recorder("r2", 0)
        for actor in (sender, first, second):
            network.register(actor)
        opening = network.send(sender, "r1", "a")
        follow_up = network.send(sender, "r1", "b")
        other_channel = network.send(sender, "r2", "c")
        assert opening.deliver_time == 0.0
        assert follow_up.deliver_time == 1e-12
        assert other_channel.deliver_time == 0.0
        simulator.run()
        assert [message.kind for message in first.received] == ["a", "b"]

    @staticmethod
    def _faulty_network(config):
        simulator = Simulator()
        faults = FaultInjector(simulator, config, num_sites=2, rng=RandomStreams(0))
        network = Network(
            simulator,
            NetworkConfig(fixed_delay=0.01, variable_delay=0.0, local_delay=0.001),
            RandomStreams(1),
            faults=faults,
        )
        return simulator, network

    @pytest.mark.parametrize(
        "config, flags",
        [
            (FaultConfig(crashes=(SiteCrash(site=1, at=0.0, duration=1.0),)), ("crashable",)),
            (
                FaultConfig(coordinator_crashes=(CoordinatorCrash(site=1, at=0.0, duration=1.0),)),
                ("coordinator_crashable",),
            ),
            (
                FaultConfig(
                    crashes=(SiteCrash(site=1, at=0.0, duration=1.0),),
                    coordinator_crashes=(CoordinatorCrash(site=1, at=0.0, duration=1.0),),
                ),
                ("crashable", "coordinator_crashable"),
            ),
        ],
        ids=["site-down", "coordinator-down", "both-down"],
    )
    def test_message_to_a_downed_receiver_is_dropped_and_counted_once(self, config, flags):
        simulator, network = self._faulty_network(config)
        sender, receiver = Recorder("s", 0), Recorder("r", 1)
        for flag in flags:
            setattr(receiver, flag, True)
        network.register(sender)
        network.register(receiver)
        network.send(sender, "r", "ping")
        simulator.run()
        assert receiver.received == []
        assert network.messages_sent == 1
        assert network.messages_dropped == 1
        assert network.dropped_by_kind() == {"ping": 1}

    def test_down_window_only_drops_what_lands_inside_it(self):
        simulator, network = self._faulty_network(
            FaultConfig(coordinator_crashes=(CoordinatorCrash(site=1, at=0.0, duration=1.0),))
        )
        sender, bystander = Recorder("s", 0), Recorder("r", 1)
        bystander.crashable = True  # its site stays up; only the coordinator is down
        network.register(sender)
        network.register(bystander)
        network.send(sender, "r", "ping")
        simulator.run()
        assert len(bystander.received) == 1
        assert network.messages_dropped == 0


class TestMessageMetadata:
    def test_envelope_without_metadata_has_a_read_only_empty_view(self):
        message = Message("k", "a", "b")
        assert dict(message.metadata) == {}
        with pytest.raises(TypeError):
            message.metadata["hop"] = 1
        with pytest.raises(AttributeError):
            message.metadata = {"hop": 1}
        # Nothing to copy: every bare envelope shares the one empty view.
        assert Message("k", "a", "c").metadata is message.metadata


class TestBaseActor:
    def test_base_actor_handle_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Actor("x", 0).handle(Message(kind="k", sender="a", receiver="x"))
