"""The value store of the physical copies."""

from repro.common.ids import CopyId, TransactionId
from repro.storage.store import ValueStore


COPY = CopyId(0, 0)
T1 = TransactionId(0, 1)
T2 = TransactionId(1, 1)


class TestValueStore:
    def test_default_value_before_any_write(self):
        store = ValueStore(default_value=100)
        assert store.read(COPY) == 100

    def test_write_then_read(self):
        store = ValueStore()
        store.write(COPY, 42, T1, time=1.0)
        assert store.read(COPY) == 42

    def test_latest_write_wins(self):
        store = ValueStore()
        store.write(COPY, 1, T1, time=1.0)
        store.write(COPY, 2, T2, time=2.0)
        assert store.read(COPY) == 2

    def test_initialize_sets_value_without_writer(self):
        store = ValueStore()
        store.initialize(COPY, 7)
        assert store.read(COPY) == 7
        assert store.write_count(COPY) == 0

    def test_write_count_counts_committed_writes_per_copy(self):
        store = ValueStore()
        other = CopyId(0, 1)
        store.initialize(COPY, 0)
        store.write(COPY, 1, T1, time=1.0)
        store.write(COPY, 2, T2, time=2.0)
        assert (store.write_count(COPY), store.write_count(other)) == (2, 0)

    def test_observers_see_writes_and_initialisations(self):
        seen = []

        class Observer:
            def value_written(self, copy, value):
                seen.append(("written", copy, value))

            def value_initialized(self, copy, value):
                seen.append(("initialized", copy, value))

        store = ValueStore()
        store.attach_write_observer(Observer())
        store.initialize(COPY, 5)
        store.write(COPY, 6, T1, time=1.0)
        assert seen == [("initialized", COPY, 5), ("written", COPY, 6)]

    def test_snapshot_contains_only_touched_copies(self):
        store = ValueStore()
        other = CopyId(3, 1)
        store.write(COPY, 1, T1, time=1.0)
        store.write(other, 2, T2, time=1.0)
        assert store.snapshot() == {COPY: 1, other: 2}

    def test_independent_copies(self):
        store = ValueStore()
        other = CopyId(0, 1)
        store.write(COPY, "a", T1, time=1.0)
        assert store.read(other) == 0
