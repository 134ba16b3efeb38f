PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test check-docs api-docs bench-smoke memory-gate bench-ledger ledger-selftest \
	ledger-digests ledger-panel qm-differential trace-pin

## tier-1 verification gate
test:
	$(PY) -m pytest -x -q

## documentation cross-reference + docstring-coverage gate (generates docs/api/
## first: the hand-written docs link into it)
check-docs: api-docs
	$(PY) tools/check_docs.py

## generate the Markdown API reference under docs/api/ from docstrings (not committed)
api-docs:
	$(PY) tools/gen_api_docs.py

## per-actor message-trace digests of every scenario and the wire codec's frame
## digests (~2 s); `make trace-pin ARGS=--write` re-pins both after a deliberate
## behaviour or wire-format change
trace-pin:
ifeq ($(ARGS),--write)
	$(PY) tests/system/test_message_traces.py --write
	$(PY) tests/live/test_wire_pin.py --write
else
	$(PY) -m pytest tests/system/test_message_traces.py tests/live/test_wire_pin.py -q
endif

## memory-regression gate: a streaming run's memory per transaction stays flat across 10x runs
memory-gate:
	$(PY) -m pytest tests/system/test_streaming_memory.py -q

## store micros and the E10-E12 experiments as plain tests (no timing) — fast
## sanity check
bench-smoke:
	$(PY) -m pytest benchmarks/bench_store.py benchmarks/bench_e10_availability.py \
		benchmarks/bench_e11_recovery.py benchmarks/bench_e12_sim_live.py \
		-q --benchmark-disable

## full perf ledger (five pinned workloads, end to end + per layer, ~3 min):
## `make bench-ledger N=14` writes BENCH_PR14.json at the repo root
bench-ledger:
	$(PY) -m benchmarks.ledger --out BENCH_PR$(N).json

## the ledger's own self-tests (its gates, tracer bookkeeping, --compare)
ledger-selftest:
	$(PY) -m pytest benchmarks/ledger -q

## machine-independent half of the ledger (~10 s): each simulator workload's
## summary digest and exact counts must equal the newest BENCH_PR<N>.json
ledger-digests:
	$(PY) tools/check_ledger_digests.py

## every child the benchmark driver could reach: seeds b*1000+k for b in BASES,
## k < K, spawned as the driver spawns them; lists the ones that fail or hang, e.g.
## `make ledger-panel W=drift-adaptive BASES=1-10 K=60`
BASES ?= 1-10
K ?= 60
ledger-panel:
	$(PY) tools/ledger_panel.py --workload $(W) --bases $(BASES) --count $(K)

## the queue manager against the Section 4 reference scheduler, 2,000 examples per test
qm-differential:
	$(PY) -m pytest tests/properties/test_queue_manager_reference.py -q --hypothesis-profile=qm-differential
