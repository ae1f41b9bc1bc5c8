.PHONY: all build test bench bench-verify bench-sweep bench-churn bench-tracker bench-stream bench-stream-full bench-full scheme-roundtrip churn-smoke churn-incremental churn-fastpath tracker-smoke tracker-chaos stream-smoke clean

all:
	dune build @runtest @all

build:
	dune build

test:
	dune build @runtest

# Perf snapshot of the batch verification engine (writes BENCH_verify.json
# in the repository root) followed by the trimmed paper-reproduction run.
bench: bench-verify
	dune exec -- bench/main.exe --fast

# Old-vs-new flowgraph columns (legacy_s vs csr_s) plus the deep-graph
# stack-safety smoke run under a pinned 8 MiB stack.
bench-verify:
	dune exec -- bench/verify_bench.exe
	bash -c 'ulimit -s 8192; exec dune exec -- bench/stack_smoke.exe 50000'

# Wall-clock of the parallel sweep engine at jobs 1 vs 4 (writes
# BENCH_sweep.json; the >= 2x speedup gate arms only on >= 4 cores).
bench-sweep:
	dune exec -- bench/sweep_bench.exe

# Fault-injection engine wall-clock (writes BENCH_churn.json; gates the
# audited replay at <= 3x the unaudited one, identical outcomes, and the
# warm-start flow engine at >= 5x a from-scratch solve per single-node
# event once n >= 10000).
bench-churn:
	dune exec -- bench/churn_bench.exe

# Tracker daemon throughput (writes BENCH_tracker.json; gates batched
# admission at >= 2x the request rate of one-repair-per-request once
# n >= 10000).
bench-tracker:
	dune exec -- bench/tracker_bench.exe

# Streaming dataplane throughput, CI cell only: the n = 10^4 paper
# overlay simulated by both engines over the same truncated trajectory
# (writes BENCH_stream.json; gates the flat dataplane at >= 20x the
# reference Oracle.Sim events/s and <= 16 minor words/event).
bench-stream:
	dune exec -- bench/stream_bench.exe

# Adds the synthetic n = 10^5 (>= 10^6 events/s gate) and n = 10^6
# (peak-RSS report) rows — about a minute.
bench-stream-full:
	dune exec -- bench/stream_bench.exe --full

# Full sweeps (Figure 7 grid, Figure 19 replication) — a few minutes.
bench-full: bench-verify bench-sweep bench-churn bench-stream-full
	dune exec -- bench/main.exe

# Scheme-artifact lifecycle, end to end through the CLI: build Figure 1's
# scheme, reload and re-verify it, require the canonical bytes to survive
# the round-trip unchanged, and the verification report to match.
scheme-roundtrip:
	dune build bin/bmp.exe
	dune exec -- bin/bmp.exe scheme build examples/fig1.instance --rate 4 -o fig1-scheme.json
	dune exec -- bin/bmp.exe scheme check fig1-scheme.json --reserialize fig1-scheme.rt.json
	cmp fig1-scheme.json fig1-scheme.rt.json
	dune exec -- bin/bmp.exe scheme check fig1-scheme.json > fig1-report-a.txt
	dune exec -- bin/bmp.exe scheme check fig1-scheme.rt.json > fig1-report-b.txt
	cmp fig1-report-a.txt fig1-report-b.txt
	rm -f fig1-scheme.json fig1-scheme.rt.json fig1-report-a.txt fig1-report-b.txt

# Churn lifecycle, end to end through the CLI: generate an instance and an
# adversarial trace, replay it under the adaptive policy with the strict
# auditor (every event re-verified, max-flow cross-check included).
churn-smoke:
	dune build bin/bmp.exe
	dune exec -- bin/bmp.exe generate -n 30 --seed 7 -o churn-smoke
	dune exec -- bin/bmp.exe churn gen-trace --events 60 --seed 9 -o churn-smoke.trace.json
	dune exec -- bin/bmp.exe churn run churn-smoke-0001.txt --trace churn-smoke.trace.json --policy adaptive --audit strict
	rm -f churn-smoke-0001.txt churn-smoke.trace.json

# Warm-start flow maintenance, end to end: the differential test suite
# (incremental vs from-scratch Dinic after every event), the CLI knob —
# --engine must be documented and a strict incremental replay must be
# byte-identical to the stateless one modulo the engine banner — and the
# benchmark's >= 5x single-node-event speedup gate.
churn-incremental:
	dune build bin/bmp.exe
	dune exec -- test/test_main.exe test incremental-flow
	dune exec -- bin/bmp.exe churn run --help=plain | grep -q -- --engine
	dune exec -- bin/bmp.exe generate -n 30 --seed 7 -o churn-incr
	dune exec -- bin/bmp.exe churn gen-trace --events 60 --seed 9 -o churn-incr.trace.json
	dune exec -- bin/bmp.exe churn run churn-incr-0001.txt --trace churn-incr.trace.json --audit strict --engine full | grep -v engine > churn-incr-full.txt
	dune exec -- bin/bmp.exe churn run churn-incr-0001.txt --trace churn-incr.trace.json --audit strict --engine incremental | grep -v engine > churn-incr-warm.txt
	cmp churn-incr-full.txt churn-incr-warm.txt
	rm -f churn-incr-0001.txt churn-incr.trace.json churn-incr-full.txt churn-incr-warm.txt
	dune exec -- bench/churn_bench.exe

# Delta-scoped audit fast path, end to end through the real binary: a
# certificate-audited replay must be byte-identical to the strict one —
# timeline, summary (modulo the lines naming the knobs) and the final
# scheme artifact — under both engines, with every event accepted.
churn-fastpath:
	dune build bin/bmp.exe
	dune exec -- bin/bmp.exe churn run --help=plain | grep -q -- certificate
	dune exec -- bin/bmp.exe generate -n 30 --seed 7 -o churn-fast
	dune exec -- bin/bmp.exe churn gen-trace --events 60 --seed 9 -o churn-fast.trace.json
	dune exec -- bin/bmp.exe churn run churn-fast-0001.txt --trace churn-fast.trace.json --timeline --audit strict --engine incremental --final-scheme churn-fast-strict.scheme.json | grep -v -e "^audit" -e "^engine" -e "^wrote" > churn-fast-strict.txt
	dune exec -- bin/bmp.exe churn run churn-fast-0001.txt --trace churn-fast.trace.json --timeline --audit certificate:16 --engine incremental --final-scheme churn-fast-cert.scheme.json | grep -v -e "^audit" -e "^engine" -e "^wrote" > churn-fast-cert.txt
	cmp churn-fast-strict.txt churn-fast-cert.txt
	cmp churn-fast-strict.scheme.json churn-fast-cert.scheme.json
	dune exec -- bin/bmp.exe churn run churn-fast-0001.txt --trace churn-fast.trace.json --timeline --audit certificate:16 --engine full --final-scheme churn-fast-cert-full.scheme.json | grep -v -e "^audit" -e "^engine" -e "^wrote" > churn-fast-cert-full.txt
	cmp churn-fast-strict.txt churn-fast-cert-full.txt
	cmp churn-fast-strict.scheme.json churn-fast-cert-full.scheme.json
	rm -f churn-fast-0001.txt churn-fast.trace.json churn-fast-strict.txt churn-fast-cert.txt churn-fast-cert-full.txt churn-fast-strict.scheme.json churn-fast-cert.scheme.json churn-fast-cert-full.scheme.json

# Tracker daemon, end to end through the real binary: replay the golden
# NDJSON session (events, queries, a malformed line, shutdown) twice in
# deterministic mode and require byte-identical responses that match the
# committed golden; then replay the committed trace offline with
# `churn run` and require its final scheme to be byte-identical to the
# daemon's state snapshot — the served stream IS an Engine.run replay.
tracker-smoke:
	dune build bin/bmp.exe
	dune exec -- bin/bmp.exe generate -n 20 --seed 5 -o tracker-smoke
	dune exec -- bin/bmp.exe tracker serve tracker-smoke-0001.txt --deterministic --batch 1 \
	  --trace-out tracker-smoke.trace.json --state-out tracker-smoke.state.json \
	  < test/golden/tracker_session.ndjson > tracker-smoke-a.ndjson
	dune exec -- bin/bmp.exe tracker serve tracker-smoke-0001.txt --deterministic --batch 1 \
	  < test/golden/tracker_session.ndjson > tracker-smoke-b.ndjson
	cmp tracker-smoke-a.ndjson tracker-smoke-b.ndjson
	cmp tracker-smoke-a.ndjson test/golden/tracker_responses.ndjson
	dune exec -- bin/bmp.exe churn run tracker-smoke-0001.txt --trace tracker-smoke.trace.json \
	  --final-scheme tracker-smoke.replay.json > /dev/null
	cmp tracker-smoke.state.json tracker-smoke.replay.json
	rm -f tracker-smoke-0001.txt tracker-smoke.trace.json tracker-smoke.state.json \
	  tracker-smoke-a.ndjson tracker-smoke-b.ndjson tracker-smoke.replay.json

# Crash recovery, adversarially: drive a scripted session over the
# socket against a journaled daemon, kill it at 12 randomized points
# (SIGKILL after the k-th ack, or a torn WAL record via the
# crash-between-write-and-fsync hook), restart with --restore, resume
# exactly once, and require the final scheme and committed trace to be
# byte-identical to an uninterrupted run — across fsync cadences and
# checkpoint periods (including full-journal replay with none).
tracker-chaos:
	dune build bin/bmp.exe
	dune exec -- bench/chaos_harness.exe

# Streaming dataplane, end to end through the real binary: simulate a
# small generated overlay in streaming mode and require the metrics
# JSON to be byte-identical to the committed golden — the canonical
# format (17-significant-digit floats) makes the whole pipeline
# (generator -> solver -> snapshot -> dataplane -> metrics) replayable.
stream-smoke:
	dune build bin/bmp.exe
	dune exec -- bin/bmp.exe generate -n 20 --seed 5 -o stream-smoke
	dune exec -- bin/bmp.exe stream run stream-smoke-0001.txt --chunks 150 \
	  --streaming --metrics-out stream-smoke.metrics.json
	cmp stream-smoke.metrics.json test/golden/stream_metrics.json
	rm -f stream-smoke-0001.txt stream-smoke.metrics.json

clean:
	dune clean
