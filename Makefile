.PHONY: all build test check bench chaos fuzz adversary adversary-verifier-smoke adversary-collusion-smoke serve-bench shard-smoke serve-smoke serve-overload-smoke durable durable-smoke perf-pairs clean

all: build

build:
	dune build

test:
	dune runtest

# Build + tests (the cram test test/sweep_cli.t pins the chaos, adversary
# and shard CLIs, their kill/resume drills and refusals; test/bench_gates.t
# pins the stdout of the C1, C2, A1, A2, A3 and D1 gates) + every bench
# gate through the check alias in bench/dune (one-seed smoke run, chaos,
# fuzz, adversary, adversary-verifier, adversary-collusion, serve,
# serve-overload, durability) + the shard, serve, serve-overload and
# durable end-to-end drills against the real binary.
check: shard-smoke serve-smoke serve-overload-smoke durable-smoke
	dune build @check

bench:
	dune exec bench/main.exe

# The resilience acceptance gate: C1 (20 seeds x 4 fault schedules over
# both VPP loops; fails on any uncaught exception, budget overrun, or
# rate-0 transcript drift) + C2 (supervised sweeps under worker-domain
# loss: abandonment, checkpoint/resume, per-verifier policies).
chaos:
	dune exec bench/main.exe -- --chaos

# The input-robustness gate: F1 (regression corpus replay, the planted-bug
# canary, then >= 200 seeded deterministic mutations per dialect through
# every pipeline stage behind the Guard firewall; exits nonzero on any
# unguarded escape). COSYNTH_FUZZ_SEEDS / COSYNTH_FUZZ_MUTATIONS scale the
# budget.
fuzz:
	dune exec bench/main.exe -- --fuzz

# The Byzantine-robustness gate: A1 (rate-0 byte-identity against the
# unhardened driver, then a leverage/convergence sweep over every
# adversary mode x injection rate with per-run budget and certificate
# checks, >= 200 corrupted-findings cases per feedback mode, and
# loop-level fuzzing of every LLM mode; exits nonzero on any violation).
adversary:
	dune exec bench/main.exe -- --adversary

# The Byzantine-verifier gate: A2 (rate-0 byte-identity with the lie
# engine armed at all-zero rates, then a lie-mode x rate x trust-on/off
# sweep pinning that cross-checks against the raw oracle restore the
# verified end state a lying verifier destroys — within the per-run check
# budget, with trust-off runs spending nothing). `make check` runs it via
# the check alias; the CLI drill of a quarantined heavy liar is pinned in
# test/sweep_cli.t.
adversary-verifier-smoke:
	dune exec bench/main.exe -- --adversary-verifier --smoke

# The collusion gate: A3 (the rate-0 / honest-quorum / restored-ledger
# byte-identity pins, then the verified-rate headline across oracle-only /
# quorum K=4 / quorum K=3 defenses against a coalition that owns the
# cross-check oracle). `make check` runs it via the check alias; the CLI
# drills — a 3-kind coalition including the oracle gets the oracle
# quarantined while every run converges, and a collusion sweep killed
# mid-run and resumed from its journal and trust ledger reproduces the
# uninterrupted stdout and ledger byte-for-byte — are pinned in
# test/sweep_cli.t.
adversary-collusion-smoke:
	dune exec bench/main.exe -- --adversary-collusion --smoke

# The service-mode gate: S1 (the same synthesis jobs through a warm
# in-process `serve` daemon vs cold per-job pool + memo startup; fails on
# any result drift, a cold warm cache, or a daemon slower than cold).
serve-bench:
	dune exec bench/main.exe -- --serve

# Sharded sweep end-to-end: 2 worker processes (shard 0 killed mid-slice
# via --halt-first and recovered from its journal) vs the sequential run;
# the coordinator's stdout AND the merged journal must both be
# byte-identical to the unsharded sweep.
SHARD_TMP := $(shell mktemp -d)
shard-smoke: build
	dune exec bin/cosynth_cli.exe -- chaos --use-case no-transit --runs 8 \
	  --routers 5 --flake-rate 0.1 --journal $(SHARD_TMP)/seq.jsonl \
	  > $(SHARD_TMP)/seq.out 2>/dev/null
	dune exec bin/cosynth_cli.exe -- shard --shards 2 --use-case no-transit \
	  --runs 8 --routers 5 --flake-rate 0.1 --halt-first 2 \
	  --journal-dir $(SHARD_TMP)/shards > $(SHARD_TMP)/shard.out
	cmp $(SHARD_TMP)/seq.jsonl $(SHARD_TMP)/shards/merged.jsonl
	cmp $(SHARD_TMP)/seq.out $(SHARD_TMP)/shard.out
	@rm -rf $(SHARD_TMP)
	@echo "shard-smoke: 2-shard sweep (with a worker death) byte-identical to sequential"

# Service mode end-to-end: start the daemon, drive every job kind through
# the client over one socket, shut it down cleanly. The built binary is
# invoked directly: a backgrounded `dune exec` would hold the dune lock
# for the daemon's whole lifetime and deadlock the client invocations.
SERVE_TMP := $(shell mktemp -d)
CLI := ./_build/default/bin/cosynth_cli.exe
serve-smoke: build
	$(CLI) serve --socket $(SERVE_TMP)/cosynth.sock -j 2 \
	  > $(SERVE_TMP)/serve.out & \
	$(CLI) client --socket $(SERVE_TMP)/cosynth.sock ping && \
	$(CLI) client --socket $(SERVE_TMP)/cosynth.sock synth --seed 42 --routers 5 --count 2 && \
	$(CLI) client --socket $(SERVE_TMP)/cosynth.sock translate && \
	$(CLI) client --socket $(SERVE_TMP)/cosynth.sock repair && \
	$(CLI) client --socket $(SERVE_TMP)/cosynth.sock stats && \
	$(CLI) client --socket $(SERVE_TMP)/cosynth.sock shutdown && \
	wait
	@rm -rf $(SERVE_TMP)
	@echo "serve-smoke: daemon served every job kind and shut down cleanly"

# Service hardening end-to-end (the S2 overload gate itself runs in the
# check alias): the supervisor smoke — crash the daemon via the debug
# `crash` job, let the supervisor respawn it, confirm the restart count in
# `health`, then drain and demand the socket gone. Same direct-binary discipline as
# serve-smoke: a backgrounded `dune exec` would hold the dune lock.
OVERLOAD_TMP := $(shell mktemp -d)
serve-overload-smoke: build
	$(CLI) serve --socket $(OVERLOAD_TMP)/cosynth.sock --supervise \
	  --debug-jobs --triage $(OVERLOAD_TMP)/triage.jsonl \
	  > $(OVERLOAD_TMP)/serve.out 2>&1 & \
	$(CLI) client --socket $(OVERLOAD_TMP)/cosynth.sock --connect-budget-ms 5000 ping && \
	$(CLI) client --socket $(OVERLOAD_TMP)/cosynth.sock crash && \
	sleep 1 && \
	$(CLI) client --socket $(OVERLOAD_TMP)/cosynth.sock --connect-budget-ms 5000 health \
	  | grep -q '"restarts":1' && \
	$(CLI) client --socket $(OVERLOAD_TMP)/cosynth.sock sleep --ms 600 --deadline-ms 100; \
	test $$? -eq 1 && \
	$(CLI) client --socket $(OVERLOAD_TMP)/cosynth.sock drain && \
	sleep 1 && \
	test ! -e $(OVERLOAD_TMP)/cosynth.sock && \
	$(CLI) triage $(OVERLOAD_TMP)/triage.jsonl | grep -q Deadline_exceeded && \
	wait
	@rm -rf $(OVERLOAD_TMP)
	@echo "serve-overload-smoke: crash/respawn, deadline, drain all clean"

# The durability gate: D1 — every persistence surface (checkpoint
# journal, trust ledger, crash triage, corpus promotion) killed at every
# write point of a recorded fault schedule and recovered to a clean
# prefix; exhaustive truncation and single-bit-flip sweeps over the CRC
# framing (reads total, no phantom records); atomic-promotion crash
# states; fault-off byte-identity with the chaos layer armed at zero
# rates.
durable:
	dune exec bench/main.exe -- --durable

# Durable-state end-to-end against the real binary (the D1 gate itself
# runs in the check alias): four drills. (1) a journaled chaos sweep
# killed by an injected disk crash (exit 3, the kill/resume convention)
# and resumed fault-off: stdout and the LWW-compacted journal must be
# byte-identical to an intact run's. (2) the same sweep under silent torn writes: stdout
# unaffected, `fsck` counts the damage (exit 1), a resume re-runs
# exactly the torn seeds and the compacted record sets converge (sorted
# compare: re-run seeds land at the tail, order is not part of the
# contract after a torn loss). (3) a 2-shard sweep whose workers both
# die from the injected crash and are respawned on their resume argv:
# merged journal and stdout byte-identical to sequential. (4) a
# collusion sweep's trust ledger killed mid-fsync and resumed: the final
# ledger is byte-identical to the intact run's. Plus the SIGHUP
# hot-reload hardening: a truncated admission file must be rejected
# (reload_rejected=1 in health) with the old caps kept in force.
DURABLE_TMP := $(shell mktemp -d)
DURABLE_CHAOS := chaos --use-case no-transit --runs 6 --routers 5 --flake-rate 0.1
DURABLE_ADV := adversary --runs 6 --seed 9980 --collude parse-check,campion \
  --collude-oracle --collude-rate 0.35
durable-smoke: build
	$(CLI) $(DURABLE_CHAOS) --journal $(DURABLE_TMP)/full.jsonl \
	  > $(DURABLE_TMP)/full.out 2>/dev/null
	sh -c '$(CLI) $(DURABLE_CHAOS) --journal $(DURABLE_TMP)/sweep.jsonl \
	  --disk-crash-after 5 > $(DURABLE_TMP)/halted.out 2>/dev/null; test $$? -eq 3'
	$(CLI) $(DURABLE_CHAOS) --journal $(DURABLE_TMP)/sweep.jsonl --resume \
	  > $(DURABLE_TMP)/resumed.out 2>/dev/null
	cmp $(DURABLE_TMP)/full.out $(DURABLE_TMP)/resumed.out
	$(CLI) fsck $(DURABLE_TMP)/sweep.jsonl --lww > /dev/null
	$(CLI) fsck $(DURABLE_TMP)/full.jsonl --lww > /dev/null
	cmp $(DURABLE_TMP)/full.jsonl $(DURABLE_TMP)/sweep.jsonl
	$(CLI) $(DURABLE_CHAOS) --journal $(DURABLE_TMP)/torn.jsonl \
	  --disk-torn-rate 0.4 --disk-seed 7 > $(DURABLE_TMP)/torn.out 2>/dev/null
	cmp $(DURABLE_TMP)/full.out $(DURABLE_TMP)/torn.out
	sh -c '$(CLI) fsck $(DURABLE_TMP)/torn.jsonl > /dev/null; test $$? -eq 1'
	$(CLI) $(DURABLE_CHAOS) --journal $(DURABLE_TMP)/torn.jsonl --resume \
	  > $(DURABLE_TMP)/torn-resumed.out 2>/dev/null
	cmp $(DURABLE_TMP)/full.out $(DURABLE_TMP)/torn-resumed.out
	sh -c '$(CLI) fsck $(DURABLE_TMP)/torn.jsonl --lww > /dev/null; test $$? -eq 1'
	sort $(DURABLE_TMP)/torn.jsonl > $(DURABLE_TMP)/torn.sorted
	sort $(DURABLE_TMP)/full.jsonl > $(DURABLE_TMP)/full.sorted
	cmp $(DURABLE_TMP)/torn.sorted $(DURABLE_TMP)/full.sorted
	$(CLI) chaos --use-case no-transit --runs 8 --routers 5 --flake-rate 0.1 \
	  --journal $(DURABLE_TMP)/seq.jsonl > $(DURABLE_TMP)/seq.out 2>/dev/null
	$(CLI) shard --shards 2 --use-case no-transit --runs 8 --routers 5 \
	  --flake-rate 0.1 --disk-crash-after 5 --journal-dir $(DURABLE_TMP)/shards \
	  > $(DURABLE_TMP)/shard.out 2>/dev/null
	cmp $(DURABLE_TMP)/seq.jsonl $(DURABLE_TMP)/shards/merged.jsonl
	cmp $(DURABLE_TMP)/seq.out $(DURABLE_TMP)/shard.out
	$(CLI) $(DURABLE_ADV) --trust-ledger $(DURABLE_TMP)/full-trust.jsonl \
	  --journal $(DURABLE_TMP)/afull.jsonl > $(DURABLE_TMP)/afull.out 2>/dev/null
	sh -c '$(CLI) $(DURABLE_ADV) --trust-ledger $(DURABLE_TMP)/trust.jsonl \
	  --journal $(DURABLE_TMP)/asweep.jsonl --disk-crash-after 9 \
	  > $(DURABLE_TMP)/ahalted.out 2>/dev/null; test $$? -eq 3'
	$(CLI) $(DURABLE_ADV) --trust-ledger $(DURABLE_TMP)/trust.jsonl \
	  --journal $(DURABLE_TMP)/asweep.jsonl --resume \
	  > $(DURABLE_TMP)/aresumed.out 2>/dev/null
	cmp $(DURABLE_TMP)/afull.out $(DURABLE_TMP)/aresumed.out
	$(CLI) fsck $(DURABLE_TMP)/trust.jsonl --lww > /dev/null
	$(CLI) fsck $(DURABLE_TMP)/full-trust.jsonl --lww > /dev/null
	cmp $(DURABLE_TMP)/full-trust.jsonl $(DURABLE_TMP)/trust.jsonl
	sh -c 'echo "{\"max_in_flight\": 4}" > $(DURABLE_TMP)/caps.json; \
	  $(CLI) serve --socket $(DURABLE_TMP)/reload.sock \
	    --admission-file $(DURABLE_TMP)/caps.json > /dev/null 2>&1 & pid=$$!; \
	  sleep 1; \
	  printf "{\"max_in_flight\": 2, \"max_qu" > $(DURABLE_TMP)/caps.json; \
	  kill -HUP $$pid; sleep 1; \
	  $(CLI) client --socket $(DURABLE_TMP)/reload.sock --connect-budget-ms 5000 \
	    health | grep -q "\"reload_rejected\":1"; ok=$$?; \
	  $(CLI) client --socket $(DURABLE_TMP)/reload.sock shutdown > /dev/null; \
	  wait $$pid; test $$ok -eq 0'
	@rm -rf $(DURABLE_TMP)
	@echo "durable-smoke: disk crashes recovered, torn writes contained, shards respawned, ledger survived, truncated reload rejected"

# Judge the working tree against BASE with the repository benchmark:
# PAIRS pairs of 20 s untraced WORKLOAD runs, one on BASE and one on the
# working tree, alternating which side runs first and cycling the pairs
# through SEEDS. BASE is built in a git worktree at .perf-run/base (hidden,
# so dune and git skip it). Results go to .perf-run/pairs/{base,head}.jsonl
# and end in `perf.exe --compare`, which exits 1 on any regression.
#   make perf-pairs BASE=HEAD~1 WORKLOAD=translate PAIRS=10
WORKLOAD ?= translate
PAIRS ?= 10
SEEDS ?= 1000 7000
PAIRS_DIR := .perf-run/pairs
perf-pairs:
	@test -n "$(BASE)" || { echo "usage: make perf-pairs BASE=<rev> [WORKLOAD=w] [PAIRS=n] [SEEDS='s ...']"; exit 2; }
	rm -rf .perf-run/base $(PAIRS_DIR)
	git worktree prune
	git worktree add --detach .perf-run/base $(BASE)
	mkdir -p $(PAIRS_DIR)
	for p in $$(seq 1 $(PAIRS)); do \
	  set -- $(SEEDS); shift $$(( (p - 1) % $$# )); seed=$$1; \
	  if [ $$((p % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
	  for side in $$order; do \
	    if [ $$side = base ]; then dir=.perf-run/base; else dir=.; fi; \
	    echo "pair $$p: $$side, seed $$seed"; \
	    (cd $$dir && bash bench/perf/run.sh --workload $(WORKLOAD) --seed $$seed \
	      --seconds 20 --trace 0 --out $(CURDIR)/$(PAIRS_DIR)/$$side.jsonl > /dev/null) \
	      || exit 1; \
	  done; \
	done
	git worktree remove --force .perf-run/base
	./_build/default/bench/perf/perf.exe --compare $(PAIRS_DIR)/base.jsonl $(PAIRS_DIR)/head.jsonl

clean:
	dune clean
