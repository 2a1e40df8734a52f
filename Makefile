.PHONY: all build test check bench chaos fuzz adversary adversary-verifier-smoke adversary-collusion-smoke serve-bench serve-smoke serve-overload-smoke durable durable-smoke perf-pairs clean

all: build

build:
	dune build

test:
	dune runtest

# Build + tests (the cram test test/sweep_cli.t pins the chaos and
# adversary CLIs, their kill/resume and disk-fault drills and refusals;
# test/bench_gates.t pins the stdout of the C1, C2, A1, A2, A3 and D1
# gates) + every bench gate through the check alias in bench/dune
# (one-seed smoke run, chaos, fuzz, adversary, adversary-verifier,
# adversary-collusion, serve, serve-overload, durability) + the serve,
# serve-overload and durable end-to-end drills against the real binary.
check: serve-smoke serve-overload-smoke durable-smoke
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

# Service mode end-to-end: start the daemon, drive every job kind through
# the client over one socket, shut it down cleanly. The built binary is
# invoked directly: a backgrounded `dune exec` would hold the dune lock
# for the daemon's whole lifetime and deadlock the client invocations.
# Each drill runs in one shell under `set -e`, in a directory made by
# mktemp in its own recipe. An EXIT trap stops whatever daemon is still up
# and removes the directory, on success and on failure alike.
CLI := ./_build/default/bin/cosynth_cli.exe
serve-smoke: build
	set -e; dir=$$(mktemp -d); sock=$$dir/cosynth.sock; pid=; \
	trap 'st=$$?; set +e; if [ -n "$$pid" ]; then kill $$pid 2>/dev/null; wait $$pid; fi; \
	  rm -rf $$dir; exit $$st' EXIT; \
	$(CLI) serve --socket $$sock -j 2 > $$dir/serve.out & pid=$$!; \
	$(CLI) client --socket $$sock ping; \
	$(CLI) client --socket $$sock synth --seed 42 --routers 5 --count 2; \
	$(CLI) client --socket $$sock translate; \
	$(CLI) client --socket $$sock repair; \
	$(CLI) client --socket $$sock stats; \
	$(CLI) client --socket $$sock shutdown; \
	wait $$pid; pid=
	@echo "serve-smoke: daemon served every job kind and shut down cleanly"

# Service hardening end-to-end (the S2 overload gate itself runs in the
# check alias): the supervisor smoke — start it with a non-default
# --max-in-flight, crash the daemon via the debug `crash` job, let the
# supervisor respawn it, confirm the restart count in `health` and that
# the respawned daemon still runs with the supervisor's flags in `stats`,
# then drain and demand the socket gone. Same direct-binary discipline as
# serve-smoke: a backgrounded `dune exec` would hold the dune lock. Any
# failed step fails the target; the trap then drains the supervisor (or
# signals it when the drain is refused).
serve-overload-smoke: build
	set -e; dir=$$(mktemp -d); sock=$$dir/cosynth.sock; pid=; \
	trap 'st=$$?; set +e; if [ -n "$$pid" ]; then \
	    $(CLI) client --socket $$sock drain > /dev/null 2>&1 || kill $$pid 2>/dev/null; \
	    wait $$pid; fi; rm -rf $$dir; exit $$st' EXIT; \
	$(CLI) serve --socket $$sock --supervise \
	  --max-in-flight 3 --debug-jobs --triage $$dir/triage.jsonl \
	  > $$dir/serve.out 2>&1 & pid=$$!; \
	$(CLI) client --socket $$sock --connect-budget-ms 5000 ping; \
	$(CLI) client --socket $$sock stats | grep -q '"max_in_flight":3'; \
	$(CLI) client --socket $$sock crash; \
	sleep 1; \
	$(CLI) client --socket $$sock --connect-budget-ms 5000 health | grep -q '"restarts":1'; \
	$(CLI) client --socket $$sock stats | grep -q '"max_in_flight":3'; \
	rc=0; $(CLI) client --socket $$sock sleep --ms 600 --deadline-ms 100 || rc=$$?; \
	test $$rc -eq 1; \
	$(CLI) client --socket $$sock drain; \
	wait $$pid; pid=; \
	test ! -e $$sock; \
	$(CLI) triage $$dir/triage.jsonl | grep -q Deadline_exceeded
	@echo "serve-overload-smoke: crash/respawn, flag forwarding, deadline, drain all clean"

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
# runs in the check alias; the chaos-journal crash and torn-write drills
# are in test/sweep_cli.t): a collusion sweep's trust ledger killed
# mid-fsync and resumed must end byte-identical to the intact run's.
# Plus the SIGHUP hot-reload hardening: a truncated admission file must
# be rejected (reload_rejected=1 in health) with the old caps kept in
# force.
DURABLE_ADV := adversary --runs 6 --seed 9980 --collude parse-check,campion \
  --collude-oracle --collude-rate 0.35
durable-smoke: build
	set -e; dir=$$(mktemp -d); pid=; \
	trap 'st=$$?; set +e; if [ -n "$$pid" ]; then kill $$pid 2>/dev/null; wait $$pid; fi; \
	  rm -rf $$dir; exit $$st' EXIT; \
	$(CLI) $(DURABLE_ADV) --trust-ledger $$dir/full-trust.jsonl \
	  --journal $$dir/afull.jsonl > $$dir/afull.out 2>/dev/null; \
	rc=0; $(CLI) $(DURABLE_ADV) --trust-ledger $$dir/trust.jsonl \
	  --journal $$dir/asweep.jsonl --disk-crash-after 9 \
	  > $$dir/ahalted.out 2>/dev/null || rc=$$?; \
	test $$rc -eq 3; \
	$(CLI) $(DURABLE_ADV) --trust-ledger $$dir/trust.jsonl \
	  --journal $$dir/asweep.jsonl --resume \
	  > $$dir/aresumed.out 2>/dev/null; \
	cmp $$dir/afull.out $$dir/aresumed.out; \
	$(CLI) fsck $$dir/trust.jsonl --lww > /dev/null; \
	$(CLI) fsck $$dir/full-trust.jsonl --lww > /dev/null; \
	cmp $$dir/full-trust.jsonl $$dir/trust.jsonl; \
	echo '{"max_in_flight": 4}' > $$dir/caps.json; \
	$(CLI) serve --socket $$dir/reload.sock \
	  --admission-file $$dir/caps.json > /dev/null 2>&1 & pid=$$!; \
	sleep 1; \
	printf '{"max_in_flight": 2, "max_qu' > $$dir/caps.json; \
	kill -HUP $$pid; sleep 1; \
	ok=0; $(CLI) client --socket $$dir/reload.sock --connect-budget-ms 5000 \
	  health | grep -q '"reload_rejected":1' || ok=$$?; \
	$(CLI) client --socket $$dir/reload.sock shutdown > /dev/null; \
	wait $$pid; pid=; \
	test $$ok -eq 0
	@echo "durable-smoke: ledger survived a disk crash, truncated reload rejected"

# Judge the working tree against BASE with the repository benchmark:
# PAIRS pairs of 20 s untraced WORKLOAD runs, one on BASE and one on the
# working tree, alternating which side runs first and cycling the pairs
# through SEEDS. BASE is built in a git worktree at .perf-run/base (hidden,
# so dune and git skip it). Results go to .perf-run/pairs/{base,head}.jsonl
# and end in `perf.exe --compare`, which exits 1 on any regression. The
# pairs run in one shell under `set -e`; an EXIT trap removes the worktree
# on success and on failure alike.
#   make perf-pairs BASE=HEAD~1 WORKLOAD=translate PAIRS=10
WORKLOAD ?= translate
PAIRS ?= 10
SEEDS ?= 1000 7000
PAIRS_DIR := .perf-run/pairs
perf-pairs:
	@test -n "$(BASE)" || { echo "usage: make perf-pairs BASE=<rev> [WORKLOAD=w] [PAIRS=n] [SEEDS='s ...']"; exit 2; }
	set -e; rm -rf .perf-run/base $(PAIRS_DIR); git worktree prune; \
	trap 'st=$$?; set +e; git worktree remove --force .perf-run/base 2>/dev/null; \
	  rm -rf .perf-run/base; git worktree prune; exit $$st' EXIT; \
	git worktree add --detach .perf-run/base $(BASE); \
	mkdir -p $(PAIRS_DIR); \
	for p in $$(seq 1 $(PAIRS)); do \
	  set -- $(SEEDS); shift $$(( (p - 1) % $$# )); seed=$$1; \
	  if [ $$((p % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
	  for side in $$order; do \
	    if [ $$side = base ]; then dir=.perf-run/base; else dir=.; fi; \
	    echo "pair $$p: $$side, seed $$seed"; \
	    (cd $$dir && bash bench/perf/run.sh --workload $(WORKLOAD) --seed $$seed \
	      --seconds 20 --trace 0 --out $(CURDIR)/$(PAIRS_DIR)/$$side.jsonl > /dev/null); \
	  done; \
	done
	./_build/default/bench/perf/perf.exe --compare $(PAIRS_DIR)/base.jsonl $(PAIRS_DIR)/head.jsonl

clean:
	dune clean
