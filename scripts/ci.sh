#!/usr/bin/env bash
# The full CI gate: release build, tests, lints, formatting.
# Run from anywhere; operates on the repository root.
#
# BENCH_repro.json is a golden: the report gate below regenerates it and
# diffs it byte for byte. When a change moves it on purpose, re-record with
# `cargo run --release -p isp-bench --bin repro -- --json` at the root,
# commit the diff, and name the cause in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$PWD"

echo "== cargo build --release =="
cargo build --release

echo "== executor file size (at most 800 lines before each file's tests) =="
# crates/core/src/exec/ is split on its evaluate/simulate seam, one concern
# per file with its tests beside it. A file past 800 lines before its
# #[cfg(test)] is due its next split, not a longer file.
for f in crates/core/src/exec/*.rs; do
  n="$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")"
  if [ "$n" -gt 800 ]; then
    echo "$f: $n lines before #[cfg(test)] (limit 800)"; exit 1
  fi
done
# Printed, not gated: the crates' size by the same rule, every .rs file
# under crates/ but the oracle files (the replaced implementations kept as
# differential references), each counted up to its first #[cfg(test)].
find crates -name '*.rs' | grep -v oracle | sort | xargs awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests { n++ }
  END { print "crates/ non-test lines (oracle files left out): " n + 0 }'

echo "== kernel differential (pinned case count, per-element loops as oracle) =="
# alang's row-loop kernels (group_sum, filter/select, kmeans, matmul,
# to_csr, the elementwise operators, col, forest_score, gram) against
# the plain loops kept in crates/lang/src/kernels_oracle.rs: 96 seeded
# cases per family, byte for byte at 1/2/4/8 threads with equal ops and
# chunk counters, through the engine every run uses. The families that
# take an engine draw most inputs past its 8 192-element engagement
# threshold (par::MIN_PARALLEL_LEN), the others their sizes below 12 000,
# and each engine family pins how many cases took the chunked path
# (filter and select 83, kmeans_assign 88, kmeans_update 66, matmul 89,
# forest_score 40, gram 63, pagerank_step_matches_the_dense_scatter 23); an unassigned k-means cluster is refused
# alike by both. The
# forest and gram families end on the registered LightGBM and MixedGEMM
# inputs (a dev-dependency on isp-workloads). Ahead of every fingerprint
# and golden gate, so a kernel break stops here, named, instead of as a
# fig5 golden diff.
cargo test -q -p alang --lib kernels_oracle

echo "== stored once, hashed once (dataset digests and the Workload's kept input) =="
# The two-level fingerprint (value digest -> run chain) and its sweep, the
# digest a Storage keeps with each dataset, the final-definition table the
# executor reads scanned targets from, what a Workload generates and keeps,
# the datasets stored once and relabelled per scale — the wire-format streams
# (equal to a fresh encode by ==, digest and size, on the Table-I chunk
# buffers) and MatrixMul's, MixedGEMM's and KMeans' matrices (a relabelled
# Matrix equal to one built at that size; sampling reports equal to those
# over a draw per scale, on the Table-I buffers; LightGBM's features drawn
# once moving its report, so the rule discriminates) — and the executor's
# shortcut pinned against hashing every value: all 12 registered programs
# fresh / remembered / rebuilt, a re-inserted dataset, and one Table-I
# generation across plan_for, execute_plan, run_plan and run_c_baseline.
# Sampling computes a memoized kernel (kmeans_assign, decode) once per
# stored buffer: the memo's buffer-identity rule (a relabelled buffer hits,
# an equal copy, a freed buffer's successor and a replaced entry do not),
# 3 hits per computed memoized line on KMeans, TPC-H-6-gz and LogGrep and
# none on the other 9 (MatrixMul's and MixedGEMM's products are charged
# from shapes, and matmul and gram are not memoized), a bad scale list
# refused before any sample, and all 12 reports and plans equal to those
# over per-scale deep copies.
# Ahead of the suite, so a stale digest stops here, named, instead of as a
# fingerprint mismatch somewhere below.
cargo test -q -p alang --lib -- canonical:: ast:: builtins::tests::a_digest \
  value::tests::a_relabelled_stream value::tests::relabelling_below \
  matrix::tests::a_relabelled_matrix_is_the_matrix_built_at_that_length memo::
cargo test -q -p isp-workloads --lib -- spec:: every_scale_relabels_the \
  apps::tests::every_scale_relabels_the_matrices_drawn_once
cargo test -q -p activepy --lib -- sampling::tests::a_buffer_stored_once_is_sampled_once \
  sampling::tests::a_bad_scale_list_is_refused_before_any_sample_runs
cargo test -q --test stored_once

echo "== sampling: a value no sampled cost reads is not computed, every report bit-identical =="
# Each KERNELS row's declared by-value arguments against its kernel (one
# test per row: a same-sized witness moves the cost, an all-zero copy of any
# other argument moves nothing, the shape charge equals the kernel's), the
# backward pass with its per-column table reads, the filter that gathers
# only the columns read, and shape::Placeholders, the one home of the zero
# buffers that placeholders, a filter's unread columns and a sample
# input's undrawn columns share (one per type and length). Then the table
# generators: drawn column by column, they draw what the row loop drew at
# the four paper scales and 1.0, and a projected draw holds each wanted
# column bit for bit and zeros of the same type, dictionary and length in
# the others. Then sample runs that compute only what the pass marks, over
# inputs drawn for the columns it reads, against runs computing every line
# over whole inputs: all 12 registered reports equal, their plans
# fingerprinting alike, the 56 lines charged from shapes and the columns
# drawn per stored table pinned (TPC-H-6 3 of lineitem's 8, TPC-H-1 3,
# TPC-H-14 2 and none of part, blackscholes 2 of 4), and 512 seeded
# programs over every stored type, `w` one row short in one in 16 (27 stop
# at a shape error), giving equal reports or the same error on the same
# line. Last, every fitted
# curve of the 12 reports equal to the bit to the fit that takes each
# logarithm per candidate. Ahead of the suite, so a wrong row or a skipped
# value some cost reads stops here, named.
cargo test -q -p alang --lib -- shape:: builtins::tests::by_value \
  table::tests::a_filter_reading_some_columns
cargo test -q -p rand
cargo test -q -p isp-workloads --lib -- the_column_wise_draws \
  a_projected_table_draws_its_columns
cargo test -q --test sampling_differential
cargo test -q -p activepy --lib fit::

echo "== trace codec differentials (pinned case counts, the replaced writers and reader as oracle) =="
# isp-obs' JSON writers and reader against the format!-based exporters and
# the tree-based line reader they replaced (crates/obs/src/oracle/): 600
# seeded hostile event sets byte for byte through jsonl and chrome_trace,
# masked and not, with and without a footer; the committed journals, a
# traced faulted run of each of the 12 registered plans and 2 000 seeded
# mutations of a real journal read to equal Journals or equal error texts,
# parse_json to the tree it always built, no panic, seed printed. Then
# what PlanCommit hashes: plan_fingerprint moves with each hashed part of
# a plan and with nothing else. Ahead of the suite and of the trace-smoke
# and Prometheus-golden gates, so a codec break stops here, named,
# instead of as a golden diff below.
cargo test -q -p isp-obs --lib -- oracle:: journal::tests::as_u64
cargo test -q -p activepy --lib resume::tests::plan_fingerprint

echo "== hostile ALang source (nesting past the depth bound is a parse error) =="
# Parentheses, unary chains, nested calls and a million-term sum past the
# parser's 64-level bound must come back as LangError::Parse, and a line at
# the bound must parse, lower, run and drop on a 2 MiB stack. Ahead of the
# suite, so a stack overflow stops here, named, instead of aborting the
# test binary that hit it.
cargo test -q -p alang --lib parser::

echo "== Eq. 1 audit and shard slicing (the volume claims and exact u64 slices) =="
# The planner audit's check on stub reports, one per violated claim:
# each of its three volume bands left, a CSR line not over-estimated;
# PageRank's to_csr row over-estimated; a focused TPC-H-6 sweep. Then the shard partition arithmetic in alang and the
# ShardSlice that charges it in activepy: slices sum to the total, with
# no u64 overflow at full-scale volumes. Ahead of the suite, so a broken
# claim or an overflow stops here, named.
cargo test -q -p isp-bench --lib audit
cargo test -q -p alang --lib shard::
cargo test -q -p activepy --lib shard::

echo "== wire codec differentials =="
# csd_sim::wire against the implementations it replaced, kept in
# crates/csd-sim/src/wire/oracle.rs: the table-driven inflate against the
# bit-at-a-time decoder (boundary round trips, 10 000 seeded mutated and
# truncated streams, hand-assembled and real-zlib streams); the two-pass
# deflate against the single-pass encoder byte for byte (every input kind,
# lengths around 0, 258 and 32 KiB, benchmark-shaped shuffled f64 columns
# in 4 096-element chunks and one whole 2 MiB column) and against the
# pinned digests; the four-stream crc32 against the bitwise loop around
# its threshold and quarter boundaries, and crc32_combine on seeded
# splits; gzip reserved flags and zlib CINFO > 7 refused. Ahead of the
# suite, so a codec break stops here, named, instead of as a decode
# fingerprint diff.
cargo test -q -p csd-sim --lib wire::

echo "== builtin table (each builtin's types against its kernel and the registered calls) =="
# Copy elimination, the storage-read test and the shard fence read a
# builtin's result type and row rule from its one KERNELS row. The type
# pass and the table's own tests, then every line of the 12 registered
# programs at scale 2^-10 through the VM: the inferred type must be the
# produced value's type, and each of their 100 calls must pass its row's
# argument check on its arguments' inferred types. Ahead of the suite, so a
# wrong row stops here, named, instead of as a moved copy-elimination flag
# or golden.
cargo test -q -p alang --lib -- copyelim:: builtins::tests
cargo test -q --test builtin_table

echo "== one options type, one source per counter (run options and the metrics snapshot) =="
# A plan execution runs under ActivePy::run_options — the runtime's
# ExecOptions with the tier and scenario set — and nothing else:
# execute_plan equals evaluate then simulate under those options, report
# field for field, with faults, a preemption, a parallel policy and a
# profile recorder each reaching the run, each seen by its effect (the
# policy by the kernels' chunked calls: a report echoes no option, and a
# total is derived from the records it sums). ExecOptions keeps tier, params,
# scenario, monitor (on or off), preempt_at, faults, parallel, tracer,
# profile and journal; the monitor's triggers and the retry budget and
# backoff are constants, pinned by the monitor:: and recovery:: tests, and
# exec::options:: rejects each invalid field at the door. The metrics
# snapshot holds the fault, recovery and kernel families a run fills;
# audit.* comes only from the calibration report, and the Prometheus golden
# pins what a journal footer exports. Ahead of the suite, so a dropped
# option or a zero counter stops here, named.
cargo test -q -p activepy --lib -- metrics:: report:: runtime:: monitor:: recovery:: exec::options::
cargo test -q --test audit_determinism

echo "== simulated charges (the D2H links, DMA and calibration to the bit; the price list's gap) =="
# The simulator charges a run: the D2H time of the config's two links (the
# strictly slower carries the payload, NVMe on a tie), DMA's setup plus
# those links and its byte count each way, flash reads under GC (a zero
# GC period refused), engines under contention, the fleet's shared budget
# and the availability traces they integrate — with the charges and the
# calibration constant C pinned to the bit on three configs. Then Eq. 1's
# price list against those charges on two configs
# (estimate::tests::each_price_misses_exactly_the_fixed_costs): the gap is
# exactly the fixed costs Eq. 1 leaves out, DMA setup and link latencies.
# Ahead of the suite, so a drifted charge or price stops here, named,
# instead of as a fig5 golden diff.
cargo test -q -p csd-sim --lib -- system:: config:: flash:: engine:: fleet:: availability::
cargo test -q -p activepy --lib estimate::

echo "== fleet differential: one answer at every N, clean, faulted and contended =="
# Random programs and placements on fleets of 1, 2, 4 and 8 devices, each
# clean, under per-shard fault plans, and under a contention burst at half
# progress with every shard's own monitor on: one values_fingerprint, the
# unsharded run's, in every cell; recovery accounting equal to what the
# injectors delivered, read from the shard reports; and a respelled program
# moving no fleet. Then the harness counts through the runtime's own
# counters: the shards sweep's datagens are its plan-cache misses (a base
# planned elsewhere from the bare Workload is not planned again), and
# Figure 5's hoist is the serial grid's evaluation count (one C baseline
# and one reference per workload). Ahead of the suite, so a fleet break, a
# plan-key or a hoist regression stops here, named.
cargo test -q --test shard_determinism
cargo test -q -p isp-bench --lib -- experiments::shards:: experiments::fig5::

echo "== journal and migration: one stream, one way back =="
# The journal handle's single replay queue (verify, then append), the
# migration paths with the one reclaim — inside a migrated region's host
# completion — and the monitor that triggers them; the WAL codec, each
# record kind decoding at exactly its pinned length, a record in the
# layout before RunStart's evaluator byte and Reclaim's region flag were
# dropped refused, and a migration's reason tag its discriminant; and
# kill/resume of solo and N=4 fleet journals, whose shards and tail replay
# as one stream in emission order. Ahead of the suite, so a replay or
# reclaim break stops here, named.
cargo test -q -p activepy --lib -- resume:: exec::migrate:: monitor::
cargo test -q -p isp-obs --lib wal::
cargo test -q --test wal_resume

echo "== warm-start format: one layout, hostile bytes refused =="
# StaticType's tags; ISPWARM2 (key, program fingerprint, sampling report) pinned, ISPWARM1
# refused, 2 400 mutations refused or read back exactly; a seed plans only its program.
# Ahead of the suite, so a layout break stops here, named, not as a silent cold re-plan.
cargo test -q -p alang --lib copyelim::tests::every_tag_reads_back_as_its_type
cargo test -q -p activepy --lib -- persist:: plan::tests::a_seed_plans_only

echo "== determinism contract: one harness =="
# The nine axes of one contract, each matched against its case's reference by
# tests/common/contract.rs, which pins each axis's completed-case count and the
# builtins those cases call. First the table the programs are drawn from: its
# 32 rows, each checking arity, then each argument's type, the kernel and its
# shape charge raising the same error text.
cargo test -q -p alang --lib -- --exact builtins::tests::every_row_checks_arity_then_each_argument_type
cargo test -q --test vm_differential --test thread_determinism --test shard_determinism \
  --test chaos --test wal_resume --test audit_determinism --test sampling_differential \
  --test replan_determinism --test decode_determinism -- --exact \
  random_programs_agree_across_engines results_are_identical_at_every_thread_count \
  every_fleet_size_reproduces_the_unsharded_answer faulted_runs_recover_to_the_fault_free_answer \
  resumed_runs_reach_the_uninterrupted_outcome audit_is_observation_only_across_fleets_and_faults \
  random_programs_sample_alike_with_every_line_computed \
  replanning_never_changes_values_and_warm_is_never_worse every_wire_format_produces_one_fingerprint

echo "== cargo test -q --workspace =="
# The whole suite: the root package alone is 63 of the 745 tests. No later
# step re-runs a subset of it by name: once this has passed, that cannot fail.
# Printed, not gated: its wall time, tests built, as the suite's budget.
SUITE_START="$(date +%s.%N)"
cargo test -q --workspace
awk -v start="$SUITE_START" -v end="$(date +%s.%N)" \
  'BEGIN { printf "cargo test --workspace wall time: %.1f s\n", end - start }'

echo "== benchmark package (builds and passes its driver tests against this tree) =="
# benchmark/ is a workspace of its own that compiles against the crates'
# public API; nothing else in CI builds it, so an API deletion would
# otherwise break it silently. Read-only: nothing under benchmark/ is edited.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== benchmark exec_sweep smoke (every cell's answer check, fleet4 included) =="
# One second of the workload every executor claim is measured on: each
# round checks 40 executions (clean, drop, static, fleet4) against the
# plan's set-up fingerprint, and the result line must report all of them
# correct. Read-only use of benchmark/; its output goes to benchmark/out/.
SWEEP="$(bash benchmark/run.sh --workload exec_sweep --seed 1 --seconds 1 --trace 0 | tail -n 1)"
case "$SWEEP" in
  *'"correct": true'*'"failed": 0,'*) ;;
  *) echo "exec_sweep smoke failed: $SWEEP"; exit 1 ;;
esac

echo "== benchmark plan_cold smoke (every cold plan fingerprints like set-up's) =="
# One second of the workload that generates: a cold plan now takes its
# Table-I input from what the Workload keeps, and each of the 12 plans
# per round must still fingerprint like the one-call plan made at set-up.
COLD="$(bash benchmark/run.sh --workload plan_cold --seed 1 --seconds 1 --trace 0 | tail -n 1)"
case "$COLD" in
  *'"correct": true'*'"failed": 0,'*) ;;
  *) echo "plan_cold smoke failed: $COLD"; exit 1 ;;
esac

echo "== benchmark durable_exec smoke (journaled, resumed and replayed cells all check out) =="
# One second of the workload the observers are measured on: per plan a
# faulted run, the same run with WAL + tracer + profile attached, a resume
# from a cut WAL that must rewrite the same bytes (its PlanCommit carries
# plan_fingerprint), and a replay that exports the trace as JSONL, reads
# it back, diffs it against the previous round's and renders the metrics.
DURABLE="$(bash benchmark/run.sh --workload durable_exec --seed 1 --seconds 1 --trace 0 | tail -n 1)"
case "$DURABLE" in
  *'"correct": true'*'"failed": 0,'*) ;;
  *) echo "durable_exec smoke failed: $DURABLE"; exit 1 ;;
esac

echo "== benchmark bulk_decode smoke (VM decodes, a direct inflate and an encode, to the bit) =="
# One second of the workload that exercises EncodedVal hardest: TPC-H-6-gz
# and LogGrep over 2 MiB encoded columns through the VM, a zlib column
# inflated directly and a gzip+shuffle column encoded, each checked to the
# bit against what set-up verified.
DECODE="$(bash benchmark/run.sh --workload bulk_decode --seed 1 --seconds 1 --trace 0 | tail -n 1)"
case "$DECODE" in
  *'"correct": true'*'"failed": 0,'*) ;;
  *) echo "bulk_decode smoke failed: $DECODE"; exit 1 ;;
esac

echo "== benchmark bulk_kernels smoke (every program's last line, serial and threaded, to the bit) =="
# One second of the workload the kernel claims are measured on: six plain
# programs over 2^18-element inputs through the Vm, serial and with nproc
# threads, each run's last line checked to the bit against the AST
# interpreter's at set-up.
KERNELS="$(bash benchmark/run.sh --workload bulk_kernels --seed 1 --seconds 1 --trace 0 | tail -n 1)"
case "$KERNELS" in
  *'"correct": true'*'"failed": 0,'*) ;;
  *) echo "bulk_kernels smoke failed: $KERNELS"; exit 1 ;;
esac

echo "== trace smoke (repro --trace -> trace summarizer -> golden journal diff) =="
# End-to-end observability gate: a masked traced TPC-H-6 fig5 run must
# produce a journal the `trace` bin can summarize, and that journal must
# be byte-identical to the committed golden — any nondeterminism in the
# span layer (schedule leaking into journal order, a host-clock value
# escaping the mask) fails the diff.
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
cargo run --release -q -p isp-bench --bin repro -- \
  --trace "$TRACE_TMP/fig5_tpch6.jsonl" --trace-mask-wall --trace-workload TPC-H-6
cargo run --release -q -p isp-bench --bin trace -- "$TRACE_TMP/fig5_tpch6.jsonl" --top 5
diff -u tests/golden/fig5_tpch6_trace.jsonl "$TRACE_TMP/fig5_tpch6.jsonl"

echo "== trace diff self-identity (span-aligned diff of the golden against the fresh run) =="
# The diff subcommand must call a journal identical to itself (and to a
# byte-identical regeneration) identical: structure, sim clock, and
# counters. Exit 1 here means the aligner itself is nondeterministic.
cargo run --release -q -p isp-bench --bin trace -- diff \
  tests/golden/fig5_tpch6_trace.jsonl tests/golden/fig5_tpch6_trace.jsonl > /dev/null
cargo run --release -q -p isp-bench --bin trace -- diff \
  tests/golden/fig5_tpch6_trace.jsonl "$TRACE_TMP/fig5_tpch6.jsonl"

echo "== Prometheus exposition golden (byte-identical on masked clocks) =="
# The exposition rendered from the fresh journal's metrics footer must
# match the committed golden byte for byte; regenerate via
# REGEN_TRACE_GOLDEN=1 cargo test --test audit_determinism.
cargo run --release -q -p isp-bench --bin trace -- "$TRACE_TMP/fig5_tpch6.jsonl" --prom \
  | diff -u tests/golden/fig5_tpch6_metrics.prom -

echo "== kill-resume smoke (journaled run killed mid-stream resumes to the same fingerprint) =="
# Records the recovery workload's execution journal, kills the process
# after 20 appends via the WAL kill hook (exit 86 + a deliberately torn
# tail), resumes from the survived prefix, and demands the uninterrupted
# run's fingerprint. Exercises create -> kill -> torn-tail truncation ->
# replay-verify -> append end to end through the public CLI.
FULL_FP="$(cargo run --release -q -p isp-bench --bin repro -- \
  --journal "$TRACE_TMP/full.wal" | grep '^run fingerprint:')"
set +e
ISP_WAL_KILL_AFTER=20 cargo run --release -q -p isp-bench --bin repro -- \
  --journal "$TRACE_TMP/killed.wal"
KILL_STATUS=$?
set -e
if [ "$KILL_STATUS" -ne 86 ]; then
  echo "kill hook did not fire (exit $KILL_STATUS, expected 86)"; exit 1
fi
RESUMED_FP="$(cargo run --release -q -p isp-bench --bin repro -- \
  --resume "$TRACE_TMP/killed.wal" | grep '^run fingerprint:')"
if [ "$FULL_FP" != "$RESUMED_FP" ]; then
  echo "resumed fingerprint '$RESUMED_FP' != uninterrupted '$FULL_FP'"; exit 1
fi
echo "resumed fingerprint matches: $RESUMED_FP"

echo "== deterministic report (every experiment's check, then BENCH_repro.json byte for byte) =="
# Every experiment's `check` passes (repro exits 1 otherwise), then
# BENCH_repro.json byte for byte. Two statements, not one `&&` list:
# `set -e` ignores a failure on the left of `&&`.
(cd "$TRACE_TMP" && "$ROOT/target/release/repro" --json)
diff -u BENCH_repro.json "$TRACE_TMP/BENCH_repro.json"

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings (no dangling or private intra-doc link) =="
# The seven workspace crates and the root package; the vendored stand-ins
# are not ours to document. A deleted or moved item that a doc comment
# still links to stops here, named.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline \
  -p isp-obs -p csd-sim -p alang -p activepy -p isp-workloads \
  -p isp-baselines -p isp-bench -p activepy-repro

echo "== cargo fmt --check =="
cargo fmt --check

echo "CI OK"
