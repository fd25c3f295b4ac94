"""Constants of the benchmark's model, shared by the harness and the fakes.

Latencies are real costs scaled by one factor, TIME_SCALE, so their ratio is
the ratio of the real costs. The only real figure in the repository is the
ROADMAP's "one Lean check takes seconds"; the per-line term and both
generation figures are assumptions, and wall_s weights the verifier and the
generator by their ratio. See bench/NOTES.md.

The fake checker imports this module once per check, so it imports nothing.
"""

# One modelled second is TIME_SCALE real seconds.
TIME_SCALE = 0.02
# A Lean check: a fixed start-up plus a term per line of the checked file.
REAL_CHECK_S = 2.0
REAL_CHECK_PER_LINE_S = 0.010
# A chat-completion request: a fixed cost plus a term per requested completion.
REAL_REQUEST_S = 3.0
REAL_PER_COMPLETION_S = 0.75

CHECKER_STARTUP_S = TIME_SCALE * REAL_CHECK_S
CHECKER_PER_LINE_S = TIME_SCALE * REAL_CHECK_PER_LINE_S
GEN_BASE_S = TIME_SCALE * REAL_REQUEST_S
GEN_PER_COMPLETION_S = TIME_SCALE * REAL_PER_COMPLETION_S

# Each simplify completion drops this share of the non-blank proof lines.
# repair-length drops more: with 0.35, its strict key let a sampled candidate
# of the smallest fixture verify on about one seed in six, which skipped that
# iteration's four repair requests and moved gen_calls_per_proof by 5%.
SHORTEN_DROP_SHARE = 0.35
REPAIR_DROP_SHARE = 0.5
# Share of simplify completions returned without a code fence.
UNFENCED_SHARE = 0.05

# At most this many checker processes and endpoint connections in flight:
# the CLI's --workers and every backend's max_parallel.
CONCURRENCY = 2
SCHEDULE = "8x2"  # k=8: with k=4 mean_reduction varied ~13% from seed to seed
SCHEDULE_LEN = int(SCHEDULE.split("x")[1])
REPAIR_BUDGET = 4
