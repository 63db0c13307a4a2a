#!/usr/bin/env bash
# Tier-1 verification: the hermetic build-and-test gate (see ROADMAP.md).
#
# Runs fully offline — the workspace has no registry dependencies, so
# `--offline` both works and enforces that nobody reintroduces one.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast with an actionable message when the rustfmt component is
# missing (a bare-bones toolchain install) — otherwise `cargo fmt`
# fails mid-gate with rustup noise that buries the real problem.
if ! cargo fmt --version >/dev/null 2>&1; then
  echo "tier1: 'cargo fmt' is unavailable — install the rustfmt component" >&2
  echo "tier1:   rustup component add rustfmt clippy" >&2
  echo "tier1: (rust-toolchain.toml pins it; a non-rustup toolchain must provide it itself)" >&2
  exit 1
fi

cargo fmt --all --check
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The micro-bench harness is feature-gated off by default; make sure the
# measurement loops keep compiling too — and keep them lint-clean.
cargo build -p ora-bench --features bench --offline
cargo clippy -p ora-bench --features bench --all-targets --offline -- -D warnings
# The repository benchmark (perfbench/, its own workspace) builds against
# the collector API; a breaking change there must fail here, not only in
# the benchmark pipeline.
cargo build --release --offline --manifest-path perfbench/Cargo.toml --all-targets

# Fuzzer smoke slice: replay every curated regression case through the
# oracle-differential harness via the CLI (the deep seeded sweep is the
# nightly fuzz job; this is the fast fixed net).
cargo run -q --release --offline -p ora-bench --bin omp_prof -- \
  fuzz --cases tests/fuzz_cases

# The paper's tables and figures at smoke scale: Table I/II count
# mismatches exit 1, so the paper checks run on every push.
cargo run -q --release --offline -p ora-bench --bin omp_prof -- paper all --scale smoke

echo "tier1: OK"
