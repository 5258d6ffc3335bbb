#!/usr/bin/env bash
# Benchmark smoke for CI: unit tests plus tests/schema.rs, which runs every
# workload at --smoke scale (n = 2,000, a few seconds) and fails on schema
# drift between results.json, BENCHMARK.json and src/schema.rs — never on
# timing. Wire it into .github/workflows/ci.yml with: bash benchmark/ci-smoke.sh
set -euo pipefail
cd "$(dirname "$0")"
cargo test --release --offline
