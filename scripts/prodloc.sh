#!/usr/bin/env bash
# prodloc.sh — print the production line count tracked in ROADMAP.md:
# every non-test Go line under internal/ and cmd/.
#
#   ./scripts/prodloc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find internal cmd -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
