#!/bin/sh
# End-to-end smoke of the tcqrd daemon: build it and run its own -smoke, which
# starts every daemon it needs from that binary (cmd/tcqrd/scenarios.go is the
# table of what runs with which flags), checks the contracts and exits
# non-zero on any deviation. `make serve-smoke` wraps this.
set -eu
cd "$(dirname "$0")/.."
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
trap 'exit 1' INT TERM
go build -o "$bin/tcqrd" ./cmd/tcqrd
"$bin/tcqrd" -smoke
