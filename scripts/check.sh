#!/bin/sh
# Tier-2 repository check. The gates are listed once, in the Makefile's
# check-deep target; this script is that target under its historical name.
set -eu
cd "$(dirname "$0")/.."
exec make check-deep
