#!/bin/sh
# Fails when an alternative of a `go test -run` pattern selects no test.
#
# `go test -run` with a pattern that matches nothing passes silently, so a
# test renamed or deleted out from under a gate would leave that gate empty.
# The script reads `go test` command lines on stdin (the Makefile pipes in
# the dry runs of `make check` and `make check-deep`). For each line with a -run pattern it lists the
# tests of the line's packages once with `go test -list`, then requires every
# top-level alternative of the pattern to match the name of at least one
# test, example or fuzz target among them.
#
#	make -s -n check | sh scripts/check_run_patterns.sh
set -euf

status=0 lines=0
while IFS= read -r line; do
	case $line in
	*" test "*"-run "*) lines=$((lines + 1)) ;;
	*) continue ;;
	esac
	eval "set -- $line"
	gocmd=$1
	shift 2 # the go command and "test"
	pattern='' pkgs=''
	while [ $# -gt 0 ]; do
		case $1 in
		-run) pattern=$2; shift ;;
		-cpu | -count | -timeout | -bench | -benchtime | -tags | -parallel) shift ;;
		-*) ;;
		*) pkgs="$pkgs $1" ;;
		esac
		shift
	done
	[ "$pattern" = '^$' ] && continue # selects no test on purpose
	# shellcheck disable=SC2086 # $pkgs is a list of package paths
	if ! listed=$("$gocmd" test -list "$pattern" $pkgs); then
		echo "check-run-patterns: go test -list failed for: $line"
		status=1
		continue
	fi
	names=$(printf '%s\n' "$listed" | grep -E '^(Test|Example|Fuzz)' || true)
	# Split at the | that sit outside parentheses.
	alts=$(printf '%s\n' "$pattern" | awk '{
		depth = 0; cur = ""
		for (i = 1; i <= length($0); i++) {
			c = substr($0, i, 1)
			if (c == "(") depth++
			if (c == ")") depth--
			if (c == "|" && depth == 0) { print cur; cur = "" } else cur = cur c
		}
		print cur
	}')
	for alt in $alts; do
		if ! printf '%s\n' "$names" | grep -qE -- "$alt"; then
			echo "check-run-patterns: -run alternative '$alt' selects no test in$pkgs"
			echo "  in: $line"
			status=1
		fi
	done
done
if [ "$lines" -eq 0 ]; then
	echo "check-run-patterns: read no go test line with -run"
	status=1
fi
exit $status
