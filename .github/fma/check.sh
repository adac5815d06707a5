#!/usr/bin/env bash
# Cross-compiles ./internal/... for arm64 with the assembly listing on and
# fails if any function outside allow.txt contains a fused multiply-add
# (FMADDD / FMSUBD / FNMADDD / FNMSUBD). On arm64 Go fuses x*y+z into one
# instruction with a single rounding, so an unpinned product makes
# distances differ from amd64 in the last bit.
#
# Run from the root of the repository: bash .github/fma/check.sh
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
allow="$(grep -v '^#' "$here/allow.txt" | sed 's/ # .*//' | paste -sd'|')"
listing="$(mktemp)"
trap 'rm -f "$listing"' EXIT
GOARCH=arm64 go build -gcflags='streamsum/...=-S' ./internal/... 2>"$listing"
if ! grep -q ' STEXT ' "$listing"; then
	echo "the arm64 build printed no assembly listing" >&2
	exit 1
fi
fused="$(awk '/ STEXT / {fn = $1; next} /\tF(N)?M(ADD|SUB)D\t/ {print fn}' "$listing" | sort -u)"
bad="$(printf '%s\n' "$fused" | grep -Ev "^($allow)\$" || true)"
if [ -n "$bad" ]; then
	echo "fused multiply-add outside .github/fma/allow.txt (pin the product with float64(...)):" >&2
	printf '%s\n' "$bad" >&2
	exit 1
fi
echo "arm64 fused multiply-add only in allow-listed functions:"
printf '%s\n' "$fused"
