#!/bin/sh
# Report the size of lib/'s code and public surface: lines of .ml and
# .mli, `val` declarations in the .mli files and optional arguments
# (`?name:`) in them.  Report only; it gates nothing.
# Usage: scripts/surface.sh   (from any directory inside the repo)
set -eu
cd "$(dirname "$0")/.."
lines=$(cat lib/*/*.ml lib/*/*.mli | wc -l)
vals=$(grep -E '^[[:space:]]*val ' lib/*/*.mli | wc -l)
opts=$(grep -oE '\?[a-z_][a-zA-Z0-9_]*:' lib/*/*.mli | wc -l)
echo "lib_lines $lines"
echo "lib_vals $vals"
echo "lib_optional_args $opts"
