#!/usr/bin/env bash
# Run the README command block, `solve --resume` and `surface --verify-only`
# on the spintorus sources in SRC, inside the directory OUT.
#
# The reports, solution and mesh land in OUT/out and OUT/res; the stdout of
# the i-th command goes to OUT/stdout/NN-<command>.txt and its exit code to
# OUT/exit_codes.txt.  Two runs (say of a base and a head checkout) must then
# agree byte for byte under `diff -r`.
#
# usage: scripts/readme_outputs.sh SRC OUT
set -u
if [ $# -ne 2 ]; then
  echo "usage: $0 SRC OUT" >&2
  exit 2
fi
src=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" && cd "$2" || exit 2
rm -rf out res stdout exit_codes.txt
mkdir stdout

i=0
run() {
  i=$((i + 1))
  name=$(printf '%02d-%s' "$i" "$1")
  PYTHONPATH="$src" python -m spintorus.cli "$@" > "stdout/$name.txt"
  echo "$name $?" >> exit_codes.txt
}

run spectrum --v1 "1 0" --v2 "0 2" --eps "+1 -1" --out out/
run solve    --v1 "1 0" --v2 "0 2" --eps "+1 -1" --grid 32 --seed 1 --out out/
run surface  --solution out/solution.json --copies 3x1 --out out/
run check    --solution out/solution.json --out out/
run mu-curve --v1 "1 0" --v2 "0 1" --eps "+1 -1" --grid 16 --out out/
run solve    --resume out/solution.json --out res/
run surface  --solution out/solution.json --verify-only --out out/
