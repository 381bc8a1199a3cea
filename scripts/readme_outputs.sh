#!/usr/bin/env bash
# Run the README command block, `solve --resume` and `surface --verify-only`
# on the spintorus sources in SRC, inside the directory OUT; then commands
# that read `--config` files: an INI file naming every key but out_dir, and a
# JSON file with null tol_grad/tol_solve and an out_dir that flags override;
# last, `--help` of the program and of each subcommand at COLUMNS=80, so that
# argparse wraps them the same on any terminal.
#
# The reports, solution and mesh land in OUT/out, OUT/res, OUT/ini and
# OUT/json, the config files in OUT/run.cfg and OUT/run.json; the stdout of
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
rm -rf out res ini json run.cfg run.json stdout exit_codes.txt
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

cat > run.cfg <<'END'
[lattice]
v1 = 1 0
v2 = 0.2 1.5
[spin]
eps1 = -1
eps2 = +1
[run]
n_grid = 24
seed = 5
copies = 2 1
p_values = 2, 3, 4
q_values = 1.7 2
[tolerances]
tol_grad = 1e-7
tol_solve = 1e-7
tol_norm = 1e-9
tol_closed = 1e-6
tol_cmc = 0.02
zero_tol = 1e-7
END
run spectrum --config run.cfg --out ini/
run solve    --config run.cfg --out ini/
run surface  --config run.cfg --solution ini/solution.json --out ini/
run check    --config run.cfg --solution ini/solution.json --out ini/

cat > run.json <<'END'
{"v1": [1, 0], "v2": [0, 1], "eps1": -1, "eps2": -1, "n_grid": 8, "seed": 2,
 "q_values": [1.8, 2.0], "tol_grad": null, "tol_solve": null, "out_dir": "unused/"}
END
run mu-curve --config run.json --grid 12 --seed 3 --eps "+1,-1" --out json/
run solve    --config run.json --grid 12 --seed 3 --eps "+1,-1" --out json/

for command in "" spectrum mu-curve solve surface check; do
  COLUMNS=80 run $command --help
done
