#!/usr/bin/env bash
# CLI round trip of a sparse and a dense problem file, mpc_n100 and control_n10.
#
# For each instance the first bench run generates it and saves its arrays as
# sidecar files; the second loads them and must give the same iteration
# columns; solve then reads the stored file.  The document must hold P and A
# in the sidecar form of the instance's backend, CSR ({"csr_file", "nnz"})
# for mpc_n100 and dense ({"f8le_file"}) for control_n10, and q, l and u as
# dense sidecars ({"f8le_file"}).  A copy of the document whose q is the
# in-document binary object of files written before q had a sidecar
# ({"f8le_zlib_b64"}) must make solve exit 1 with one error line.
#
# Run from the repository root: bash .github/scripts/cli_round_trip.sh
set -euo pipefail
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
export PYTHONPATH=src
for instance in "mpc 100 csr_file,nnz" "control 10 f8le_file"; do
  set -- $instance
  echo "{\"specs\": [{\"family\": \"$1\", \"size\": $2, \"seed\": 1}]}" > "$d/m.json"
  for run in 1 2; do
    python -m relaxqp.cli bench --manifest "$d/m.json" --store "$d/s" --out "$d/r$run.csv"
  done
  cmp <(cut -d, -f1-6,8- "$d/r1.csv") <(cut -d, -f1-6,8- "$d/r2.csv")
  f="$d/s/$1/size$2/seed1/problem.json"
  old="$(dirname "$f")/old.json"
  python -m relaxqp.cli solve --problem "$f" > "$d/report.json"
  python - "$f" "$3" "$old" <<'PY'
import base64, json, os, sys, zlib

path, matrix_form, old_path = sys.argv[1:]
doc = json.load(open(path))
forms = {k: set(doc[k]) for k in "PAqlu"}
want = {**dict.fromkeys("PA", set(matrix_form.split(","))), **dict.fromkeys("qlu", {"f8le_file"})}
assert forms == want, forms
with open(os.path.join(os.path.dirname(path), doc["q"]["f8le_file"]), "rb") as fh:
    raw = fh.read()
doc["q"] = {"f8le_zlib_b64": base64.b64encode(zlib.compress(raw)).decode("ascii")}
with open(old_path, "w") as fh:
    json.dump(doc, fh)
PY
  rc=0
  python -m relaxqp.cli solve --problem "$old" > /dev/null 2> "$d/err.txt" || rc=$?
  if [ "$rc" -ne 1 ] || [ "$(wc -l < "$d/err.txt")" -ne 1 ] || ! grep -q "^relaxqp: error: .*field 'q'.*must be regenerated" "$d/err.txt"; then
    echo "solve on a document with q in the binary form: exit $rc, stderr:" >&2
    cat "$d/err.txt" >&2
    exit 1
  fi
done
echo "CLI round trip passed"
