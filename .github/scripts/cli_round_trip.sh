#!/usr/bin/env bash
# CLI round trip of two sparse and a dense problem file, mpc_n100, lasso_n20
# and control_n10.
#
# For each instance the first bench run generates it and saves its arrays as
# sidecar files; the second loads them and must give the same columns but
# the two times, runtime_s (7) and policy_seconds (13); solve then reads the
# stored file.  The document must hold P and A
# in the sidecar form of the instance's backend, CSR ({"csr_file", "nnz"})
# for mpc_n100 and lasso_n20, whose generators build P and A as CSR
# matrices, and dense ({"f8le_file"}) for control_n10, and q, l and u as
# dense sidecars ({"f8le_file"}).  Every value of a CSR sidecar must be
# nonzero and its nnz the nonzero count of the loaded problem's dense field,
# so a generator that brings back stored zeros fails here.  A copy of the document whose q is the
# in-document binary object of files written before q had a sidecar
# ({"f8le_zlib_b64"}) must make solve exit 1 with one error line.
#
# Then a checkpoint round trip on random_qp_n10: a 0-epoch train in a config
# whose relaxation box [1.0, 1.9] is not centred at 1.6 writes the initial
# checkpoint, which holds neither a box nor dims; solve --checkpoint runs it
# in that config (exit 0, policy_queries > 0), and two bench --checkpoint runs
# in the default config give the same columns.  A 0-epoch train on a lasso_n20
# manifest (train seeds 2 and 6, validation seed 10) must exit 0: each of its
# reference solutions passes the 1e-8 KKT check.  A verify --steps 50 of
# random_qp_n20 must exit 0, with its drift run converged in a positive
# number of iterations (drift_converged, drift_iterations).  Last, six refused inputs
# exit 1 with one error line: bench --adaptive-rho off, a flag bench does not
# take, verify --drift-iters -1, solve --max-iter 0, bench --jobs 0, a
# training manifest with a misspelt key and a verify manifest with a misspelt
# specs key; then two training manifests whose instance entries are refused
# before any instance is generated: one with a misspelt key in its second
# training entry, which must leave no instance directory, and one with a
# split key in an entry.
#
# Run from the repository root: bash .github/scripts/cli_round_trip.sh
set -euo pipefail
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
export PYTHONPATH=src
for instance in "mpc 100 csr_file,nnz" "lasso 20 csr_file,nnz" "control 10 f8le_file"; do
  set -- $instance
  echo "{\"specs\": [{\"family\": \"$1\", \"size\": $2, \"seed\": 1}]}" > "$d/m.json"
  for run in 1 2; do
    python -m relaxqp.cli bench --manifest "$d/m.json" --store "$d/s" --out "$d/r$run.csv"
  done
  cmp <(cut -d, -f1-6,8-12 "$d/r1.csv") <(cut -d, -f1-6,8-12 "$d/r2.csv")
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
if "csr_file" in want["P"]:
    import numpy as np
    from relaxqp.problem import load_problem

    prob = load_problem(path)
    for key in "PA":
        nnz = doc[key]["nnz"]
        with open(os.path.join(os.path.dirname(path), doc[key]["csr_file"]), "rb") as fh:
            raw = fh.read()
        values = np.frombuffer(raw, "<f8", count=nnz, offset=len(raw) - 8 * nnz)
        assert np.all(values != 0.0), f"{key}: the CSR sidecar stores a zero value"
        assert nnz == np.count_nonzero(getattr(prob, key)), (key, nnz)
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

cat > "$d/train.json" <<'JSON'
{"family": "random_qp", "variant": "scalar", "config": {"epochs": 0, "batch_size": 2},
 "train_instances": [{"size": 10, "seed": 1}, {"size": 10, "seed": 2}],
 "val_instances": [{"size": 10, "seed": 11}]}
JSON
echo '{"alpha_min": 1.0, "alpha_max": 1.9}' > "$d/box.json"
python -m relaxqp.cli train --manifest "$d/train.json" --store "$d/t" --out "$d/run" --config "$d/box.json"
ck="$d/run/ckpt_iter.json"
python -c 'import json, sys; doc = json.load(open(sys.argv[1])); assert not {"alpha_min", "dims"} & set(doc)' "$ck"
echo '{"specs": [{"family": "random_qp", "size": 10, "seed": 21}]}' > "$d/m.json"
for run in 1 2; do
  python -m relaxqp.cli bench --manifest "$d/m.json" --store "$d/s" --checkpoint "$ck" --out "$d/c$run.csv"
done
cmp <(cut -d, -f1-6,8-12 "$d/c1.csv") <(cut -d, -f1-6,8-12 "$d/c2.csv")
python -m relaxqp.cli solve --problem "$d/s/random_qp/size10/seed21/problem.json" --checkpoint "$ck" \
  --config "$d/box.json" > "$d/report.json"
python -c 'import json, sys; q = json.load(open(sys.argv[1]))["policy_queries"]; assert q > 0, q' \
  "$d/report.json"

cat > "$d/lasso.json" <<'JSON'
{"family": "lasso", "variant": "scalar", "config": {"epochs": 0, "batch_size": 2},
 "train_instances": [{"size": 20, "seed": 2}, {"size": 20, "seed": 6}],
 "val_instances": [{"size": 20, "seed": 10}]}
JSON
python -m relaxqp.cli train --manifest "$d/lasso.json" --store "$d/t" --out "$d/lasso_run"

echo '{"specs": [{"family": "random_qp", "size": 20, "seed": 1}]}' > "$d/verify.json"
python -m relaxqp.cli verify --manifest "$d/verify.json" --store "$d/s" --steps 50 --out "$d/verify_out.json"
python -c 'import json, sys; [e] = json.load(open(sys.argv[1]))
assert e["drift_converged"] is True and e["drift_iterations"] > 0, e' "$d/verify_out.json"

# Runs the command after $1, which must exit 1 with one error line, the last
# one, matching $1.
expect_error() {
  local want=$1 rc=0
  shift
  "$@" > /dev/null 2> "$d/err.txt" || rc=$?
  if [ "$rc" -ne 1 ] || [ "$(grep -c error "$d/err.txt")" -ne 1 ] \
      || ! tail -n 1 "$d/err.txt" | grep -q "$want"; then
    echo "$*: exit $rc, stderr:" >&2
    cat "$d/err.txt" >&2
    exit 1
  fi
}
expect_error "^relaxqp: error: unrecognized arguments: --adaptive-rho off$" \
  python -m relaxqp.cli bench --manifest "$d/m.json" --store "$d/s" --adaptive-rho off
expect_error "^relaxqp: error: argument --drift-iters: must be at least 1, got -1$" \
  python -m relaxqp.cli verify --manifest "$d/m.json" --store "$d/s" --drift-iters -1
expect_error "^relaxqp: error: argument --max-iter: must be at least 1, got 0$" \
  python -m relaxqp.cli solve --problem "$d/s/random_qp/size10/seed21/problem.json" --max-iter 0
expect_error "^relaxqp: error: argument --jobs: must be at least 1, got 0$" \
  python -m relaxqp.cli bench --manifest "$d/m.json" --store "$d/s" --jobs 0
sed 's/"variant"/"varient"/' "$d/train.json" > "$d/misspelt.json"
expect_error "^relaxqp: error: training manifest .*: unknown fields \['varient'\]$" \
  python -m relaxqp.cli train --manifest "$d/misspelt.json" --store "$d/t" --out "$d/run2"
test ! -e "$d/run2"
sed 's/"specs"/"spex"/' "$d/m.json" > "$d/spex.json"
expect_error "^relaxqp: error: manifest .*: unknown fields \['spex'\]$" \
  python -m relaxqp.cli verify --manifest "$d/spex.json" --store "$d/s" --out "$d/spex_out.json"
test ! -e "$d/spex_out.json"
sed 's/"seed": 2}/"sede": 2}/' "$d/train.json" > "$d/second_entry.json"
expect_error "^relaxqp: error: training manifest .*: field 'train_instances' entry 1: family spec: unknown fields \['sede'\]$" \
  python -m relaxqp.cli train --manifest "$d/second_entry.json" --store "$d/t2" --out "$d/run3"
test ! -e "$d/t2" && test ! -e "$d/run3"
sed 's/"seed": 11}/"seed": 11, "split": "train"}/' "$d/train.json" > "$d/split_entry.json"
expect_error "^relaxqp: error: training manifest .*: field 'val_instances' entry 0: family spec: unknown fields \['split'\]$" \
  python -m relaxqp.cli train --manifest "$d/split_entry.json" --store "$d/t3" --out "$d/run4"
test ! -e "$d/t3" && test ! -e "$d/run4"
echo "CLI round trip passed"
