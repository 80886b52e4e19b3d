#!/usr/bin/env sh
# Validate BENCH_<name>.json records against the shape documented in
# docs/BENCH_SCHEMA.json.  CI runs this after the bench-smoke arms; it
# needs only jq, so the assertions below mirror the schema rather than
# invoking a JSON Schema validator.
#
# Usage: check_bench_json.sh FILE [FILE...]
set -eu

# Fail file $1 if an arm whose name matches jq filter $2 lacks a phase
# in jq array $3 or ran phases $4 and $5 unequally often.
require_phases() {
  bad=$(jq -r --argjson need "$3" --arg a "$4" --arg b "$5" '.arms[] |
    select(.name | '"$2"') | ([.phases[] | {(.name): .count}] | add) as $p |
    select(any($need[]; $p[.] == null) or $p[$a] != $p[$b]) | .name' "$1")
  [ -z "$bad" ] && return 0
  echo "FAIL $1: arms missing one of $3 or with $4 != $5:" $bad >&2
  return 1
}

status=0
for f in "$@"; do
  if [ ! -f "$f" ]; then
    echo "FAIL $f: missing" >&2
    status=1
    continue
  fi
  if ! jq -e '
    (.bench | type == "string" and length > 0) and
    (.schema == 1) and
    (.scale | type == "number" and . > 0) and
    (.quick | type == "boolean") and
    (.hw_threads | type == "number" and . >= 1) and
    (.timestamp_unix | type == "number" and . >= 0) and
    (.arms | type == "array" and length > 0) and
    ([.arms[] |
        (.name | type == "string" and length > 0) and
        (.wall_s | type == "number" and . >= 0) and
        (.cpu_s | type == "number" and . >= 0) and
        (.bytes | type == "number" and . >= 0) and
        (.phases | type == "array") and
        ([.phases[]? |
            (.name | type == "string" and length > 0) and
            (.count | type == "number" and . >= 1) and
            (.total_ns | type == "number" and . >= 0)
         ] | all)
     ] | all)
  ' "$f" > /dev/null; then
    echo "FAIL $f: does not match docs/BENCH_SCHEMA.json" >&2
    status=1
    continue
  fi
  # Arm names must be unique or downstream joins silently mis-pair.
  if [ "$(jq -r '[.arms[].name] | length' "$f")" != \
       "$(jq -r '[.arms[].name] | unique | length' "$f")" ]; then
    echo "FAIL $f: duplicate arm names" >&2
    status=1
    continue
  fi
  # X10 (bench "crc") must always carry the portable baseline and the
  # zero-page arms, whatever kernels the host CPU offers — they are the
  # denominators every speedup claim divides by.
  if [ "$(jq -r '.bench' "$f")" = "crc" ]; then
    if ! jq -e '[.arms[].name] |
        (index("crc_soft_64k") != null) and
        (index("zero_page_scan_allzero") != null) and
        (index("zero_page_scan_dirty") != null)' "$f" > /dev/null; then
      echo "FAIL $f: crc bench missing baseline arms" >&2
      status=1
      continue
    fi
  fi
  # X8 (bench "encode") must carry the storage-sink arms, including the
  # many-small-objects pair that motivates the segment backend — and
  # the segment arm must actually beat the one-file-per-object path.
  if [ "$(jq -r '.bench' "$f")" = "encode" ]; then
    if ! jq -e '[.arms[].name] |
        (index("file_buffered_write") != null) and
        (index("segment_write") != null) and
        (index("smallobj_file") != null) and
        (index("smallobj_segment") != null)' "$f" > /dev/null; then
      echo "FAIL $f: encode bench missing storage-sink arms" >&2
      status=1
      continue
    fi
    if ! jq -e '
        ([.arms[] | select(.name == "smallobj_file")] | first | .wall_s) >
        ([.arms[] | select(.name == "smallobj_segment")] | first | .wall_s)
        ' "$f" > /dev/null; then
      echo "FAIL $f: smallobj_segment did not beat smallobj_file" >&2
      status=1
      continue
    fi
    # One plan and one write per checkpoint of each encode-thread arm.
    if ! require_phases "$f" 'test("^t[0-9]+_")' \
        '["ckpt.plan","ckpt.encode_shard","ckpt.write"]' ckpt.plan ckpt.write
    then
      status=1
      continue
    fi
  fi
  # X9 (bench "restore") must carry the one-thread and pooled planned
  # arms (the 1T arm is the denominator of the pool speedup) and both
  # on-disk decode pairs.
  if [ "$(jq -r '.bench' "$f")" = "restore" ]; then
    if ! jq -e '[.arms[].name] |
        (any(startswith("chain") and endswith("_planned_1t"))) and
        (any(startswith("chain") and endswith("_planned_pool")))' \
        "$f" > /dev/null; then
      echo "FAIL $f: restore bench missing planned chain arms" >&2
      status=1
      continue
    fi
    if ! jq -e '[.arms[].name] |
        (any(startswith("file_chain"))) and
        (any(startswith("segment_chain")))' "$f" > /dev/null; then
      echo "FAIL $f: restore bench missing on-disk chain arms" >&2
      status=1
      continue
    fi
    # Every chain restore plans once and stitches once.
    if ! require_phases "$f" 'contains("chain")' \
        '["restore.plan","restore.decode_shard","restore.stitch"]' \
        restore.plan restore.stitch; then
      status=1
      continue
    fi
  fi
  # X11 (bench "net") must carry the segment-served arms.
  if [ "$(jq -r '.bench' "$f")" = "net" ]; then
    if ! jq -e '[.arms[].name] |
        (any(startswith("segment_put"))) and
        (any(startswith("segment_get")))' "$f" > /dev/null; then
      echo "FAIL $f: net bench missing segment-served arms" >&2
      status=1
      continue
    fi
  fi
  echo "OK   $f ($(jq -r '.arms | length' "$f") arms)"
done
exit $status
