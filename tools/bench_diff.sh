#!/usr/bin/env sh
# Compare fresh BENCH_<name>.json records with a committed one, arm by
# arm: the median wall_s over the fresh records and the median of each
# phase's summed total_ns, each as a ratio to the committed value.
# Ratios more than 0.25 away from 1 (the end-to-end ledger's bound)
# are flagged "<<".  Exits 1 when an arm of the committed record is
# missing from any fresh record, 2 on a usage error.
#
# Usage: bench_diff.sh COMMITTED FRESH [FRESH...]
set -eu
if [ $# -lt 2 ]; then
  echo "usage: $0 COMMITTED FRESH [FRESH...]" >&2
  exit 2
fi
base=$1
shift
out=$(jq -n -r --slurpfile base "$base" --argjson bound 0.25 '
  def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                     else (.[length / 2 - 1] + .[length / 2]) / 2 end;
  def fix($d): . * $d | round / $d | tostring;
  def pad($w): tostring | if length < $w then " " * ($w - length) + .
                          else . end;
  def rpad($w): tostring | if length < $w then . + " " * ($w - length)
                           else . end;
  def row($arm; $what; $old; $new; $scale):
    (if $new == null then "missing" elif $old == 0 then "-"
     else $new / $old | fix(100) end) as $r
    | "\($arm | rpad(24)) \($what | rpad(22)) \($old * $scale | fix(1e4) |
        pad(12)) \(if $new == null then "-" else $new * $scale | fix(1e4)
        end | pad(12)) \($r | pad(8))" +
      (if $new == null or ($old > 0 and ($new / $old - 1 | fabs) > $bound)
       then " <<" else "" end);
  [inputs] as $fresh
  | "\("arm" | rpad(24)) \("metric (s)" | rpad(22)) \("committed" | pad(12)) \(
     "median" | pad(12)) \("ratio" | pad(8))",
    ($base[0].arms[] | .name as $n
     | [$fresh[].arms[] | select(.name == $n)] as $runs
     | if ($runs | length) < ($fresh | length) then
         "MISSING arm \($n): in \($runs | length) of \($fresh | length) records"
       else
         row($n; "wall_s"; .wall_s; [$runs[].wall_s] | median; 1),
         (.phases[] | .name as $p
          | [$runs[].phases[] | select(.name == $p) | .total_ns] as $ns
          | row($n; $p; .total_ns;
                if $ns == [] then null else $ns | median end; 1e-9))
       end)
' "$@")
printf '%s\n' "$out"
case $out in
  *"MISSING arm"*) exit 1 ;;
esac
