#!/usr/bin/env bash
# Lint the code that runs on real threads for implicit-seq_cst atomic
# operations: src/rt/, plus the QA universal construction, the batched
# engine, the zoo specialists, the Figure 7 object and the Co coroutine
# type, which the rt backend runs as they are.
#
# The rt memory-order discipline (docs/MODEL.md, "The rt memory model")
# requires every atomic operation in that code to name its memory order
# explicitly. Default-argument forms (x.load(), x.store(v),
# x.fetch_add(1), ...) silently mean seq_cst, which both hides the
# intended contract and costs a full fence on weakly ordered machines.
#
# Rule: any line performing an atomic member operation must also name a
# memory_order on that line. Multi-line calls put the order argument on
# the operation's own line by convention. The `++`/`--`/assignment
# sugar on atomics is banned outright (it is always seq_cst).
set -u

fail=0
files="$(find src/rt -name '*.hpp' -o -name '*.cpp') src/qa/qa_universal.hpp
  src/qa/qa_batched.hpp src/zoo/specialist.hpp src/zoo/snapshot.hpp
  src/zoo/ledger.hpp src/core/tbwf_object.hpp src/sim/co.hpp"

ops='\.(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong|test_and_set|clear|wait|notify_one|notify_all)\('
# A call may wrap; accept a memory_order named on the call line or on
# either of the two continuation lines.
hits=$(for f in $files; do
  awk -v ops="$ops" -v fname="$f" '
    { lines[NR] = $0 }
    END {
      for (i = 1; i <= NR; ++i) {
        if (lines[i] !~ ops || lines[i] ~ /^[ \t]*\/\//) continue
        ok = 0
        for (j = i; j <= i + 2 && j <= NR; ++j) {
          if (lines[j] ~ /memory_order/) { ok = 1; break }
        }
        if (!ok) printf "%s:%d:%s\n", fname, i, lines[i]
      }
    }' "$f"
done || true)
if [ -n "$hits" ]; then
  echo "implicit-seq_cst atomic operations (add an explicit memory_order):"
  echo "$hits"
  fail=1
fi

# ++/--/+=/-= on members that are declared std::atomic in the same file.
for f in $files; do
  atomics=$(grep -oE 'std::atomic[^>]*> +[a-zA-Z_][a-zA-Z0-9_]*' "$f" \
    | awk '{print $NF}' | sort -u)
  for a in $atomics; do
    sugar=$(grep -nE "(\+\+|--)${a}\b|\b${a}(\+\+|--)|\b${a}\s*(\+=|-=|=[^=])" "$f" \
      | grep -vE 'std::atomic|memory_order|^\s*//' || true)
    if [ -n "$sugar" ]; then
      echo "seq_cst operator sugar on atomic '${a}' in ${f}:"
      echo "$sugar"
      fail=1
    fi
  done
done

if [ "$fail" -eq 0 ]; then
  echo "OK: no implicit-seq_cst atomics in the code that runs on threads"
fi
exit "$fail"
