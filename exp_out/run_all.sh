#!/bin/bash
# Regenerate Tables I-V into exp_out/ from this checkout, wherever it is,
# with src/ on PYTHONPATH so no installed package is needed. Each table's
# settings are the defaults of its function in repro.experiments.tables.
# Each table's log ends with the wall time of its job.
REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="$REPO/exp_out"
export PYTHONPATH="$REPO/src${PYTHONPATH:+:$PYTHONPATH}"
cd "$REPO/jobs" || exit 1
took() { echo "wall time: $((SECONDS - START)) s" >> "$OUT/$1.log"; START=$SECONDS; }
START=$SECONDS
python table1.py --out "../exp_out/table1.md" > "$OUT/table1.log" 2>&1; took table1
python table2.py --out "../exp_out/table2.md" > "$OUT/table2.log" 2>&1; took table2
python table3.py --out "../exp_out/table3.md" > "$OUT/table3.log" 2>&1; took table3
python table4.py --out "../exp_out/table4.md" > "$OUT/table4.log" 2>&1; took table4
python table5.py --out "../exp_out/table5.md" > "$OUT/table5.log" 2>&1; took table5
touch "$OUT/ALL_DONE"
