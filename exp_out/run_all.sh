#!/bin/bash
# Regenerate Tables I-V into exp_out/ from this checkout, wherever it is,
# with src/ on PYTHONPATH so no installed package is needed. Each table's
# settings are the defaults of its function in repro.experiments.tables.
REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="$REPO/exp_out"
export PYTHONPATH="$REPO/src${PYTHONPATH:+:$PYTHONPATH}"
cd "$REPO/jobs" || exit 1
python table1.py --out "$OUT/table1.md" > "$OUT/table1.log" 2>&1
python table2.py --out "$OUT/table2.md" > "$OUT/table2.log" 2>&1
python table3.py --out "$OUT/table3.md" > "$OUT/table3.log" 2>&1
python table4.py --out "$OUT/table4.md" > "$OUT/table4.log" 2>&1
python table5.py --out "$OUT/table5.md" > "$OUT/table5.log" 2>&1
touch "$OUT/ALL_DONE"
