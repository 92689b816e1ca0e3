#!/bin/sh
# Round trip through the command line interface on the bundled
# karate club data. Everything lands in a scratch directory.
# GREMBED names the command to run (default: the installed grembed),
# e.g. GREMBED="python3 -m grembed.cli" with PYTHONPATH=src.
set -e

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

DATA=$(python3 -c "import grembed, os; print(os.path.join(os.path.dirname(grembed.__file__), 'data'))")
echo "workspace: $WORK"
echo

echo "== embed =="
${GREMBED:-grembed} embed --method node2vec --input "$DATA/karate.edges" \
    --dim 16 --epochs 8 --lr 0.25 --walk-length 30 --walks-per-node 15 \
    --window 7 --q 0.5 --seed 42 --out "$WORK/z.tsv" >"$WORK/embed.report"
head -3 "$WORK/embed.report"
echo

echo "== evaluate the embedding =="
${GREMBED:-grembed} eval-nodes --embedding "$WORK/z.tsv" --labels "$DATA/karate.labels" \
    --train-fraction 0.1 --seed 0 | grep -E "accuracy_mean|macro_f1_mean"
echo

echo "== cluster recovery =="
${GREMBED:-grembed} eval-cluster --embedding "$WORK/z.tsv" --labels "$DATA/karate.labels" \
    --seed 0 | grep nmi
echo

echo "== 2-d projection =="
${GREMBED:-grembed} project --embedding "$WORK/z.tsv" --out "$WORK/proj.tsv" >/dev/null
head -4 "$WORK/proj.tsv"
echo

echo "== role signatures =="
${GREMBED:-grembed} roles --input "$DATA/karate.edges" --mode graphwave --t-points 10 \
    --out "$WORK/sigs.tsv" | grep signature_dim
${GREMBED:-grembed} eval-cluster --embedding "$WORK/sigs.tsv" --labels "$DATA/karate.labels" \
    --seed 0 | grep nmi
echo

echo "== determinism check =="
${GREMBED:-grembed} embed --method deepwalk --input "$DATA/karate.edges" --epochs 2 \
    --seed 7 --out "$WORK/a.tsv" >/dev/null
${GREMBED:-grembed} embed --method deepwalk --input "$DATA/karate.edges" --epochs 2 \
    --seed 7 --out "$WORK/b.tsv" >/dev/null
cmp "$WORK/a.tsv" "$WORK/b.tsv" && echo "two runs, byte-identical output"
