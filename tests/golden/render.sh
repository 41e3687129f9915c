#!/bin/sh
# Render the CLI outputs pinned in this directory into DIR:
#   repro program {MF LF, S T} --optimizer {canonical,greedy,optimal}
#   repro wsdl {MF,LF,S,T,DOC}
#   examples/customer_provisioning.py (the directory S's exchange fills)
# Run from the repository root; compare with
#   sh tests/golden/render.sh OUT && diff -r -x render.sh tests/golden OUT
set -eu
out=${1:?usage: render.sh DIR}
mkdir -p "$out"
for pair in "MF LF" "S T"; do
    for optimizer in canonical greedy optimal; do
        # shellcheck disable=SC2086  # the pair is two words
        PYTHONPATH=src python -m repro program $pair --optimizer "$optimizer" \
            > "$out/program-$(echo "$pair" | tr ' ' -)-$optimizer.txt"
    done
done
for fragmentation in MF LF S T DOC; do
    PYTHONPATH=src python -m repro wsdl "$fragmentation" \
        > "$out/wsdl-$fragmentation.xml"
done
PYTHONPATH=src python examples/customer_provisioning.py \
    > "$out/customer-provisioning.txt"
