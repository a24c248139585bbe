#!/usr/bin/env bash
# Fails when DESIGN.md, README.md, EXPERIMENTS.md or the verify skill
# (.claude/skills/verify/SKILL.md, a build-and-drive recipe) cite a repo
# path under crates/, tests/, scripts/, examples/, fuzz/, vendor/ or
# benchmark/ that does not exist. A `:line` or `::item` suffix is not
# part of the path.
#
# Usage: ./scripts/check_doc_paths.sh   (prints `doc:line: path`, exit 1)
set -euo pipefail
cd "$(dirname "$0")/.."

roots='crates|tests|scripts|examples|fuzz|vendor|benchmark'
status=0
for doc in DESIGN.md README.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; do
    # A cited path starts after a character that cannot be part of one,
    # so `crates/x/tests/y.rs` is one path, not two.
    while IFS=: read -r line path; do
        if [ ! -e "$path" ]; then
            echo "$doc:$line: $path"
            status=1
        fi
    done < <(grep -noE "(^|[^A-Za-z0-9_./-])($roots)/[A-Za-z0-9_./-]*" "$doc" |
        sed -E 's/^([0-9]+):[^a-z]?/\1:/; s/\.+$//')
done
exit $status
