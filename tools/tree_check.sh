#!/bin/sh
# `make check` must leave the checkout as it found it.
#   tree_check.sh save FILE      record the checkout's status in FILE
#   tree_check.sh compare FILE   fail, listing the changed paths, if the
#                                status now differs from FILE
# The status is `git status --porcelain` over every untracked file too,
# so ignored build output (_build/, perfbench-out/) does not count.
# Outside a git checkout both modes do nothing.
set -eu

if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "tree-check: not a git checkout, skipped"
    exit 0
fi

case "${1:-}" in
save)
    mkdir -p "$(dirname "$2")"
    git status --porcelain --untracked-files=all >"$2"
    ;;
compare)
    NOW=$(mktemp /tmp/dpoaf-tree-check.XXXXXX)
    trap 'rm -f "$NOW"' EXIT
    git status --porcelain --untracked-files=all >"$NOW"
    if ! cmp -s "$2" "$NOW"; then
        echo "tree-check: the checkout changed during the run:" >&2
        diff "$2" "$NOW" | sed -n -e 's/^< /  before: /p' -e 's/^> /  after:  /p' >&2
        exit 1
    fi
    echo "tree-check: OK (checkout unchanged)"
    ;;
*)
    echo "usage: tree_check.sh save|compare FILE" >&2
    exit 2
    ;;
esac
