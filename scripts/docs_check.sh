#!/bin/sh
# docs_check.sh — lint the documentation tree for broken relative links and
# stale repository paths.
#
# Scans README.md, docs/*.md, and every examples/*/README.md for markdown
# inline links `](target)` and fails if a relative target does not exist in
# the checkout. External links (http/https/mailto), pure anchors (#…), and
# links that deliberately escape the checkout (GitHub web-UI paths such as
# the ../../actions badge link) are out of scope.
#
# It also fails on a backquoted repository path that does not exist: the
# first word of a code span that starts with cmd/, internal/, pkg/,
# scripts/, examples/, docs/ or bench/, read from the repository root, with
# a :line suffix dropped. Spans holding a pattern or a placeholder (*, {, <,
# …) name no single file and are skipped.
#
# Run directly or via `make docs-check`; CI runs it on every push.
set -eu

cd "$(dirname "$0")/.."

fail=0
files="README.md $(find docs examples -name '*.md' | sort)"
for f in $files; do
    dir=$(dirname "$f")
    links=$(grep -o ']([^)]*)' "$f" | sed 's/^](//; s/)$//') || continue
    for link in $links; do
        case "$link" in
            http://*|https://*|mailto:*|'#'*) continue ;;
        esac
        target=${link%%#*}
        [ -n "$target" ] || continue
        path="$dir/$target"
        norm=$(realpath -m --relative-to=. "$path" 2>/dev/null || printf '%s' "$path")
        case "$norm" in
            ../*) continue ;; # escapes the checkout: a web path, not a file
        esac
        if [ ! -e "$path" ]; then
            echo "broken link in $f: $link" >&2
            fail=1
        fi
    done
done

set -f # the spans are words, not globs
for f in $files; do
    spans=$(grep -o '`[^`]*`' "$f" | tr -d '`' | awk 'NF { print $1 }') || continue
    for p in $spans; do
        case "$p" in
            cmd/*|internal/*|pkg/*|scripts/*|examples/*|docs/*|bench/*) ;;
            *) continue ;;
        esac
        case "$p" in
            *'*'*|*'{'*|*'<'*|*'…'*) continue ;;
        esac
        p=${p%%:*}
        if [ ! -e "$p" ]; then
            echo "stale path in $f: $p" >&2
            fail=1
        fi
    done
done
set +f

if [ "$fail" -ne 0 ]; then
    echo "docs check: FAILED" >&2
    exit 1
fi
echo "docs check: all relative links and repository paths resolve"
