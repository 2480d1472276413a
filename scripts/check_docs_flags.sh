#!/usr/bin/env bash
# Docs/CLI drift check, both directions: fails if README.md or docs/*.md
# reference a `--flag` that none of the addm tools' --help output prints,
# or if any tool's --help prints a flag README.md never mentions.  Keeps the CLI reference tables honest — a renamed, added
# or removed flag must be fixed in the docs in the same commit.
#
# Usage: scripts/check_docs_flags.sh BUILD_DIR
set -euo pipefail

bindir=${1:?usage: check_docs_flags.sh BUILD_DIR (containing the addm tools)}
repo=$(cd "$(dirname "$0")/.." && pwd)
tools='addm_explore addm_trace_gen addm_trace_import addm_merge addm_cache addm_serve addm_client'

help_flags=$(
  for tool in $tools; do
    "$bindir/$tool" --help 2>&1
  done | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u
)

# Non-addm flags the docs legitimately mention (cmake/ctest invocations).
allow='--build --output-on-failure --test-dir'

doc_flags=$(cat "$repo/README.md" "$repo"/docs/*.md |
  grep -oE -- '--[a-z][a-z0-9-]*' | sort -u)

status=0
for flag in $doc_flags; do
  if grep -qxF -- "$flag" <<<"$help_flags"; then continue; fi
  case " $allow " in
    *" $flag "*) continue ;;
  esac
  echo "error: $flag is referenced in README/docs but no tool's --help prints it" >&2
  status=1
done

readme_flags=$(grep -oE -- '--[a-z][a-z0-9-]*' "$repo/README.md" | sort -u)
for tool in $tools; do
  for flag in $("$bindir/$tool" --help 2>&1 | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u); do
    if grep -qxF -- "$flag" <<<"$readme_flags"; then continue; fi
    echo "error: $tool --help prints $flag but README.md never mentions it" >&2
    status=1
  done
done

if [ "$status" -eq 0 ]; then
  echo "docs flags OK: documented flags and the tools' --help agree"
fi
exit $status
