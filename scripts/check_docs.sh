#!/usr/bin/env bash
# Docs cross-checker: fail if a page under docs/ (or README.md) references
# a repo path, build target or code symbol that no longer exists, so the
# architecture docs cannot silently rot. Four kinds of references are
# checked:
#
#   1. repo paths          src/net/wire.hpp, scripts/bench_micro.sh,
#                          src/net/wire.* (glob), src/common/x.{hpp,cpp}
#   2. markdown links      [text](relative.md) — http(s) links are skipped
#   3. backticked symbols  `FederationServer`, `RoundRecord::lost_updates` —
#                          every ::-component must appear somewhere in
#                          src/ tests/ bench/ examples/ scripts/ CMakeLists.txt
#   4. build targets       build/bench_X needs bench/bench_X.cpp,
#                          build/example_X examples/X.cpp, build/test_X
#                          tests/test_X.cpp (the CMake globs' naming)
#
# Usage: scripts/check_docs.sh   (run from anywhere; exits nonzero on rot)
set -euo pipefail

cd "$(dirname "$0")/.."

DOCS=(docs/*.md README.md)
SEARCH_DIRS=(src tests bench examples scripts CMakeLists.txt)
fail=0

complain() {
  echo "docs-check: $1: $2" >&2
  fail=1
}

path_exists() {
  local ref=$1
  if [[ $ref == *"{"* ]]; then
    # brace form: src/common/thread_pool.{hpp,cpp}
    local base=${ref%%\{*} exts=${ref#*\{}
    exts=${exts%\}*}
    local e
    IFS=',' read -ra parts <<<"$exts"
    for e in "${parts[@]}"; do
      [[ -e "${base}${e}" ]] || return 1
    done
    return 0
  fi
  if [[ $ref == *".*" ]]; then
    # glob form: src/net/wire.* — at least one match must exist
    compgen -G "$ref" >/dev/null
    return
  fi
  [[ -e $ref ]]
}

for doc in "${DOCS[@]}"; do
  [[ -f $doc ]] || continue

  # 1. repo paths: anything that looks like <topdir>/<more>.
  while IFS= read -r ref; do
    # Strip *trailing* punctuation markdown tends to glue on (commas stay
    # legal inside a brace form like src/x.{hpp,cpp}).
    ref=$(sed -E "s/[),:,.\`'\"]+$//" <<<"$ref")
    [[ -n $ref ]] || continue
    path_exists "$ref" || complain "$doc" "missing path '$ref'"
  done < <(grep -oE '\b(src|tests|scripts|examples|bench|docs)/[A-Za-z0-9_.{},/*-]+' "$doc" | sort -u)

  # 2. relative markdown links (path-shaped targets only — a lambda in a
  #    code snippet can also match the ](...) pattern).
  while IFS= read -r link; do
    [[ $link == http* ]] && continue
    [[ $link == "#"* ]] && continue
    [[ $link =~ ^[A-Za-z0-9_./#-]+$ ]] || continue
    target=$(dirname "$doc")/"${link%%#*}"
    [[ -e $target ]] || complain "$doc" "broken link '$link'"
  done < <(grep -oE '\]\(([^)]+)\)' "$doc" | sed -E 's/^\]\((.*)\)$/\1/' | sort -u)

  # 3. backticked identifiers: every ::-component must appear in the tree.
  #    Only CamelCase / UPPER_CASE / qualified tokens are checked — they are
  #    the ones that rot when code is renamed; lower_snake words are too
  #    generic to grep for meaningfully.
  while IFS= read -r sym; do
    sym=${sym//\`/}
    sym=${sym%"()"}
    [[ $sym =~ ^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z0-9_]+)*$ ]] || continue
    [[ $sym =~ [A-Z] ]] || continue
    IFS='::' read -ra parts <<<"$sym"
    for part in "${parts[@]}"; do
      [[ -n $part ]] || continue
      grep -rqF "$part" "${SEARCH_DIRS[@]}" 2>/dev/null ||
        complain "$doc" "unknown symbol '$sym' (component '$part')"
    done
  done < <(grep -oE '`[A-Za-z_][A-Za-z0-9_:]*(\(\))?`' "$doc" | sort -u)

  # 4. build targets: an executable exists only while its source does.
  while IFS= read -r target; do
    case $target in
      bench_*) src=bench/$target.cpp ;;
      example_*) src=examples/${target#example_}.cpp ;;
      test_*) src=tests/$target.cpp ;;
    esac
    [[ -e $src ]] || complain "$doc" "build target '$target' has no source $src"
  done < <(grep -oE '\bbuild/(bench|example|test)_[A-Za-z0-9_]+' "$doc" |
             sed 's|^build/||' | sort -u)
done

if [[ $fail -ne 0 ]]; then
  echo "docs-check: FAILED — fix the stale references above" >&2
  exit 1
fi
echo "docs-check: OK (${DOCS[*]})"
