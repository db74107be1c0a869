#!/usr/bin/env bash
# Docs cross-checker: fail if a page under docs/ (or README.md) references
# a repo path, build target or code symbol that no longer exists, so the
# architecture docs cannot silently rot. Five kinds of references are
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
#   5. trace spans         the span taxonomy table in docs/observability.md
#                          and the FT_SPAN*/FT_VSPAN* sites under src/ list
#                          the same (category, name) pairs
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

# 5. span taxonomy, both ways: every (category, name) pair in the "Span
#    taxonomy" table of docs/observability.md (argument notes in
#    parentheses aside) must appear as string literals on one FT_SPAN* /
#    FT_VSPAN* line under src/, and every such line's first two literals
#    must be a row of the table. Names are lower_snake, so check 3 skips
#    them.
SPAN_DOC=docs/observability.md
span_sites=$(grep -rhE '^[[:space:]]*FT_V?SPAN(_ARG)?\(' src/ || true)
doc_pairs=$(awk '/^### Span taxonomy/ { on = 1; next }
                 on && /^#/ { exit }
                 on && /^\| `/ { print }' "$SPAN_DOC" |
  while IFS='|' read -r _ cat names _; do
    cat=${cat//[\` ]/}
    sed -E 's/\([^)]*\)//g' <<<"$names" | grep -oE '`[^`]+`' | tr -d '`' |
      sed "s/^/$cat /"
  done | sort -u || true)
[[ -n $doc_pairs ]] || complain "$SPAN_DOC" "no Span taxonomy table found"
while read -r cat name; do
  [[ -n $cat ]] || continue
  grep -F "\"$cat\"" <<<"$span_sites" | grep -qF "\"$name\"" ||
    complain "$SPAN_DOC" "span taxonomy lists '$cat/$name', which no FT_SPAN/FT_VSPAN site under src/ records"
done <<<"$doc_pairs"
site_pairs=$(while IFS= read -r line; do
  grep -oE '"[^"]*"' <<<"$line" | head -2 | tr -d '"' | paste -sd' '
done <<<"$span_sites" | sort -u || true)
while read -r cat name; do
  grep -qxF "$cat $name" <<<"$doc_pairs" ||
    complain "$SPAN_DOC" "span '$cat/$name' recorded under src/ is missing from the span taxonomy"
done <<<"$site_pairs"

if [[ $fail -ne 0 ]]; then
  echo "docs-check: FAILED — fix the stale references above" >&2
  exit 1
fi
echo "docs-check: OK (${DOCS[*]}; span taxonomy: $(wc -l <<<"$doc_pairs") documented pairs, $(wc -l <<<"$site_pairs") site pairs)"
