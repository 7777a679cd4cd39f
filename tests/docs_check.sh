#!/usr/bin/env bash
# Docs drift gate (ctest `docs_check`).
#
#   docs_check.sh <fsim-binary> <repo-root>
#
# 1. Every subcommand and --flag that `fsim help` prints must appear in
#    docs/CLI.md — adding a CLI surface without documenting it fails CI.
# 2. The reverse direction: every --flag mentioned in docs/CLI.md and every
#    `## \`fsim X\`` section heading must exist in `fsim help` — documenting
#    a surface that was removed (or never existed) fails too.
# 3. Every relative markdown link in README.md and docs/*.md must resolve
#    to an existing file, and `file#anchor` fragments must resolve to a
#    heading in the target document (github-style slugs).
# 4. Every bench/<name> cited in README.md, EXPERIMENTS.md, DESIGN.md and
#    docs/*.md (a source, or a build/bench/<name> binary) must name a file
#    under bench/ — citing a retired bench fails.
set -u

fsim="$1"
root="$2"
cli_doc="$root/docs/CLI.md"
fail=0

help_text="$("$fsim" help)" || { echo "docs_check: '$fsim help' failed"; exit 1; }

[ -f "$cli_doc" ] || { echo "docs_check: missing $cli_doc"; exit 1; }

# Subcommands: the first word of each indented usage line.
subcommands=$(printf '%s\n' "$help_text" | sed -n 's/^  \([a-z][a-z]*\) .*/\1/p' | sort -u)
# Flags: every --name token anywhere in the help text.
flags=$(printf '%s\n' "$help_text" | grep -oE -- "--[a-z][a-z-]*" | sort -u)

for tok in $subcommands; do
  if ! grep -qE "(^|[^a-z-])$tok([^a-z-]|$)" "$cli_doc"; then
    echo "docs_check: subcommand '$tok' from 'fsim help' not documented in docs/CLI.md"
    fail=1
  fi
done
for tok in $flags; do
  if ! grep -qF -- "$tok" "$cli_doc"; then
    echo "docs_check: flag '$tok' from 'fsim help' not documented in docs/CLI.md"
    fail=1
  fi
done

# Reverse direction: documented flags and `## \`fsim X\`` section headings
# must correspond to a real CLI surface.
doc_flags=$(grep -oE -- "--[a-z][a-z-]*" "$cli_doc" | sort -u)
for tok in $doc_flags; do
  if ! printf '%s\n' "$flags" | grep -qxF -- "$tok"; then
    echo "docs_check: flag '$tok' documented in docs/CLI.md but absent from 'fsim help'"
    fail=1
  fi
done
doc_subcommands=$(sed -n 's/^## `fsim \([a-z][a-z]*\)`.*/\1/p' "$cli_doc" | sort -u)
for tok in $doc_subcommands; do
  if ! printf '%s\n' "$subcommands" | grep -qxF -- "$tok"; then
    echo "docs_check: docs/CLI.md section 'fsim $tok' is not a subcommand in 'fsim help'"
    fail=1
  fi
done

# Github-style heading slugs of a markdown file: lowercase, backticks and
# punctuation stripped, spaces to hyphens.
slugs_of() {
  sed -n 's/^#\{1,6\} //p' "$1" \
    | tr 'A-Z' 'a-z' \
    | sed -e 's/[^a-z0-9 -]//g' -e 's/ /-/g'
}

# Relative markdown links: ](path), ](path#anchor) and ](#anchor),
# skipping URLs. Anchors must match a heading slug in the target file.
for doc in "$root/README.md" "$root"/docs/*.md; do
  [ -f "$doc" ] || continue
  dir=$(dirname "$doc")
  links=$(grep -oE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//')
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*|'') continue ;;
    esac
    path=${link%%#*}
    anchor=""
    case "$link" in *'#'*) anchor=${link#*#} ;; esac
    target="$doc"
    if [ -n "$path" ]; then
      target="$dir/$path"
      if [ ! -e "$target" ]; then
        echo "docs_check: $doc links to missing file '$path'"
        fail=1
        continue
      fi
    fi
    if [ -n "$anchor" ] && [ -f "$target" ]; then
      case "$target" in
        *.md)
          if ! slugs_of "$target" | grep -qxF -- "$anchor"; then
            echo "docs_check: $doc links to '$link' but no heading in ${target#$root/} slugs to '#$anchor'"
            fail=1
          fi ;;
      esac
    fi
  done
done

# bench/<name> citations: <name> or <name>.cpp must exist under bench/
# (perfbench/... is not a citation; a trailing full stop is prose).
for doc in "$root/README.md" "$root/EXPERIMENTS.md" "$root/DESIGN.md" \
           "$root"/docs/*.md; do
  [ -f "$doc" ] || continue
  while read -r name; do
    [ -n "$name" ] || continue
    if [ ! -f "$root/bench/$name" ] && [ ! -f "$root/bench/$name.cpp" ]; then
      echo "docs_check: ${doc#$root/} cites bench/$name, which is not a file under bench/"
      fail=1
    fi
  done < <(grep -oE '(^|[^A-Za-z0-9_])bench/[A-Za-z0-9_.{},-]+' "$doc" \
             | sed -e 's|^.*bench/||' -e 's|\.*$||' | sort -u)
done

if [ "$fail" -eq 0 ]; then
  echo "docs_check: CLI reference, markdown links and bench citations are in sync"
fi
exit $fail
