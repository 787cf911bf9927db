#!/usr/bin/env bash
# Counts the non-test lines of the workspace, per crate, and prints three
# sums: the deployed product (`gsa-core` and every workspace crate it
# links), the test support (the other crates: `gsa-workload`,
# `gsa-baselines`, `gsa-integration`) and the offline stand-ins under
# `shims/`.
#
# A file's non-test lines are its lines up to the first `#[cfg(test)]`
# that a `mod` line follows (the file's unit tests start there). A file
# declared only as `#[cfg(test)] mod name;` is test code as a whole and
# is not counted.
#
# Usage: .github/count-lines.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Lines of one file before its unit tests.
product_lines() {
  awk '
    pending && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { exit }
    pending { n += held; held = 0; pending = 0 }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; held = 1; next }
    { n++ }
    END { print n + 0 }
  ' "$1"
}

# The files under a crate's `src/` that a `#[cfg(test)]` declares as a
# module: `name.rs` or `name/mod.rs` beside a crate root or `mod.rs`,
# else in the directory named after the declaring file.
test_only_files() {
  local file dir name
  while IFS= read -r file; do
    dir=$(dirname "$file")
    case $(basename "$file") in
      lib.rs | main.rs | mod.rs) ;;
      *) dir="$dir/$(basename "$file" .rs)" ;;
    esac
    awk '
      pending && match($0, /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/) {
        line = substr($0, RSTART, RLENGTH)
        sub(/^.*mod[[:space:]]+/, "", line)
        sub(/[[:space:]]*;$/, "", line)
        print line
      }
      { pending = $0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ }
    ' "$file" | while IFS= read -r name; do
      for candidate in "$dir/$name.rs" "$dir/$name/mod.rs"; do
        [[ -f $candidate ]] && echo "$candidate"
      done
    done
  done < <(find "$1/src" -name '*.rs' | sort)
}

# Non-test lines of one crate directory.
crate_lines() {
  local skip file total=0
  skip=$(test_only_files "$1")
  while IFS= read -r file; do
    grep -qxF "$file" <<<"$skip" && continue
    total=$((total + $(product_lines "$file")))
  done < <(find "$1/src" -name '*.rs' | sort)
  echo "$total"
}

linked=$(cargo tree --offline -p gsa-core -e normal --prefix none |
  sed -n 's|.*(\(.*/crates/[^/)]*\)).*|\1|p' | xargs -n1 basename | sort -u)

product=0 support=0 shims=0
printf '%-18s %-8s %6s\n' crate part lines
for dir in crates/*/ shims/*/; do
  dir=${dir%/}
  [[ -d $dir/src ]] || continue
  name=$(basename "$dir")
  lines=$(crate_lines "$dir")
  if [[ $dir == shims/* ]]; then
    part=shims shims=$((shims + lines))
  elif grep -qxF "$name" <<<"$linked"; then
    part=product product=$((product + lines))
  else
    part=support support=$((support + lines))
  fi
  printf '%-18s %-8s %6d\n' "$name" "$part" "$lines"
done
echo
printf 'deployed product  %6d\n' "$product"
printf 'test support      %6d\n' "$support"
printf 'shims             %6d\n' "$shims"
printf 'total             %6d\n' $((product + support + shims))
