#!/usr/bin/env bash
# Runs clang-tidy (config: the repo's .clang-tidy) over every source file in
# src/, tools/, tests/ and bench/, using a compile_commands.json exported
# from a dedicated build tree. Exits non-zero if any diagnostic is emitted —
# CI treats tidy findings as errors.
#
# Usage: tools/run-clang-tidy.sh [build-dir]
#   CLANG_TIDY=clang-tidy-18 tools/run-clang-tidy.sh   # pick a binary
#   REQUIRE_TIDY=1 tools/run-clang-tidy.sh             # missing binary = FAIL
set -u -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-tidy"}"

find_tidy() {
  if [ -n "${CLANG_TIDY:-}" ]; then
    command -v "${CLANG_TIDY}" && return 0
  fi
  for cand in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
              clang-tidy-16 clang-tidy-15; do
    command -v "${cand}" && return 0
  done
  return 1
}

tidy_bin="$(find_tidy)" || {
  if [ "${REQUIRE_TIDY:-0}" = "1" ]; then
    echo "run-clang-tidy.sh: FAIL — no clang-tidy binary found on PATH" >&2
    echo "(REQUIRE_TIDY=1 forbids skipping; install clang-tidy)" >&2
    exit 1
  fi
  echo "run-clang-tidy.sh: SKIP — no clang-tidy binary found on PATH" >&2
  echo "(install clang-tidy, set CLANG_TIDY=<binary>, or REQUIRE_TIDY=1" >&2
  echo " to make this an error)" >&2
  exit 0
}
echo "using $("${tidy_bin}" --version | head -n 1)"

# Tests and benches are analyzed too, so they must be in the compile
# database.
cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DPASCHED_BUILD_BENCH=ON -DPASCHED_BUILD_EXAMPLES=OFF \
  -DPASCHED_BUILD_TESTS=ON > /dev/null

mapfile -t sources < <(find "${repo_root}/src" "${repo_root}/tools" \
  "${repo_root}/tests" "${repo_root}/bench" -name '*.cpp' | sort)

# Self-check the coverage: every subsystem must contribute at least one
# source. A directory silently dropping out of the sweep (a path typo, a
# rename, a new subsystem like src/race landing after the script
# was written) is a coverage hole that looks exactly like "tidy is clean" —
# make it a hard failure instead.
required_dirs=(src/alloc src/analysis src/apps src/check src/cluster \
               src/contend src/core src/daemons src/kern src/mpi \
               src/net src/race src/sim src/srclint src/trace \
               src/util tools tests bench)
for dir in "${required_dirs[@]}"; do
  if ! printf '%s\n' "${sources[@]}" | grep -q "^${repo_root}/${dir}/"; then
    echo "run-clang-tidy.sh: FAIL — no sources found under ${dir}/" >&2
    echo "(new/renamed subsystem? update required_dirs and the sweep)" >&2
    exit 1
  fi
done
unexpected="$(find "${repo_root}/src" -mindepth 2 -name '*.cpp' \
  | sed -E "s|^${repo_root}/(src/[^/]+)/.*|\1|" | sort -u \
  | grep -v -F -x -f <(printf '%s\n' "${required_dirs[@]}") || true)"
if [ -n "${unexpected}" ]; then
  echo "run-clang-tidy.sh: FAIL — src subdirectories missing from" >&2
  echo "required_dirs (add them): ${unexpected}" >&2
  exit 1
fi
echo "coverage: ${#sources[@]} sources across ${#required_dirs[@]} directories"

status=0
for src in "${sources[@]}"; do
  # tools/ sources are only in the compile database when tools build; pass
  # -p unconditionally and let clang-tidy resolve flags per file.
  if ! "${tidy_bin}" -p "${build_dir}" --quiet "${src}"; then
    status=1
  fi
done

if [ "${status}" -ne 0 ]; then
  echo "run-clang-tidy.sh: FAIL — clang-tidy reported diagnostics" >&2
else
  echo "run-clang-tidy.sh: clean"
fi
exit "${status}"
