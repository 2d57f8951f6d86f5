#!/usr/bin/env bash
# One command for the benchmark.
#
#   benchmark/run.sh                      full run: prepare -> e2e -> layers over all five
#                                         workloads; documents and the span file under out/
#   benchmark/run.sh --smoke              the same on tiny tensors (a self-test, < 10 s)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         the gate's form (BENCHMARK.json's command): one
#                                         workload, e2e for --trace 0 or layers for --trace 1;
#                                         the last line of stdout is the result object
#
# Every other argument goes to the binaries unchanged (see `e2e --help`).
# The package builds offline with only path dependencies on the repo. In a
# directory without the repo around it the build fails and so does this
# script, before printing anything on stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
trace=""
args=()
while (($#)); do
    case "$1" in
        --trace)
            trace="${2:?--trace needs 0 or 1}"
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done

# Cargo reads a relative CARGO_TARGET_DIR against the current directory;
# this script never changes directory, so the same path finds the binaries.
bin="${CARGO_TARGET_DIR:-$here/target}/release"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2

build_cli() {
    # The cli.* probes run the real `spttn` binary. Its build shares the
    # target directory; if it fails the probes report n/a and the run goes on.
    cargo build --release --offline --quiet --manifest-path "$here/../crates/cli/Cargo.toml" >&2 ||
        echo "run.sh: could not build crates/cli; cli.* will be n/a" >&2
}

case "$trace" in
    0) exec "$bin/e2e" --root "$here" "${args[@]}" ;;
    1)
        build_cli
        exec "$bin/layers" --root "$here" "${args[@]}"
        ;;
    "")
        build_cli
        "$bin/e2e" --root "$here" --prepare "${args[@]}" >&2
        status=0
        "$bin/e2e" --root "$here" --out "$here/out/e2e.json" "${args[@]}" || status=$?
        "$bin/layers" --root "$here" --out "$here/out/layers.json" "${args[@]}" || status=$?
        # Both documents in one file, the shape of results/initial.json.
        {
            printf '{"e2e": '
            cat "$here/out/e2e.json"
            printf ', "layers": '
            cat "$here/out/layers.json"
            printf '}\n'
        } >"$here/out/run.json"
        echo "run.sh: wrote $here/out/run.json" >&2
        exit "$status"
        ;;
    *)
        echo "run.sh: --trace takes 0 or 1, got '$trace'" >&2
        exit 2
        ;;
esac
