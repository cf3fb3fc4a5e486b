#!/usr/bin/env bash
# The repository's benchmark. Builds offline, then:
#
#   run.sh                          every workload, gated run, seed 1
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                                   one run (what the driver calls)
#   run.sh trace [--workload W]     traced run: layer rows + out/trace-W.json
#   run.sh smoke                    2 s per workload; names match BENCHMARK.json
#   run.sh check                    A-B-B-A on the same code, against the bounds
#   run.sh spread                   ten seeds per workload, quartiles and IQR/median
#   run.sh paper-scale              one 2 x 11.8 M-record streaming pass (opt-in)
#
# Everything is written under benchmark/out/ and the cargo target
# directory; nothing outside the checkout is touched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory,
# for cargo and for this script alike.
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/mbw-benchmark"
workloads=(measure_stream eval_campaign shard_reduce service_load)

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
mkdir -p "$here/out"

# One run if the arguments name a workload, else one per workload.
run() {
    if [[ " $* " == *" --workload "* ]]; then
        "$bin" --out "$here/out" "$@"
    else
        local w
        for w in "${workloads[@]}"; do
            "$bin" --out "$here/out" --workload "$w" "$@"
        done
    fi
}

case "${1:-}" in
trace)
    run --trace 1 "${@:2}"
    ;;
smoke | check | spread)
    exec python3 "$here/tools/noise.py" "$1" --bin "$bin" --out "$here/out" \
        --manifest "$here/../BENCHMARK.json" "${@:2}"
    ;;
paper-scale)
    exec "$bin" "$@"
    ;;
*)
    run "$@"
    ;;
esac
