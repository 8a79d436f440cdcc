#!/usr/bin/env bash
# End-to-end correctness gate, organised as named steps: sanitizer
# build + tests, the shrimp_lint determinism/shard-safety gate (with
# its injected-violation self-test), clang-tidy on changed files (when
# installed), the invariant model checker — the clean exploration plus
# the seeded I1/I2/net mutations that must produce counterexamples —
# the TSan concurrency suite, lossy ring and mesh chaos runs, the
# Release-build perf gates against the committed BENCH baselines, and
# the perfbench identity check (every BENCHMARK.json workload at the
# default and the held-out seed must reproduce the sim_events and
# digest recorded in perfbench/spec.json).
#
# Usage: tools/run_checks.sh [build-dir]
#        tools/run_checks.sh --list
#
#   --list                       print the step names and exit
#   SHRIMP_ONLY=<step[,step]>    run only the named steps (from
#                                --list), e.g. SHRIMP_ONLY=lint or
#                                SHRIMP_ONLY=tsan,chaos. Steps build
#                                what they need on demand.
#   SHRIMP_TIDY_BASE=<git-ref>   diff base for clang-tidy (default:
#                                HEAD; use origin/main on a branch)
#   SHRIMP_CHECK_DEPTH=<n>       model-check DFS depth (default: 8)
#   SHRIMP_SKIP_SELFPERF=1       skip the self-perf smoke (e.g. on a
#                                loaded CI box where wall-clock
#                                numbers are meaningless)
#   SHRIMP_SKIP_TSAN=1           skip the ThreadSanitizer suite
#   SHRIMP_SKIP_MULTINODE=1      skip the sharded determinism +
#                                speedup gate
#   SHRIMP_SKIP_NETPERF=1        skip the transport perf gate (goodput
#                                under loss + hotspot-vs-permutation)
#   SHRIMP_SKIP_MESH=1           skip the mesh:4x4 legs inside the
#                                multinode and netperf gates (the
#                                crossbar legs still run)
#   SHRIMP_SKIP_PROFILE=1        skip the profiled-trace gate (trace
#                                validation + <= 10% profiler overhead)
#   SHRIMP_SKIP_WINDOWEFF=1      skip the window-efficiency gate
#                                (barrier plan+sync share <= 50% of
#                                the profiled 4-shard run)
#
# The seqscale step (sequential ns/event at 256 nodes <= 3x the
# 4-node figure) has no skip knob: it is a ratio of two one-thread
# runs, meaningful on any host.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-checks"
depth="${SHRIMP_CHECK_DEPTH:-8}"
tidy_base="${SHRIMP_TIDY_BASE:-HEAD}"

steps="build lint tidy model-clean model-i1 model-tcache model-net \
model-net-mutation ctest tsan chaos selfperf multinode netperf \
profile windoweff seqscale perfid"

if [ "${1:-}" = "--list" ]; then
    for s in ${steps}; do
        echo "${s}"
    done
    exit 0
fi
if [ -n "${1:-}" ]; then
    build_dir="$1"
fi

# ---------------------------------------------------------- selection

should_run() {
    local name="$1"
    if [ -z "${SHRIMP_ONLY:-}" ]; then
        return 0
    fi
    case ",${SHRIMP_ONLY}," in
      *",${name},"*) return 0 ;;
      *) return 1 ;;
    esac
}

if [ -n "${SHRIMP_ONLY:-}" ]; then
    for want in $(echo "${SHRIMP_ONLY}" | tr ',' ' '); do
        case " ${steps} " in
          *" ${want} "*) ;;
          *)
            echo "unknown step '${want}' — tools/run_checks.sh --list" >&2
            exit 2
            ;;
        esac
    done
fi

# ------------------------------------------------- on-demand builders

sanitized_built=0
ensure_sanitized_build() {
    if [ "${sanitized_built}" = "1" ]; then
        return
    fi
    echo "== configure (ASan+UBSan, -Werror) =="
    cmake -B "${build_dir}" -S "${repo_root}" \
        -DSHRIMP_SANITIZE=address,undefined \
        -DSHRIMP_WERROR=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "${build_dir}" -j "$(nproc)"
    sanitized_built=1
}

release_configured=0
ensure_release_target() {
    # $1..: targets to build in the shared Release dir.
    perf_dir="${build_dir}-selfperf"
    if [ "${release_configured}" = "0" ]; then
        cmake -B "${perf_dir}" -S "${repo_root}" \
            -DCMAKE_BUILD_TYPE=Release > /dev/null
        release_configured=1
    fi
    cmake --build "${perf_dir}" -j "$(nproc)" --target "$@" > /dev/null
}

# ---------------------------------------------------------------- lint

step_lint() {
    echo
    echo "== shrimp_lint: determinism & shard-safety contract =="
    ensure_release_target shrimp_lint
    lint="${perf_dir}/tools/shrimp_lint"
    "${lint}" --root="${repo_root}" \
        --baseline="${repo_root}/tools/lint_baseline.json"

    # Self-test: the gate must actually be able to fail. Inject a
    # wall-clock read into the sharded core and require a D1 report.
    inject="${perf_dir}/lint_injected"
    mkdir -p "${inject}/src/sim"
    {
        echo '#include <chrono>'
        echo 'long injected() {'
        echo '    return std::chrono::steady_clock::now()'
        echo '        .time_since_epoch().count();'
        echo '}'
    } > "${inject}/src/sim/injected_wallclock.cc"
    if "${lint}" --root="${inject}" src > "${perf_dir}/lint_inject.out" \
        2>&1
    then
        echo "ERROR: shrimp_lint missed an injected steady_clock read"
        cat "${perf_dir}/lint_inject.out"
        exit 1
    fi
    if ! grep -q "D1" "${perf_dir}/lint_inject.out"; then
        echo "ERROR: injected wall-clock failed without a D1 report:"
        cat "${perf_dir}/lint_inject.out"
        exit 1
    fi
    echo "injected violation detected, as expected"
}

# ---------------------------------------------------------------- tidy

step_tidy() {
    echo
    echo "== clang-tidy (changed files vs ${tidy_base}) =="
    if ! command -v clang-tidy > /dev/null 2>&1; then
        echo "clang-tidy not installed; skipping lint step"
        return
    fi
    ensure_sanitized_build
    # clang-tidy needs a compilation database.
    if [ ! -f "${build_dir}/compile_commands.json" ]; then
        cmake -B "${build_dir}" -S "${repo_root}" \
            -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
    fi
    changed="$(cd "${repo_root}" \
        && git diff --name-only --diff-filter=d "${tidy_base}" -- \
            'src/*.cc' 'tools/*.cc' 'bench/*.cc' 'examples/*.cpp' \
        || true)"
    if [ -n "${changed}" ]; then
        (cd "${repo_root}" && echo "${changed}" \
            | xargs clang-tidy -p "${build_dir}" --quiet)
    else
        echo "no changed C++ sources vs ${tidy_base}; skipping"
    fi
}

# --------------------------------------------------------- model check

step_model_clean() {
    echo
    echo "== model check: clean exploration (depth=${depth}) =="
    ensure_sanitized_build
    "${build_dir}/tools/udma_model_check" --depth="${depth}"
}

step_model_i1() {
    echo
    echo "== model check: seeded I1 mutation must find a counterexample =="
    ensure_sanitized_build
    if "${build_dir}/tools/udma_model_check" --depth=4 \
            --mutate=no-inval-on-switch > "${build_dir}/mutation.out" 2>&1
    then
        echo "ERROR: the no-inval-on-switch mutation went undetected"
        exit 1
    fi
    if ! grep -q "I1" "${build_dir}/mutation.out"; then
        echo "ERROR: mutation run failed without an I1 counterexample:"
        cat "${build_dir}/mutation.out"
        exit 1
    fi
    grep "VIOLATION" "${build_dir}/mutation.out" || true
    echo "counterexample produced, as expected"
}

step_model_tcache() {
    echo
    echo "== model check: seeded tcache mutation must find an I2 counterexample =="
    ensure_sanitized_build
    if "${build_dir}/tools/udma_model_check" --depth=4 \
            --mutate=no-tcache-shootdown \
            > "${build_dir}/tcache_mutation.out" 2>&1
    then
        echo "ERROR: the no-tcache-shootdown mutation went undetected"
        exit 1
    fi
    if ! grep -q "stale proxy-translation-cache" \
            "${build_dir}/tcache_mutation.out"; then
        echo "ERROR: tcache mutation run failed without the stale-cache I2"
        echo "counterexample:"
        cat "${build_dir}/tcache_mutation.out"
        exit 1
    fi
    echo "counterexample produced, as expected"
}

step_model_net() {
    echo
    echo "== model check: lossy net with retransmission must stay clean =="
    ensure_sanitized_build
    "${build_dir}/tools/udma_model_check" --net=drop=0.2,corrupt=0.1,seed=1
}

step_model_net_mutation() {
    echo
    echo "== model check: no-retransmit mutation must lose a completion =="
    ensure_sanitized_build
    if "${build_dir}/tools/udma_model_check" \
            --net=drop=0.2,corrupt=0.1,seed=1 --mutate=no-retransmit \
            > "${build_dir}/net_mutation.out" 2>&1
    then
        echo "ERROR: the no-retransmit mutation went undetected"
        exit 1
    fi
    if ! grep -q "lost completion" "${build_dir}/net_mutation.out"; then
        echo "ERROR: no-retransmit run failed without a lost-completion"
        echo "trace:"
        cat "${build_dir}/net_mutation.out"
        exit 1
    fi
    grep "VIOLATION" "${build_dir}/net_mutation.out" || true
    echo "counterexample produced, as expected"
}

# --------------------------------------------------------------- tests

step_ctest() {
    echo
    echo "== ctest (sanitized) =="
    ensure_sanitized_build
    (cd "${build_dir}" && ctest --output-on-failure -j "$(nproc)")
}

step_tsan() {
    echo
    echo "== TSan: sharded engine + mailboxes + fault recovery + FIFO NIC =="
    if [ "${SHRIMP_SKIP_TSAN:-0}" = "1" ] && [ -z "${SHRIMP_ONLY:-}" ]
    then
        echo "SHRIMP_SKIP_TSAN=1; skipping"
        return
    fi
    tsan_dir="${build_dir}-tsan"
    cmake -B "${tsan_dir}" -S "${repo_root}" \
        -DSHRIMP_SANITIZE=thread \
        -DSHRIMP_WERROR=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
    cmake --build "${tsan_dir}" -j "$(nproc)" \
        --target test_sim test_integration test_baseline test_check \
        > /dev/null
    # The worker threads, their promise lines and round waits, and the
    # cross-shard mailboxes are the only concurrency in the simulator;
    # together with the NI retransmission machinery running under
    # shards (FaultRecovery*), the FIFO NIC's words and credits
    # crossing shards (FifoNic*) and the per-node audits the workers
    # run at their round boundaries (Monitor.*AtBarrier*) these
    # filters cover all of it. ShardDeterminism* runs the ring on 2,
    # 3, 4 and 8 shards.
    "${tsan_dir}/tests/test_sim" \
        --gtest_filter='Sharded*:PeerWait*'
    "${tsan_dir}/tests/test_integration" \
        --gtest_filter='ShardDeterminism*:FaultRecovery*'
    "${tsan_dir}/tests/test_baseline" --gtest_filter='FifoNic*'
    "${tsan_dir}/tests/test_check" --gtest_filter='Monitor.*AtBarrier*'
}

step_chaos() {
    echo
    echo "== chaos: lossy 8-node ring and mesh under ASan+UBSan =="
    ensure_sanitized_build
    # A high-rate drop/corrupt/duplicate/delay mix on the sanitized
    # build: the retransmit path, duplicate suppression, and checksum
    # rejection all run hot while ASan watches the buffers.
    # multinode_traffic itself exits 1 if the faulty run fails to
    # match its in-process fault-free reference (lost or duplicated
    # records) or if the shard counts disagree.
    "${build_dir}/bench/multinode_traffic" \
        --nodes=8 --shards=4 --records=32 \
        --faults=drop=0.10,corrupt=0.05,dup=0.05,delay=0.10,seed=3
    # The same mix on a 4x2 mesh: chunk payloads are forwarded hop by
    # hop and handed between shards. The payload pool is compiled out
    # under ASan, so every payload is its own heap block and a use
    # after release or a double release of a forwarded or duplicated
    # payload is caught.
    "${build_dir}/bench/multinode_traffic" \
        --nodes=8 --topo=mesh:4x2 --shards=4 --records=32 \
        --faults=drop=0.10,corrupt=0.05,dup=0.05,delay=0.10,seed=3
}

# ---------------------------------------------------------- perf gates

step_selfperf() {
    echo
    echo "== self-perf smoke (Release, vs committed BENCH_selfperf.json) =="
    if [ "${SHRIMP_SKIP_SELFPERF:-0}" = "1" ] && [ -z "${SHRIMP_ONLY:-}" ]
    then
        echo "SHRIMP_SKIP_SELFPERF=1; skipping"
        return
    fi
    ensure_release_target selfperf_events
    # The harness exits 1 and prints SELF-PERF REGRESSION if
    # events/sec drops >20% below the committed baseline; set -e
    # stops the gate right there.
    "${perf_dir}/bench/selfperf_events" \
        --stats-json="${perf_dir}/BENCH_selfperf.json" \
        --check-against="${repo_root}/BENCH_selfperf.json" \
        --tolerance=0.20
}

step_multinode() {
    echo
    echo "== multinode gate (Release, vs committed BENCH_multinode.json) =="
    if [ "${SHRIMP_SKIP_MULTINODE:-0}" = "1" ] && [ -z "${SHRIMP_ONLY:-}" ]
    then
        echo "SHRIMP_SKIP_MULTINODE=1; skipping"
        return
    fi
    ensure_release_target multinode_traffic
    # Runs the 64-node ring on 1 shard and 4 shards: exits 1 if the
    # two runs are not bit-identical, if the simulated-time metrics
    # drift from the committed baseline, or (on hosts with >= 4
    # hardware threads) if the parallel speedup falls below 1.5x - 20%.
    # Each timed 4-shard leg first runs its shape once, ungated: the
    # timing protocol's warm-up (ROADMAP item 4). The first parallel
    # run after the host has idled can stall for about a second, and
    # a single-run verdict should not land on it.
    "${perf_dir}/bench/multinode_traffic" \
        --nodes=64 --records=64 --record-bytes=4080 --shards=4 \
        > /dev/null
    "${perf_dir}/bench/multinode_traffic" \
        --nodes=64 --records=64 --record-bytes=4080 --shards=4 \
        --stats-json="${perf_dir}/BENCH_multinode.json" \
        --check-against="${repo_root}/BENCH_multinode.json" \
        --tolerance=0.20
    # Intermediate shard counts must stay bit-identical too: the
    # distance-aware horizons and canonical stamps may not depend on
    # how nodes fold onto shards. Small sizes keep the sweep cheap;
    # each invocation compares shards=1 against shards=N internally.
    for n in 2 3; do
        "${perf_dir}/bench/multinode_traffic" \
            --nodes=16 --records=16 --shards="${n}" > /dev/null
        echo "shards=${n} identity sweep: ok"
    done
    # The 256-node shape from the paper's scaling discussion: 8 shards
    # of 32 nodes, one record per node, digest-checked against the
    # sequential run inside the bench itself.
    "${perf_dir}/bench/multinode_traffic" \
        --nodes=256 --records=4 --record-bytes=1024 --shards=8 \
        > /dev/null
    echo "256-node/8-shard digest gate: ok"
    # Multi-hop leg: the 4x4 mesh exercises dimension-order routing,
    # per-direction link arbitration, and hop-by-hop forwarding under
    # shards. The bench compares shards=1 against shards=4 internally
    # (bit-identical digests) and the committed baseline pins the
    # simulated-time metrics so routing changes can't drift silently.
    if [ "${SHRIMP_SKIP_MESH:-0}" = "1" ]; then
        echo "SHRIMP_SKIP_MESH=1; skipping mesh leg"
    else
        "${perf_dir}/bench/multinode_traffic" \
            --nodes=16 --topo=mesh:4x4 --records=64 \
            --record-bytes=2048 --shards=4 > /dev/null
        "${perf_dir}/bench/multinode_traffic" \
            --nodes=16 --topo=mesh:4x4 --records=64 \
            --record-bytes=2048 --shards=4 \
            --stats-json="${perf_dir}/BENCH_multinode_mesh.json" \
            --check-against="${repo_root}/BENCH_multinode_mesh.json" \
            --tolerance=0.20
    fi
}

step_netperf() {
    echo
    echo "== netperf gate (Release: goodput under loss + hotspot) =="
    if [ "${SHRIMP_SKIP_NETPERF:-0}" = "1" ] && [ -z "${SHRIMP_ONLY:-}" ]
    then
        echo "SHRIMP_SKIP_NETPERF=1; skipping"
        return
    fi
    ensure_release_target multinode_traffic multinode_patterns
    # Selective repeat has to hold >= 90% of fault-free goodput on a
    # 16-node ring losing 5% of packets outright and corrupting
    # another 2%, without resending more than 2x the chunks the wire
    # actually ate. The bench exits 1 with NETPERF REGRESSION if
    # either bound breaks.
    "${perf_dir}/bench/multinode_traffic" \
        --nodes=16 --records=64 --record-bytes=4080 --shards=1 \
        --faults=drop=0.05,corrupt=0.02,seed=7 \
        --min-goodput=0.90 --max-retransmit-ratio=2.0 \
        --stats-json="${perf_dir}/BENCH_netperf.json"
    # Hotspot funnels 70% of three nodes' traffic into one receiver;
    # with SACK keeping every other flow's pipe full it must stay
    # within 25% of the permutation patterns' mean bandwidth. Gated at
    # 3 nodes: at 4+ every pattern is bus-bound, so the ratio would
    # measure the shared bus instead of the transport.
    "${perf_dir}/bench/multinode_patterns" \
        --nodes=3 --check-hotspot=0.25 \
        --stats-json="${perf_dir}/BENCH_netperf_patterns.json"
    # Mesh legs: the same loss mix has to recover across multi-hop
    # routes. Faults fire per traversed link, so drop=0.05 compounds
    # to ~25% end-to-end on the longest 6-hop routes — the stream
    # shape (many small records) keeps chunks flowing per flow so
    # dup-ack repair, not the RTO tail, does the recovering. The
    # hotspot gate re-enables at 16 nodes because the hot receiver —
    # not a shared bus — is the bottleneck again; on the mesh it
    # floors hotspot at 75% of the *per-receiver* permutation rate
    # (see multinode_patterns.cc).
    if [ "${SHRIMP_SKIP_MESH:-0}" = "1" ]; then
        echo "SHRIMP_SKIP_MESH=1; skipping mesh legs"
    else
        "${perf_dir}/bench/multinode_traffic" \
            --nodes=16 --topo=mesh:4x4 --records=256 \
            --record-bytes=2048 --shards=1 \
            --faults=drop=0.05,corrupt=0.02,seed=7 \
            --min-goodput=0.90 --max-retransmit-ratio=2.0 \
            --stats-json="${perf_dir}/BENCH_netperf_mesh.json"
        "${perf_dir}/bench/multinode_patterns" \
            --nodes=16 --topo=mesh:4x4 --check-hotspot=0.25 \
            --stats-json="${perf_dir}/BENCH_netperf_patterns_mesh.json"
    fi
}

step_profile() {
    echo
    echo "== profiled-trace gate (Release: trace validity + overhead) =="
    if [ "${SHRIMP_SKIP_PROFILE:-0}" = "1" ] && [ -z "${SHRIMP_ONLY:-}" ]
    then
        echo "SHRIMP_SKIP_PROFILE=1; skipping"
        return
    fi
    ensure_release_target multinode_traffic trace_validate

    # The timing protocol of the host-time gates (ROADMAP item 4): a
    # warm-up run, then interleaved pairs of a plain and a profiled run
    # of the same shape, and the median over the pairs of profiled /
    # plain wall time. Pairing each profiled run with its neighbour
    # cancels a host phase that moves both; the median keeps one
    # preempted run from deciding the verdict. Best-of-two single runs
    # read 0.91-1.38 on one host, so the ratio measured the host, not
    # the profiler. The profiler's cost per round is a handful of clock
    # reads and three lock-free trace appends per worker. The bound is
    # 10%, not 5%: on a host with fewer cores than shards the workers
    # serialize, so their per-round profiling costs sum instead of
    # overlapping. Full records (not 16) keep the measured region long
    # enough that single-core scheduler jitter stays below the bound.
    local pairs=7
    wall_of() {
        "${perf_dir}/bench/multinode_traffic" \
            --nodes=16 --shards=4 --records=64 \
            ${1} "--stats-json=${2}" > /dev/null
        grep -o '"wall_s_shards": [0-9.e-]*' "${2}" | awk '{print $2}'
    }
    median() {
        sort -g | awk '{ v[NR] = $1 } END {
            if (NR % 2) print v[(NR + 1) / 2];
            else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
    }
    wall_of "" "${perf_dir}/BENCH_profile_off.json" > /dev/null
    local plain_walls="" prof_walls="" ratios="" p q
    for _ in $(seq "${pairs}"); do
        p="$(wall_of "" "${perf_dir}/BENCH_profile_off.json")"
        q="$(wall_of "--profile=${perf_dir}/trace.json" \
            "${perf_dir}/BENCH_profile_on.json")"
        plain_walls="${plain_walls}${p}"$'\n'
        prof_walls="${prof_walls}${q}"$'\n'
        ratios="${ratios}$(awk -v p="${p}" -v q="${q}" \
            'BEGIN { printf "%.4f", q / p }')"$'\n'
    done
    plain_wall="$(printf '%s' "${plain_walls}" | median)"
    prof_wall="$(printf '%s' "${prof_walls}" | median)"
    ratio="$(printf '%s' "${ratios}" | median)"

    "${perf_dir}/tools/trace_validate" "${perf_dir}/trace.json" \
        --min-events=100

    echo "profiled-trace gate: median of ${pairs} pairs" \
        "${ratio}x (wall ${plain_wall}s plain vs ${prof_wall}s" \
        "profiled; ratios $(printf '%s' "${ratios}" | tr '\n' ' '))"
    if ! awk -v r="${ratio}" 'BEGIN { exit !(r <= 1.10) }'; then
        # With fewer cores than shards the workers serialize, so their
        # per-round profiling costs sum on the critical path instead
        # of overlapping — the ratio stops measuring the profiler.
        # Same guard as the speedup floor and the windoweff gate.
        if [ "$(nproc)" -lt 4 ]; then
            echo "WARNING: profiling overhead above 10% on a" \
                "$(nproc)-core host — serialized workers; not a gate" \
                "failure"
        else
            echo "PROFILE REGRESSION: profiling overhead exceeds 10%" \
                "(median pair ratio ${ratio})"
            exit 1
        fi
    fi
}

step_windoweff() {
    echo
    echo "== window-efficiency gate (barrier share of the 4-shard run) =="
    if [ "${SHRIMP_SKIP_WINDOWEFF:-0}" = "1" ] && [ -z "${SHRIMP_ONLY:-}" ]
    then
        echo "SHRIMP_SKIP_WINDOWEFF=1; skipping"
        return
    fi
    # Four worker threads time-slicing fewer than four cores spend
    # most of their "barrier" time descheduled, which says nothing
    # about window quality — same guard the bench's speedup floor uses.
    if [ "$(nproc)" -lt 4 ]; then
        echo "WARNING: host has $(nproc) cores (< 4); barrier share" \
            "is dominated by preemption, not window planning; skipping"
        return
    fi
    ensure_release_target multinode_traffic
    out="${perf_dir}/BENCH_windoweff.json"
    # Run the shape twice and gate the second run: the first is the
    # timing protocol's warm-up, as in the multinode legs.
    for _ in 1 2; do
        "${perf_dir}/bench/multinode_traffic" \
            --nodes=16 --shards=4 --records=16 \
            --profile="${perf_dir}/windoweff_trace.json" \
            --stats-json="${out}" > /dev/null
    done

    # The profiler block embedded in the stats JSON: totals_ns holds
    # the summed per-worker barrier_plan / barrier_sync nanoseconds;
    # the budget denominator is wall_ns x worker count.
    # [0-9][0-9]* (not *): the bench's top-level params block holds
    # string-valued copies of some keys ("shards": "4"), and a
    # zero-digit match would pick those up with an empty number.
    get_num() {
        grep -o "\"$1\": [0-9][0-9]*" "${out}" | head -1 \
            | awk '{print $2}'
    }
    plan_ns="$(get_num barrier_plan)"
    sync_ns="$(get_num barrier_sync)"
    wall_ns="$(get_num wall_ns)"
    shards="$(get_num shards)"
    if [ -z "${plan_ns}" ] || [ -z "${wall_ns}" ] || [ -z "${shards}" ]
    then
        echo "ERROR: could not parse the profile block out of ${out}"
        exit 1
    fi
    share="$(awk -v p="${plan_ns}" -v s="${sync_ns:-0}" \
        -v w="${wall_ns}" -v n="${shards}" \
        'BEGIN { printf "%.3f", (p + s) / (w * n) }')"
    echo "barrier plan+sync share: ${share} of wall" \
        "(plan=${plan_ns}ns sync=${sync_ns:-0}ns wall=${wall_ns}ns" \
        "x ${shards} workers)"
    if ! awk -v x="${share}" 'BEGIN { exit !(x <= 0.50) }'; then
        echo "WINDOW EFFICIENCY REGRESSION: barrier share ${share}" \
            "exceeds 0.50 — windows are too narrow or the barrier" \
            "got slower"
        exit 1
    fi
}

step_seqscale() {
    echo
    echo "== sequential-scaling gate (--shards=1 ns/event, 256 vs 4 nodes) =="
    ensure_release_target multinode_traffic
    # One thread runs every node's events node-major: each node's
    # events back to back, from its own heap, inside a lookahead-wide
    # sub-window. It must pay about the same per event at any node
    # count. A per-event scan over per-node queues grew 7-11x from 4
    # to 256 nodes, and one merged heap per shard, which fired the
    # nodes' events interleaved in global tick order, read ~1.6-2.5x.
    # Both shapes move 1024 records of 1 KiB, so they simulate a
    # similar number of events, and the gated figure is a ratio of two
    # runs on one host, so runner speed cancels out.
    get_metric() {
        grep -o "\"$2\": [0-9][0-9.e+-]*" "$1" | head -1 | awk '{print $2}'
    }
    ns_per_event() {
        local out="${perf_dir}/BENCH_seqscale_$1.json"
        "${perf_dir}/bench/multinode_traffic" --nodes="$1" \
            --records="$2" --record-bytes=1024 --shards=1 \
            --stats-json="${out}" > /dev/null
        # With --shards=1 the bench times the sequential ring twice;
        # the faster run is the less disturbed one.
        awk -v a="$(get_metric "${out}" wall_s_seq)" \
            -v b="$(get_metric "${out}" wall_s_shards)" \
            -v e="$(get_metric "${out}" sim_events)" \
            'BEGIN { m = a < b ? a : b; printf "%.1f", m * 1e9 / e }'
    }
    small="$(ns_per_event 4 256)"
    large="$(ns_per_event 256 4)"
    ratio="$(awk -v s="${small}" -v l="${large}" \
        'BEGIN { printf "%.2f", l / s }')"
    echo "sequential ns/event: ${small} at 4 nodes, ${large} at 256" \
        "nodes (${ratio}x)"
    if ! awk -v x="${ratio}" 'BEGIN { exit !(x <= 3.0) }'; then
        echo "SEQUENTIAL SCALING REGRESSION: 256-node ns/event is" \
            "${ratio}x the 4-node figure (bound 3.0x) — per-event" \
            "selection no longer scales with the node count"
        exit 1
    fi
}

# -------------------------------------------------------------- perfid

step_perfid() {
    echo
    echo "== perfbench identity: every workload, default + held-out seed =="
    # perfbench/run.py builds its own Release tree and prints
    # `identity check: matches` when the run's sim_events and digest
    # equal the ones perfbench/spec.json records for (workload, seed).
    local workloads seeds out
    workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "${repo_root}/BENCHMARK.json")"
    seeds="$(python3 -c 'import json, sys
s = json.load(open(sys.argv[1]))
print(s["default_seed"], s["holdout_seed"])' \
        "${repo_root}/perfbench/spec.json")"
    for w in ${workloads}; do
        for seed in ${seeds}; do
            if ! out="$(cd "${repo_root}" && python3 perfbench/run.py \
                    --workload "${w}" --seed "${seed}" --seconds 1 \
                    --trace 0)"; then
                echo "${out}"
                echo "PERFBENCH RUN FAILED: ${w} seed ${seed}"
                exit 1
            fi
            if ! grep -q "^identity check: matches" <<< "${out}"; then
                grep "^identity" <<< "${out}" || echo "${out}"
                echo "PERFBENCH IDENTITY MISMATCH: ${w} seed ${seed}" \
                    "simulates different work than perfbench/spec.json" \
                    "records"
                exit 1
            fi
            echo "${w} seed ${seed}: $(grep "^identity: " <<< "${out}")"
        done
    done
}

# ------------------------------------------------------------- driver

should_run build && ensure_sanitized_build
should_run lint && step_lint
should_run tidy && step_tidy
should_run model-clean && step_model_clean
should_run model-i1 && step_model_i1
should_run model-tcache && step_model_tcache
should_run model-net && step_model_net
should_run model-net-mutation && step_model_net_mutation
should_run ctest && step_ctest
should_run tsan && step_tsan
should_run chaos && step_chaos
should_run selfperf && step_selfperf
should_run multinode && step_multinode
should_run netperf && step_netperf
should_run profile && step_profile
should_run windoweff && step_windoweff
should_run seqscale && step_seqscale
should_run perfid && step_perfid

echo
if [ -n "${SHRIMP_ONLY:-}" ]; then
    echo "selected checks passed (SHRIMP_ONLY=${SHRIMP_ONLY})"
else
    echo "all checks passed"
fi
