#!/usr/bin/env bash
# Runs the benchmark suite for one PR tag and writes a machine-readable
# BENCH_<tag>.json.
#
# Usage: scripts/bench.sh <tag> [output.json]
#        scripts/bench.sh gate
#
#   pr3   wavefront executor: serial vs parallel BenchmarkGraphRun on the
#         8-wide burn graph; reports ns/op per arm and the host speedup.
#   pr4   striped storage: BenchmarkStripedRead (demand vs SCAN-EDF read
#         path host cost) plus the deterministic virtual-time stripe
#         experiment (aggregate MB/s and speedup per arm).
#   pr5   multi-session engine: BenchmarkEngineSessions (host cost of the
#         shared run loop at 1 vs 4 sessions) plus the deterministic
#         virtual-time tenancy experiment (shared-clock sessions vs
#         back-to-back: throughput, speedup, seeks charged/saved).
#   pr6   overload control: BenchmarkEngineOverload (run-loop host cost
#         with the detector + sweeps on vs off) plus the deterministic
#         overload experiment (bounded vs thrashing miss rates).
#   pr7   allocation-free SCAN-EDF hot path: BenchmarkStripedRead (the
#         scheduled read must stay within 2x of a demand read — emitted
#         as a gated ratio) plus BenchmarkIOSchedFlush (per-round
#         scheduler cost; warm-pool arms are gated and must report
#         0 allocs/op).
#   pr8   allocation-free engine step path: BenchmarkEngineStep over
#         no-op runs isolates the engine's own per-step bookkeeping
#         (run-set buckets, batch resolution, label switch, snapshot
#         refresh, clock commit) at narrow and wide session counts;
#         both arms are gated ns/op and must report 0 allocs/op.
#
#   pr9   sharded engine step: BenchmarkEngineStepSharded over busy runs
#         (µs-scale tick work) at 256/1k/4k sessions, serial vs a
#         4-worker shard pool; all arms are gated ns/op and must report
#         0 allocs/op.  On hosts with >= 2 CPUs the 1k-session arm must
#         show >= 2x step throughput over serial (on a 1-CPU host the
#         speedup is recorded but not enforced — there is nothing to
#         parallelize onto).  The virtual side runs the Zipf tenancy at
#         1000 sessions and hard-fails unless the EngineWorkers 2 and 4
#         arms are byte-identical to serial.
#
#   pr10  shared buffer pool + storage hierarchy: BenchmarkPoolHit (the
#         warm pool-hit read path is gated ns/op and must report
#         0 allocs/op) plus the Zipf tenancy rerun with the pool on —
#         the pooled arms must stay byte-identical to serial at
#         EngineWorkers 2/4, the co-viewing cohort must hit the pool on
#         more than half its reads, and pooled throughput must beat
#         both the same run's unpooled arm and PR 9's committed
#         87.31 MB/s (virtual numbers, so host-independent).
#
#   gate  trajectory gate: re-measure every committed BENCH_*.json tag
#         and fail (via cmd/benchgate) when any host ns/op metric
#         regressed more than BENCH_GATE_RATIO (default 1.10) over the
#         committed baseline.
#
# Host speedups are hardware-dependent; the stripe experiment's virtual
# numbers are deterministic and reproduce the committed golden file.
set -euo pipefail

tag="${1:-}"
if [ -z "$tag" ]; then
  echo "usage: scripts/bench.sh <tag> [output.json]" >&2
  exit 2
fi
out="${2:-BENCH_${tag}.json}"
cd "$(dirname "$0")/.."

cpus=$(go env GOMAXPROCS 2>/dev/null || echo "")
[ -n "$cpus" ] || cpus=$(getconf _NPROCESSORS_ONLN)
goversion=$(go env GOVERSION)

case "$tag" in
pr3)
  bench_out=$(go test -run '^$' -bench 'BenchmarkGraphRun$' -benchtime "${BENCHTIME:-10x}" -count "${BENCHCOUNT:-1}" ./internal/activity/)
  echo "$bench_out"
  # Benchmark lines look like:
  #   BenchmarkGraphRun/wide-serial-8   10   27469964 ns/op   ...
  # With -count > 1 each arm repeats; take the minimum ns/op per arm.
  serial=$(echo "$bench_out" | awk '/BenchmarkGraphRun\/wide-serial/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  parallel=$(echo "$bench_out" | awk '/BenchmarkGraphRun\/wide-parallel/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  if [ -z "$serial" ] || [ -z "$parallel" ]; then
    echo "bench: could not parse BenchmarkGraphRun output" >&2
    exit 1
  fi
  awk -v serial="$serial" -v parallel="$parallel" -v cpus="$cpus" -v gov="$goversion" 'BEGIN {
    speedup = (parallel > 0) ? serial / parallel : 0
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkGraphRun\",\n"
    printf "  \"graph\": {\"width\": 8, \"frames\": 30, \"shape\": \"fan-in/fan-out\"},\n"
    printf "  \"serial_ns_per_op\": %d,\n", serial
    printf "  \"parallel_ns_per_op\": %d,\n", parallel
    printf "  \"speedup\": %.3f,\n", speedup
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"go\": \"%s\"\n", gov
    printf "}\n"
  }' > "$out"
  ;;
pr4)
  graph_out=$(go test -run '^$' -bench 'BenchmarkGraphRun$' -benchtime "${BENCHTIME:-20x}" -count "${BENCHCOUNT:-1}" ./internal/activity/)
  echo "$graph_out"
  gserial=$(echo "$graph_out" | awk '/BenchmarkGraphRun\/wide-serial/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  gparallel=$(echo "$graph_out" | awk '/BenchmarkGraphRun\/wide-parallel/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  if [ -z "$gserial" ] || [ -z "$gparallel" ]; then
    echo "bench: could not parse BenchmarkGraphRun output" >&2
    exit 1
  fi
  bench_out=$(go test -run '^$' -bench 'BenchmarkStripedRead' -benchtime "${BENCHTIME:-20x}" -count "${BENCHCOUNT:-1}" ./internal/storage/)
  echo "$bench_out"
  single=$(echo "$bench_out" | awk '/BenchmarkStripedRead\/single-demand/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  demand=$(echo "$bench_out" | awk '/BenchmarkStripedRead\/striped-demand/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  scanedf=$(echo "$bench_out" | awk '/BenchmarkStripedRead\/striped-scan-edf/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  if [ -z "$single" ] || [ -z "$demand" ] || [ -z "$scanedf" ]; then
    echo "bench: could not parse BenchmarkStripedRead output" >&2
    exit 1
  fi
  # The virtual-time comparison: deterministic, matches the stripe golden.
  exp_out=$(go run ./cmd/avbench -exp stripe -frames 90 -width 4)
  echo "$exp_out"
  # Table rows: arm name (may contain spaces), then columns ending in
  #   ... agg MB/s  speedup  seeks  saved  misses  max batch
  read -r single_mbs single_seeks <<<"$(echo "$exp_out" | awk '/^single disk /{print $(NF-5), $(NF-3)}')"
  read -r edf_mbs edf_speedup edf_seeks edf_saved <<<"$(echo "$exp_out" | awk '/^striped scan-edf /{print $(NF-5), $(NF-4), $(NF-3), $(NF-2)}')"
  if [ -z "$single_mbs" ] || [ -z "$edf_mbs" ]; then
    echo "bench: could not parse stripe experiment output" >&2
    exit 1
  fi
  awk -v single="$single" -v demand="$demand" -v scanedf="$scanedf" \
      -v gserial="$gserial" -v gparallel="$gparallel" \
      -v smbs="$single_mbs" -v sseeks="$single_seeks" \
      -v embs="$edf_mbs" -v espeed="$edf_speedup" -v eseeks="$edf_seeks" -v esaved="$edf_saved" \
      -v cpus="$cpus" -v gov="$goversion" 'BEGIN {
    gspeed = (gparallel > 0) ? gserial / gparallel : 0
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkStripedRead\",\n"
    printf "  \"workload\": {\"streams\": 8, \"frames\": 30, \"stripe_width\": 4},\n"
    printf "  \"graph_run\": {\"serial_ns_per_op\": %d, \"parallel_ns_per_op\": %d, \"speedup\": %.3f},\n", gserial, gparallel, gspeed
    printf "  \"host_ns_per_op\": {\"single_demand\": %d, \"striped_demand\": %d, \"striped_scan_edf\": %d},\n", single, demand, scanedf
    printf "  \"virtual\": {\n"
    printf "    \"experiment\": \"avbench -exp stripe -frames 90 -width 4\",\n"
    printf "    \"single_disk_mb_per_s\": %s,\n", smbs
    printf "    \"scan_edf_mb_per_s\": %s,\n", embs
    printf "    \"scan_edf_speedup\": \"%s\",\n", espeed
    printf "    \"seeks_charged\": {\"single_disk\": %s, \"scan_edf\": %s},\n", sseeks, eseeks
    printf "    \"seeks_saved\": {\"scan_edf\": %s}\n", esaved
    printf "  },\n"
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"go\": \"%s\"\n", gov
    printf "}\n"
  }' > "$out"
  ;;
pr5)
  bench_out=$(go test -run '^$' -bench 'BenchmarkEngineSessions' -benchtime "${BENCHTIME:-20x}" -count "${BENCHCOUNT:-1}" ./internal/core/)
  echo "$bench_out"
  one=$(echo "$bench_out" | awk '/BenchmarkEngineSessions\/sessions-1/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  four=$(echo "$bench_out" | awk '/BenchmarkEngineSessions\/sessions-4/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  if [ -z "$one" ] || [ -z "$four" ]; then
    echo "bench: could not parse BenchmarkEngineSessions output" >&2
    exit 1
  fi
  # The virtual-time comparison: deterministic, matches the tenancy golden.
  exp_out=$(go run ./cmd/avbench -exp tenancy -frames 45 -sessions 4)
  echo "$exp_out"
  # The 4-session row:
  #   sessions  shared wall  serial wall  shared MB/s  serial MB/s  speedup
  #   shared seeks  serial seeks  saved  misses  max batch
  read -r sh_mbs se_mbs speedup sh_seeks se_seeks saved <<<"$(echo "$exp_out" | awk '/^4  /{print $4, $5, $6, $7, $8, $9}')"
  if [ -z "$sh_mbs" ] || [ -z "$se_mbs" ]; then
    echo "bench: could not parse tenancy experiment output" >&2
    exit 1
  fi
  awk -v one="$one" -v four="$four" \
      -v shmbs="$sh_mbs" -v sembs="$se_mbs" -v speedup="$speedup" \
      -v shseeks="$sh_seeks" -v seseeks="$se_seeks" -v saved="$saved" \
      -v cpus="$cpus" -v gov="$goversion" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkEngineSessions\",\n"
    printf "  \"workload\": {\"sessions\": 4, \"frames\": 45, \"stripe_width\": 4, \"shared_clip\": true},\n"
    printf "  \"host_ns_per_op\": {\"sessions_1\": %d, \"sessions_4\": %d},\n", one, four
    printf "  \"virtual\": {\n"
    printf "    \"experiment\": \"avbench -exp tenancy -frames 45 -sessions 4\",\n"
    printf "    \"shared_mb_per_s\": %s,\n", shmbs
    printf "    \"serial_mb_per_s\": %s,\n", sembs
    printf "    \"speedup\": \"%s\",\n", speedup
    printf "    \"seeks_charged\": {\"shared\": %s, \"serial\": %s},\n", shseeks, seseeks
    printf "    \"seeks_saved\": {\"shared\": %s}\n", saved
    printf "  },\n"
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"go\": \"%s\"\n", gov
    printf "}\n"
  }' > "$out"
  ;;
pr6)
  bench_out=$(go test -run '^$' -bench 'BenchmarkEngineOverload' -benchtime "${BENCHTIME:-20x}" -count "${BENCHCOUNT:-1}" ./internal/core/)
  echo "$bench_out"
  off=$(echo "$bench_out" | awk '/BenchmarkEngineOverload\/control-off/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  on=$(echo "$bench_out" | awk '/BenchmarkEngineOverload\/control-on/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  if [ -z "$off" ] || [ -z "$on" ]; then
    echo "bench: could not parse BenchmarkEngineOverload output" >&2
    exit 1
  fi
  # The virtual-time comparison: deterministic, matches the overload golden.
  exp_out=$(go run ./cmd/avbench -exp overload -frames 120 -sessions 4)
  echo "$exp_out"
  # Control-on io line first, control-off second:
  #   io: deadline misses=23/390 served (5.9%), rounds overrun=23
  read -r on_miss on_served on_rate on_over <<<"$(echo "$exp_out" | awk '/^io:/ {
    split($3, a, /[=\/]/); rate=$5; gsub(/[()%,]/, "", rate); split($7, b, "=")
    print a[2], a[3], rate, b[2]; exit }')"
  read -r off_miss off_served off_rate off_over <<<"$(echo "$exp_out" | awk '/^io:/ {
    if (++n == 2) { split($3, a, /[=\/]/); rate=$5; gsub(/[()%,]/, "", rate); split($7, b, "=")
    print a[2], a[3], rate, b[2] } }')"
  #   pressure: final=normal transitions=7 rejected=1 degraded=4 restored=4
  read -r rejected degraded restored <<<"$(echo "$exp_out" | awk '/^pressure:/ {
    split($4, r, "="); split($5, d, "="); split($6, s, "=")
    print r[2], d[2], s[2]; exit }')"
  if [ -z "$on_miss" ] || [ -z "$off_miss" ] || [ -z "$rejected" ]; then
    echo "bench: could not parse overload experiment output" >&2
    exit 1
  fi
  awk -v off="$off" -v on="$on" \
      -v onm="$on_miss" -v onsv="$on_served" -v onr="$on_rate" -v ono="$on_over" \
      -v offm="$off_miss" -v offsv="$off_served" -v offr="$off_rate" -v offo="$off_over" \
      -v rej="$rejected" -v deg="$degraded" -v res="$restored" \
      -v cpus="$cpus" -v gov="$goversion" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkEngineOverload\",\n"
    printf "  \"workload\": {\"sessions\": 4, \"frames\": 120, \"loaded_disks\": 2, \"late_joiner\": true},\n"
    printf "  \"host_ns_per_op\": {\"control_off\": %d, \"control_on\": %d},\n", off, on
    printf "  \"virtual\": {\n"
    printf "    \"experiment\": \"avbench -exp overload -frames 120 -sessions 4\",\n"
    printf "    \"control_on\": {\"deadline_misses\": %s, \"served\": %s, \"miss_rate_pct\": %s, \"rounds_overrun\": %s, \"rejected\": %s, \"degraded\": %s, \"restored\": %s},\n", onm, onsv, onr, ono, rej, deg, res
    printf "    \"control_off\": {\"deadline_misses\": %s, \"served\": %s, \"miss_rate_pct\": %s, \"rounds_overrun\": %s}\n", offm, offsv, offr, offo
    printf "  },\n"
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"go\": \"%s\"\n", gov
    printf "}\n"
  }' > "$out"
  ;;
pr7)
  bench_out=$(go test -run '^$' -bench 'BenchmarkStripedRead' -benchtime "${BENCHTIME:-100x}" -count "${BENCHCOUNT:-1}" ./internal/storage/)
  echo "$bench_out"
  single=$(echo "$bench_out" | awk '/BenchmarkStripedRead\/single-demand/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  demand=$(echo "$bench_out" | awk '/BenchmarkStripedRead\/striped-demand/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  scanedf=$(echo "$bench_out" | awk '/BenchmarkStripedRead\/striped-scan-edf/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  if [ -z "$single" ] || [ -z "$demand" ] || [ -z "$scanedf" ]; then
    echo "bench: could not parse BenchmarkStripedRead output" >&2
    exit 1
  fi
  # The gated overhead ratio pairs each -count repetition's scan-edf arm
  # with the demand arm from the same repetition before taking the best:
  # a ratio of independent minima mixes runs measured minutes apart and
  # overstates the overhead whenever the arms' noise is anti-correlated.
  ratio=$(echo "$bench_out" | awk '
    /BenchmarkStripedRead\/striped-demand/ {d[nd++]=$3+0}
    /BenchmarkStripedRead\/striped-scan-edf/ {s[ns++]=$3+0}
    END {
      n = (nd < ns) ? nd : ns
      if (n == 0) exit 1
      for (i = 0; i < n; i++) { r = s[i] / d[i]; if (i == 0 || r < min) min = r }
      printf "%.3f", min
    }')
  if [ -z "$ratio" ]; then
    echo "bench: could not pair demand and scan-edf repetitions" >&2
    exit 1
  fi
  # The flush benchmark keeps its own iteration count: the warm arms
  # must run long enough to amortize first-use pool warmup to a reported
  # 0 allocs/op, regardless of how short BENCHTIME squeezes the rest.
  flush_out=$(go test -run '^$' -bench 'BenchmarkIOSchedFlush' -benchtime "${FLUSH_BENCHTIME:-2000x}" -count "${BENCHCOUNT:-1}" ./internal/storage/)
  echo "$flush_out"
  # Warm arms are gated ns/op and must be allocation-free; cold arms
  # (pool warmup included) are recorded but not gated — their cost
  # depends on GC timing through the sync.Pool.
  nw=$(echo "$flush_out" | awk '/IOSchedFlush\/narrow-1disk-warm/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  ww=$(echo "$flush_out" | awk '/IOSchedFlush\/wide-4disk-warm/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  nc=$(echo "$flush_out" | awk '/IOSchedFlush\/narrow-1disk-cold/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  wc=$(echo "$flush_out" | awk '/IOSchedFlush\/wide-4disk-cold/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  nwa=$(echo "$flush_out" | awk '/IOSchedFlush\/narrow-1disk-warm/ {print $7+0; exit}')
  wwa=$(echo "$flush_out" | awk '/IOSchedFlush\/wide-4disk-warm/ {print $7+0; exit}')
  if [ -z "$nw" ] || [ -z "$ww" ] || [ -z "$nc" ] || [ -z "$wc" ]; then
    echo "bench: could not parse BenchmarkIOSchedFlush output" >&2
    exit 1
  fi
  if [ "$nwa" != "0" ] || [ "$wwa" != "0" ]; then
    echo "bench: warm IOSchedFlush arms allocate (narrow=$nwa wide=$wwa allocs/op), want 0" >&2
    exit 1
  fi
  awk -v single="$single" -v demand="$demand" -v scanedf="$scanedf" \
      -v nw="$nw" -v ww="$ww" -v nc="$nc" -v wc="$wc" -v ratio="$ratio" \
      -v cpus="$cpus" -v gov="$goversion" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkStripedRead + BenchmarkIOSchedFlush\",\n"
    printf "  \"workload\": {\"streams\": 8, \"frames\": 30, \"stripe_width\": 4},\n"
    printf "  \"host_ns_per_op\": {\"single_demand\": %d, \"striped_demand\": %d, \"striped_scan_edf\": %d, \"flush_narrow_1disk_warm\": %d, \"flush_wide_4disk_warm\": %d},\n", single, demand, scanedf, nw, ww
    printf "  \"cold_pool_ns\": {\"flush_narrow_1disk\": %d, \"flush_wide_4disk\": %d},\n", nc, wc
    printf "  \"allocs_per_op\": {\"flush_narrow_1disk_warm\": 0, \"flush_wide_4disk_warm\": 0},\n"
    printf "  \"scheduled_vs_demand_gated_ratio\": %.3f,\n", ratio
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"go\": \"%s\"\n", gov
    printf "}\n"
  }' > "$out"
  ;;
pr8)
  # The engine-step benchmark runs its own iteration count like pr7's
  # flush arms: the warm steady state must amortize first-use buffer
  # growth to a reported 0 allocs/op even under a short BENCHTIME.
  bench_out=$(go test -run '^$' -bench 'BenchmarkEngineStep' -benchmem -benchtime "${STEP_BENCHTIME:-2000x}" -count "${BENCHCOUNT:-1}" ./internal/core/)
  echo "$bench_out"
  narrow=$(echo "$bench_out" | awk '/BenchmarkEngineStep\/narrow-4/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  wide=$(echo "$bench_out" | awk '/BenchmarkEngineStep\/wide-256/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  na=$(echo "$bench_out" | awk '/BenchmarkEngineStep\/narrow-4/ {print $7+0; exit}')
  wa=$(echo "$bench_out" | awk '/BenchmarkEngineStep\/wide-256/ {print $7+0; exit}')
  if [ -z "$narrow" ] || [ -z "$wide" ]; then
    echo "bench: could not parse BenchmarkEngineStep output" >&2
    exit 1
  fi
  if [ "$na" != "0" ] || [ "$wa" != "0" ]; then
    echo "bench: engine step arms allocate (narrow=$na wide=$wa allocs/op), want 0" >&2
    exit 1
  fi
  awk -v narrow="$narrow" -v wide="$wide" -v cpus="$cpus" -v gov="$goversion" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkEngineStep\",\n"
    printf "  \"workload\": {\"runs\": \"no-op engineRun fakes\", \"narrow_sessions\": 4, \"wide_sessions\": 256, \"batch\": \"all sessions due every step\"},\n"
    printf "  \"host_ns_per_op\": {\"engine_step_narrow_4\": %d, \"engine_step_wide_256\": %d},\n", narrow, wide
    printf "  \"allocs_per_op\": {\"engine_step_narrow_4\": 0, \"engine_step_wide_256\": 0},\n"
    printf "  \"per_session_ns\": {\"wide_256\": %.1f},\n", wide / 256
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"go\": \"%s\"\n", gov
    printf "}\n"
  }' > "$out"
  ;;
pr9)
  # Like pr8, the step benchmark controls its own iteration count so the
  # warm steady state reports 0 allocs/op under any BENCHTIME.
  bench_out=$(go test -run '^$' -bench 'BenchmarkEngineStepSharded' -benchmem -benchtime "${SHARD_BENCHTIME:-300x}" -count "${BENCHCOUNT:-1}" ./internal/core/)
  echo "$bench_out"
  declare -A ns allocs
  for n in 256 1024 4096; do
    for w in 1 4; do
      key="${n}_${w}"
      ns[$key]=$(echo "$bench_out" | awk -v pat="BenchmarkEngineStepSharded/sessions-${n}-workers-${w}" \
        '$0 ~ pat {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
      allocs[$key]=$(echo "$bench_out" | awk -v pat="BenchmarkEngineStepSharded/sessions-${n}-workers-${w}" \
        '$0 ~ pat {print $7+0; exit}')
      if [ -z "${ns[$key]}" ]; then
        echo "bench: could not parse BenchmarkEngineStepSharded sessions-${n}-workers-${w}" >&2
        exit 1
      fi
      if [ "${allocs[$key]}" != "0" ]; then
        echo "bench: sharded step arm sessions-${n}-workers-${w} allocates ${allocs[$key]} allocs/op, want 0" >&2
        exit 1
      fi
    done
  done
  speedup_enforced=false
  if [ "$cpus" -ge 2 ]; then
    speedup_enforced=true
    ok=$(awk -v s="${ns[1024_1]}" -v p="${ns[1024_4]}" 'BEGIN {print (p > 0 && s / p >= 2.0) ? "yes" : "no"}')
    if [ "$ok" != "yes" ]; then
      echo "bench: 4-worker step speedup at 1024 sessions below 2x (serial=${ns[1024_1]}ns sharded=${ns[1024_4]}ns, cpus=$cpus)" >&2
      exit 1
    fi
  fi
  # The virtual side is the determinism proof: the Zipf tenancy rerun
  # with EngineWorkers 2 and 4 must fingerprint byte-identical to serial.
  exp_out=$(go run ./cmd/avbench -exp zipf -frames 30 -sessions 1000)
  echo "$exp_out"
  # Arm rows follow the "workers ..." header (the clip table above also
  # has rows starting with a bare number):
  #   workers wall MB/s misses seeks saved maxbatch fingerprint identical
  read -r mbs saved <<<"$(echo "$exp_out" | awk 'arms && /^1  /{print $3, $6; exit} /^workers /{arms=1}')"
  ident2=$(echo "$exp_out" | awk 'arms && /^2  /{print $NF; exit} /^workers /{arms=1}')
  ident4=$(echo "$exp_out" | awk 'arms && /^4  /{print $NF; exit} /^workers /{arms=1}')
  if [ -z "$mbs" ] || [ -z "$ident2" ] || [ -z "$ident4" ]; then
    echo "bench: could not parse zipf experiment output" >&2
    exit 1
  fi
  if [ "$ident2" != "yes" ] || [ "$ident4" != "yes" ]; then
    echo "bench: sharded engine arms not byte-identical to serial (workers2=$ident2 workers4=$ident4)" >&2
    exit 1
  fi
  awk -v s256="${ns[256_1]}" -v p256="${ns[256_4]}" \
      -v s1k="${ns[1024_1]}" -v p1k="${ns[1024_4]}" \
      -v s4k="${ns[4096_1]}" -v p4k="${ns[4096_4]}" \
      -v enforced="$speedup_enforced" -v mbs="$mbs" -v saved="$saved" \
      -v cpus="$cpus" -v gov="$goversion" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkEngineStepSharded\",\n"
    printf "  \"workload\": {\"runs\": \"busy engineRun fakes, ~400-iteration spin per tick\", \"sessions\": [256, 1024, 4096], \"workers\": [1, 4], \"batch\": \"all sessions due every step\"},\n"
    printf "  \"host_ns_per_op\": {\"step_serial_256\": %d, \"step_sharded4_256\": %d, \"step_serial_1024\": %d, \"step_sharded4_1024\": %d, \"step_serial_4096\": %d, \"step_sharded4_4096\": %d},\n", s256, p256, s1k, p1k, s4k, p4k
    printf "  \"allocs_per_op\": {\"step_serial_1024\": 0, \"step_sharded4_1024\": 0},\n"
    printf "  \"per_session_ns\": {\"serial_1024\": %.1f, \"sharded4_1024\": %.1f},\n", s1k / 1024, p1k / 1024
    printf "  \"speedup_4workers\": {\"sessions_256\": %.3f, \"sessions_1024\": %.3f, \"sessions_4096\": %.3f},\n", s256 / p256, s1k / p1k, s4k / p4k
    printf "  \"speedup_enforced\": %s,\n", enforced
    printf "  \"virtual\": {\n"
    printf "    \"experiment\": \"avbench -exp zipf -frames 30 -sessions 1000\",\n"
    printf "    \"identical_to_serial\": {\"workers_2\": \"yes\", \"workers_4\": \"yes\"},\n"
    printf "    \"mb_per_s\": %s,\n", mbs
    printf "    \"seeks_saved\": %s\n", saved
    printf "  },\n"
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"go\": \"%s\"\n", gov
    printf "}\n"
  }' > "$out"
  ;;
pr10)
  # Warm pool-hit path: a read served from a resident chunk costs no
  # device time and must cost no allocations either.  The benchmark
  # controls its own iteration count so first-touch pool growth is
  # amortized out of the reported allocs/op.
  bench_out=$(go test -run '^$' -bench 'BenchmarkPoolHit' -benchmem -benchtime "${POOL_BENCHTIME:-100000x}" -count "${BENCHCOUNT:-1}" ./internal/storage/)
  echo "$bench_out"
  hit=$(echo "$bench_out" | awk '/BenchmarkPoolHit/ {if (min=="" || $3+0 < min) min=$3+0} END {print min}')
  hita=$(echo "$bench_out" | awk '/BenchmarkPoolHit/ {print $7+0; exit}')
  if [ -z "$hit" ]; then
    echo "bench: could not parse BenchmarkPoolHit output" >&2
    exit 1
  fi
  if [ "$hita" != "0" ]; then
    echo "bench: warm pool-hit path allocates ($hita allocs/op), want 0" >&2
    exit 1
  fi
  # The virtual side: the Zipf tenancy, unpooled sweep then pooled
  # sweep.  Both tables start with a "workers" header; the clip table
  # above also has numeric first columns, so gate on the headers.
  exp_out=$(go run ./cmd/avbench -exp zipf -frames 30 -sessions 1000)
  echo "$exp_out"
  base_mbs=$(echo "$exp_out" | awk '/^workers /{arms++} arms==1 && /^1  /{print $3; exit}')
  read -r pool_mbs pool_hit cohort <<<"$(echo "$exp_out" | awk '/^workers /{arms++} arms==2 && /^1  /{print $3, $5, $7; exit}')"
  pident2=$(echo "$exp_out" | awk '/^workers /{arms++} arms==2 && /^2  /{print $NF; exit}')
  pident4=$(echo "$exp_out" | awk '/^workers /{arms++} arms==2 && /^4  /{print $NF; exit}')
  if [ -z "$base_mbs" ] || [ -z "$pool_mbs" ] || [ -z "$pident2" ] || [ -z "$pident4" ]; then
    echo "bench: could not parse zipf pooled experiment output" >&2
    exit 1
  fi
  if [ "$pident2" != "yes" ] || [ "$pident4" != "yes" ]; then
    echo "bench: pooled arms not byte-identical to serial (workers2=$pident2 workers4=$pident4)" >&2
    exit 1
  fi
  cohort_ok=$(echo "$cohort" | awk '{gsub(/%/, ""); print ($1 + 0 > 50) ? "yes" : "no"}')
  if [ "$cohort_ok" != "yes" ]; then
    echo "bench: cohort pool hit rate $cohort not above 50%" >&2
    exit 1
  fi
  # Virtual throughput is deterministic, so both comparisons hold on
  # any host: the pool must beat this run's unpooled arm and the
  # committed PR 9 baseline.
  mbs_ok=$(awk -v p="$pool_mbs" -v b="$base_mbs" 'BEGIN {print (p + 0 > b + 0) ? "yes" : "no"}')
  if [ "$mbs_ok" != "yes" ]; then
    echo "bench: pooled throughput $pool_mbs MB/s not above unpooled $base_mbs MB/s" >&2
    exit 1
  fi
  pr9_ok=$(awk -v p="$pool_mbs" 'BEGIN {print (p + 0 > 87.31) ? "yes" : "no"}')
  if [ "$pr9_ok" != "yes" ]; then
    echo "bench: pooled throughput $pool_mbs MB/s not above the PR 9 baseline 87.31 MB/s" >&2
    exit 1
  fi
  awk -v hit="$hit" -v base="$base_mbs" -v pool="$pool_mbs" \
      -v phit="$pool_hit" -v cohort="$cohort" \
      -v cpus="$cpus" -v gov="$goversion" 'BEGIN {
    gsub(/%/, "", phit); gsub(/%/, "", cohort)
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkPoolHit\",\n"
    printf "  \"workload\": {\"pool\": \"capacity 8, lookahead 4, staged commit\", \"read\": \"warm hit on a resident chunk\"},\n"
    printf "  \"host_ns_per_op\": {\"pool_hit\": %d},\n", hit
    printf "  \"allocs_per_op\": {\"pool_hit\": 0},\n"
    printf "  \"virtual\": {\n"
    printf "    \"experiment\": \"avbench -exp zipf -frames 30 -sessions 1000\",\n"
    printf "    \"unpooled_mb_per_s\": %s,\n", base
    printf "    \"pooled_mb_per_s\": %s,\n", pool
    printf "    \"pr9_baseline_mb_per_s\": 87.31,\n"
    printf "    \"pool_hit_rate_pct\": %s,\n", phit
    printf "    \"cohort_hit_rate_pct\": %s,\n", cohort
    printf "    \"identical_to_serial\": {\"workers_2\": \"yes\", \"workers_4\": \"yes\"}\n"
    printf "  },\n"
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"go\": \"%s\"\n", gov
    printf "}\n"
  }' > "$out"
  ;;
gate)
  # Trajectory gate: every committed baseline is re-measured on this
  # host and compared metric-by-metric.  Fresh measurements go to a
  # temp dir so the committed baselines are left untouched.
  status=0
  baselines=$(git ls-files 'BENCH_*.json')
  if [ -z "$baselines" ]; then
    echo "bench gate: no committed BENCH_*.json baselines" >&2
    exit 2
  fi
  tmpdir=$(mktemp -d)
  trap 'rm -rf "$tmpdir"' EXIT
  for base in $baselines; do
    t="${base#BENCH_}"
    t="${t%.json}"
    echo "=== gate: re-measuring $t against $base ==="
    if ! bash "$0" "$t" "$tmpdir/BENCH_${t}.json" >"$tmpdir/${t}.log" 2>&1; then
      echo "bench gate: measuring $t failed:" >&2
      cat "$tmpdir/${t}.log" >&2
      status=1
      continue
    fi
    if ! go run ./cmd/benchgate -old "$base" -new "$tmpdir/BENCH_${t}.json" -ratio "${BENCH_GATE_RATIO:-1.10}"; then
      status=1
    fi
  done
  exit $status
  ;;
*)
  echo "bench: unknown tag \"$tag\" (known: pr3, pr4, pr5, pr6, pr7, pr8, pr9, pr10, gate)" >&2
  exit 2
  ;;
esac

echo "wrote $out:"
cat "$out"
