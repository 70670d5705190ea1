# Bench harnesses: one binary per paper table/figure plus ablations and a
# google-benchmark microbenchmark suite. Included from the top-level
# CMakeLists so the binaries land alone in ${CMAKE_BINARY_DIR}/bench.

add_library(zc_bench STATIC
  bench/common.cpp
)
target_link_libraries(zc_bench PUBLIC
  zc_exec zc_driver zc_programs zc_sim zc_runtime zc_comm zc_parser zc_zir
  zc_machine zc_ironman zc_archive zc_support)

function(zc_bench_binary name)
  add_executable(${name} bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE zc_bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

zc_bench_binary(bench_fig05_bindings)
zc_bench_binary(bench_fig06_overhead)
zc_bench_binary(bench_fig07_programs)
zc_bench_binary(bench_fig08_counts)
zc_bench_binary(bench_fig10a_pvm)
zc_bench_binary(bench_fig10b_shmem)
zc_bench_binary(bench_fig11_heuristics)
zc_bench_binary(bench_fig12_heuristic_times)
zc_bench_binary(bench_table1_tomcatv)
zc_bench_binary(bench_table2_swm)
zc_bench_binary(bench_table3_simple)
zc_bench_binary(bench_table4_sp)
zc_bench_binary(bench_sweep_scaling)
zc_bench_binary(bench_abl_knee)

# Smoke-run the sweep-scaling harness: asserts the scheduler, the plan
# cache, and the legacy loop agree bit-identically on the whole fig07 grid
# (exit 0 iff every slot matched) and that the cache actually hit. The
# speedup number itself is hardware-dependent and never gated here.
add_test(NAME bench_sweep_scaling_smoke
  COMMAND bench_sweep_scaling --procs=4
          --bench-json=${CMAKE_BINARY_DIR}/bench/BENCH_sweep_scaling_smoke.json)
set_tests_properties(bench_sweep_scaling_smoke PROPERTIES
  LABELS "smoke;tsan"
  PASS_REGULAR_EXPRESSION "determinism: all schedules bit-identical")
zc_bench_binary(bench_tseries_overhead)
target_link_libraries(bench_tseries_overhead PRIVATE zc_tseries)

# Smoke-run the timeline-sink guard bench: asserts attaching the windowed
# telemetry sink leaves engine results bit-identical and costs <= 5% on the
# engine hot path. The regex spans both verdict lines (CMake "." matches
# newlines), so both gates must pass. Absolute us/run is hardware-dependent
# and never gated.
add_test(NAME bench_tseries_overhead_smoke
  COMMAND bench_tseries_overhead --procs=4
          --bench-json=${CMAKE_BINARY_DIR}/bench/BENCH_tseries_overhead_smoke.json)
# RUN_SERIAL: the gate is a timing ratio; sharing the core with other ctest
# jobs skews the compared arms unpredictably.
set_tests_properties(bench_tseries_overhead_smoke PROPERTIES
  LABELS "smoke;tsan"
  RUN_SERIAL TRUE
  PASS_REGULAR_EXPRESSION
    "determinism: results bit-identical with the sink attached.*acceptance: timeline sink overhead within 5%")

zc_bench_binary(bench_engine_scaling)

# Smoke-run the engine-scaling harness on a tiny mesh: asserts the
# event-driven core and the lockstep reference produce bit-identical result
# checksums on every (benchmark, procs) cell. The speedup numbers are
# hardware-dependent and never gated here — the committed
# BENCH_engine_scaling.json carries the full 64..4096 ladder.
add_test(NAME bench_engine_scaling_smoke
  COMMAND bench_engine_scaling --procs=4
          --bench-json=${CMAKE_BINARY_DIR}/bench/BENCH_engine_scaling_smoke.json)
set_tests_properties(bench_engine_scaling_smoke PROPERTIES
  LABELS "smoke;tsan"
  PASS_REGULAR_EXPRESSION
    "determinism: event and lockstep checksums bit-identical on every cell")

zc_bench_binary(bench_abl_hybrid)
zc_bench_binary(bench_abl_interblock)
zc_bench_binary(bench_paragon_suite)

add_executable(bench_micro_passes bench/bench_micro_passes.cpp)
target_link_libraries(bench_micro_passes PRIVATE zc_bench zc_analysis benchmark::benchmark)
set_target_properties(bench_micro_passes PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Smoke-run the phase-split section (micros skipped via a non-matching
# filter, tiny mesh): asserts the two engine cores agree bit-identically on
# the phase-split workload. The sim_phase_speedup value is
# hardware-dependent and never gated here — the committed
# BENCH_micro_passes.json carries the 4096-processor evidence and
# `zcomm_bench check` trend-gates it.
add_test(NAME bench_micro_passes_smoke
  COMMAND bench_micro_passes --benchmark_filter=ThisMatchesNothing --procs=4
          --bench-json=${CMAKE_BINARY_DIR}/bench/BENCH_micro_passes_smoke.json)
set_tests_properties(bench_micro_passes_smoke PROPERTIES
  LABELS "smoke;tsan"
  PASS_REGULAR_EXPRESSION "determinism: phase-split engine checksums bit-identical")

add_executable(bench_trace_overhead bench/bench_trace_overhead.cpp)
target_link_libraries(bench_trace_overhead PRIVATE zc_bench benchmark::benchmark)
set_target_properties(bench_trace_overhead PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

add_executable(bench_blame_overhead bench/bench_blame_overhead.cpp)
target_link_libraries(bench_blame_overhead PRIVATE zc_bench zc_analysis benchmark::benchmark)
set_target_properties(bench_blame_overhead PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Smoke-run the attribution guard bench in ctest (tiny min_time: this checks
# it runs and the analyses agree with themselves, not the timings).
add_test(NAME bench_blame_overhead_smoke
  COMMAND bench_blame_overhead --benchmark_min_time=0.01)

add_executable(bench_prof_overhead bench/bench_prof_overhead.cpp)
target_link_libraries(bench_prof_overhead PRIVATE zc_bench zc_prof benchmark::benchmark)
set_target_properties(bench_prof_overhead PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Same deal for the host-profiler guard bench: asserts the binary runs and
# the span machinery survives a real pipeline under benchmark iteration.
add_test(NAME bench_prof_overhead_smoke
  COMMAND bench_prof_overhead --benchmark_min_time=0.01)
