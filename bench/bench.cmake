# Bench harnesses: one binary per paper table/figure plus ablations and the
# observer-overhead guard. Included from the
# top-level CMakeLists so the binaries land alone in ${CMAKE_BINARY_DIR}/bench.

add_library(zc_bench STATIC
  bench/common.cpp
)
target_link_libraries(zc_bench PUBLIC
  zc_exec zc_driver zc_programs zc_sim zc_runtime zc_comm zc_parser zc_zir
  zc_machine zc_ironman zc_support)

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
zc_bench_binary(bench_abl_knee)

# A harness writes only stdout and its --csv file: run Table 1 from an empty
# directory and require the directory to still be empty afterwards.
set(zc_bench_empty_dir ${CMAKE_BINARY_DIR}/bench_empty_cwd)
add_test(NAME bench_table1_writes_no_files
  COMMAND bash -c "rm -rf ./* && \"$0\" --procs=4 >/dev/null && [ -z \"$(ls -A)\" ]"
          $<TARGET_FILE:bench_table1_tomcatv>
  WORKING_DIRECTORY ${zc_bench_empty_dir})
set_tests_properties(bench_table1_writes_no_files PROPERTIES LABELS smoke)
file(MAKE_DIRECTORY ${zc_bench_empty_dir})
# The harness flags are --paper, --procs, --jobs and --csv; any other (here
# the retired --bench-json) prints usage and exits 2.
add_test(NAME bench_table1_rejects_bench_json
         COMMAND bench_table1_tomcatv --bench-json=x)
set_tests_properties(bench_table1_rejects_bench_json PROPERTIES
  LABELS smoke WILL_FAIL TRUE)

zc_bench_binary(bench_observer_overhead)
target_link_libraries(bench_observer_overhead PRIVATE zc_tseries zc_prof)

# Smoke-run the observer guard bench, one ctest entry per observer: each
# asserts that attaching its observer (the timeline sink, the host profiler)
# leaves engine results bit-identical and costs <= 5% on the engine hot
# path. Each regex spans its arm's two verdict lines (CMake "." matches
# newlines), so both gates must pass. Absolute us/run is hardware-dependent
# and never gated. RUN_SERIAL: the gate is a timing ratio; sharing the core
# with other ctest jobs skews the compared arms unpredictably.
function(zc_observer_smoke name observer)
  add_test(NAME ${name} COMMAND bench_observer_overhead --procs=4)
  set_tests_properties(${name} PROPERTIES
    LABELS "smoke;tsan"
    RUN_SERIAL TRUE
    PASS_REGULAR_EXPRESSION
      "bit-identical with the ${observer} attached.*${observer} overhead within 5%")
endfunction()
zc_observer_smoke(bench_tseries_overhead_smoke "timeline sink")
zc_observer_smoke(bench_prof_overhead_smoke "host profiler")
# --procs=N is the bench's only flag: any other (here --bench-json) fails fast.
add_test(NAME bench_observer_overhead_rejects_bench_json
         COMMAND bench_observer_overhead --bench-json=x)
set_tests_properties(bench_observer_overhead_rejects_bench_json PROPERTIES
  LABELS smoke WILL_FAIL TRUE)

zc_bench_binary(bench_abl_hybrid)
zc_bench_binary(bench_abl_interblock)
zc_bench_binary(bench_paragon_suite)
