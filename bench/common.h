// Shared infrastructure for the bench harnesses that regenerate the paper's
// tables and figures.
//
// Every harness accepts:
//   --paper        run at the paper's full problem scale (slower; the
//                  default uses the same spatial sizes with fewer
//                  iterations — counts scale linearly, shapes identical)
//   --procs=N      processor count (default 64, the paper's partitions)
//   --jobs=N       sweep-scheduler workers for the grid runs (default 1;
//                  only harnesses that run their grid through
//                  run_experiments accept it, the rest reject it)
//   --csv=PATH     also dump machine-readable results
//
// Output goes to stdout and the --csv file only; a harness writes nothing
// else. Host-time measurement is e2ebench's job (e2ebench/README.md).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/driver/driver.h"
#include "src/programs/programs.h"
#include "src/support/csv.h"

namespace zc::bench {

struct Options {
  bool paper_scale = false;
  int procs = 64;
  /// Worker contexts for the sweep scheduler the grid runs fan out on
  /// (--jobs=N; 1 = serial, 0 = hardware concurrency). Results are
  /// bit-identical at any value — see src/exec/sweep.h.
  int jobs = 1;
  std::optional<std::string> csv_path;
};

/// Parses the common flags; exits 2 with a usage message on unknown flags.
/// A harness that never calls run_experiments passes accept_jobs = false,
/// so --jobs=N is an unknown flag there rather than silently ignored.
Options parse_options(int argc, char** argv, bool accept_jobs = true);

/// The problem configuration a harness should run: paper scale or the
/// bench default (paper sizes, reduced iteration counts).
std::map<std::string, long long> scale_for(const programs::BenchmarkInfo& info,
                                           const Options& options);

/// A short human-readable label like "128x128, 30 iterations".
std::string scale_label(const programs::BenchmarkInfo& info, const Options& options);

/// One benchmark x experiment result row.
struct Row {
  std::string benchmark;
  std::string experiment;
  int static_count = 0;
  long long dynamic_count = 0;
  double execution_time = 0.0;
};

/// Runs the named paper experiments (Figure 9 keys) for one benchmark
/// through the sweep scheduler (options.jobs workers; each call plans every
/// distinct option set once). Results are cached per (benchmark, experiment)
/// within the process, and the source parses once per benchmark no matter
/// how many figures run it.
std::vector<Row> run_experiments(const programs::BenchmarkInfo& info,
                                 const std::vector<std::string>& experiment_names,
                                 const Options& options);

/// The per-process parsed program for `info` (parse once, reuse across
/// every figure and option set in the binary).
std::shared_ptr<const zir::Program> parsed_program(const programs::BenchmarkInfo& info);

/// Prints the standard harness header: what this binary reproduces.
void print_header(const std::string& figure, const std::string& caption,
                  const Options& options);

/// Writes rows as CSV if --csv was given.
void maybe_write_csv(const std::vector<Row>& rows, const Options& options);

/// value / baseline as a fraction; NaN if baseline is missing or zero.
double scaled(const std::vector<Row>& rows, const std::string& experiment, double Row::*field);

}  // namespace zc::bench
