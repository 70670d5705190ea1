#include "bench/common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <mutex>

#include "src/exec/sweep.h"
#include "src/parser/parser.h"
#include "src/support/str.h"

namespace zc::bench {

namespace {

/// Bench-default iteration counts: the paper's spatial sizes with fewer
/// iterations, so the whole suite runs in a couple of minutes. Counts scale
/// linearly with iterations; scaled times and count ratios are unaffected.
const std::map<std::string, std::map<std::string, long long>>& bench_scales() {
  static const std::map<std::string, std::map<std::string, long long>> scales = {
      {"tomcatv", {{"n", 128}, {"iters", 30}}},
      {"swm", {{"n", 512}, {"iters", 6}}},
      {"simple", {{"n", 256}, {"iters", 8}}},
      {"sp", {{"n", 16}, {"iters", 30}}},
  };
  return scales;
}

}  // namespace

Options parse_options(int argc, char** argv, bool accept_jobs) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--paper") {
      o.paper_scale = true;
    } else if (str::starts_with(arg, "--procs=")) {
      o.procs = std::atoi(arg.c_str() + 8);
      if (o.procs < 1) {
        std::cerr << "bad --procs value\n";
        std::exit(2);
      }
    } else if (accept_jobs && str::starts_with(arg, "--jobs=")) {
      o.jobs = std::atoi(arg.c_str() + 7);
      if (o.jobs < 0) {
        std::cerr << "bad --jobs value\n";
        std::exit(2);
      }
    } else if (str::starts_with(arg, "--csv=")) {
      o.csv_path = arg.substr(6);
    } else {
      std::cerr << "usage: " << argv[0] << " [--paper] [--procs=N]"
                << (accept_jobs ? " [--jobs=N]" : "") << " [--csv=PATH]\n";
      std::exit(2);
    }
  }
  return o;
}

std::map<std::string, long long> scale_for(const programs::BenchmarkInfo& info,
                                           const Options& options) {
  if (options.paper_scale) return info.paper_configs;
  return bench_scales().at(info.name);
}

std::string scale_label(const programs::BenchmarkInfo& info, const Options& options) {
  const auto cfg = scale_for(info, options);
  return info.size_label + ", " + std::to_string(cfg.at("iters")) + " iterations";
}

std::shared_ptr<const zir::Program> parsed_program(const programs::BenchmarkInfo& info) {
  // Parse-once cache: every figure/table in a binary (and every option set
  // within it) shares one immutable program per benchmark. Mutex-guarded,
  // so any thread may call it.
  static std::mutex mu;
  static std::map<std::string, std::shared_ptr<const zir::Program>> programs;
  const std::lock_guard<std::mutex> lk(mu);
  auto it = programs.find(info.name);
  if (it == programs.end()) {
    it = programs
             .emplace(info.name,
                      std::make_shared<const zir::Program>(parser::parse_program(info.source)))
             .first;
  }
  return it->second;
}

std::vector<Row> run_experiments(const programs::BenchmarkInfo& info,
                                 const std::vector<std::string>& experiment_names,
                                 const Options& options) {
  // Cache: several figures share experiment runs within one process.
  static std::map<std::string, Row> cache;

  const std::shared_ptr<const zir::Program> program = parsed_program(info);
  const auto key_for = [&](const std::string& name) {
    return info.name + "/" + name + "/" + (options.paper_scale ? "paper" : "bench") + "/" +
           std::to_string(options.procs);
  };

  // Fan the uncached grid rows out through the sweep scheduler (serial when
  // --jobs=1); its plan cache lets e.g. "pl" and "pl with shmem" optimize
  // once between them.
  std::vector<std::string> missing;
  for (const std::string& name : experiment_names) {
    if (cache.count(key_for(name)) != 0) continue;
    if (std::find(missing.begin(), missing.end(), name) != missing.end()) continue;
    missing.push_back(name);
  }
  if (!missing.empty()) {
    std::vector<exec::SweepItem> items;
    for (const std::string& name : missing) {
      exec::SweepItem item;
      item.label = key_for(name);
      item.program = program;
      item.experiment = driver::experiment(name);
      item.procs = options.procs;
      item.config_overrides = scale_for(info, options);
      items.push_back(std::move(item));
    }
    exec::SweepOptions sopts;
    sopts.jobs = options.jobs;
    const std::vector<exec::SweepResult> results = exec::run_sweep(items, sopts);

    for (std::size_t i = 0; i < results.size(); ++i) {
      const exec::SweepResult& r = results[i];
      if (!r.ok) throw Error(items[i].label + ": " + r.error);
      const driver::Metrics& m = r.metrics;

      Row row;
      row.benchmark = info.name;
      row.experiment = missing[i];
      row.static_count = m.static_count;
      row.dynamic_count = m.dynamic_count;
      row.execution_time = m.execution_time;
      cache.emplace(items[i].label, row);
    }
  }

  std::vector<Row> rows;
  rows.reserve(experiment_names.size());
  for (const std::string& name : experiment_names) rows.push_back(cache.at(key_for(name)));
  return rows;
}

void print_header(const std::string& figure, const std::string& caption,
                  const Options& options) {
  std::cout << "================================================================\n";
  std::cout << figure << " — " << caption << "\n";
  std::cout << "Choi & Snyder, \"Quantifying the Effects of Communication\n";
  std::cout << "Optimizations\" (ICPP 1997), reproduced on the simulated Cray\n";
  std::cout << "T3D / Intel Paragon; " << options.procs << "-processor partition, "
            << (options.paper_scale ? "paper" : "bench") << " scale.\n";
  std::cout << "================================================================\n\n";
}

void maybe_write_csv(const std::vector<Row>& rows, const Options& options) {
  if (!options.csv_path.has_value()) return;
  CsvWriter csv({"benchmark", "experiment", "static_count", "dynamic_count", "execution_time"});
  for (const Row& r : rows) {
    csv.add_row({r.benchmark, r.experiment, std::to_string(r.static_count),
                 std::to_string(r.dynamic_count), str::format_f(r.execution_time, 6)});
  }
  csv.write_file(*options.csv_path);
  std::cout << "\n(CSV written to " << *options.csv_path << ")\n";
}

double scaled(const std::vector<Row>& rows, const std::string& experiment, double Row::*field) {
  const Row* base = nullptr;
  const Row* target = nullptr;
  for (const Row& r : rows) {
    if (r.experiment == "baseline") base = &r;
    if (r.experiment == experiment) target = &r;
  }
  if (base == nullptr || target == nullptr) return std::nan("1");
  const double denom = (*base).*field;
  if (denom == 0.0) return std::nan("1");
  return (*target).*field / denom;
}

}  // namespace zc::bench
