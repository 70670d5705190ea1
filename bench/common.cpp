#include "bench/common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <mutex>

#include "src/archive/archive.h"
#include "src/archive/envelope.h"
#include "src/exec/sweep.h"
#include "src/parser/parser.h"
#include "src/support/io.h"
#include "src/support/json.h"
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

/// One perf sample per (benchmark, experiment) run: plan_communication
/// timing distribution plus a single end-to-end sim sample. Accumulated
/// across the process and flushed to BENCH_<name>.json at exit.
struct PerfSample {
  std::string name;                        // "tomcatv/pl"
  std::map<std::string, long long> params; // procs + problem scale configs
  double median_ns = 0;
  double p10_ns = 0;
  double p90_ns = 0;
  int samples = 0;
  double sim_run_ns = 0;
};

struct PerfFile {
  Options options;  ///< a copy of the parsed flags (paths + envelope stamps)
  std::vector<PerfSample> results;

  void flush() const {
    json::Value doc = json::Value::make_object();
    doc["schema"] = json::Value::make_str("zcomm-bench-perf");
    doc["bench"] = json::Value::make_str(options.bench_name);
    json::Value arr = json::Value::make_array();
    for (const PerfSample& s : results) {
      json::Value r = json::Value::make_object();
      r["name"] = json::Value::make_str(s.name);
      json::Value params = json::Value::make_object();
      for (const auto& [k, v] : s.params) params[k] = json::Value::make_int(v);
      r["params"] = std::move(params);
      r["median_ns"] = json::Value::make_num(s.median_ns);
      r["p10_ns"] = json::Value::make_num(s.p10_ns);
      r["p90_ns"] = json::Value::make_num(s.p90_ns);
      r["samples"] = json::Value::make_int(s.samples);
      r["sim_run_ns"] = json::Value::make_num(s.sim_run_ns);
      arr.push_back(std::move(r));
    }
    doc["results"] = std::move(arr);
    write_bench_json(doc, options);
  }

  ~PerfFile() {
    if (!options.bench_json_path.has_value() || results.empty()) return;
    try {
      flush();
    } catch (const std::exception& e) {
      std::cerr << "bench-json: " << e.what() << "\n";
    }
  }
};

PerfFile& perf_file() {
  static PerfFile file;
  return file;
}

/// nearest-rank percentile of an unsorted sample set (q in [0,1]).
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * (static_cast<double>(v.size()) - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options o;
  // bench_fig08_counts -> fig08_counts; the default perf file name.
  std::string base = argv[0];
  if (const auto slash = base.rfind('/'); slash != std::string::npos) base = base.substr(slash + 1);
  if (str::starts_with(base, "bench_")) base = base.substr(6);
  o.bench_name = base;
  o.bench_json_path = "BENCH_" + base + ".json";
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
    } else if (str::starts_with(arg, "--jobs=")) {
      o.jobs = std::atoi(arg.c_str() + 7);
      if (o.jobs < 0) {
        std::cerr << "bad --jobs value\n";
        std::exit(2);
      }
    } else if (str::starts_with(arg, "--csv=")) {
      o.csv_path = arg.substr(6);
    } else if (str::starts_with(arg, "--bench-json=")) {
      o.bench_json_path = arg.substr(13);
    } else if (arg == "--no-bench-json") {
      o.bench_json_path = std::nullopt;
    } else if (str::starts_with(arg, "--archive=")) {
      o.archive_path = arg.substr(10);
    } else if (str::starts_with(arg, "--now=")) {
      o.now_unix = std::atoll(arg.c_str() + 6);
      if (o.now_unix <= 0) {
        std::cerr << "bad --now value (seconds since the epoch)\n";
        std::exit(2);
      }
    } else if (str::starts_with(arg, "--git-sha=")) {
      o.git_sha = arg.substr(10);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--paper] [--procs=N] [--jobs=N] [--csv=PATH]"
                   " [--bench-json=PATH] [--no-bench-json] [--archive=PATH]"
                   " [--now=EPOCH] [--git-sha=SHA]\n";
      std::exit(2);
    }
  }
  perf_file().options = o;
  return o;
}

void write_bench_json(const json::Value& payload, const Options& options) {
  if (!options.bench_json_path.has_value()) return;
  const long long now =
      options.now_unix != 0 ? options.now_unix : static_cast<long long>(std::time(nullptr));
  const archive::Envelope envelope = archive::wrap(payload, now, options.git_sha);
  // The BENCH file is written first and identically whether or not the
  // archive append happens — archiving must never change the bench output.
  io::write_text_file(*options.bench_json_path, envelope.to_json().dump() + "\n");
  if (options.archive_path.has_value()) {
    archive::Archive(*options.archive_path).append(envelope);
  }
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
  // within it) shares one immutable program per benchmark. Mutex-guarded:
  // harnesses call this from sweep-pool workers too.
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
  // --jobs=1); plans memoize in the process-wide cache, so e.g. "pl" and
  // "pl with shmem" optimize once between them.
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

      if (perf_file().options.bench_json_path.has_value()) {
        // Optimizer-time distribution: plan_communication is microseconds
        // per call, so a short repeat gives stable percentiles — sampled
        // serially here, deliberately outside the scheduler and the plan
        // cache, because this measures the planner itself. The full sim run
        // is seconds-scale and sampled once (the task's wall time).
        using Clock = std::chrono::steady_clock;
        constexpr int kSamples = 16;
        std::vector<double> plan_ns;
        plan_ns.reserve(kSamples);
        for (int s = 0; s < kSamples; ++s) {
          const Clock::time_point t0 = Clock::now();
          const comm::CommPlan plan =
              comm::plan_communication(*program, items[i].experiment.opts);
          plan_ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
          if (plan.static_count() != m.static_count) throw Error("unstable plan while sampling");
        }
        PerfSample sample;
        sample.name = info.name + "/" + missing[i];
        sample.params = scale_for(info, options);
        sample.params["procs"] = options.procs;
        sample.median_ns = percentile(plan_ns, 0.5);
        sample.p10_ns = percentile(plan_ns, 0.1);
        sample.p90_ns = percentile(plan_ns, 0.9);
        sample.samples = kSamples;
        sample.sim_run_ns = r.wall_seconds * 1e9;
        perf_file().results.push_back(std::move(sample));
      }

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
