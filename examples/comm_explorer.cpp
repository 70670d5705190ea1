// Communication explorer: shows what the optimizer actually does to a
// program — as annotated SPMD listings in the style of the paper's
// Figure 1, as per-decision provenance (--explain), as machine-readable
// run reports (--report, diffable with report_diff), and (with --trace) as
// Chrome trace-event timelines of the simulated run, one track per
// processor plus wire lanes per channel.
//
// Build & run:  cmake --build build && ./build/examples/comm_explorer
//
//   comm_explorer                      # the Figure 1 listings, every level
//   comm_explorer --explain tomcatv    # why each rr/cc/pl decision was made
//   comm_explorer --report r.json      # one JSON run report (see report_diff)
//   comm_explorer --trace pl.json      # trace TOMCATV under `pl`, 16 procs
//   comm_explorer --bench swm --experiment "pl with shmem" --trace-stats
//   comm_explorer --experiment all --trace t.json --trace-stats-csv s.csv
//
// Open the JSON in https://ui.perfetto.dev or chrome://tracing; pipelined
// runs show the wire lanes' transfer spans overlapping the processors'
// compute spans, with the exposed remainder visible as "wait DN" slices.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/blame.h"
#include "src/analysis/critpath.h"
#include "src/analysis/diff.h"
#include "src/comm/optimizer.h"
#include "src/driver/driver.h"
#include "src/driver/report.h"
#include "src/exec/sweep.h"
#include "src/parser/parser.h"
#include "src/prof/prof.h"
#include "src/programs/programs.h"
#include "src/report/passlog.h"
#include "src/support/io.h"
#include "src/trace/chrome.h"
#include "src/trace/stats.h"
#include "src/tseries/render.h"
#include "src/tseries/tseries.h"

namespace {

// The paper's Figure 1 program, plus a window structure that distinguishes
// the combining heuristics (Figure 2).
constexpr std::string_view kSource = R"zpl(
program figure1;

config n : integer = 8;

region R = [1..n, 1..n];
region RB = [1..n, 1..n+1];   -- one halo column so @east stays in bounds

direction east = [0, 1];

var A, B, C, D, E, U : [RB] double;

procedure main() {
  [R] B := Index1 * 0.5;     -- B is modified here ...
  [R] A := B@east;           -- ... so B's slice is communicated here
  [R] C := B@east;           -- redundant: B unchanged since the last transfer
  [R] D := E@east;           -- combinable with B's communication
  [R] U := A + D;
  [R] C := U@east + E@east;  -- E redundant; U nests differently
}
)zpl";

void show(const zc::zir::Program& program, const std::string& title,
          const zc::comm::OptOptions& opts) {
  const zc::comm::CommPlan plan = zc::comm::plan_communication(program, opts);
  std::cout << "== " << title << " (" << plan.static_count() << " communications) ==\n";
  std::cout << zc::comm::to_string(plan, program) << "\n";
}

void show_listings(const zc::zir::Program& program) {
  using namespace zc;
  show(program, "baseline: message vectorization only (Figure 1a)",
       comm::OptOptions::for_level(comm::OptLevel::kBaseline));
  show(program, "rr: + redundant communication removal (Figure 1b)",
       comm::OptOptions::for_level(comm::OptLevel::kRR));
  show(program, "cc: + communication combination (Figure 1c)",
       comm::OptOptions::for_level(comm::OptLevel::kCC));
  show(program, "pl: + communication pipelining (Figure 1d)",
       comm::OptOptions::for_level(comm::OptLevel::kPL));

  comm::OptOptions maxlat = comm::OptOptions::for_level(comm::OptLevel::kPL);
  maxlat.heuristic = comm::CombineHeuristic::kMaxLatency;
  show(program, "pl, combining for maximum latency hiding (Figure 2c)", maxlat);

  comm::OptOptions hybrid = comm::OptOptions::for_level(comm::OptLevel::kPL);
  hybrid.heuristic = comm::CombineHeuristic::kHybrid;
  show(program, "pl, hybrid heuristic (the paper's future-work suggestion)", hybrid);

  std::cout << "Reading the listings: SR lines that moved up relative to their DN show\n"
               "pipelining; multiple arrays in one call show combining; '-- redundant'\n"
               "annotations mark transfers removed by rr.\n";
}

struct TraceOptions {
  std::string bench = "tomcatv";  // or "figure1"
  std::string experiment = "pl";  // or "all"
  int procs = 16;
  std::string trace_path;        // --trace <out.json>
  bool print_stats = false;      // --trace-stats
  std::string stats_csv_path;    // --trace-stats-csv <out.csv>
  bool trace_requested = false;
  bool explain = false;          // --explain [bench]
  std::string report_path;       // --report <out.json>
  bool blame = false;            // --blame
  bool critical_path = false;    // --critical-path
  std::string attribute_vs;      // --attribute-vs <experiment>
  int top = 20;                  // --top <N> rows in attribution tables
  bool profile = false;          // --profile: print the host span tree
  std::string profile_folded_path;  // --profile-folded <out>
  std::string profile_chrome_path;  // --profile-chrome <out>
  std::string sweep_spec;        // --sweep <grid-spec>
  int jobs = 1;                  // --jobs <N>, 0 = hardware concurrency
  bool jobs_given = false;
  bool timeline = false;         // --timeline[=<windows>]: print the heatmap
  int timeline_windows = 64;
  std::string timeline_csv_path;   // --timeline-csv <out.csv>
  std::string timeline_json_path;  // --timeline-json <out.json>

  [[nodiscard]] bool profile_requested() const {
    return profile || !profile_folded_path.empty() || !profile_chrome_path.empty();
  }
  [[nodiscard]] bool timeline_requested() const {
    return timeline || !timeline_csv_path.empty() || !timeline_json_path.empty();
  }
  [[nodiscard]] bool run_requested() const {
    return trace_requested || explain || !report_path.empty() || profile_requested() ||
           timeline_requested();
  }
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "usage: comm_explorer [options]\n"
      "  (no options)                 print the Figure 1 annotated listings\n"
      "  --bench <name>               figure1 | tomcatv | swm | simple | sp\n"
      "                               (default tomcatv; test-scale configs)\n"
      "  --experiment <name>          a Figure 9 experiment name, or 'all'\n"
      "                               (default pl)\n"
      "  --procs <N>                  simulated processors (default 16)\n"
      "  --explain [bench]            print every optimizer decision with\n"
      "                               source-block provenance (rr kills with\n"
      "                               their covering transfer, cc merges with\n"
      "                               heuristic and size, pl hoist distances)\n"
      "  --report <out.json>          run and write a machine-readable run\n"
      "                               report (compare two with report_diff)\n"
      "  --trace <out.json>           run and export a Chrome trace (open in\n"
      "                               Perfetto / chrome://tracing)\n"
      "  --trace-stats                print wait/CPU, exposed vs. overlapped\n"
      "                               wire time, channels, size histogram\n"
      "  --trace-stats-csv <out.csv>  write the same stats as name,value CSV\n"
      "  --blame                      per-transfer time attribution: each\n"
      "                               communication's wait/cpu split and its\n"
      "                               exposed vs. overlapped wire time\n"
      "  --critical-path              walk the run's longest dependence chain\n"
      "                               and print per-transfer path time + slack\n"
      "  --attribute-vs <experiment>  run <experiment> too and attribute the\n"
      "                               exposed-overhead delta to individual\n"
      "                               optimizer decisions (rr/cc/pl)\n"
      "  --top <N>                    rows shown in attribution tables (20)\n"
      "  --profile                    profile the toolchain itself (host wall\n"
      "                               time, not simulated time) and print the\n"
      "                               hierarchical span tree; reports written\n"
      "                               in the same run gain a host_profile\n"
      "                               block\n"
      "  --profile-folded <out.txt>   write the host profile as folded stacks\n"
      "                               (pipe into flamegraph.pl)\n"
      "  --profile-chrome <out.json>  write the host span timeline as a Chrome\n"
      "                               trace; combined with the simulated\n"
      "                               tracks when --trace* is also active\n"
      "  --sweep <grid-spec>          run a whole grid of configurations\n"
      "                               through the sweep scheduler. Spec is\n"
      "                               ';'-separated key=v1,v2 lists:\n"
      "                                 bench=tomcatv,swm;experiment=all;\n"
      "                                 procs=4,16;repeat=2\n"
      "                               Each source parses once, each distinct\n"
      "                               (program, options) plans once (plan\n"
      "                               cache), results print in submission\n"
      "                               order regardless of scheduling\n"
      "  --jobs <N>                   worker contexts for --sweep (default 1\n"
      "                               = serial; 0 = hardware concurrency).\n"
      "                               Any N produces bit-identical results\n"
      "  --timeline[=<windows>]       windowed time-series telemetry (default\n"
      "                               64 windows, bounded memory at any run\n"
      "                               length): per-processor utilization\n"
      "                               heatmap over simulated time\n"
      "                               (cpu/wait/wire/compute/barrier; totals\n"
      "                               reconcile exactly with --trace-stats).\n"
      "                               Experiments mode only: --sweep rejects\n"
      "                               it and the two exports below\n"
      "  --timeline-csv <out.csv>     write the windowed series as CSV\n"
      "  --timeline-json <out.json>   write the windowed series as JSON\n";
  std::exit(code);
}

/// "pl with shmem" -> "pl-with-shmem" for per-experiment file names.
std::string slug(const std::string& name) {
  std::string s = name;
  for (char& c : s) {
    if (c == ' ') c = '-';
  }
  return s;
}

/// trace.json + "pl with shmem" -> trace.pl-with-shmem.json
std::string with_experiment_suffix(const std::string& path, const std::string& experiment) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + slug(experiment);
  }
  return path.substr(0, dot) + "." + slug(experiment) + path.substr(dot);
}

/// Splits "a,b,c" into its comma-separated parts (no empties).
std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= s.size()) {
    const std::size_t comma = s.find(',', at);
    const std::string part = s.substr(at, comma == std::string::npos ? comma : comma - at);
    if (!part.empty()) out.push_back(part);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return out;
}

// One-line reminder of the accepted --sweep grammar, printed with every
// spec diagnostic so a typo never strands the user in --help.
void print_sweep_usage() {
  std::cerr << "usage: --sweep \"bench=tomcatv,swm;experiment=pl,cc|all;"
               "procs=4,16;repeat=2\" (keys: bench, experiment, procs, repeat)\n";
}

int run_sweep_mode(const TraceOptions& opt, zc::prof::Profiler* profiler) {
  using namespace zc;

  if (opt.timeline_requested()) {
    std::cerr << "--timeline, --timeline-csv and --timeline-json apply to experiments mode, "
                 "not --sweep\n";
    return 1;
  }

  // Parse the grid spec: ';'-separated key=v1,v2 lists.
  std::vector<std::string> benches{opt.bench};
  std::vector<std::string> experiment_names{opt.experiment};
  std::vector<int> procs_list{opt.procs};
  int repeat = 1;
  std::size_t at = 0;
  const std::string& spec = opt.sweep_spec;
  while (at < spec.size()) {
    const std::size_t semi = spec.find(';', at);
    const std::string field =
        spec.substr(at, semi == std::string::npos ? semi : semi - at);
    at = semi == std::string::npos ? spec.size() : semi + 1;
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      std::cerr << "--sweep field '" << field << "' is not key=value\n";
      print_sweep_usage();
      return 1;
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "bench") {
      benches = split_list(value);
    } else if (key == "experiment") {
      experiment_names = split_list(value);
    } else if (key == "procs") {
      procs_list.clear();
      for (const std::string& v : split_list(value)) {
        const int p = std::atoi(v.c_str());
        if (p <= 0) {
          std::cerr << "--sweep procs value '" << v << "' is not a positive integer\n";
          print_sweep_usage();
          return 1;
        }
        procs_list.push_back(p);
      }
    } else if (key == "repeat") {
      repeat = std::atoi(value.c_str());
      if (repeat <= 0) {
        std::cerr << "--sweep repeat value '" << value << "' is not a positive integer\n";
        print_sweep_usage();
        return 1;
      }
    } else {
      std::cerr << "--sweep has no key '" << key << "'\n";
      print_sweep_usage();
      return 1;
    }
    if (benches.empty() || experiment_names.empty() || procs_list.empty()) {
      std::cerr << "--sweep key '" << key << "' needs at least one value\n";
      print_sweep_usage();
      return 1;
    }
  }

  std::vector<driver::Experiment> experiments;
  for (const std::string& name : experiment_names) {
    if (name == "all") {
      for (driver::Experiment& e : driver::paper_experiments()) experiments.push_back(std::move(e));
      continue;
    }
    auto e = driver::find_experiment(name);
    if (!e) {
      std::cerr << "unknown experiment '" << name << "' (baseline, rr, cc, pl, "
                   "\"pl with shmem\", \"pl with max latency\", all)\n";
      print_sweep_usage();
      return 1;
    }
    experiments.push_back(std::move(*e));
  }

  // Parse each distinct source exactly once; every grid point over the same
  // bench shares the one immutable program.
  std::map<std::string, std::shared_ptr<const zir::Program>> parsed;
  std::map<std::string, std::map<std::string, long long>> bench_configs;
  for (const std::string& bench : benches) {
    if (parsed.count(bench) != 0) continue;
    if (bench == "figure1") {
      parsed[bench] = std::make_shared<const zir::Program>(parser::parse_program(kSource));
    } else {
      const programs::BenchmarkInfo& info = programs::benchmark(bench);  // throws on unknown
      parsed[bench] = std::make_shared<const zir::Program>(parser::parse_program(info.source));
      bench_configs[bench] = info.test_configs;
    }
  }

  std::vector<exec::SweepItem> items;
  for (int r = 0; r < repeat; ++r) {
    for (const std::string& bench : benches) {
      for (const driver::Experiment& e : experiments) {
        for (const int procs : procs_list) {
          exec::SweepItem item;
          item.label = bench + "/" + e.name + "/p" + std::to_string(procs);
          if (repeat > 1) item.label += "/r" + std::to_string(r);
          item.program = parsed.at(bench);
          item.experiment = e;
          item.procs = procs;
          item.config_overrides = bench_configs[bench];
          items.push_back(std::move(item));
        }
      }
    }
  }

  exec::PlanCache cache;  // per-invocation, so the summary's stats are this sweep's
  exec::SweepOptions sopts;
  sopts.jobs = opt.jobs;
  sopts.plan_cache = &cache;
  sopts.host_profiler = profiler;

  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<exec::SweepResult> results = exec::run_sweep(items, sopts);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  int failures = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const exec::SweepResult& r = results[i];
    if (!r.ok) {
      std::cout << items[i].label << ": ERROR: " << r.error << "\n";
      ++failures;
      continue;
    }
    std::cout << items[i].label << ": static " << r.metrics.static_count << ", dynamic "
              << r.metrics.dynamic_count << ", time " << r.metrics.execution_time * 1e3
              << " ms\n";
  }

  const exec::PlanCacheStats cs = cache.stats();
  // run_sweep starts no more threads than there are items.
  const std::size_t jobs = std::min(
      static_cast<std::size_t>(sopts.jobs == 0 ? exec::hardware_jobs() : sopts.jobs),
      results.size());
  std::cout << "sweep: " << results.size() << " runs, " << jobs << " job"
            << (jobs == 1 ? "" : "s") << ", " << wall << " s wall; programs parsed: "
            << parsed.size() << "; plan cache: " << cs.hits << " hits, " << cs.misses
            << " misses (hit rate " << cs.hit_rate() << ")\n";
  return failures == 0 ? 0 : 1;
}

int run_experiments_mode(const TraceOptions& opt, zc::prof::Profiler* profiler) {
  using namespace zc;

  std::string_view source;
  std::map<std::string, long long> configs;
  if (opt.bench == "figure1") {
    source = kSource;
  } else {
    const programs::BenchmarkInfo& info = programs::benchmark(opt.bench);
    source = info.source;
    configs = info.test_configs;
  }
  const zir::Program program = parser::parse_program(source);

  std::vector<driver::Experiment> experiments;
  if (opt.experiment == "all") {
    experiments = driver::paper_experiments();
  } else {
    auto e = driver::find_experiment(opt.experiment);
    if (!e) {
      std::cerr << "unknown experiment '" << opt.experiment << "' (see --help)\n";
      return 1;
    }
    experiments.push_back(std::move(*e));
  }

  const bool want_provenance = opt.explain || !opt.report_path.empty();
  // Keeps the last experiment's recorder / timeline alive past the loop so
  // --profile-chrome can pair the simulated tracks with the host tracks.
  std::unique_ptr<trace::Recorder> kept_recorder;
  std::unique_ptr<tseries::SimSeries> kept_timeline;
  for (driver::Experiment e : experiments) {
    report::PassLog log;
    if (want_provenance) e.opts.pass_log = &log;

    auto recorder_ptr = std::make_unique<trace::Recorder>(opt.procs);
    trace::Recorder& recorder = *recorder_ptr;
    std::unique_ptr<tseries::SimSeries> timeline_ptr;
    sim::RunConfig cfg;
    cfg.procs = opt.procs;
    cfg.config_overrides = configs;
    if (opt.trace_requested) cfg.recorder = &recorder;
    if (opt.timeline_requested()) {
      timeline_ptr = std::make_unique<tseries::SimSeries>(opt.procs, opt.timeline_windows);
      cfg.timeline = timeline_ptr.get();
    }
    const driver::Metrics m = driver::run_experiment(program, e, cfg);

    std::cout << "== " << opt.bench << " / " << e.name << ": static " << m.static_count
              << ", dynamic " << m.dynamic_count << ", time "
              << m.execution_time * 1e3 << " ms ==\n";
    if (opt.explain) std::cout << log.to_string();
    if (!opt.report_path.empty()) {
      const std::string path = experiments.size() > 1
                                   ? with_experiment_suffix(opt.report_path, e.name)
                                   : opt.report_path;
      driver::ReportOptions ropts;
      ropts.benchmark = opt.bench;
      ropts.host_profiler = profiler;
      ropts.timeline = timeline_ptr.get();
      json::Value doc = driver::build_report(m, e, opt.procs, &log, ropts);
      if (opt.trace_requested) driver::attach_attribution(doc, recorder, program, m.plan);
      io::write_text_file(path, doc.dump() + "\n");
      std::cout << "wrote run report: " << path << "\n";
    }
    if (opt.blame) {
      std::cout << analysis::compute_blame(recorder, program, m.plan).to_string(opt.top);
    }
    if (opt.critical_path) {
      std::cout << analysis::compute_critical_path(recorder, program, m.plan)
                       .to_string(opt.top);
    }
    if (!opt.attribute_vs.empty()) {
      auto vs = driver::find_experiment(opt.attribute_vs);
      if (!vs) {
        std::cerr << "unknown --attribute-vs experiment '" << opt.attribute_vs << "'\n";
        return 1;
      }
      trace::Recorder vs_recorder(opt.procs);
      sim::RunConfig vs_cfg;
      vs_cfg.procs = opt.procs;
      vs_cfg.config_overrides = configs;
      vs_cfg.recorder = &vs_recorder;
      const driver::Metrics vm = driver::run_experiment(program, *vs, vs_cfg);
      const analysis::BlameDiff diff = analysis::diff_blame(
          analysis::compute_blame(vs_recorder, program, vm.plan),
          analysis::compute_blame(recorder, program, m.plan), vs->name, e.name);
      std::cout << diff.to_string(opt.top);
    }
    if (!opt.trace_path.empty()) {
      const std::string path = experiments.size() > 1
                                   ? with_experiment_suffix(opt.trace_path, e.name)
                                   : opt.trace_path;
      // The timeline, when present, rides along as pid-4 counter tracks.
      trace::write_chrome_trace(&recorder, nullptr, timeline_ptr.get(), path);
      std::cout << "wrote Chrome trace: " << path << "\n";
    }
    if (opt.print_stats) std::cout << m.trace_stats->to_string();
    if (!opt.stats_csv_path.empty()) {
      const std::string path = experiments.size() > 1
                                   ? with_experiment_suffix(opt.stats_csv_path, e.name)
                                   : opt.stats_csv_path;
      io::write_text_file(path, m.trace_stats->to_csv());
      std::cout << "wrote trace stats CSV: " << path << "\n";
    }
    if (timeline_ptr != nullptr) {
      if (opt.timeline) {
        std::cout << tseries::heatmap(*timeline_ptr, opt.bench + " / " + e.name);
      }
      if (!opt.timeline_csv_path.empty()) {
        const std::string path = experiments.size() > 1
                                     ? with_experiment_suffix(opt.timeline_csv_path, e.name)
                                     : opt.timeline_csv_path;
        io::write_text_file(path, timeline_ptr->to_csv());
        std::cout << "wrote timeline CSV: " << path << "\n";
      }
      if (!opt.timeline_json_path.empty()) {
        const std::string path = experiments.size() > 1
                                     ? with_experiment_suffix(opt.timeline_json_path, e.name)
                                     : opt.timeline_json_path;
        io::write_text_file(path, timeline_ptr->to_json().dump() + "\n");
        std::cout << "wrote timeline JSON: " << path << "\n";
      }
    }
    kept_recorder = std::move(recorder_ptr);
    kept_timeline = std::move(timeline_ptr);
  }
  if (!opt.profile_chrome_path.empty()) {
    trace::write_chrome_trace(opt.trace_requested ? kept_recorder.get() : nullptr, profiler,
                              kept_timeline.get(), opt.profile_chrome_path);
    std::cout << "wrote host profile Chrome trace: " << opt.profile_chrome_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zc;

  TraceOptions opt;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        std::cerr << a << " needs a value\n";
        usage(1);
      }
      return args[++i];
    };
    if (a == "--help" || a == "-h") usage(0);
    else if (a == "--bench") opt.bench = value();
    else if (a == "--experiment") opt.experiment = value();
    else if (a == "--procs") {
      const std::string v = value();
      char* end = nullptr;
      opt.procs = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (end == v.c_str() || *end != '\0' || opt.procs <= 0) {
        std::cerr << "--procs needs a positive integer, got '" << v << "'\n";
        usage(1);
      }
    }
    else if (a == "--trace") { opt.trace_path = value(); opt.trace_requested = true; }
    else if (a == "--trace-stats") { opt.print_stats = true; opt.trace_requested = true; }
    else if (a == "--trace-stats-csv") { opt.stats_csv_path = value(); opt.trace_requested = true; }
    else if (a == "--explain") {
      opt.explain = true;
      // Optional positional value: `--explain tomcatv` names the benchmark.
      if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) opt.bench = args[++i];
    }
    else if (a == "--report") opt.report_path = value();
    else if (a == "--blame") { opt.blame = true; opt.trace_requested = true; }
    else if (a == "--critical-path") { opt.critical_path = true; opt.trace_requested = true; }
    else if (a == "--attribute-vs") { opt.attribute_vs = value(); opt.trace_requested = true; }
    else if (a.rfind("--attribute-vs=", 0) == 0) {
      opt.attribute_vs = a.substr(std::string("--attribute-vs=").size());
      opt.trace_requested = true;
    }
    else if (a == "--profile") opt.profile = true;
    else if (a == "--profile-folded") opt.profile_folded_path = value();
    else if (a.rfind("--profile-folded=", 0) == 0) {
      opt.profile_folded_path = a.substr(std::string("--profile-folded=").size());
    }
    else if (a == "--profile-chrome") opt.profile_chrome_path = value();
    else if (a.rfind("--profile-chrome=", 0) == 0) {
      opt.profile_chrome_path = a.substr(std::string("--profile-chrome=").size());
    }
    else if (a == "--timeline") opt.timeline = true;
    else if (a.rfind("--timeline=", 0) == 0) {
      opt.timeline = true;
      const std::string v = a.substr(std::string("--timeline=").size());
      char* end = nullptr;
      opt.timeline_windows = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (end == v.c_str() || *end != '\0' || opt.timeline_windows <= 0) {
        std::cerr << "--timeline needs a positive window count, got '" << v << "'\n";
        usage(1);
      }
    }
    else if (a == "--timeline-csv") opt.timeline_csv_path = value();
    else if (a.rfind("--timeline-csv=", 0) == 0) {
      opt.timeline_csv_path = a.substr(std::string("--timeline-csv=").size());
    }
    else if (a == "--timeline-json") opt.timeline_json_path = value();
    else if (a.rfind("--timeline-json=", 0) == 0) {
      opt.timeline_json_path = a.substr(std::string("--timeline-json=").size());
    }
    else if (a == "--sweep") opt.sweep_spec = value();
    else if (a.rfind("--sweep=", 0) == 0) opt.sweep_spec = a.substr(std::string("--sweep=").size());
    else if (a == "--jobs" || a.rfind("--jobs=", 0) == 0) {
      const std::string v = a == "--jobs" ? value() : a.substr(std::string("--jobs=").size());
      char* end = nullptr;
      opt.jobs = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (end == v.c_str() || *end != '\0' || opt.jobs < 0) {
        std::cerr << "--jobs needs a non-negative integer, got '" << v << "'\n";
        usage(1);
      }
      opt.jobs_given = true;
    }
    else if (a == "--top") {
      const std::string v = value();
      char* end = nullptr;
      opt.top = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (end == v.c_str() || *end != '\0' || opt.top < 0) {
        std::cerr << "--top needs a non-negative integer, got '" << v << "'\n";
        usage(1);
      }
    }
    else {
      std::cerr << "unknown option: " << a << "\n";
      usage(1);
    }
  }

  try {
    // The profiler watches the whole invocation: one "comm_explorer" root
    // span, with the instrumented pipeline (frontend, optimizer passes,
    // sim, analysis) nesting under it. Unless a --profile* flag was given,
    // nothing attaches and every Span below is a no-op pointer test.
    prof::Profiler profiler;
    prof::Profiler* prof_ptr = opt.profile_requested() ? &profiler : nullptr;
    prof::Attach attach(prof_ptr);
    if (opt.jobs_given && opt.sweep_spec.empty()) {
      std::cerr << "--jobs only applies to --sweep\n";
      return 1;
    }
    int rc = 0;
    {
      ZC_PROF_SPAN("comm_explorer");
      if (!opt.sweep_spec.empty()) {
        rc = run_sweep_mode(opt, prof_ptr);
      } else if (opt.run_requested()) {
        rc = run_experiments_mode(opt, prof_ptr);
      } else {
        const zir::Program program = parser::parse_program(kSource);
        show_listings(program);
      }
    }
    if (prof_ptr != nullptr && rc == 0) {
      if (opt.profile) std::cout << profiler.to_text();
      if (!opt.profile_folded_path.empty()) {
        io::write_text_file(opt.profile_folded_path, profiler.to_folded());
        std::cout << "wrote folded profile: " << opt.profile_folded_path << "\n";
      }
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
