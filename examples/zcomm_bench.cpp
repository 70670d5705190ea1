// zcomm_bench: the perf archive's command line — record run reports into an
// append-only JSON-lines history, query trends over it, and gate fresh
// samples against like-for-like baselines.
//
//   zcomm_bench record --archive=perf.jsonl swm_rr.json swm_pl.json
//   zcomm_bench trend  --archive=perf.jsonl --bench=swm --metric=execution_time
//   zcomm_bench check  --archive=perf.jsonl fresh.json
//
// `record` takes run reports (comm_explorer --report) and archive lines.
// Envelopes keep their fingerprints and timestamps; a bare run report is
// wrapped on the way in and keeps its own host block. A document with no
// host block at all is rejected.
//
// `check` is the regression sentinel: each gateable metric of the fresh
// sample is compared against the median of its same-host-class history
// with a MAD noise band (trend.h). History recorded under other host
// classes is refused, not compared.
//
// Exit status (check): 0 ok/improved, 1 regression, 2 usage or I/O error,
// 3 refused (history exists only under other host classes), 4 no history
// for this bench at all. Other subcommands: 0 ok, 2 usage or I/O error.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <string>
#include <vector>

#include "src/archive/archive.h"
#include "src/archive/envelope.h"
#include "src/archive/trend.h"
#include "src/support/diag.h"
#include "src/support/io.h"
#include "src/support/json.h"

namespace {

using namespace zc;

[[noreturn]] void usage(int code) {
  std::cout <<
      "usage: zcomm_bench <command> [options] [files...]\n"
      "\n"
      "commands:\n"
      "  record     append samples to the archive\n"
      "  trend      per-(bench, metric, host-class) history table\n"
      "  check      gate a fresh sample against its archive baseline\n"
      "\n"
      "common options:\n"
      "  --archive=<path>      the JSON-lines archive file (required)\n"
      "  --bench=<substr>      only records whose bench label matches\n"
      "  --metric=<substr>     only metrics whose name matches\n"
      "  --host-class=<class>  record/check: override the sample's host\n"
      "                        class; trend: only series of this class\n"
      "\n"
      "record:\n"
      "  zcomm_bench record --archive=A [opts] <sample.json>...\n"
      "  --now=<epoch>         timestamp injected into records that carry\n"
      "                        none (default: current time)\n"
      "  --git-sha=<sha>       stamp records that carry none\n"
      "\n"
      "check:\n"
      "  zcomm_bench check --archive=A [opts] <fresh.json>\n"
      "  --band-sigmas=<k>     noise band half-width in robust sigmas\n"
      "                        (default 3)\n"
      "  --rel-floor=<frac>    minimum half-band as a fraction of the\n"
      "                        baseline median (default 0.10)\n"
      "  --scale=<f>           deterministic regression injection: multiply\n"
      "                        the fresh sample's lower-is-better metrics\n"
      "                        (divide higher-is-better) before gating\n"
      "\n"
      "exit status: 0 ok, 1 regression, 2 usage or I/O error,\n"
      "             3 host-class refusal, 4 no baseline (check only)\n";
  std::exit(code);
}

struct Args {
  std::string command;
  std::string archive;
  std::string bench;
  std::string metric;
  std::string host_class;
  std::string git_sha;
  long long now_unix = 0;
  double band_sigmas = 3.0;
  double rel_floor = 0.10;
  double scale = 1.0;
  std::vector<std::string> files;
};

bool take(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage(2);
  Args a;
  a.command = argv[1];
  if (a.command == "--help" || a.command == "-h") usage(0);
  std::string s;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    if (take(arg, "--archive", &a.archive) || take(arg, "--bench", &a.bench) ||
        take(arg, "--metric", &a.metric) || take(arg, "--host-class", &a.host_class) ||
        take(arg, "--git-sha", &a.git_sha)) {
      continue;
    }
    if (take(arg, "--now", &s)) {
      a.now_unix = std::atoll(s.c_str());
      if (a.now_unix <= 0) {
        std::cerr << "zcomm_bench: --now expects a positive epoch second\n";
        std::exit(2);
      }
      continue;
    }
    if (take(arg, "--band-sigmas", &s)) { a.band_sigmas = std::atof(s.c_str()); continue; }
    if (take(arg, "--rel-floor", &s)) { a.rel_floor = std::atof(s.c_str()); continue; }
    if (take(arg, "--scale", &s)) { a.scale = std::atof(s.c_str()); continue; }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "zcomm_bench: unknown option " << arg << "\n";
      usage(2);
    }
    a.files.push_back(arg);
  }
  if (a.archive.empty()) {
    std::cerr << "zcomm_bench: --archive=<path> is required\n";
    usage(2);
  }
  return a;
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Parses one sample file: a single JSON document, or (an archive slice /
/// multi-sample capture) one document per line.
std::vector<json::Value> parse_samples(const std::string& path) {
  const std::string text = io::read_text_file(path);
  try {
    return {json::parse(text)};
  } catch (const Error&) {
    // Fall through to JSON-lines.
  }
  std::vector<json::Value> docs;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    docs.push_back(json::parse(line));  // throws with the real parse error
  }
  if (docs.empty()) throw Error(path + ": no JSON documents found");
  return docs;
}

archive::Envelope ingest_one(const json::Value& doc, const Args& a, long long now) {
  archive::Envelope e = archive::envelope_from_json(doc);
  if (e.unix_time == 0) e.unix_time = now;
  if (e.git_sha.empty()) e.git_sha = a.git_sha;
  if (!a.host_class.empty()) {
    e.host.forced_class = a.host_class;
    e.host.known = true;
  }
  return e;
}

int cmd_record(const Args& a) {
  if (a.files.empty()) {
    std::cerr << "zcomm_bench record: give sample files\n";
    return 2;
  }
  const long long now =
      a.now_unix != 0 ? a.now_unix : static_cast<long long>(std::time(nullptr));
  const archive::Archive store(a.archive);

  // Ingest the whole batch before appending any of it: a file that fails
  // to parse leaves the archive as it was.
  std::vector<archive::Envelope> batch;
  for (const std::string& path : a.files) {
    for (const json::Value& doc : parse_samples(path)) batch.push_back(ingest_one(doc, a, now));
  }
  for (const archive::Envelope& e : batch) {
    store.append(e);
    std::cout << "recorded " << (e.bench.empty() ? e.kind : e.bench) << " ["
              << e.kind << "] host=" << e.host_class() << " metrics="
              << archive::extract_metrics(e).size()
              << (e.legacy ? " (legacy)" : "") << "\n";
  }
  std::cout << batch.size() << " sample(s) -> " << a.archive << "\n";
  return 0;
}

int cmd_trend(const Args& a) {
  int skipped = 0;
  archive::Query q;
  q.bench = a.bench;
  q.host_class = a.host_class;
  const std::vector<archive::Envelope> records =
      archive::Archive(a.archive).select(q, &skipped);
  if (skipped > 0) {
    std::cerr << "zcomm_bench trend: skipped " << skipped << " unparseable line(s)\n";
  }
  const auto series = archive::build_series(records, a.metric);
  if (series.empty()) {
    std::cout << "no matching series in " << a.archive << " (" << records.size()
              << " record(s))\n";
    return 0;
  }
  std::printf("%-28s %-34s %-22s %4s %12s %22s %12s  %s\n", "bench", "metric",
              "host-class", "n", "median", "band", "latest", "trend");
  for (const auto& [key, s] : series) {
    std::vector<double> values;
    values.reserve(s.points.size());
    for (const auto& p : s.points) values.push_back(p.value);
    const archive::TrendStats st =
        archive::trend_stats(values, a.band_sigmas, a.rel_floor);
    const std::string band = "[" + fmt(st.band_low) + ", " + fmt(st.band_high) + "]";
    std::printf("%-28s %-34s %-22s %4d %12s %22s %12s  %s\n", key.bench.c_str(),
                key.metric.c_str(), key.host_class.c_str(), st.n,
                fmt(st.median).c_str(), band.c_str(), fmt(values.back()).c_str(),
                archive::sparkline(values).c_str());
  }
  std::cout << series.size() << " series over " << records.size() << " record(s)\n";
  return 0;
}

int cmd_check(const Args& a) {
  if (a.files.size() != 1) {
    std::cerr << "zcomm_bench check: give exactly one fresh sample file\n";
    return 2;
  }
  const std::vector<json::Value> docs = parse_samples(a.files[0]);
  if (docs.size() != 1) {
    std::cerr << "zcomm_bench check: " << a.files[0]
              << " holds " << docs.size() << " documents; give one sample\n";
    return 2;
  }
  const long long now =
      a.now_unix != 0 ? a.now_unix : static_cast<long long>(std::time(nullptr));
  const archive::Envelope fresh = ingest_one(docs[0], a, now);

  int skipped = 0;
  const std::vector<archive::Envelope> history =
      archive::Archive(a.archive).read_all(&skipped);
  if (skipped > 0) {
    std::cerr << "zcomm_bench check: skipped " << skipped << " unparseable line(s)\n";
  }

  archive::CheckOptions opts;
  opts.band_sigmas = a.band_sigmas;
  opts.rel_floor = a.rel_floor;
  opts.metric_filter = a.metric;
  opts.inject_scale = a.scale;
  const archive::CheckResult r = archive::check_sample(history, fresh, opts);

  std::cout << "check " << (r.bench.empty() ? "(unnamed bench)" : r.bench)
            << " @ host " << r.host_class << " against " << a.archive << "\n";
  for (const archive::MetricVerdict& m : r.metrics) {
    std::cout << "  " << archive::to_string(m.verdict) << "  " << m.metric << " = "
              << fmt(m.value);
    if (m.baseline.n > 0) {
      std::cout << "  baseline median " << fmt(m.baseline.median) << " band ["
                << fmt(m.baseline.band_low) << ", " << fmt(m.baseline.band_high)
                << "] n=" << m.baseline.n << "  delta "
                << fmt(m.delta_fraction() * 100.0) << "%";
    }
    std::cout << "\n";
  }
  if (r.refused > 0 && r.compared == 0) {
    std::cout << "refused: history for this bench exists only under other host"
                 " class(es):";
    for (const std::string& c : r.archive_classes) std::cout << " " << c;
    std::cout << "\n";
  }
  std::cout << "verdict: " << archive::to_string(r.overall()) << " (compared "
            << r.compared << ", regressions " << r.regressions << ", improvements "
            << r.improvements << ", no-baseline " << r.no_baseline << ", refused "
            << r.refused << ")\n";
  return r.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    if (a.command == "record") return cmd_record(a);
    if (a.command == "trend") return cmd_trend(a);
    if (a.command == "check") return cmd_check(a);
  } catch (const zc::Error& e) {
    std::cerr << "zcomm_bench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "zcomm_bench: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "zcomm_bench: unknown command '" << a.command << "'\n";
  usage(2);
}
