#include "src/archive/archive.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/support/diag.h"
#include "src/support/str.h"

namespace zc::archive {

namespace {

using json::Value;

/// Payload members that are configuration or per-run telemetry, not
/// measurements — recursing into them would drown the trend view.
bool skip_block(const std::string& key) {
  static const char* const kSkip[] = {"params",  "options",  "metrics",       "passes",
                                      "host",    "build",    "host_profile",  "timeline",
                                      "blame",   "critical_path", "windows",  "series"};
  for (const char* s : kSkip) {
    if (key == s) return true;
  }
  return false;
}

/// Element label inside an array: the member that names the row.
std::string element_label(const Value& v, std::size_t index) {
  if (v.is_object()) {
    if (v.has("name") && v.at("name").is_string()) return v.at("name").string;
  }
  return std::to_string(index);
}

void walk(const Value& v, const std::string& prefix, std::vector<Measurement>& out) {
  if (v.is_object()) {
    for (const auto& [key, member] : v.object) {
      if (skip_block(key)) continue;
      const std::string path = prefix.empty() ? key : prefix + "." + key;
      if (member.is_number()) {
        const Direction d = direction_for(key);
        if (d != Direction::kNeutral) out.push_back({path, member.number, d});
      } else if (member.is_object() || member.is_array()) {
        walk(member, path, out);
      }
    }
  } else if (v.is_array()) {
    for (std::size_t i = 0; i < v.array.size(); ++i) {
      walk(v.array[i], prefix.empty() ? element_label(v.array[i], i)
                                      : prefix + "." + element_label(v.array[i], i),
           out);
    }
  }
}

}  // namespace

Direction direction_for(const std::string& metric) {
  const auto has = [&](const char* needle) {
    return metric.find(needle) != std::string::npos;
  };
  // Count fields are deterministic outputs worth gating even though their
  // names carry no unit suffix (the paper's Tables 1-4 track them down).
  if (metric == "static_count" || metric == "dynamic_count" ||
      str::ends_with(metric, ".static_count") || str::ends_with(metric, ".dynamic_count")) {
    return Direction::kLowerIsBetter;
  }
  if (has("per_sec") || has("speedup") || has("hit_rate") || has("hit_ratio") ||
      has("overlap_fraction")) {
    return Direction::kHigherIsBetter;
  }
  if (str::ends_with(metric, "_ns") || str::ends_with(metric, "_ms") ||
      str::ends_with(metric, "_s") || str::ends_with(metric, "_seconds")) {
    return Direction::kLowerIsBetter;
  }
  return Direction::kNeutral;
}

std::vector<Measurement> extract_metrics(const Envelope& e) {
  std::vector<Measurement> out;
  walk(e.payload, "", out);
  return out;
}

bool Query::matches(const Envelope& e) const {
  if (!bench.empty() && e.bench.find(bench) == std::string::npos) return false;
  if (!host_class.empty() && e.host_class() != host_class) return false;
  if (since_unix != 0 && e.unix_time < since_unix) return false;
  if (until_unix != 0 && e.unix_time > until_unix) return false;
  return true;
}

void Archive::append(const Envelope& e) const {
  std::ofstream f(path_, std::ios::app | std::ios::binary);
  if (!f) throw Error("archive: cannot open '" + path_ + "': " + std::strerror(errno));
  f << e.to_json().dump(0) << "\n";
  f.flush();
  if (!f) throw Error("archive: short write to '" + path_ + "'");
}

std::vector<Envelope> Archive::read_all(int* skipped) const {
  std::vector<Envelope> out;
  if (skipped != nullptr) *skipped = 0;
  std::ifstream f(path_, std::ios::binary);
  if (!f) return out;  // no history yet — an empty archive, not an error
  std::string line;
  while (std::getline(f, line)) {
    if (str::trim(line).empty()) continue;
    try {
      out.push_back(envelope_from_json(json::parse(line)));
    } catch (const std::exception&) {
      if (skipped != nullptr) ++*skipped;
    }
  }
  return out;
}

std::vector<Envelope> Archive::select(const Query& q, int* skipped) const {
  std::vector<Envelope> all = read_all(skipped);
  std::vector<Envelope> out;
  for (Envelope& e : all) {
    if (q.matches(e)) out.push_back(std::move(e));
  }
  return out;
}

}  // namespace zc::archive
