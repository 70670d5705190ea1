// report_diff: compares two zcomm run reports (comm_explorer --report, or
// driver::run_report) and flags regressions. "Old" is the baseline, "new"
// is the candidate; a regression is a higher static or dynamic
// communication count, or an execution time more than --time-tolerance
// above the baseline.
//
//   report_diff old.json new.json
//   report_diff --require-strict=static_count baseline.json rr.json
//   report_diff --json old.json new.json > diff.json
//
// Host time is not gated here: one sample per side says nothing about a
// toolchain slowdown. e2ebench/ measures that with repeated samples.
//
// The comparison itself lives in driver::diff_run_reports, so --json emits
// the same verdicts the text path prints (round-trip-tested by
// tests/report_schema_test.cpp).
//
// Exit status: 0 = no regression, 1 = regression (or a --require-strict
// field that failed to strictly improve), 2 = usage or I/O error. Wired
// into ctest to assert rr strictly reduces SWM's static count.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/driver/report.h"
#include "src/support/diag.h"
#include "src/support/io.h"
#include "src/support/json.h"

namespace {

[[noreturn]] void usage(int code) {
  std::cout <<
      "usage: report_diff [options] <old.json> <new.json>\n"
      "  --time-tolerance <frac>      allowed execution-time growth before\n"
      "                               it counts as a regression (default 0.05)\n"
      "  --require-strict=<field>     additionally require new.<field> to be\n"
      "                               strictly lower than old.<field>\n"
      "                               (e.g. static_count, dynamic_count)\n"
      "  --json                       emit the comparison as JSON on stdout\n"
      "                               instead of the text table\n"
      "exit status: 0 ok, 1 regression, 2 usage or I/O error\n";
  std::exit(code);
}

zc::json::Value load_report(const std::string& path) {
  const zc::json::Value doc = zc::json::parse(zc::io::read_text_file(path));
  if (!doc.has("schema") || doc.at("schema").string != "zcomm-run-report") {
    throw zc::Error(path + ": not a zcomm run report (missing/wrong \"schema\")");
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  double time_tolerance = 0.05;
  std::vector<std::string> strict_fields;
  std::vector<std::string> paths;
  bool as_json = false;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") usage(0);
    else if (a == "--time-tolerance") {
      if (i + 1 >= args.size()) usage(2);
      time_tolerance = std::strtod(args[++i].c_str(), nullptr);
    }
    else if (a.rfind("--require-strict=", 0) == 0) {
      strict_fields.push_back(a.substr(std::string("--require-strict=").size()));
    }
    else if (a == "--json") as_json = true;
    else if (a.rfind("--", 0) == 0) {
      std::cerr << "unknown option: " << a << "\n";
      usage(2);
    }
    else paths.push_back(a);
  }
  if (paths.size() != 2) usage(2);

  try {
    const zc::json::Value before = load_report(paths[0]);
    const zc::json::Value after = load_report(paths[1]);
    const zc::json::Value diff =
        zc::driver::diff_run_reports(before, after, time_tolerance, strict_fields);
    const bool failed = diff.at("regressed").boolean;

    if (as_json) {
      std::cout << diff.dump() << "\n";
      return failed ? 1 : 0;
    }

    std::cout << "report_diff: " << paths[0] << " -> " << paths[1] << "\n";
    for (const zc::json::Value& f : diff.at("fields").array) {
      std::cout << "  " << f.at("name").string << ": " << f.at("before").number << " -> "
                << f.at("after").number << " (delta " << f.at("delta").number << ")"
                << (f.at("regressed").boolean ? "  REGRESSION" : "") << "\n";
    }
    for (const zc::json::Value& f : diff.at("strict").array) {
      if (!f.at("comparable").boolean) {
        std::cout << "  require-strict " << f.at("name").string
                  << ": not present in both reports  NOT COMPARABLE\n";
        continue;
      }
      std::cout << "  require-strict " << f.at("name").string << ": " << f.at("before").number
                << " -> " << f.at("after").number
                << (f.at("improved").boolean ? "  improved" : "  NOT STRICTLY IMPROVED")
                << "\n";
    }
    for (const zc::json::Value& b : diff.at("optional_blocks").array) {
      if (b.at("before").boolean != b.at("after").boolean) {
        std::cout << "  note: block '" << b.at("name").string << "' only in the "
                  << (b.at("before").boolean ? "old" : "new") << " report\n";
      }
    }
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "report_diff: " << e.what() << "\n";
    return 2;
  }
}
