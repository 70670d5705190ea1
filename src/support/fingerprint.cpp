#include "src/support/fingerprint.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#include "src/support/str.h"

#ifndef ZC_BUILD_TYPE_STR
#define ZC_BUILD_TYPE_STR ""
#endif
#ifndef ZC_SANITIZE_STR
#define ZC_SANITIZE_STR ""
#endif

namespace zc::fingerprint {

namespace {

using json::Value;

/// First "model name" line of /proc/cpuinfo; "" where procfs is missing
/// (the fingerprint stays honest rather than inventing a model).
std::string read_cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "";
  std::string model;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) continue;
    model = std::string(str::trim(colon + 1));
    break;
  }
  std::fclose(f);
  return model;
}

/// Lower-cased alnum slug: runs of anything else collapse to one '-'.
std::string slug(const std::string& text) {
  std::string out;
  bool dash = false;
  for (const char c : text) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out += c;
      dash = false;
    } else if (c >= 'A' && c <= 'Z') {
      out += static_cast<char>(c - 'A' + 'a');
      dash = false;
    } else if (!out.empty() && !dash) {
      out += '-';
      dash = true;
    }
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out;
}

std::string compiler_id() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." + std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string get_str(const Value& v, const char* key) {
  return v.has(key) && v.at(key).is_string() ? v.at(key).string : "";
}

}  // namespace

std::string Host::host_class() const {
  if (!forced_class.empty()) return forced_class;
  if (!known) return "unknown";
  std::string cls = cpu_model.empty() ? "unknown-cpu" : slug(cpu_model);
  cls += "/" + std::to_string(cores) + "c";
  if (!sanitize.empty()) cls += "/" + sanitize;
  return cls;
}

Value Host::to_json() const {
  Value v = Value::make_object();
  if (!known) {
    v["class"] = Value::make_str("unknown");
    return v;
  }
  v["class"] = Value::make_str(host_class());
  v["cores"] = Value::make_int(cores);
  v["cpu_model"] = Value::make_str(cpu_model);
  v["page_size"] = Value::make_int(page_size);
  v["sanitize"] = Value::make_str(sanitize);
  return v;
}

Host Host::from_json(const Value& v) {
  Host h;
  const std::string cls = get_str(v, "class");
  if (!v.has("cores")) {
    // A bare/legacy host block: class only (typically "unknown").
    h.known = false;
    if (!cls.empty() && cls != "unknown") h.forced_class = cls;
    return h;
  }
  h.cores = static_cast<int>(v.at("cores").number);
  h.cpu_model = get_str(v, "cpu_model");
  h.page_size = v.has("page_size") ? static_cast<long long>(v.at("page_size").number) : 0;
  h.sanitize = get_str(v, "sanitize");
  // Preserve a forced class across serialization: if the recorded class is
  // not what the fields reproduce, the class member wins (it is the
  // comparison key, and overrides exist precisely to pin it).
  if (!cls.empty() && cls != h.host_class()) h.forced_class = cls;
  return h;
}

Value Build::to_json() const {
  Value v = Value::make_object();
  v["compiler"] = Value::make_str(compiler);
  v["compiler_version"] = Value::make_str(compiler_version);
  v["build_type"] = Value::make_str(build_type);
  v["sanitize"] = Value::make_str(sanitize);
  v["version"] = Value::make_str(kZcommVersion);
  return v;
}

Build Build::from_json(const Value& v) {
  Build b;
  b.compiler = get_str(v, "compiler");
  b.compiler_version = get_str(v, "compiler_version");
  b.build_type = get_str(v, "build_type");
  b.sanitize = get_str(v, "sanitize");
  return b;
}

const Host& current_host() {
  static const Host host = [] {
    Host h;
    h.cores = static_cast<int>(std::thread::hardware_concurrency());
    h.cpu_model = read_cpu_model();
    h.page_size = ::sysconf(_SC_PAGESIZE);
    h.sanitize = ZC_SANITIZE_STR;
    return h;
  }();
  return host;
}

const Build& current_build() {
  static const Build build = [] {
    Build b;
    b.compiler = compiler_id();
#ifdef __VERSION__
    b.compiler_version = __VERSION__;
#endif
    b.build_type = ZC_BUILD_TYPE_STR;
    b.sanitize = ZC_SANITIZE_STR;
    return b;
  }();
  return build;
}

}  // namespace zc::fingerprint
