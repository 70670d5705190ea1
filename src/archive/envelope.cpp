#include "src/archive/envelope.h"

#include <ctime>
#include <utility>

#include "src/support/diag.h"

namespace zc::archive {

namespace {

using json::Value;

void lift_labels(Envelope& e) {
  if (e.payload.is_object()) {
    if (e.payload.has("schema") && e.payload.at("schema").is_string()) {
      e.kind = e.payload.at("schema").string;
    }
    if (e.payload.has("bench") && e.payload.at("bench").is_string()) {
      e.bench = e.payload.at("bench").string;
    } else if (e.payload.has("benchmark") && e.payload.at("benchmark").is_string()) {
      e.bench = e.payload.at("benchmark").string;  // run-report spelling
    }
  }
  if (e.kind.empty()) e.kind = "unknown";
}

}  // namespace

std::string Envelope::recorded_at_utc() const {
  const std::time_t t = static_cast<std::time_t>(unix_time);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

Value Envelope::to_json() const {
  Value doc = Value::make_object();
  doc["schema"] = Value::make_str(kEnvelopeSchema);
  doc["schema_version"] = Value::make_int(version);
  doc["recorded_at_utc"] = Value::make_str(recorded_at_utc());
  doc["unix_time"] = Value::make_int(unix_time);
  if (!git_sha.empty()) doc["git_sha"] = Value::make_str(git_sha);
  doc["host"] = host.to_json();
  if (!legacy) doc["build"] = build.to_json();
  doc["kind"] = Value::make_str(kind);
  if (!bench.empty()) doc["bench"] = Value::make_str(bench);
  doc["payload"] = payload;
  return doc;
}

Envelope wrap(json::Value payload, long long unix_time, std::string git_sha) {
  Envelope e;
  e.unix_time = unix_time;
  e.git_sha = std::move(git_sha);
  e.host = fingerprint::current_host();
  e.build = fingerprint::current_build();
  e.payload = std::move(payload);
  lift_labels(e);
  return e;
}

Envelope envelope_from_json(const json::Value& doc) {
  Envelope e;
  const bool enveloped = doc.is_object() && doc.has("schema") &&
                         doc.at("schema").is_string() &&
                         doc.at("schema").string == kEnvelopeSchema;
  if (!enveloped) {
    // A bare run report (schema v5+): keep the payload whole and adopt its
    // own "host" fingerprint block. Without one there is no host to gate
    // against, so the document is not a sample.
    if (!(doc.is_object() && doc.has("host") && doc.at("host").is_object() &&
          doc.at("host").has("class"))) {
      throw Error("not a perf sample: neither an envelope nor a payload with a host block");
    }
    e.legacy = true;
    e.payload = doc;
    e.host = fingerprint::Host::from_json(doc.at("host"));
    lift_labels(e);
    return e;
  }
  if (doc.has("schema_version")) e.version = static_cast<int>(doc.at("schema_version").number);
  if (doc.has("unix_time")) e.unix_time = static_cast<long long>(doc.at("unix_time").number);
  if (doc.has("git_sha") && doc.at("git_sha").is_string()) e.git_sha = doc.at("git_sha").string;
  if (doc.has("host")) {
    e.host = fingerprint::Host::from_json(doc.at("host"));
  } else {
    e.host.known = false;
  }
  if (doc.has("build")) {
    e.build = fingerprint::Build::from_json(doc.at("build"));
  } else {
    e.legacy = true;
  }
  if (doc.has("kind") && doc.at("kind").is_string()) e.kind = doc.at("kind").string;
  if (doc.has("bench") && doc.at("bench").is_string()) e.bench = doc.at("bench").string;
  if (doc.has("payload")) e.payload = doc.at("payload");
  lift_labels(e);
  return e;
}

}  // namespace zc::archive
