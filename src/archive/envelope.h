// The perf-archive envelope: a schema'd wrapper that turns any bench
// sample or run report into an archival record. The payload is carried
// verbatim; the envelope adds what the payload alone cannot answer later —
// *when* it was measured (injected UTC timestamp, never sampled inside the
// serializer, so tests and replays are deterministic), *where* (host
// fingerprint: cores, CPU model, page size, sanitizer) and *with what*
// (build fingerprint: compiler, build type), plus an optional git sha.
//
// A bare run report (no envelope) parses as a legacy record: payload
// preserved, host taken from the report's own "host" block, no build block.
#pragma once

#include <string>

#include "src/support/fingerprint.h"
#include "src/support/json.h"

namespace zc::archive {

inline constexpr const char* kEnvelopeSchema = "zcomm-perf-envelope";
inline constexpr int kEnvelopeVersion = 1;

struct Envelope {
  int version = kEnvelopeVersion;
  long long unix_time = 0;      ///< seconds since the epoch, injected by the caller
  std::string git_sha;          ///< "" = not recorded
  bool legacy = false;          ///< a bare payload, recorded without an envelope
  fingerprint::Host host;       ///< host.known == false: no host recorded, never gates
  fingerprint::Build build;     ///< empty strings for legacy records
  std::string kind;             ///< payload "schema" string, or "unknown"
  std::string bench;            ///< payload "bench" label, or "" when absent
  json::Value payload;

  /// The UTC rendering of unix_time, e.g. "2026-08-08T12:00:00Z".
  [[nodiscard]] std::string recorded_at_utc() const;

  [[nodiscard]] std::string host_class() const { return host.host_class(); }

  [[nodiscard]] json::Value to_json() const;
};

/// Wraps a payload in a fresh envelope stamped with this process's host and
/// build fingerprints. `unix_time` is injected (pass std::time(nullptr) for
/// "now"); kind/bench are lifted from the payload's "schema"/"bench"
/// members when present.
Envelope wrap(json::Value payload, long long unix_time, std::string git_sha = "");

/// Parses either an envelope document or a bare payload that carries its
/// own "host" block with a "class" (a v5+ run report), which becomes a
/// legacy record with unix_time 0. Throws zc::Error on any other document.
Envelope envelope_from_json(const json::Value& doc);

}  // namespace zc::archive
