#include "src/prof/prof.h"

#include <cmath>
#include <cstring>
#include <iomanip>
#include <sstream>

namespace zc::prof {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Flamegraph frame names must not contain the folded-format separators.
std::string sanitize_frame(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ' ') c = '_';
    if (c == ';') c = ':';
  }
  return out;
}

}  // namespace

/// Per-attached-thread state: an interned span tree plus the open-frame
/// stack. Only its owning thread mutates it (no lock on the span fast
/// path); the profiler reads it when aggregating, which callers do after
/// parallel sections complete.
struct Profiler::ThreadState {
  struct Frame {
    int node = -1;
    const char* name = nullptr;  ///< the caller's literal — stable storage
                                 ///< for TimelineEvent (Node::name strings
                                 ///< relocate when `nodes` grows)
    Clock::time_point start;
  };

  Profiler* owner = nullptr;
  std::vector<Node> nodes;
  std::vector<int> roots;
  std::vector<Frame> stack;
  std::vector<TimelineEvent> timeline;
  long long dropped_timeline = 0;

  int find_or_add_child(int parent, const char* name) {
    const std::vector<int>& siblings = parent < 0 ? roots : nodes[parent].children;
    for (const int c : siblings) {
      // Fast path: instrumentation sites pass string literals, so repeat
      // entries usually share the pointer; fall back to a content compare.
      if (nodes[c].name.c_str() == name || nodes[c].name == name) return c;
    }
    const int id = static_cast<int>(nodes.size());
    Node n;
    n.name = name;
    n.parent = parent;
    nodes.push_back(std::move(n));
    (parent < 0 ? roots : nodes[parent].children).push_back(id);
    return id;
  }
};

namespace {

thread_local Profiler::ThreadState* tl_state = nullptr;

}  // namespace

Profiler::Profiler(std::size_t max_timeline_events)
    : epoch_(Clock::now()), max_timeline_events_(max_timeline_events) {}

Profiler::~Profiler() = default;

Profiler::ThreadState* Profiler::register_thread() {
  const std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<ThreadState>());
  threads_.back()->owner = this;
  return threads_.back().get();
}

Attach::Attach(Profiler* profiler) : prev_(tl_state) {
  tl_state = profiler == nullptr ? nullptr : profiler->register_thread();
}

Attach::~Attach() { tl_state = static_cast<Profiler::ThreadState*>(prev_); }

Span::Span(const char* name) : state_(tl_state) {
  if (state_ == nullptr) return;  // off: no allocation, no clock read
  auto* s = static_cast<Profiler::ThreadState*>(state_);
  const int parent = s->stack.empty() ? -1 : s->stack.back().node;
  const int node = s->find_or_add_child(parent, name);
  s->nodes[node].count += 1;
  s->stack.push_back({node, name, Clock::now()});
}

Span::~Span() {
  if (state_ == nullptr) return;
  auto* s = static_cast<Profiler::ThreadState*>(state_);
  const Clock::time_point end = Clock::now();
  const Profiler::ThreadState::Frame frame = s->stack.back();
  s->stack.pop_back();
  s->nodes[frame.node].total_seconds += seconds_between(frame.start, end);
  if (s->timeline.size() < s->owner->max_timeline_events_) {
    TimelineEvent e;
    e.name = frame.name;
    e.t_begin = seconds_between(s->owner->epoch_, frame.start);
    e.t_end = seconds_between(s->owner->epoch_, end);
    e.depth = static_cast<int>(s->stack.size());
    s->timeline.push_back(e);
  } else {
    s->dropped_timeline += 1;
  }
}

void add_bytes(long long n) {
  Profiler::ThreadState* s = tl_state;
  if (s == nullptr || s->stack.empty()) return;
  s->nodes[s->stack.back().node].bytes += n;
}

bool enabled() { return tl_state != nullptr; }

double Profiler::Tree::self_seconds(int node) const {
  double children_total = 0.0;
  for (const int c : nodes[node].children) children_total += nodes[c].total_seconds;
  return nodes[node].total_seconds - children_total;
}

double Profiler::Tree::wall_seconds() const {
  double total = 0.0;
  for (const int r : roots) total += nodes[r].total_seconds;
  return total;
}

namespace {

/// Merges thread-tree node `src` (with open-frame `extra` time) into the
/// merged tree under `dst_parent` (-1 = a root), combining by name.
void merge_node(const std::vector<Node>& src_nodes, int src, const std::vector<double>& extra,
                Profiler::Tree& out, int dst_parent) {
  std::vector<int>& siblings = dst_parent < 0 ? out.roots : out.nodes[dst_parent].children;
  int dst = -1;
  for (const int c : siblings) {
    if (out.nodes[c].name == src_nodes[src].name) {
      dst = c;
      break;
    }
  }
  if (dst < 0) {
    dst = static_cast<int>(out.nodes.size());
    Node n;
    n.name = src_nodes[src].name;
    n.parent = dst_parent;
    out.nodes.push_back(std::move(n));
    // Re-fetch: out.nodes may have reallocated, invalidating `siblings`.
    (dst_parent < 0 ? out.roots : out.nodes[dst_parent].children).push_back(dst);
  }
  out.nodes[dst].count += src_nodes[src].count;
  out.nodes[dst].total_seconds += src_nodes[src].total_seconds + extra[src];
  out.nodes[dst].bytes += src_nodes[src].bytes;
  for (const int c : src_nodes[src].children) merge_node(src_nodes, c, extra, out, dst);
}

}  // namespace

Profiler::Tree Profiler::tree() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Tree out;
  const Clock::time_point now = Clock::now();
  for (const std::unique_ptr<ThreadState>& ts : threads_) {
    std::vector<double> extra(ts->nodes.size(), 0.0);
    for (const ThreadState::Frame& f : ts->stack) {
      extra[f.node] += seconds_between(f.start, now);
    }
    for (const int r : ts->roots) merge_node(ts->nodes, r, extra, out, -1);
  }
  return out;
}

namespace {

void text_node(const Profiler::Tree& t, int node, int depth, std::ostringstream& os) {
  const Node& n = t.nodes[node];
  std::string name(static_cast<std::size_t>(2 * depth), ' ');
  name += n.name;
  if (name.size() < 36) name.resize(36, ' ');
  os << "  " << name << std::setw(8) << n.count << std::setw(12) << std::fixed
     << std::setprecision(3) << n.total_seconds * 1e3 << std::setw(12)
     << t.self_seconds(node) * 1e3 << std::setw(14) << n.bytes << "\n";
  for (const int c : n.children) text_node(t, c, depth + 1, os);
}

}  // namespace

std::string Profiler::to_text() const {
  const Tree t = tree();
  std::ostringstream os;
  os << "host profile: wall " << std::fixed << std::setprecision(3) << t.wall_seconds() * 1e3
     << " ms, " << t.nodes.size() << " span(s)\n";
  if (t.nodes.empty()) return os.str();
  std::string header = "  span";
  header.resize(38, ' ');
  os << header << "   count    total ms     self ms         bytes\n";
  for (const int r : t.roots) text_node(t, r, 0, os);
  return os.str();
}

namespace {

void folded_node(const Profiler::Tree& t, int node, const std::string& prefix,
                 std::ostringstream& os) {
  const Node& n = t.nodes[node];
  const std::string path =
      prefix.empty() ? sanitize_frame(n.name) : prefix + ";" + sanitize_frame(n.name);
  const long long self_us = std::llround(t.self_seconds(node) * 1e6);
  if (self_us > 0) os << path << " " << self_us << "\n";
  for (const int c : n.children) folded_node(t, c, path, os);
}

}  // namespace

std::string Profiler::to_folded() const {
  const Tree t = tree();
  std::ostringstream os;
  for (const int r : t.roots) folded_node(t, r, "", os);
  return os.str();
}

namespace {

json::Value json_node(const Profiler::Tree& t, int node) {
  const Node& n = t.nodes[node];
  json::Value v = json::Value::make_object();
  v["name"] = json::Value::make_str(n.name);
  v["count"] = json::Value::make_int(n.count);
  v["total_seconds"] = json::Value::make_num(n.total_seconds);
  v["self_seconds"] = json::Value::make_num(t.self_seconds(node));
  v["bytes"] = json::Value::make_int(n.bytes);
  json::Value children = json::Value::make_array();
  for (const int c : n.children) children.push_back(json_node(t, c));
  v["children"] = std::move(children);
  return v;
}

}  // namespace

json::Value Profiler::to_json() const {
  const Tree t = tree();
  json::Value v = json::Value::make_object();
  v["wall_seconds"] = json::Value::make_num(t.wall_seconds());
  json::Value spans = json::Value::make_array();
  for (const int r : t.roots) spans.push_back(json_node(t, r));
  v["spans"] = std::move(spans);
  return v;
}

int Profiler::thread_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

std::vector<TimelineEvent> Profiler::timeline(int thread) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return threads_.at(static_cast<std::size_t>(thread))->timeline;
}

long long Profiler::dropped_timeline_events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  long long dropped = 0;
  for (const std::unique_ptr<ThreadState>& ts : threads_) dropped += ts->dropped_timeline;
  return dropped;
}

}  // namespace zc::prof
