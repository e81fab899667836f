// Host-time spans recorded by the benchmark around its calls into each
// layer of the simulator. Spans stay in memory while the run measures and
// are written out, as Chrome trace-event JSON, when it ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< the called function; a string literal
  double start_s = 0.0;   ///< seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1;        ///< index of the enclosing span, -1 at top level
  std::uint64_t op = 0;   ///< id of the op the span belongs to
  /// Host time of the simulator's cycle loop inside this call, as the
  /// program reports it (RunMetrics / SystemRunMetrics::step_wall_seconds);
  /// 0 for calls that run no cycle loop.
  double loop_s = 0.0;

  double seconds() const { return end_s - start_s; }
};

/// Single-threaded span recorder. begin/end must nest: end closes the most
/// recently begun open span.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  int begin(const char* name, std::uint64_t op);
  void end(int id);

  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tr, const char* name, std::uint64_t op)
      : tr_(tr), id_(tr.begin(name, op)) {}
  ~SpanScope() { tr_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  Span& span() { return tr_.spans()[static_cast<std::size_t>(id_)]; }

 private:
  Tracer& tr_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Write `spans` as a Chrome trace-event file (complete "X" events, one
/// process and thread; open it in chrome://tracing or Perfetto). Returns
/// false when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace perfbench
