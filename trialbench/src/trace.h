// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into the engine
// (parse, eval, first read of the result, consumption, set-up and
// writes); nothing inside the engine is instrumented.  Each span has a
// name, start and end on the engine's monotonic clock, a parent and a
// query id.  Spans stay in memory and are written out once, when the
// run ends.

#ifndef TRIALBENCH_TRACE_H_
#define TRIALBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace trialbench {

struct Span {
  const char* name = "";  ///< static string
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;    ///< index into the recorder, -1 for a root
  uint64_t query_id = 0;  ///< 0 for set-up and write spans
};

/// Per-name totals: wall time, self time (wall minus the time covered
/// by child spans) and the number of spans.
struct LayerTime {
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t count = 0;
};

class SpanRecorder {
 public:
  /// While disabled, Begin returns -1 and reads no clock.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span as a child of the innermost open span.
  int32_t Begin(const char* name, uint64_t query_id);
  /// Closes span `id` (a no-op for -1).  Spans close innermost first.
  void End(int32_t id);

  size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self and total time per span name, over the spans recorded from
  /// index `from` on.
  std::map<std::string, LayerTime> Layers(size_t from = 0) const;

  /// Writes {"meta": <meta_json>, "names": [...], "spans": [[name,
  /// start, end, parent, query], ...]} to `path`.
  trial::Status WriteJson(const std::string& path,
                          const std::string& meta_json) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t query_id)
      : rec_(rec), id_(rec->Begin(name, query_id)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t id_;
};

}  // namespace trialbench

#endif  // TRIALBENCH_TRACE_H_
