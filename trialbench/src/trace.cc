#include "trace.h"

#include <cstdio>

#include "util/metrics.h"

namespace trialbench {

int32_t SpanRecorder::Begin(const char* name, uint64_t query_id) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.query_id = query_id;
  s.start_ns = trial::MonotonicNanos();
  spans_.push_back(s);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id) {
  if (id < 0) return;
  spans_[id].end_ns = trial::MonotonicNanos();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, LayerTime> SpanRecorder::Layers(size_t from) const {
  std::vector<uint64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = from; i < spans_.size(); ++i) {
    const uint64_t wall = spans_[i].end_ns - spans_[i].start_ns;
    LayerTime& l = out[spans_[i].name];
    l.total_ns += wall;
    l.self_ns += wall > covered[i] ? wall - covered[i] : 0;
    ++l.count;
  }
  return out;
}

trial::Status SpanRecorder::WriteJson(const std::string& path,
                                      const std::string& meta_json) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return trial::Status::NotFound("cannot open " + path);
  std::map<std::string, int> ids;
  std::vector<const char*> names;
  for (const Span& s : spans_) {
    if (ids.emplace(s.name, static_cast<int>(names.size())).second) {
      names.push_back(s.name);
    }
  }
  std::fprintf(f, "{\"meta\": %s,\n\"names\": [", meta_json.c_str());
  for (size_t i = 0; i < names.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", names[i]);
  }
  std::fprintf(f, "],\n\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s[%d, %llu, %llu, %d, %llu]", i ? ",\n" : "\n",
                 ids[s.name], static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.query_id));
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    return trial::Status::Internal("short write to " + path);
  }
  return trial::Status::OK();
}

}  // namespace trialbench
