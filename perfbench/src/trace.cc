#include "trace.h"

#include <cstdio>
#include <cstring>
#include <memory>

namespace perfbench {

std::int32_t Tracer::Begin(const char* name, std::uint64_t query_id) {
  Span span;
  span.name = name;
  span.parent = open_;
  span.query_id = query_id;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::End(std::int32_t id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = NowNs();
  open_ = span.parent;
}

std::vector<double> Tracer::PerQueryMs(const char* name,
                                       std::uint64_t queries) const {
  std::vector<std::int64_t> total(queries + 1, 0);
  for (const Span& span : spans_) {
    if (span.query_id <= queries && std::strcmp(span.name, name) == 0) {
      total[span.query_id] += span.end_ns - span.start_ns;
    }
  }
  std::vector<double> out(total.size());
  for (std::size_t q = 0; q < total.size(); ++q) {
    out[q] = static_cast<double>(total[q]) / 1e6;
  }
  return out;
}

std::vector<double> Tracer::DurationsMs(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

skypref::Status Tracer::WriteChromeTrace(const std::string& path,
                                         std::uint64_t max_query_id) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return skypref::Status::IOError("cannot open " + path);
  std::fputs("{\"traceEvents\": [\n", file.get());
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.query_id > max_query_id) continue;
    std::fprintf(file.get(),
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"query\": %llu}}",
                 first ? "" : ",\n", span.name,
                 static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 span.parent, static_cast<unsigned long long>(span.query_id));
    first = false;
  }
  std::fputs("\n]}\n", file.get());
  return skypref::Status::OK();
}

}  // namespace perfbench
