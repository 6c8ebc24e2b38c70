#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>

#include "common.hpp"

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<uint64_t> t_open;

uint64_t CurrentParent() { return t_open.empty() ? 0 : t_open.back(); }

}  // namespace

Tracer::Span::Span(Tracer* tracer, std::string name, uint64_t job)
    : tracer_(tracer) {
  record_.name = std::move(name);
  record_.job = job;
  if (tracer_->enabled()) {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    record_.id = tracer_->next_id_++;
  }
  record_.parent = CurrentParent();
  if (record_.id != 0) t_open.push_back(record_.id);
  record_.start = Now();
}

Tracer::Span::~Span() { End(); }

double Tracer::Span::End() {
  if (open_) {
    record_.end = Now();
    open_ = false;
    if (record_.id != 0) {
      t_open.erase(std::find(t_open.begin(), t_open.end(), record_.id));
      tracer_->Push(record_);
    }
  }
  return record_.seconds();
}

void Tracer::Add(const std::string& name, uint64_t job, double start,
                 double end) {
  if (!enabled_) return;
  SpanRecord record;
  record.name = name;
  record.job = job;
  record.parent = CurrentParent();
  record.start = start;
  record.end = end;
  std::lock_guard<std::mutex> lock(mutex_);
  record.id = next_id_++;
  spans_.push_back(std::move(record));
}

void Tracer::Push(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) out.push_back(span.seconds());
  }
  return out;
}

std::map<uint64_t, double> Tracer::SumsByJob(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<uint64_t, double> sums;
  for (const SpanRecord& span : spans_) {
    if (span.name == name && span.job != 0) sums[span.job] += span.seconds();
  }
  return sums;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  out << "{\"spans\":[";
  double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const SpanRecord& span : spans_) origin = std::min(origin, span.start);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"job\":" << s.job
        << ",\"name\":\"" << JsonEscape(s.name)
        << "\",\"start\":" << FormatNumber(s.start - origin)
        << ",\"end\":" << FormatNumber(s.end - origin) << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

}  // namespace perfbench
