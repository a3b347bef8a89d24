#include "src/service/event_log.h"

#include "src/base/strings.h"

namespace hwprof {
namespace service {

// The log only ever carries identifiers and key=value detail text, but a
// tenant name is caller-supplied — the strings are JSON-escaped so a hostile
// name cannot break the line format.
std::string FormatLogEventJson(const LogEvent& event) {
  std::string out = StrFormat("{\"seq\":%llu,\"t_ns\":%llu,\"ingest\":%llu,\"tenant\":",
                              static_cast<unsigned long long>(event.seq),
                              static_cast<unsigned long long>(event.t_ns),
                              static_cast<unsigned long long>(event.ingest_id));
  AppendJsonString(event.tenant, &out);
  out += ",\"stage\":";
  AppendJsonString(event.stage, &out);
  out += ",\"detail\":";
  AppendJsonString(event.detail, &out);
  out += "}";
  return out;
}

EventLog::EventLog(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

std::uint64_t EventLog::Append(std::uint64_t t_ns, std::uint64_t ingest_id,
                               const std::string& tenant,
                               const std::string& stage,
                               const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  LogEvent event;
  event.seq = next_seq_++;
  event.t_ns = t_ns;
  event.ingest_id = ingest_id;
  event.tenant = tenant;
  event.stage = stage;
  event.detail = detail;
  ring_.push_back(std::move(event));
  while (ring_.size() > capacity_) {
    ring_.pop_front();
  }
  return next_seq_ - 1;
}

std::vector<LogEvent> EventLog::Tail(std::size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t take = (n == 0 || n > ring_.size()) ? ring_.size() : n;
  std::vector<LogEvent> out;
  out.reserve(take);
  for (std::size_t i = ring_.size() - take; i < ring_.size(); ++i) {
    out.push_back(ring_[i]);
  }
  return out;
}

std::vector<LogEvent> EventLog::ForIngest(std::uint64_t ingest_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LogEvent> out;
  for (const LogEvent& e : ring_) {
    if (e.ingest_id == ingest_id) {
      out.push_back(e);
    }
  }
  return out;
}

std::size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t EventLog::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

}  // namespace service
}  // namespace hwprof
