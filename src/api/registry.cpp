#include "api/registry.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace marioh::api {
namespace {

/// Renders "a, b, c" from a sorted name list.
std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

}  // namespace

MethodRegistry::MethodRegistry(std::vector<MethodEntry> rows) {
  for (MethodEntry& row : rows) {
    MARIOH_CHECK(!row.info.name.empty());
    MARIOH_CHECK(row.factory != nullptr);
    const std::string name = row.info.name;
    if (!entries_.try_emplace(name, std::move(row)).second) {
      util::CheckFailed(__FILE__, __LINE__,
                        "duplicate method name '" + name + "'");
    }
  }
}

Status MethodRegistry::UnknownMethod(const std::string& name) const {
  return Status::NotFound("unknown method '" + name +
                          "'; known methods: " + JoinNames(Names()));
}

StatusOr<std::unique_ptr<Reconstructor>> MethodRegistry::Create(
    const std::string& name, const MethodConfig& config) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return UnknownMethod(name);
  StatusOr<std::unique_ptr<Reconstructor>> method = it->second.factory(config);
  if (!method.ok()) {
    return Status(method.status().code(),
                  name + ": " + method.status().message());
  }
  return method;
}

StatusOr<MethodInfo> MethodRegistry::Info(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return UnknownMethod(name);
  return it->second.info;
}

bool MethodRegistry::Contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

std::vector<std::string> MethodRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) names.push_back(key);
  return names;  // std::map iteration is already sorted
}

std::vector<MethodInfo> MethodRegistry::Methods() const {
  std::vector<MethodInfo> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(entry.info);
  return out;
}

namespace {

std::vector<std::string> RosterByOrder(int MethodInfo::*order_field) {
  std::vector<MethodInfo> methods = MethodRegistry::Global().Methods();
  std::vector<const MethodInfo*> listed;
  for (const MethodInfo& m : methods) {
    if (m.*order_field >= 0) listed.push_back(&m);
  }
  std::sort(listed.begin(), listed.end(),
            [order_field](const MethodInfo* a, const MethodInfo* b) {
              return a->*order_field < b->*order_field;
            });
  std::vector<std::string> names;
  names.reserve(listed.size());
  for (const MethodInfo* m : listed) names.push_back(m->name);
  return names;
}

}  // namespace

std::vector<std::string> Table2Roster() {
  return RosterByOrder(&MethodInfo::table2_order);
}

std::vector<std::string> Table3Roster() {
  return RosterByOrder(&MethodInfo::table3_order);
}

std::unique_ptr<Reconstructor> MustCreateMethod(const std::string& name,
                                                uint64_t seed) {
  MethodConfig config;
  config.seed = seed;
  return ValueOrDie(MethodRegistry::Global().Create(name, config),
                    __FILE__, __LINE__);
}

OverrideReader::OverrideReader(const MethodConfig& config)
    : config_(config), consumed_(config.overrides.size(), false) {}

const std::string* OverrideReader::Find(const std::string& key) {
  known_keys_.push_back(key);
  const std::string* value = nullptr;
  for (size_t i = 0; i < config_.overrides.size(); ++i) {
    if (config_.overrides[i].first == key) {
      consumed_[i] = true;
      value = &config_.overrides[i].second;  // last assignment wins
    }
  }
  return value;
}

void OverrideReader::BadValue(const std::string& key,
                              const std::string& value) {
  if (first_error_.empty()) {
    first_error_ = "bad value '" + value + "' for option '" + key + "'";
  }
}

void OverrideReader::Get(const std::string& key, double* out) {
  const std::string* value = Find(key);
  if (value == nullptr) return;
  if (std::optional<double> parsed = util::ParseDouble(*value)) {
    *out = *parsed;
  } else {
    BadValue(key, *value);
  }
}

namespace {

template <typename T>
bool ParseUnsigned(const std::string& text, T* out) {
  std::optional<uint64_t> parsed = util::ParseUint64(text);
  if (!parsed.has_value() || *parsed > std::numeric_limits<T>::max()) {
    return false;
  }
  *out = static_cast<T>(*parsed);
  return true;
}

}  // namespace

void OverrideReader::Get(const std::string& key, unsigned long* out) {
  const std::string* value = Find(key);
  if (value != nullptr && !ParseUnsigned(*value, out)) BadValue(key, *value);
}
void OverrideReader::Get(const std::string& key, unsigned long long* out) {
  const std::string* value = Find(key);
  if (value != nullptr && !ParseUnsigned(*value, out)) BadValue(key, *value);
}

Status OverrideReader::Finish() const {
  if (!first_error_.empty()) return Status::InvalidArgument(first_error_);
  for (size_t i = 0; i < consumed_.size(); ++i) {
    if (!consumed_[i]) {
      return Status::InvalidArgument(
          "unknown option '" + config_.overrides[i].first +
          "'; supported options: " +
          (known_keys_.empty() ? std::string("none")
                               : JoinNames(known_keys_)));
    }
  }
  return Status::Ok();
}

}  // namespace marioh::api
