#include "api/request.hpp"

#include <cmath>
#include <iomanip>
#include <set>
#include <sstream>

#include "util/parse.hpp"

namespace marioh::api {

namespace {

/// Keys an override may not use: the wire's typed keys (they would not
/// parse back as overrides) and `time_budget_seconds` (shadows `budget`).
constexpr const char* kReservedKeys[] = {
    "method",   "train",    "target", "truth",   "seed",   "budget",
    "deadline", "priority", "client", "retries", "backoff",
    "time_budget_seconds"};

bool IsReservedKey(const std::string& key) {
  for (const char* reserved : kReservedKeys) {
    if (key == reserved) return true;
  }
  return false;
}

/// Enough significant digits that `ParseDouble` recovers the exact bits.
std::string FormatDouble(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

Status CheckNoWhitespace(const std::string& value, const std::string& what) {
  if (value.find_first_of(" \t\r\n\v\f") != std::string::npos) {
    return Status::InvalidArgument(what + " '" + value +
                                   "' contains whitespace and cannot be "
                                   "serialized");
  }
  return Status::Ok();
}

}  // namespace

std::string SerializeReconstructRequest(const ReconstructRequest& request) {
  const ReconstructRequest defaults;
  std::ostringstream out;
  bool first = true;
  auto emit = [&out, &first](const char* key, const std::string& value) {
    if (!first) out << ' ';
    first = false;
    out << key << '=' << value;
  };
  if (request.method != defaults.method) emit("method", request.method);
  if (!request.train_dataset.empty()) emit("train", request.train_dataset);
  if (!request.target_dataset.empty()) {
    emit("target", request.target_dataset);
  }
  if (!request.ground_truth_dataset.empty()) {
    emit("truth", request.ground_truth_dataset);
  }
  if (request.seed != defaults.seed) {
    emit("seed", std::to_string(request.seed));
  }
  if (request.time_budget_seconds != defaults.time_budget_seconds) {
    emit("budget", FormatDouble(request.time_budget_seconds));
  }
  if (request.deadline_seconds != defaults.deadline_seconds) {
    emit("deadline", FormatDouble(request.deadline_seconds));
  }
  if (request.priority != defaults.priority) {
    emit("priority", PriorityName(request.priority));
  }
  if (!request.client_id.empty()) emit("client", request.client_id);
  if (request.retry.max_attempts > 1) {
    emit("retries", std::to_string(request.retry.max_attempts - 1));
  }
  if (request.retry.initial_backoff_seconds !=
      defaults.retry.initial_backoff_seconds) {
    emit("backoff", FormatDouble(request.retry.initial_backoff_seconds));
  }
  for (const auto& [key, value] : request.overrides) emit(key.c_str(), value);
  return out.str();
}

Status ParseReconstructRequest(const std::string& text,
                               ReconstructRequest* request) {
  std::istringstream args(text);
  std::string token;
  std::set<std::string> keys_seen;
  while (args >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      return Status::InvalidArgument("expected key=value, got '" + token +
                                     "'");
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    // A repeated key — typed *or* override — is a typo, not a silent
    // overwrite; the journal replay path depends on this strictness to
    // reject drifted or corrupted accept records loudly.
    if (!keys_seen.insert(key).second) {
      return Status::InvalidArgument("duplicate option '" + key + "'");
    }
    bool bad_value = false;
    if (key == "method") {
      request->method = value;
    } else if (key == "train") {
      request->train_dataset = value;
    } else if (key == "target") {
      request->target_dataset = value;
    } else if (key == "truth") {
      request->ground_truth_dataset = value;
    } else if (key == "seed") {
      std::optional<uint64_t> seed = util::ParseUint64(value);
      bad_value = !seed.has_value();
      if (!bad_value) request->seed = *seed;
    } else if (key == "budget") {
      std::optional<double> budget = util::ParseDouble(value);
      bad_value = !budget.has_value();
      if (!bad_value) request->time_budget_seconds = *budget;
    } else if (key == "deadline") {
      std::optional<double> deadline = util::ParseDouble(value);
      bad_value = !deadline.has_value();
      if (!bad_value) request->deadline_seconds = *deadline;
    } else if (key == "priority") {
      if (!ParsePriority(value, &request->priority)) {
        return Status::InvalidArgument(
            "bad priority '" + value +
            "' (expected batch, normal, or interactive)");
      }
    } else if (key == "client") {
      request->client_id = value;
    } else if (key == "retries") {
      // retries=N grants N retries on top of the first attempt; the total
      // must still fit an int.
      std::optional<int> retries = util::ParseNonNegativeInt(value);
      bad_value = !retries.has_value() || *retries == INT32_MAX;
      if (!bad_value) request->retry.max_attempts = 1 + *retries;
    } else if (key == "backoff") {
      std::optional<double> backoff = util::ParseDouble(value);
      bad_value = !backoff.has_value() || *backoff < 0.0;
      if (!bad_value) request->retry.initial_backoff_seconds = *backoff;
    } else {
      request->overrides.emplace_back(std::move(key), std::move(value));
      continue;
    }
    if (bad_value) {
      return Status::InvalidArgument("bad value '" + value +
                                     "' for option '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ValidateRequestSerializable(const ReconstructRequest& request) {
  if (request.method.empty()) {
    return Status::InvalidArgument(
        "request method is empty and cannot be serialized");
  }
  MARIOH_RETURN_IF_ERROR(CheckNoWhitespace(request.method, "method"));
  MARIOH_RETURN_IF_ERROR(
      CheckNoWhitespace(request.train_dataset, "train dataset"));
  MARIOH_RETURN_IF_ERROR(
      CheckNoWhitespace(request.target_dataset, "target dataset"));
  MARIOH_RETURN_IF_ERROR(CheckNoWhitespace(request.ground_truth_dataset,
                                           "ground truth dataset"));
  MARIOH_RETURN_IF_ERROR(CheckNoWhitespace(request.client_id, "client id"));
  const double backoff = request.retry.initial_backoff_seconds;
  Priority known = Priority::kNormal;
  if (!std::isfinite(request.time_budget_seconds) ||
      !std::isfinite(request.deadline_seconds) || !std::isfinite(backoff) ||
      backoff < 0.0 || request.retry.max_attempts < 1 ||
      !ParsePriority(PriorityName(request.priority), &known)) {
    return Status::InvalidArgument(
        "request needs a finite budget and deadline, a finite non-negative "
        "backoff, max_attempts >= 1 and a known priority to be serialized");
  }
  std::set<std::string> keys_seen;
  for (const auto& [key, value] : request.overrides) {
    if (key.empty() || key.find('=') != std::string::npos) {
      return Status::InvalidArgument("override key '" + key +
                                     "' is empty or contains '=' and "
                                     "cannot be serialized");
    }
    if (IsReservedKey(key)) {
      return Status::InvalidArgument(
          "override key '" + key +
          "' is reserved; set the typed request field instead");
    }
    if (!keys_seen.insert(key).second) {
      return Status::InvalidArgument("duplicate option '" + key + "'");
    }
    MARIOH_RETURN_IF_ERROR(CheckNoWhitespace(key, "override key"));
    if (value.empty()) {
      return Status::InvalidArgument("override '" + key +
                                     "' has an empty value and cannot be "
                                     "serialized");
    }
    MARIOH_RETURN_IF_ERROR(CheckNoWhitespace(value, "override value"));
  }
  return Status::Ok();
}

}  // namespace marioh::api
