#include "util/flags.h"

#include <cerrno>
#include <cstdlib>

#include "util/logging.h"

namespace seqfm {

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    if (arg.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
      bare_.insert(arg);
    } else {
      std::string name = arg.substr(0, eq);
      if (name.empty()) {
        return Status::InvalidArgument("flag with empty name: --" + arg);
      }
      values_[name] = arg.substr(eq + 1);
      bare_.erase(name);
    }
  }
  return Status::OK();
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::vector<std::string> FlagParser::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [name, value] : values_) {
    (void)value;
    keys.push_back(name);  // std::map iterates in sorted order
  }
  return keys;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  SEQFM_CHECK(bare_.count(name) == 0)
      << "flag --" << name << " requires a value (--" << name << "=...)";
  return it->second;
}

int64_t FlagParser::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& text = it->second;
  // strtoll with a null endptr silently accepts trailing garbage ("4abc")
  // and clamps overflow; validate the full token and fall back to the
  // default on any malformed value, matching the SEQFM_THREADS policy.
  errno = 0;
  char* end = nullptr;
  const int64_t value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    SEQFM_LOG(Warning) << "flag --" << name << "=" << text
                       << " is not a valid integer; using default " << def;
    return def;
  }
  return value;
}

double FlagParser::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    SEQFM_LOG(Warning) << "flag --" << name << "=" << text
                       << " is not a valid number; using default " << def;
    return def;
  }
  return value;
}

bool FlagParser::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0";
}

}  // namespace seqfm
