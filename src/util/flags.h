#ifndef SEQFM_UTIL_FLAGS_H_
#define SEQFM_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"

namespace seqfm {

/// \brief Minimal command-line flag parser for the bench/example binaries.
///
/// Accepts "--name=value" and bare "--name" (boolean true). Unrecognized
/// positional arguments are collected in positional(). A bare flag read as a
/// string is an error: "--json" must not silently become the path "true".
class FlagParser {
 public:
  /// Parses argv; returns InvalidArgument on malformed flags.
  Status Parse(int argc, const char* const* argv);

  /// True if --name was supplied.
  bool Has(const std::string& name) const;

  /// Typed getters with defaults. GetString aborts with an error naming the
  /// flag when it was given in the bare form (no "=value").
  std::string GetString(const std::string& name, const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of every flag that was supplied, sorted. Lets binaries reject
  /// unknown flags instead of silently ignoring a typo.
  std::vector<std::string> Keys() const;

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> bare_;  // flags given as "--name" without a value
  std::vector<std::string> positional_;
};

}  // namespace seqfm

#endif  // SEQFM_UTIL_FLAGS_H_
