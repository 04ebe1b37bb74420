// A flat string key -> string value property map with typed accessors and a
// line-oriented text serialization. Costing profiles (Section 5 of the paper)
// persist their metadata through this.

#ifndef INTELLISPHERE_UTIL_PROPERTIES_H_
#define INTELLISPHERE_UTIL_PROPERTIES_H_

#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace intellisphere {

/// Ordered key/value properties with "key=value" line serialization.
///
/// Keys may not contain '=' or '\n'; values may not contain '\n'. Numeric
/// getters return InvalidArgument when the stored text does not parse.
class Properties {
 public:
  void SetString(const std::string& key, std::string value);
  void SetDouble(const std::string& key, double value);
  void SetInt(const std::string& key, int64_t value);
  void SetBool(const std::string& key, bool value);
  /// Stores a vector of doubles as a comma-separated value.
  void SetDoubleList(const std::string& key, const std::vector<double>& v);

  bool Contains(const std::string& key) const;
  Result<std::string> GetString(const std::string& key) const;
  /// GetDouble and GetDoubleList accept finite numbers only: NaN and
  /// infinities are InvalidArgument, naming the key.
  Result<double> GetDouble(const std::string& key) const;
  Result<int64_t> GetInt(const std::string& key) const;
  Result<bool> GetBool(const std::string& key) const;
  Result<std::vector<double>> GetDoubleList(const std::string& key) const;

  /// Removes a key; returns whether it existed.
  bool Erase(const std::string& key);

  size_t size() const { return map_.size(); }
  const std::map<std::string, std::string>& map() const { return map_; }

  /// "key=value\n" lines, keys sorted.
  std::string Serialize() const;
  /// Parses the Serialize() format. Blank lines and '#' comments allowed.
  static Result<Properties> Parse(const std::string& text);

 private:
  std::map<std::string, std::string> map_;
};

}  // namespace intellisphere

#endif  // INTELLISPHERE_UTIL_PROPERTIES_H_
