#include "util/properties.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

namespace intellisphere {

namespace {

std::string DoubleToText(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Parses all of `text` as a finite double. strtod also accepts "nan" and
/// "inf", which no key takes and a range check written with `<` lets
/// through, so they are rejected here.
bool ParseFiniteDouble(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && std::isfinite(*value);
}

}  // namespace

void Properties::SetString(const std::string& key, std::string value) {
  map_[key] = std::move(value);
}

void Properties::SetDouble(const std::string& key, double value) {
  map_[key] = DoubleToText(value);
}

void Properties::SetInt(const std::string& key, int64_t value) {
  map_[key] = std::to_string(value);
}

void Properties::SetBool(const std::string& key, bool value) {
  map_[key] = value ? "true" : "false";
}

void Properties::SetDoubleList(const std::string& key,
                               const std::vector<double>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += DoubleToText(v[i]);
  }
  map_[key] = std::move(out);
}

bool Properties::Contains(const std::string& key) const {
  return map_.count(key) > 0;
}

Result<std::string> Properties::GetString(const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return Status::NotFound("property '" + key + "'");
  return it->second;
}

Result<double> Properties::GetDouble(const std::string& key) const {
  ISPHERE_ASSIGN_OR_RETURN(std::string text, GetString(key));
  double v;
  if (!ParseFiniteDouble(text, &v)) {
    return Status::InvalidArgument("property '" + key +
                                   "' is not a finite double: " + text);
  }
  return v;
}

Result<int64_t> Properties::GetInt(const std::string& key) const {
  ISPHERE_ASSIGN_OR_RETURN(std::string text, GetString(key));
  char* end = nullptr;
  int64_t v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("property '" + key + "' is not an int: " +
                                   text);
  }
  return v;
}

Result<bool> Properties::GetBool(const std::string& key) const {
  ISPHERE_ASSIGN_OR_RETURN(std::string text, GetString(key));
  if (text == "true") return true;
  if (text == "false") return false;
  return Status::InvalidArgument("property '" + key + "' is not a bool: " +
                                 text);
}

Result<std::vector<double>> Properties::GetDoubleList(
    const std::string& key) const {
  ISPHERE_ASSIGN_OR_RETURN(std::string text, GetString(key));
  std::vector<double> out;
  if (text.empty()) return out;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    std::string tok = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    double v;
    if (!ParseFiniteDouble(tok, &v)) {
      return Status::InvalidArgument(
          "property '" + key + "' has an element that is not a finite "
          "double: " + tok);
    }
    out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

bool Properties::Erase(const std::string& key) { return map_.erase(key) > 0; }

std::string Properties::Serialize() const {
  std::string out;
  for (const auto& [k, v] : map_) {
    out += k;
    out += '=';
    out += v;
    out += '\n';
  }
  return out;
}

Result<Properties> Properties::Parse(const std::string& text) {
  Properties p;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     " has no '=': " + line);
    }
    std::string key = line.substr(0, eq);
    if (key.empty()) {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     " has an empty key");
    }
    p.map_[key] = line.substr(eq + 1);
  }
  return p;
}

}  // namespace intellisphere
