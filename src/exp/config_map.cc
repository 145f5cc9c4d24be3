#include "exp/config_map.h"

#include <charconv>

#include "core/string_util.h"

namespace vfl::exp {

namespace {

core::Status BadValue(std::string_view key, const std::string& value,
                      std::string_view expected) {
  return core::Status::InvalidArgument("config key '" + std::string(key) +
                                       "': expected " + std::string(expected) +
                                       ", got '" + value + "'");
}

bool ParseSizeT(std::string_view text, std::size_t* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end && !text.empty();
}

}  // namespace

core::StatusOr<ConfigMap> ConfigMap::Parse(std::string_view text) {
  ConfigMap map;
  const std::string_view trimmed = core::Trim(text);
  if (trimmed.empty()) return map;
  for (const std::string& field : core::Split(trimmed, ',')) {
    const std::string_view entry = core::Trim(field);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return core::Status::InvalidArgument(
          "config entry '" + std::string(entry) + "' is not key=value");
    }
    const std::string key{core::Trim(entry.substr(0, eq))};
    if (key.empty()) {
      return core::Status::InvalidArgument(
          "config entry '" + std::string(entry) + "' has an empty key");
    }
    map.Set(key, std::string(core::Trim(entry.substr(eq + 1))));
  }
  return map;
}

ConfigMap ConfigMap::MustParse(std::string_view text) {
  core::StatusOr<ConfigMap> map = Parse(text);
  CHECK(map.ok()) << map.status().ToString();
  return *std::move(map);
}

void ConfigMap::Set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

bool ConfigMap::Has(std::string_view key) const {
  return values_.find(key) != values_.end();
}

core::StatusOr<const std::string*> ConfigMap::Raw(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return core::Status::NotFound("config key '" + std::string(key) +
                                  "' absent");
  }
  consumed_[it->first] = true;
  return &it->second;
}

core::StatusOr<std::string> ConfigMap::GetString(std::string_view key,
                                                 std::string fallback) const {
  core::StatusOr<const std::string*> raw = Raw(key);
  if (!raw.ok()) return fallback;
  return **raw;
}

core::StatusOr<double> ConfigMap::GetDouble(std::string_view key,
                                            double fallback) const {
  core::StatusOr<const std::string*> raw = Raw(key);
  if (!raw.ok()) return fallback;
  double value = 0.0;
  if (!core::ParseDouble(**raw, &value)) {
    return BadValue(key, **raw, "a number");
  }
  return value;
}

core::StatusOr<std::size_t> ConfigMap::GetSize(std::string_view key,
                                               std::size_t fallback) const {
  core::StatusOr<const std::string*> raw = Raw(key);
  if (!raw.ok()) return fallback;
  std::size_t value = 0;
  if (!ParseSizeT(**raw, &value)) {
    return BadValue(key, **raw, "a non-negative integer");
  }
  return value;
}

core::StatusOr<std::uint64_t> ConfigMap::GetUint64(std::string_view key,
                                                   std::uint64_t fallback) const {
  core::StatusOr<std::size_t> value = GetSize(key, fallback);
  if (!value.ok()) return value.status();
  return static_cast<std::uint64_t>(*value);
}

core::StatusOr<int> ConfigMap::GetInt(std::string_view key,
                                      int fallback) const {
  core::StatusOr<const std::string*> raw = Raw(key);
  if (!raw.ok()) return fallback;
  int value = 0;
  const std::string& text = **raw;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || ptr != text.data() + text.size() || text.empty()) {
    return BadValue(key, text, "an integer");
  }
  return value;
}

core::StatusOr<bool> ConfigMap::GetBool(std::string_view key,
                                        bool fallback) const {
  core::StatusOr<const std::string*> raw = Raw(key);
  if (!raw.ok()) return fallback;
  const std::string lowered = core::ToLower(**raw);
  if (lowered == "true" || lowered == "1" || lowered == "yes") return true;
  if (lowered == "false" || lowered == "0" || lowered == "no") return false;
  return BadValue(key, **raw, "a boolean (true/false/1/0/yes/no)");
}

core::StatusOr<std::vector<std::size_t>> ConfigMap::GetSizeList(
    std::string_view key, std::vector<std::size_t> fallback) const {
  core::StatusOr<const std::string*> raw = Raw(key);
  if (!raw.ok()) return fallback;
  std::vector<std::size_t> values;
  for (const std::string& field : core::Split(**raw, 'x')) {
    std::size_t value = 0;
    if (!ParseSizeT(core::Trim(field), &value)) {
      return BadValue(key, **raw, "an 'x'-separated size list (e.g. 64x32)");
    }
    values.push_back(value);
  }
  return values;
}

core::Status ConfigMap::ExpectConsumed(std::string_view context) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    const auto it = consumed_.find(key);
    if (it == consumed_.end() || !it->second) unknown.push_back(key);
  }
  if (unknown.empty()) return core::Status::Ok();
  return core::Status::InvalidArgument(
      std::string(context) + ": unknown config key(s): " +
      core::Join(unknown, ", "));
}

std::string ConfigMap::ToString() const {
  std::vector<std::string> fields;
  fields.reserve(values_.size());
  for (const auto& [key, value] : values_) fields.push_back(key + "=" + value);
  return core::Join(fields, ",");
}

ConfigMap ConfigMap::MergedWith(const ConfigMap& overrides) const {
  ConfigMap merged;
  for (const auto& [key, value] : values_) merged.Set(key, value);
  for (const auto& [key, value] : overrides.values_) merged.Set(key, value);
  return merged;
}

std::string_view SpecKind(std::string_view spec) {
  return spec.substr(0, spec.find(':'));
}

core::StatusOr<KindSpec> SplitKindSpec(std::string_view spec) {
  KindSpec parsed;
  const std::string_view kind = SpecKind(spec);
  parsed.kind = std::string(kind);
  if (kind.size() < spec.size()) {
    VFL_ASSIGN_OR_RETURN(parsed.config,
                         ConfigMap::Parse(spec.substr(kind.size() + 1)));
  }
  return parsed;
}

}  // namespace vfl::exp
