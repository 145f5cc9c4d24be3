#ifndef VFLFIA_EXP_CONFIG_MAP_H_
#define VFLFIA_EXP_CONFIG_MAP_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace vfl::exp {

/// String key=value bag with typed, validated accessors — the wire format of
/// every registry factory. Registered components parse their hyper-parameters
/// out of a ConfigMap and then call ExpectConsumed() so that a typo'd or
/// unsupported key surfaces as a clean InvalidArgument instead of being
/// silently ignored.
///
/// Textual form (CLI flags, spec files): "digits=2,stddev=0.05". List values
/// use 'x' as the inner separator so they survive the comma split:
/// "hidden=64x32".
class ConfigMap {
 public:
  ConfigMap() = default;

  /// Parses "k1=v1,k2=v2". Empty input yields an empty map. Returns
  /// InvalidArgument on a field without '=' or an empty key; later duplicate
  /// keys override earlier ones.
  static core::StatusOr<ConfigMap> Parse(std::string_view text);

  /// CHECK-failing Parse for literals in benches/tests.
  static ConfigMap MustParse(std::string_view text);

  /// Inserts/overwrites one entry.
  void Set(std::string key, std::string value);

  bool Has(std::string_view key) const;
  bool empty() const { return values_.empty(); }
  std::size_t size() const { return values_.size(); }

  /// Typed getters: return `fallback` when the key is absent, an
  /// InvalidArgument Status when the value does not parse. Every get marks
  /// the key consumed (for ExpectConsumed).
  core::StatusOr<std::string> GetString(std::string_view key,
                                        std::string fallback) const;
  core::StatusOr<double> GetDouble(std::string_view key,
                                   double fallback) const;
  core::StatusOr<std::size_t> GetSize(std::string_view key,
                                      std::size_t fallback) const;
  core::StatusOr<std::uint64_t> GetUint64(std::string_view key,
                                          std::uint64_t fallback) const;
  core::StatusOr<int> GetInt(std::string_view key, int fallback) const;
  /// Accepts true/false/1/0/yes/no (case-insensitive).
  core::StatusOr<bool> GetBool(std::string_view key, bool fallback) const;
  /// Parses an 'x'-separated size list, e.g. "600x200x100".
  core::StatusOr<std::vector<std::size_t>> GetSizeList(
      std::string_view key, std::vector<std::size_t> fallback) const;

  /// OK when every present key has been read by a typed getter; otherwise an
  /// InvalidArgument naming the leftover (unknown) keys and `context` (the
  /// component that rejected them).
  core::Status ExpectConsumed(std::string_view context) const;

  /// Canonical "k1=v1,k2=v2" form (keys sorted).
  std::string ToString() const;

  /// Union of this map and `overrides` (overrides win). Consumption marks
  /// reset.
  ConfigMap MergedWith(const ConfigMap& overrides) const;

 private:
  core::StatusOr<const std::string*> Raw(std::string_view key) const;

  std::map<std::string, std::string, std::less<>> values_;
  /// Keys read so far; mutable so getters stay const for callers holding a
  /// const spec.
  mutable std::map<std::string, bool, std::less<>> consumed_;
};

/// The registry-kind part of a "KIND[:k=v,...]" spec: "net:port=0,clients=8"
/// -> "net" (a bare kind passes through unchanged).
std::string_view SpecKind(std::string_view spec);

/// A "KIND[:k=v,...]" spec split at its first ':'.
struct KindSpec {
  std::string kind;
  /// The parsed tail; empty for a bare kind.
  ConfigMap config;
};

/// Splits a "KIND[:k=v,...]" spec (channels, sim profiles, alert rules) into
/// its kind and the tail parsed by ConfigMap::Parse, whose error it returns.
core::StatusOr<KindSpec> SplitKindSpec(std::string_view spec);

}  // namespace vfl::exp

#endif  // VFLFIA_EXP_CONFIG_MAP_H_
