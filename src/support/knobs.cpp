#include "jhpc/support/knobs.hpp"

#include <strings.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

#include "jhpc/support/error.hpp"

namespace jhpc {

namespace {

[[noreturn]] void reject(Knob k, std::string_view text, std::string want) {
  throw InvalidArgumentError("$" + std::string(k.row().name) + "='" +
                             std::string(text) + "': want " + want);
}

/// "an integer in [1, 256]", "a number in (0, 1]", ...
std::string range(const KnobRow& row, double hi) {
  char out[96];
  std::snprintf(out, sizeof(out), "%s in %c%.15g, %.15g]",
                row.type == KnobType::kInt ? "an integer" : "a number",
                row.lo_open ? '(' : '[', row.lo, hi);
  return out;
}

/// `text` as a number of type T in the row's range, capped at `hi`.
template <class T>
T number(Knob k, std::string_view text, double hi) {
  const KnobRow& row = k.row();
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  const auto d = static_cast<double>(v);
  if (ec != std::errc() || ptr != end ||
      !(row.lo_open ? d > row.lo : d >= row.lo) || !(d <= hi)) {
    reject(k, text, range(row, hi));
  }
  return v;
}

}  // namespace

bool knob_bool(Knob k, std::string_view text) {
  const std::string v(text);
  for (const char* yes : {"1", "true", "yes", "on"})
    if (strcasecmp(v.c_str(), yes) == 0) return true;
  for (const char* no : {"0", "false", "no", "off"})
    if (strcasecmp(v.c_str(), no) == 0) return false;
  reject(k, text, "1|true|yes|on or 0|false|no|off");
}

std::int64_t knob_int(Knob k, std::string_view text, double max) {
  return number<std::int64_t>(k, text, std::min(k.row().hi, max));
}

double knob_real(Knob k, std::string_view text) {
  return number<double>(k, text, k.row().hi);
}

std::size_t knob_choice(Knob k, std::string_view text) {
  const std::string_view choices = k.row().choices;
  std::size_t index = 0;
  for (std::size_t pos = 0; pos <= choices.size(); ++index) {
    const std::size_t bar = std::min(choices.find('|', pos), choices.size());
    if (choices.substr(pos, bar - pos) == text) return index;
    pos = bar + 1;
  }
  reject(k, text, "one of " + std::string(choices));
}

KnobEnv::KnobEnv() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "JHPC_", 5) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr || eq[1] == '\0') continue;
    const std::string_view name(*e, static_cast<std::size_t>(eq - *e));
    for (std::size_t i = 0; i < kKnobs.size(); ++i)
      if (name == kKnobs[i].name) raw_[i] = eq + 1;
  }
}

}  // namespace jhpc
