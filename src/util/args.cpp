#include "util/args.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace sas {

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      std::string key = token.substr(2);
      std::string value;
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        value = key.substr(eq + 1);
        key = key.substr(0, eq);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      named_[key] = value;
    } else {
      positional_.push_back(std::move(token));
    }
  }
}

bool ArgParser::has(const std::string& name) const { return named_.count(name) > 0; }

std::vector<std::string> ArgParser::unknown_names(
    std::span<const std::string_view> known) const {
  std::vector<std::string> unknown;
  for (const auto& entry : named_) {
    if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
      unknown.push_back(entry.first);
    }
  }
  return unknown;
}

std::string ArgParser::get_string(const std::string& name, const std::string& fallback) const {
  const auto it = named_.find(name);
  return it == named_.end() ? fallback : it->second;
}

std::int64_t ArgParser::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end() || it->second.empty()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end() || it->second.empty()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  if (it->second.empty()) return true;  // bare --flag
  return it->second == "1" || it->second == "true" || it->second == "yes" ||
         it->second == "on";
}

}  // namespace sas
