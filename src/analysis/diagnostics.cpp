#include "analysis/diagnostics.hpp"

#include <sstream>

namespace apim::analysis {

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* to_string(Severity s) noexcept {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::size_t Report::count(Severity s) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics_)
    if (d.severity == s) ++n;
  return n;
}

std::string Report::format() const {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics_) {
    if (d.line > 0)
      out << "line " << d.line << ": ";
    else if (d.pc >= 0)
      out << "pc " << d.pc << ": ";
    out << to_string(d.severity) << " [" << d.rule << "]: " << d.message;
    if (!d.hint.empty()) out << " (hint: " << d.hint << ")";
    out << '\n';
  }
  return out.str();
}

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : diagnostics_) {
    if (!first) out << ',';
    first = false;
    out << "{\"severity\":\"" << to_string(d.severity) << "\",\"rule\":\""
        << json_escape(d.rule) << "\",\"line\":" << d.line
        << ",\"pc\":" << d.pc << ",\"message\":\"" << json_escape(d.message)
        << "\"";
    if (!d.hint.empty()) out << ",\"hint\":\"" << json_escape(d.hint) << "\"";
    out << '}';
  }
  out << "],\"errors\":" << count(Severity::kError)
      << ",\"warnings\":" << count(Severity::kWarning) << '}';
  return out.str();
}

}  // namespace apim::analysis
