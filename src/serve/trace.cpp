#include "serve/trace.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace apim::serve::trace {

namespace {

struct KindName {
  EventKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {EventKind::kAdmit, "admit"},
    {EventKind::kBatchSeal, "batch-seal"},
    {EventKind::kDispatch, "dispatch"},
    {EventKind::kComplete, "complete"},
    {EventKind::kAbort, "abort"},
    {EventKind::kServe, "serve"},
    {EventKind::kReject, "reject"},
    {EventKind::kExpire, "expire"},
    {EventKind::kInvalid, "invalid"},
    {EventKind::kCreditGrant, "credit-grant"},
    {EventKind::kCreditSpend, "credit-spend"},
    {EventKind::kCreditRefund, "credit-refund"},
    {EventKind::kQosEscalate, "qos-escalate"},
    {EventKind::kRelocate, "relocate"},
    {EventKind::kHealth, "health"},
    {EventKind::kScrub, "scrub"},
    {EventKind::kClusterAdmit, "cluster-admit"},
    {EventKind::kForward, "forward"},
    {EventKind::kResponseLeg, "response-leg"},
    {EventKind::kMigrationStart, "migration-start"},
    {EventKind::kMigrationCommit, "migration-commit"},
};

/// %.17g round-trips every finite IEEE-754 double exactly.
std::string format_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void put_u64(std::ostringstream& os, const char* key, std::uint64_t value) {
  if (value != 0) os << ' ' << key << '=' << value;
}

void put_i64(std::ostringstream& os, const char* key, std::int64_t value) {
  if (value != -1) os << ' ' << key << '=' << value;
}

void put_flag(std::ostringstream& os, const char* key, bool value) {
  if (value) os << ' ' << key << "=1";
}

struct Token {
  std::string_view key;
  std::string_view value;
};

/// Split "k=v" tokens off a whitespace-separated record body.
bool next_token(std::string_view& rest, Token* out) {
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  if (rest.empty()) return false;
  const std::size_t end = rest.find(' ');
  const std::string_view tok =
      end == std::string_view::npos ? rest : rest.substr(0, end);
  rest.remove_prefix(tok.size());
  const std::size_t eq = tok.find('=');
  if (eq == std::string_view::npos) {
    out->key = tok;
    out->value = {};
  } else {
    out->key = tok.substr(0, eq);
    out->value = tok.substr(eq + 1);
  }
  return true;
}

/// Scan all of `v` into `*out`: the whole token must be a decimal number
/// that fits T, with a '-' sign only for signed T. A bool reads as any
/// unsigned number, nonzero for true.
template <class T>
bool scan(std::string_view v, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    std::uint64_t x = 0;
    if (!scan(v, &x)) return false;
    *out = x != 0;
    return true;
  } else {
    T x{};
    const char* const end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, x);
    if (ec != std::errc{} || ptr != end) return false;
    *out = x;
    return true;
  }
}

/// Scan a comma-separated list of request ids; no item may be empty.
bool scan_members(std::string_view v, std::vector<std::uint64_t>* out) {
  for (;;) {
    const std::size_t comma = v.find(',');
    std::uint64_t id = 0;
    if (!scan(v.substr(0, comma), &id)) return false;
    out->push_back(id);
    if (comma == std::string_view::npos) return true;
    v.remove_prefix(comma + 1);
  }
}

}  // namespace

const char* to_string(EventKind kind) noexcept {
  for (const KindName& k : kKindNames)
    if (k.kind == kind) return k.name;
  return "unknown";
}

bool kind_from_string(const std::string& name, EventKind* out) {
  for (const KindName& k : kKindNames) {
    if (name == k.name) {
      *out = k.kind;
      return true;
    }
  }
  return false;
}

std::string EventLog::serialize() const {
  std::ostringstream os;
  os << "apim-trace v1\n";
  os << "meta streams=" << meta.streams << " lanes=" << meta.lanes
     << " queue_capacity=" << meta.queue_capacity
     << " fair_share=" << (meta.fair_share ? 1 : 0)
     << " quantum=" << meta.quantum_ops
     << " default_weight=" << meta.default_weight
     << " health=" << (meta.health ? 1 : 0) << " chips=" << meta.chips
     << " shards=" << meta.shards
     << " topology=" << static_cast<unsigned>(meta.topology)
     << " hop_latency=" << meta.hop_latency_cycles
     << " link_bits=" << meta.link_bits
     << " pj_per_bit_hop=" << format_double(meta.pj_per_bit_hop)
     << " shard_bits=" << meta.shard_bits
     << " overflowed=" << (overflowed_ ? 1 : 0) << '\n';
  for (const auto& [app, weight] : meta.weights)
    os << "weight app=" << app << " w=" << weight << '\n';
  for (const Event& e : events_) {
    os << "event k=" << to_string(e.kind) << " t=" << e.at;
    put_i64(os, "chip", e.chip);
    put_i64(os, "req", e.req);
    if (!e.app.empty()) os << " app=" << e.app;
    put_i64(os, "domain", e.domain);
    put_u64(os, "op", e.op);
    put_u64(os, "width", e.width);
    put_u64(os, "relax", e.relax);
    put_u64(os, "policy", e.policy);
    put_u64(os, "ops", e.ops);
    if (!e.members.empty()) {
      os << " members=";
      for (std::size_t i = 0; i < e.members.size(); ++i) {
        if (i != 0) os << ',';
        os << e.members[i];
      }
    }
    put_u64(os, "amount", e.amount);
    put_u64(os, "deficit", e.deficit_after);
    put_flag(os, "idle", e.idle_reset);
    put_u64(os, "depth", e.queue_depth);
    put_u64(os, "cap", e.capacity);
    put_u64(os, "state_from", e.state_from);
    put_u64(os, "state_to", e.state_to);
    put_flag(os, "dead", e.dead);
    put_flag(os, "clean", e.clean);
    put_flag(os, "offline", e.offline);
    put_u64(os, "stuck", e.stuck);
    put_u64(os, "repaired", e.repaired);
    put_u64(os, "det", e.detections);
    put_u64(os, "esc", e.escalations);
    put_flag(os, "scrub", e.scrub);
    put_i64(os, "from", e.from);
    put_i64(os, "to", e.to);
    put_u64(os, "hops", e.hops);
    put_u64(os, "bits", e.bits);
    put_u64(os, "cycles", e.cycles);
    if (e.energy_pj != 0.0) os << " pj=" << format_double(e.energy_pj);
    put_i64(os, "shard", e.shard);
    os << '\n';
  }
  return os.str();
}

bool EventLog::parse(const std::string& text, EventLog* out,
                     std::string* error) {
  out->clear();
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + what;
    }
    return false;
  };
  auto bad_value = [&](const Token& t) {
    std::string what = "bad value '";
    what += t.value;
    what += "' for key '";
    what += t.key;
    what += '\'';
    return fail(what);
  };
  if (!std::getline(is, line)) return fail("empty document");
  ++line_no;
  if (line != "apim-trace v1") return fail("bad header (want 'apim-trace v1')");
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string_view rest = line;
    Token tok;
    if (!next_token(rest, &tok)) continue;
    if (tok.key == "meta") {
      Meta& m = out->meta;
      while (next_token(rest, &tok)) {
        const std::string_view v = tok.value;
        bool ok = true;
        if (tok.key == "streams") ok = scan(v, &m.streams);
        else if (tok.key == "lanes") ok = scan(v, &m.lanes);
        else if (tok.key == "queue_capacity") ok = scan(v, &m.queue_capacity);
        else if (tok.key == "fair_share") ok = scan(v, &m.fair_share);
        else if (tok.key == "quantum") ok = scan(v, &m.quantum_ops);
        else if (tok.key == "default_weight") ok = scan(v, &m.default_weight);
        else if (tok.key == "health") ok = scan(v, &m.health);
        else if (tok.key == "chips") ok = scan(v, &m.chips);
        else if (tok.key == "shards") ok = scan(v, &m.shards);
        else if (tok.key == "topology") ok = scan(v, &m.topology);
        else if (tok.key == "hop_latency") ok = scan(v, &m.hop_latency_cycles);
        else if (tok.key == "link_bits") ok = scan(v, &m.link_bits);
        else if (tok.key == "pj_per_bit_hop") ok = scan(v, &m.pj_per_bit_hop);
        else if (tok.key == "shard_bits") ok = scan(v, &m.shard_bits);
        else if (tok.key == "overflowed") ok = scan(v, &out->overflowed_);
        else
          return fail("unknown meta key '" + std::string(tok.key) + "'");
        if (!ok) return bad_value(tok);
      }
    } else if (tok.key == "weight") {
      std::string app;
      std::uint64_t w = 0;
      while (next_token(rest, &tok)) {
        if (tok.key == "app") app = std::string(tok.value);
        else if (tok.key == "w") {
          if (!scan(tok.value, &w)) return bad_value(tok);
        } else {
          return fail("unknown weight key '" + std::string(tok.key) + "'");
        }
      }
      if (app.empty()) return fail("weight record without app");
      out->meta.weights[app] = w;
    } else if (tok.key == "event") {
      Event e;
      bool have_kind = false;
      while (next_token(rest, &tok)) {
        const std::string_view v = tok.value;
        bool ok = true;
        if (tok.key == "k") {
          if (!kind_from_string(std::string(v), &e.kind))
            return fail("unknown event kind '" + std::string(v) + "'");
          have_kind = true;
        } else if (tok.key == "t") ok = scan(v, &e.at);
        else if (tok.key == "chip") ok = scan(v, &e.chip);
        else if (tok.key == "req") ok = scan(v, &e.req);
        else if (tok.key == "app") e.app = std::string(v);
        else if (tok.key == "domain") ok = scan(v, &e.domain);
        else if (tok.key == "op") ok = scan(v, &e.op);
        else if (tok.key == "width") ok = scan(v, &e.width);
        else if (tok.key == "relax") ok = scan(v, &e.relax);
        else if (tok.key == "policy") ok = scan(v, &e.policy);
        else if (tok.key == "ops") ok = scan(v, &e.ops);
        else if (tok.key == "members") ok = scan_members(v, &e.members);
        else if (tok.key == "amount") ok = scan(v, &e.amount);
        else if (tok.key == "deficit") ok = scan(v, &e.deficit_after);
        else if (tok.key == "idle") ok = scan(v, &e.idle_reset);
        else if (tok.key == "depth") ok = scan(v, &e.queue_depth);
        else if (tok.key == "cap") ok = scan(v, &e.capacity);
        else if (tok.key == "state_from") ok = scan(v, &e.state_from);
        else if (tok.key == "state_to") ok = scan(v, &e.state_to);
        else if (tok.key == "dead") ok = scan(v, &e.dead);
        else if (tok.key == "clean") ok = scan(v, &e.clean);
        else if (tok.key == "offline") ok = scan(v, &e.offline);
        else if (tok.key == "stuck") ok = scan(v, &e.stuck);
        else if (tok.key == "repaired") ok = scan(v, &e.repaired);
        else if (tok.key == "det") ok = scan(v, &e.detections);
        else if (tok.key == "esc") ok = scan(v, &e.escalations);
        else if (tok.key == "scrub") ok = scan(v, &e.scrub);
        else if (tok.key == "from") ok = scan(v, &e.from);
        else if (tok.key == "to") ok = scan(v, &e.to);
        else if (tok.key == "hops") ok = scan(v, &e.hops);
        else if (tok.key == "bits") ok = scan(v, &e.bits);
        else if (tok.key == "cycles") ok = scan(v, &e.cycles);
        else if (tok.key == "pj") ok = scan(v, &e.energy_pj);
        else if (tok.key == "shard") ok = scan(v, &e.shard);
        else
          return fail("unknown event key '" + std::string(tok.key) + "'");
        if (!ok) return bad_value(tok);
      }
      if (!have_kind) return fail("event record without kind");
      out->events_.push_back(std::move(e));
    } else {
      return fail("unknown record '" + std::string(tok.key) + "'");
    }
  }
  return true;
}

}  // namespace apim::serve::trace
