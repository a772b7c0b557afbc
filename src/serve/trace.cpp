#include "serve/trace.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "util/scan.hpp"

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

/// Whether serialize() writes a field that holds its default value.
enum class Write : bool { kIfSet, kAlways };

/// The `apim-trace v1` field tables: every key of a `meta`, `weight` and
/// `event` record with the field it holds, in the order serialize()
/// writes them. serialize() and parse() both walk these, so each key is
/// spelled once. A meta record writes every field; `overflowed` is the
/// log's own flag.
template <class M, class B, class F>
void meta_fields(M& meta, B& overflowed, F&& f) {
  f("streams", meta.streams);
  f("lanes", meta.lanes);
  f("queue_capacity", meta.queue_capacity);
  f("fair_share", meta.fair_share);
  f("quantum", meta.quantum_ops);
  f("default_weight", meta.default_weight);
  f("health", meta.health);
  f("chips", meta.chips);
  f("shards", meta.shards);
  f("hop_latency", meta.hop_latency_cycles);
  f("link_bits", meta.link_bits);
  f("pj_per_bit_hop", meta.pj_per_bit_hop);
  f("shard_bits", meta.shard_bits);
  f("overflowed", overflowed);
}

/// One `weight` record per entry of Meta::weights.
template <class A, class W, class F>
void weight_fields(A& app, W& weight, F&& f) {
  f("app", app);
  f("w", weight);
}

/// An event writes `k` and `t` always and any other field only when it
/// differs from that field of a default-constructed Event.
template <class F>
void event_fields(F&& f) {
  f("k", &Event::kind, Write::kAlways);
  f("t", &Event::at, Write::kAlways);
  f("chip", &Event::chip, Write::kIfSet);
  f("req", &Event::req, Write::kIfSet);
  f("app", &Event::app, Write::kIfSet);
  f("domain", &Event::domain, Write::kIfSet);
  f("op", &Event::op, Write::kIfSet);
  f("width", &Event::width, Write::kIfSet);
  f("relax", &Event::relax, Write::kIfSet);
  f("policy", &Event::policy, Write::kIfSet);
  f("ops", &Event::ops, Write::kIfSet);
  f("members", &Event::members, Write::kIfSet);
  f("amount", &Event::amount, Write::kIfSet);
  f("deficit", &Event::deficit_after, Write::kIfSet);
  f("idle", &Event::idle_reset, Write::kIfSet);
  f("depth", &Event::queue_depth, Write::kIfSet);
  f("cap", &Event::capacity, Write::kIfSet);
  f("state_from", &Event::state_from, Write::kIfSet);
  f("state_to", &Event::state_to, Write::kIfSet);
  f("dead", &Event::dead, Write::kIfSet);
  f("clean", &Event::clean, Write::kIfSet);
  f("offline", &Event::offline, Write::kIfSet);
  f("stuck", &Event::stuck, Write::kIfSet);
  f("repaired", &Event::repaired, Write::kIfSet);
  f("det", &Event::detections, Write::kIfSet);
  f("esc", &Event::escalations, Write::kIfSet);
  f("scrub", &Event::scrub, Write::kIfSet);
  f("from", &Event::from, Write::kIfSet);
  f("to", &Event::to, Write::kIfSet);
  f("hops", &Event::hops, Write::kIfSet);
  f("bits", &Event::bits, Write::kIfSet);
  f("cycles", &Event::cycles, Write::kIfSet);
  f("pj", &Event::energy_pj, Write::kIfSet);
  f("shard", &Event::shard, Write::kIfSet);
}

/// %.17g round-trips every finite IEEE-754 double exactly.
void put_value(std::ostream& os, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  os << buf;
}

void put_value(std::ostream& os, bool value) { os << (value ? 1 : 0); }
void put_value(std::ostream& os, EventKind kind) { os << to_string(kind); }
void put_value(std::ostream& os, const std::string& text) { os << text; }

void put_value(std::ostream& os, const std::vector<std::uint64_t>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) os << ',';
    os << ids[i];
  }
}

/// Integers; the unary + prints an 8-bit field as a number.
template <class T>
void put_value(std::ostream& os, T value) {
  os << +value;
}

bool read_value(std::string_view v, EventKind* out) {
  return kind_from_string(std::string(v), out);
}

bool read_value(std::string_view v, std::string* out) {
  out->assign(v);
  return true;
}

bool read_value(std::string_view v, std::vector<std::uint64_t>* out) {
  return util::scan_list(v, out);
}

template <class T>
bool read_value(std::string_view v, T* out) {
  return util::scan(v, out);
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
  const auto write = [&](const char* key, const auto& value) {
    os << ' ' << key << '=';
    put_value(os, value);
  };
  os << "apim-trace v1\nmeta";
  meta_fields(meta, overflowed_, write);
  os << '\n';
  for (const auto& [app, weight] : meta.weights) {
    os << "weight";
    weight_fields(app, weight, write);
    os << '\n';
  }
  const Event unset;
  for (const Event& e : events_) {
    os << "event";
    event_fields([&](const char* key, auto member, Write when) {
      if (when == Write::kAlways || e.*member != unset.*member)
        write(key, e.*member);
    });
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
  std::string_view rest;
  Token tok;
  bool have_kind = false;  // An event record must name its kind.
  // Reads the rest of the line into the fields `walk` visits.
  const auto read_fields = [&](const char* record, const auto& walk) {
    while (next_token(rest, &tok)) {
      bool known = false;
      bool ok = false;
      walk([&](const char* key, auto& field) {
        if (known || tok.key != key) return;
        known = true;
        ok = read_value(tok.value, &field);
        if constexpr (std::is_same_v<std::decay_t<decltype(field)>, EventKind>)
          have_kind = true;
      });
      if (!known) {
        std::string what = "unknown ";
        what += record;
        what += " key '";
        what += tok.key;
        what += '\'';
        return fail(what);
      }
      if (!ok) return bad_value(tok);
    }
    return true;
  };
  if (!std::getline(is, line)) return fail("empty document");
  ++line_no;
  if (line != "apim-trace v1") return fail("bad header (want 'apim-trace v1')");
  while (std::getline(is, line)) {
    ++line_no;
    rest = line;
    if (!next_token(rest, &tok)) continue;
    if (tok.key == "meta") {
      if (!read_fields("meta", [&](const auto& f) {
            meta_fields(out->meta, out->overflowed_, f);
          }))
        return false;
    } else if (tok.key == "weight") {
      std::string app;
      std::uint64_t weight = 0;
      if (!read_fields("weight", [&](const auto& f) {
            weight_fields(app, weight, f);
          }))
        return false;
      if (app.empty()) return fail("weight record without app");
      out->meta.weights[app] = weight;
    } else if (tok.key == "event") {
      Event e;
      have_kind = false;
      if (!read_fields("event", [&](const auto& f) {
            event_fields([&](const char* key, auto member, Write) {
              f(key, e.*member);
            });
          }))
        return false;
      if (!have_kind) return fail("event record without kind");
      out->events_.push_back(std::move(e));
    } else {
      return fail("unknown record '" + std::string(tok.key) + "'");
    }
  }
  return true;
}

}  // namespace apim::serve::trace
