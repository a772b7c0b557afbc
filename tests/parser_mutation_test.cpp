// Seeded mutation tests of the two parsers that read untrusted files: the
// apim-trace v1 reader (EventLog::parse, run by apim_trace_lint) and the
// kernel assembler (isa::assemble, run by apim_asm and apim_lint). Each
// mutates real documents a few thousand times (flip a bit, insert, delete,
// truncate, duplicate a token) and requires a clean verdict for every
// mutant, never a crash. The ASan/UBSan jobs run these too, so an
// out-of-bounds read or a signed overflow on any mutant fails there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/isa_lint.hpp"
#include "isa/assembler.hpp"
#include "serve/trace.hpp"
#include "serve_chaos_harness.hpp"
#include "util/rng.hpp"

namespace {

using namespace apim;
using serve::trace::EventLog;

constexpr std::size_t kMutants = 3000;

/// Bytes the formats give meaning to; an inserted byte is one of these half
/// of the time and any byte otherwise.
constexpr char kSyntax[] = "0123456789-+=,.:;#@[] \nrek";

/// Apply one to three byte-level mutations to `text`.
std::string mutate(std::string text, util::Xoshiro256& rng) {
  const std::uint64_t count = 1 + rng.next_below(3);
  for (std::uint64_t m = 0; m < count; ++m) {
    const std::size_t at = rng.next_below(text.size() + 1);
    switch (rng.next_below(5)) {
      case 0:  // Flip one bit.
        if (at < text.size()) {
          const auto bit = static_cast<unsigned>(rng.next_below(8));
          text[at] = static_cast<char>(text[at] ^ (1u << bit));
        }
        break;
      case 1: {  // Insert a byte.
        char byte = static_cast<char>(rng.next_below(256));
        if (rng.next_below(2) == 0)
          byte = kSyntax[rng.next_below(sizeof kSyntax - 1)];
        text.insert(at, 1, byte);
        break;
      }
      case 2:  // Delete a byte.
        if (at < text.size()) text.erase(at, 1);
        break;
      case 3:  // Truncate.
        text.resize(at);
        break;
      default: {  // Duplicate the space-delimited token around `at`.
        const std::size_t begin = text.find_last_of(" \n", at);
        const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
        const std::size_t end = text.find_first_of(" \n", from);
        const std::size_t to = end == std::string::npos ? text.size() : end;
        if (from < to) {
          text.insert(to, text.substr(from, to - from));
          text.insert(to, 1, ' ');
        }
        break;
      }
    }
  }
  return text;
}

/// A small chaos run's trace: decay plus a domain kill with the health
/// layer on, so the log holds health, scrub, abort and relocation events
/// next to the admission, batching, DRR and completion ones.
std::string chaos_trace_text() {
  serve_harness::TenantSpec heavy;
  heavy.name = "heavy";
  heavy.weight = 3;
  heavy.rate_per_kcycle = 18.0;
  heavy.requests = 16;
  heavy.relax_bits = 2;
  serve_harness::TenantSpec urgent;
  urgent.name = "urgent";
  urgent.rate_per_kcycle = 14.0;
  urgent.requests = 12;
  urgent.deadline = 350;
  serve_harness::ChaosSpec spec;
  spec.scenario.seed = 11;
  spec.scenario.tenants = {heavy, urgent};
  spec.scenario.server.streams = 3;
  spec.scenario.server.lanes_per_stream = 8;
  spec.scenario.server.batch_window = 400;
  spec.scenario.server.health.scrub_interval = 600;
  spec.scenario.server.health.repair_interval = 900;
  spec.stuck_rate = 0.002;
  spec.kill_at = 500;
  spec.kill_domain = 1;
  EventLog log;
  spec.scenario.server.trace = &log;
  (void)serve_harness::run_chaos(spec, /*health_enabled=*/true);
  return log.serialize();
}

TEST(ParserMutation, TraceParserAcceptsOrRejectsCleanly) {
  const std::string seed = chaos_trace_text();
  for (const char* kind : {"k=health", "k=scrub", "k=relocate", "weight"})
    ASSERT_NE(seed.find(kind), std::string::npos) << kind;
  util::Xoshiro256 rng(2017);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const std::string mutant = mutate(seed, rng);
    EventLog log;
    std::string error;
    if (!EventLog::parse(mutant, &log, &error)) {
      ASSERT_FALSE(error.empty()) << mutant;
      continue;
    }
    ++accepted;
    // An accepted log re-serializes to a fixed point of parse/serialize.
    const std::string text = log.serialize();
    EventLog again;
    ASSERT_TRUE(EventLog::parse(text, &again, &error)) << error << '\n'
                                                       << text;
    ASSERT_EQ(again.serialize(), text);
  }
  // Both verdicts occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kMutants);
}

TEST(ParserMutation, AssemblerReturnsProgramOrAssemblyError) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(APIM_EXAMPLES_DIR))
    if (entry.path().extension() == ".apim") paths.push_back(entry.path());
  ASSERT_FALSE(paths.empty());
  std::sort(paths.begin(), paths.end());  // Directory order is unspecified.
  std::vector<std::string> kernels;
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    kernels.push_back(text.str());
  }
  util::Xoshiro256 rng(4242);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const std::string mutant = mutate(kernels[i % kernels.size()], rng);
    try {
      const isa::Program program = isa::assemble(mutant);
      // apim_lint runs the rule catalog on whatever assembles.
      (void)analysis::lint_program(program, analysis::LintOptions{64});
      ++accepted;
    } catch (const isa::AssemblyError& e) {
      ASSERT_GT(e.line(), 0u) << mutant;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kMutants);
}

}  // namespace
