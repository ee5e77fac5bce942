// Regenerates the Fig. 5 experiment: the parse_word program analysed by
// BinSym and by the angr-like engine with the real I-type-shift lifter bug
// (bug #4). Prints which assertion failures each engine reports, with
// witness inputs — the false positive/false negative pair the paper
// describes.
#include <cstdio>
#include <map>

#include "engines.hpp"

using namespace binsym;

namespace {

std::map<uint32_t, uint32_t> collect_failures(bench::EngineInstance& engine) {
  std::map<uint32_t, uint32_t> failures;  // id -> witness x
  engine.explore({}, [&](const core::PathResult& path) {
    for (const core::Failure& f : path.trace.failures) {
      uint32_t x = 0;
      for (unsigned i = 0; i < path.trace.input_vars.size() && i < 4; ++i)
        x |= static_cast<uint32_t>(path.seed.get(path.trace.input_vars[i]) &
                                   0xff)
             << (8 * i);
      failures.emplace(f.id, x);
    }
  });
  return failures;
}

void report(const char* engine, const std::map<uint32_t, uint32_t>& failures) {
  std::printf("%s:\n", engine);
  if (failures.empty()) std::printf("  no assertion failures reported\n");
  for (const auto& [id, x] : failures)
    std::printf("  assert on line %u FAILS with x = 0x%08x\n", id, x);
}

}  // namespace

int main() {
  isa::OpcodeTable table;
  isa::Decoder decoder(table);
  spec::Registry registry;
  spec::install_rv32im(registry, table);
  core::Program program = workloads::load_workload_or_exit(table, "parse-word");
  bench::EngineSetup setup{decoder, registry, program};

  std::printf("FIG 5: parse_word(x) — mask = x << 31\n");
  std::printf("  line 4: if (x == 1) assert(mask == 0x80000000)\n");
  std::printf("  line 6: else        assert(mask != 0x80000000)\n\n");

  bench::EngineInstance binsym_engine = bench::make_binsym(setup);
  auto binsym_failures = collect_failures(binsym_engine);
  report("BinSym (formal semantics)", binsym_failures);

  baseline::LifterBugs bug4;
  bug4.itype_shamt_signed = true;
  bench::EngineInstance angr_engine = bench::make_angr(setup, bug4);
  auto angr_failures = collect_failures(angr_engine);
  report("angr-like with lifter bug #4 (signed shamt)", angr_failures);

  // Expected: BinSym reports exactly line 6 (the genuinely violable
  // assert); the buggy engine reports exactly line 4 (false positive) and
  // misses line 6 (false negative).
  bool ok = binsym_failures.count(6) == 1 && binsym_failures.count(4) == 0 &&
            angr_failures.count(4) == 1 && angr_failures.count(6) == 0;
  std::printf("\nshape %s: binsym finds the real bug (line 6) only; the "
              "buggy lifter reports the false positive (line 4) and misses "
              "the real one\n",
              ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
