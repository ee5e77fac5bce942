// Solver backends and the persistent query/model store.
//
// Two layers of pinning:
//   * a cross-backend differential harness: randomized queries and the
//     questions a Table I exploration asks its solver run through
//     {z3, bitblast} and must agree on every verdict, with every sat model
//     validated by concrete evaluation;
//   * the persistent store: byte-exact round trips, corruption / truncation /
//     version-skew all degrade to a diagnosed cold start, kUnknown is never
//     admitted (unit and end-to-end via fault injection), and warm reruns
//     answer from the store without drifting the explored path set.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hpp"
#include "core/engine.hpp"
#include "elf/elf32.hpp"
#include "exploration_util.hpp"
#include "isa/decoder.hpp"
#include "smt/cache.hpp"
#include "smt/context.hpp"
#include "smt/eval.hpp"
#include "smt/expr.hpp"
#include "smt/solver.hpp"
#include "smt/store.hpp"
#include "spec/registry.hpp"
#include "support/bits.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace binsym::smt {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "binsym-backends-" + tag + "-" +
                    std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// -- Cross-backend differential harness. --------------------------------------

/// The full backend matrix over one context. Every member of the matrix
/// must agree on every verdict.
std::vector<std::pair<std::string, std::unique_ptr<Solver>>> backend_matrix(
    Context& ctx) {
  std::vector<std::pair<std::string, std::unique_ptr<Solver>>> matrix;
  matrix.emplace_back("z3", make_z3_solver(ctx));
  matrix.emplace_back("bitblast", make_bitblast_solver(ctx));
  return matrix;
}

/// Check `assertions` on every backend; all verdicts must match and every
/// sat model must satisfy every assertion under concrete evaluation.
CheckResult check_all_backends_agree(
    const std::vector<ExprRef>& assertions,
    std::vector<std::pair<std::string, std::unique_ptr<Solver>>>& matrix,
    const std::string& what) {
  CheckResult reference = CheckResult::kUnknown;
  for (auto& [name, solver] : matrix) {
    Assignment model;
    const CheckResult result = solver->check(assertions, &model);
    EXPECT_NE(result, CheckResult::kUnknown) << name << " on " << what;
    if (reference == CheckResult::kUnknown) reference = result;
    EXPECT_EQ(result, reference) << name << " diverges on " << what;
    if (result == CheckResult::kSat) {
      for (size_t i = 0; i < assertions.size(); ++i) {
        EXPECT_EQ(evaluate(assertions[i], model), 1u)
            << name << " returned a bogus model for assertion " << i << " of "
            << what;
      }
    }
  }
  return reference;
}

/// Compact random query builder (a trimmed DagGen): a pool of 8/16/32-bit
/// terms grown with the arithmetic, bitwise and heavy (mul/div) operators,
/// ending in a width-1 root.
class QueryGen {
 public:
  QueryGen(Context& ctx, Rng& rng) : ctx_(ctx), rng_(rng) {
    for (unsigned i = 0; i < 3; ++i)
      pool_.push_back(ctx_.var("q" + std::to_string(i), 8));
    pool_.push_back(ctx_.constant(rng_.next() & 0xff, 8));
  }

  ExprRef term(unsigned steps) {
    for (unsigned i = 0; i < steps; ++i) {
      ExprRef a = pick(), b = pick();
      switch (rng_.below(8)) {
        case 0: pool_.push_back(ctx_.add(a, b)); break;
        case 1: pool_.push_back(ctx_.sub(a, b)); break;
        case 2: pool_.push_back(ctx_.mul(a, b)); break;
        case 3: pool_.push_back(ctx_.udiv(a, b)); break;
        case 4: pool_.push_back(ctx_.xor_(a, b)); break;
        case 5: pool_.push_back(ctx_.and_(a, b)); break;
        case 6: pool_.push_back(ctx_.shl(a, b)); break;
        default: pool_.push_back(ctx_.or_(a, b)); break;
      }
    }
    return pool_.back();
  }

  Context& ctx() { return ctx_; }

 private:
  ExprRef pick() { return pool_[rng_.below(pool_.size())]; }

  Context& ctx_;
  Rng& rng_;
  std::vector<ExprRef> pool_;
};

class BackendDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendDifferential, RandomizedQueriesAgreeAcrossAllBackends) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 1);
  Context ctx;
  QueryGen gen(ctx, rng);
  auto matrix = backend_matrix(ctx);

  ExprRef root = gen.term(24);
  Assignment witness;
  for (uint32_t id = 0; id < ctx.num_vars(); ++id)
    witness.set(id, rng.next() & mask_bits(ctx.var_info(id).width));
  const uint64_t value = evaluate(root, witness);

  // Pin every variable and assert root == value: sat by construction, and
  // the unique model is the witness itself.
  std::vector<ExprRef> pinned;
  for (uint32_t id = 0; id < ctx.num_vars(); ++id) {
    const VarInfo& info = ctx.var_info(id);
    pinned.push_back(ctx.eq(ctx.var(info.name, info.width),
                            ctx.constant(witness.get(id), info.width)));
  }
  pinned.push_back(ctx.eq(root, ctx.constant(value, root->width)));
  EXPECT_EQ(check_all_backends_agree(pinned, matrix, "pinned-sat"),
            CheckResult::kSat);

  // The same pinning with root == value+1 (a different value mod 2^w).
  pinned.back() =
      ctx.eq(root, ctx.constant(value + 1, root->width));
  EXPECT_EQ(check_all_backends_agree(pinned, matrix, "pinned-unsat"),
            CheckResult::kUnsat);

  // Unpinned: root == value is reachable (the witness proves it), but the
  // backends have to find their own — possibly different — models, which the
  // harness then validates by evaluation.
  std::vector<ExprRef> open{ctx.eq(root, ctx.constant(value, root->width))};
  EXPECT_EQ(check_all_backends_agree(open, matrix, "open-sat"),
            CheckResult::kSat);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendDifferential,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace binsym::smt

// -- Engine-level harness: Table I corpus, store end-to-end, identity sweep. --

namespace binsym {
namespace {

namespace fs = std::filesystem;

class BackendEngineTest : public ::testing::Test {
 protected:
  BackendEngineTest() {
    spec::install_rv32im(registry, table);
    spec::install_custom_madd(table, registry);
    spec::install_zbb(table, registry);
  }

  core::Program load_asm(const std::string& source) {
    return elf::to_program(rvasm::assemble_or_die(table, source).image);
  }

  core::WorkerFactory factory(const core::Program& program) {
    return [this, &program](unsigned) {
      core::WorkerResources r;
      r.ctx = std::make_unique<smt::Context>();
      r.executor = std::make_unique<core::BinSymExecutor>(
          *r.ctx, decoder, registry, program, core::MachineConfig{});
      r.solver = smt::make_z3_solver(*r.ctx);
      return r;
    };
  }

  /// Solver checks that actually reached a backend: logical queries minus
  /// the ones the cache and the persistent store answered.
  static uint64_t backend_calls(const core::EngineStats& stats) {
    return stats.solver.queries - stats.solver.cache_hits - stats.store_hits;
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

constexpr const char* kThreeBranchGuest = R"(
_start:
    la a0, buf
    li a1, 3
    li a7, 2
    ecall
    la s0, buf
    lbu t0, 0(s0)
    lbu t1, 1(s0)
    lbu t2, 2(s0)
    bnez t0, skip1
    nop
skip1:
    bltu t1, t2, skip2
    nop
skip2:
    beqz t2, skip3
    nop
skip3:
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 3
)";

/// Records every question the engine asks its solver — stateless checks
/// and, for check_assuming, the live scoped assertions plus the
/// assumptions — and forwards it unchanged.
class RecordingSolver final : public smt::ForwardingSolver {
 public:
  RecordingSolver(std::unique_ptr<smt::Solver> inner,
                  std::vector<std::vector<smt::ExprRef>>* questions)
      : ForwardingSolver(std::move(inner)), questions_(questions) {}

  smt::CheckResult check(std::span<const smt::ExprRef> assertions,
                         smt::Assignment* model) override {
    questions_->emplace_back(assertions.begin(), assertions.end());
    return inner_->check(assertions, model);
  }
  smt::CheckResult check_assuming(std::span<const smt::ExprRef> assumptions,
                                  smt::Assignment* model) override {
    std::vector<smt::ExprRef> question(scoped_assertions().begin(),
                                       scoped_assertions().end());
    question.insert(question.end(), assumptions.begin(), assumptions.end());
    questions_->push_back(std::move(question));
    return inner_->check_assuming(assumptions, model);
  }
  std::string name() const override { return inner_->name() + "+record"; }

 private:
  std::vector<std::vector<smt::ExprRef>>* questions_;
};

TEST_F(BackendEngineTest, TableICorpusAgreesAcrossAllBackends) {
  // Record the real questions a Table I workload prefix asks its solver,
  // then replay each one through the full backend matrix: one verdict per
  // question, every sat model valid. This is the corpus leg of the
  // differential harness — the randomized leg lives above.
  core::Program program = workloads::load_workload(table, "base64-encode");
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program,
                                core::MachineConfig{});
  std::vector<std::vector<smt::ExprRef>> questions;
  core::EngineOptions options;
  options.max_paths = 40;
  core::DseEngine engine(
      executor,
      std::make_unique<RecordingSolver>(smt::make_z3_solver(ctx), &questions),
      options);
  EXPECT_GT(engine.explore().paths, 0u);
  ASSERT_GT(questions.size(), 4u);
  if (questions.size() > 60) questions.resize(60);  // bound the replay cost

  auto matrix = smt::backend_matrix(ctx);
  uint64_t sat = 0, unsat = 0;
  for (size_t i = 0; i < questions.size(); ++i) {
    switch (smt::check_all_backends_agree(questions[i], matrix,
                                          "question " + std::to_string(i))) {
      case smt::CheckResult::kSat: ++sat; break;
      case smt::CheckResult::kUnsat: ++unsat; break;
      case smt::CheckResult::kUnknown: break;
    }
  }
  // The corpus must exercise both polarities, or the agreement is vacuous.
  EXPECT_GT(sat, 0u);
  EXPECT_GT(unsat, 0u);
}

TEST_F(BackendEngineTest, WarmStoreAnswersWithoutBackendCallsOrPathDrift) {
  const std::string store_dir = smt::fresh_dir("warm");
  core::Program program = load_asm(kThreeBranchGuest);

  core::EngineOptions options;
  options.solver_store = smt::SolverStore::open(store_dir);
  EXPECT_TRUE(options.solver_store->load_error().empty());
  test::Exploration cold = test::explore(factory(program), options);
  EXPECT_GT(cold.stats.store_misses, 0u);
  EXPECT_EQ(cold.stats.store_hits, 0u);
  EXPECT_GT(cold.stats.store_entries, 0u);
  EXPECT_GT(backend_calls(cold.stats), 0u);

  // A fresh process would reopen the flushed file exactly like this.
  options.solver_store = smt::SolverStore::open(store_dir);
  EXPECT_TRUE(options.solver_store->load_error().empty());
  test::Exploration warm = test::explore(factory(program), options);
  EXPECT_EQ(warm.path_keys, cold.path_keys);
  EXPECT_EQ(warm.failures, cold.failures);
  EXPECT_EQ(warm.stats.paths, cold.stats.paths);
  EXPECT_EQ(warm.stats.solver.queries, cold.stats.solver.queries);
  EXPECT_GT(warm.stats.store_hits, 0u);
  // The acceptance bar is >= 5x fewer backend calls; this tiny guest
  // actually needs none at all on the warm run.
  EXPECT_LE(5 * backend_calls(warm.stats), backend_calls(cold.stats));
}

/// Mirror of the store.bin v2 layout, just deep enough to find every model
/// value, overwrite it with `value`, and re-seal the trailing FNV-1a
/// checksum — simulating a content-hash collision: right key, wrong model.
/// Zero is the reliably-wrong replacement here: every sat flip query mined
/// off the all-zero seed path negates a branch that path took, so the
/// all-zero assignment violates it by construction.
std::string clobber_store_models(std::string bytes, uint64_t value) {
  auto u32_at = [&](size_t pos) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos + i]))
           << (8 * i);
    return v;
  };
  auto u64_at = [&](size_t pos) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[pos + i]))
           << (8 * i);
    return v;
  };
  size_t pos = 8 + 4;  // magic + version
  const uint64_t count = u64_at(pos);
  pos += 8;
  for (uint64_t e = 0; e < count; ++e) {
    pos += 4 + size_t{u32_at(pos)} * 8;  // key size + hashes
    pos += 1;                            // verdict
    pos += 4;                            // var_count (left intact)
    const uint32_t model_size = u32_at(pos);
    pos += 4;
    for (uint32_t m = 0; m < model_size; ++m) {
      pos += 4 + u32_at(pos);  // variable name
      for (int i = 0; i < 8; ++i)
        bytes[pos + i] = static_cast<char>(value >> (8 * i));
      pos += 8;
    }
  }
  uint64_t checksum = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < bytes.size() - 8; ++i) {
    checksum ^= static_cast<unsigned char>(bytes[i]);
    checksum *= 0x100000001b3ull;
  }
  for (int i = 0; i < 8; ++i)
    bytes[bytes.size() - 8 + i] = static_cast<char>(checksum >> (8 * i));
  return bytes;
}

TEST_F(BackendEngineTest, CollidingStoreEntriesNeverCorruptExploration) {
  // A key collision hands the engine a persisted entry for a *different*
  // query: keys and verdicts plausible, models wrong. Simulate it by
  // corrupting every model value inside a genuinely warm store file (and
  // re-sealing the checksum, so only the engine's validation can object).
  // The engine must reject each bogus sat model by evaluation, fall back to
  // the solver, and explore the exact same path set.
  const std::string store_dir = smt::fresh_dir("collision");
  core::Program program = load_asm(kThreeBranchGuest);
  core::EngineOptions options;
  options.solver_store = smt::SolverStore::open(store_dir);
  test::Exploration cold = test::explore(factory(program), options);
  EXPECT_GT(cold.stats.store_entries, 0u);

  const std::string file = options.solver_store->path();
  std::string bytes;
  {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    const std::string tampered = clobber_store_models(bytes, 0);
    out.write(tampered.data(),
              static_cast<std::streamsize>(tampered.size()));
  }

  options.solver_store = smt::SolverStore::open(store_dir);
  ASSERT_TRUE(options.solver_store->load_error().empty());  // checksum holds
  test::Exploration warm = test::explore(factory(program), options);
  EXPECT_EQ(warm.path_keys, cold.path_keys);
  EXPECT_EQ(warm.failures, cold.failures);
  EXPECT_EQ(warm.stats.paths, cold.stats.paths);
  // Every zeroed sat model violates its query (each flip negates a branch
  // the all-zero seed path took), so validation provably fired and sent
  // work back to the solver instead of trusting the store.
  EXPECT_GT(backend_calls(warm.stats), 0u);
  EXPECT_GT(warm.stats.store_misses, 0u);
}

TEST_F(BackendEngineTest, InjectedUnknownsAreNeverPersisted) {
  // Fault injection forces *every* solver check to degrade to kUnknown
  // ("solver" site, all occurrences): nothing definitive is ever produced,
  // so nothing may reach the persistent store — end to end, through the
  // worker loop's insert path and the store's own kUnknown rejection.
  const std::string store_dir = smt::fresh_dir("faulty");
  core::Program program = load_asm(kThreeBranchGuest);
  core::EngineOptions options;
  std::string error;
  options.fault_plan = support::FaultPlan::parse("solver@1+", &error);
  ASSERT_TRUE(options.fault_plan) << error;
  options.solver_store = smt::SolverStore::open(store_dir);
  test::Exploration run = test::explore(factory(program), options);
  EXPECT_GT(run.stats.queries_unknown, 0u);
  EXPECT_EQ(run.stats.store_entries, 0u);
  EXPECT_EQ(smt::SolverStore::open(store_dir)->size(), 0u);
}

}  // namespace
}  // namespace binsym

// -- Persistent store unit suite. ---------------------------------------------

namespace binsym::smt {
namespace {

QueryCache::Key key_of(std::initializer_list<uint64_t> hashes) {
  QueryCache::Key key(hashes);
  std::sort(key.begin(), key.end());
  return key;
}

SolverStore::Entry sat_entry(uint64_t first_value = 42) {
  SolverStore::Entry entry;
  entry.verdict = CheckResult::kSat;
  entry.model = {{"sym_input_0", first_value}, {"sym_input_1", 7}};
  entry.var_count = 2;
  return entry;
}

TEST(SolverStoreTest, RoundTripsThroughTheBackingFile) {
  const std::string dir = fresh_dir("roundtrip");
  {
    auto store = SolverStore::open(dir);
    EXPECT_TRUE(store->load_error().empty());
    EXPECT_EQ(store->size(), 0u);
    store->insert(key_of({1, 2, 3}), sat_entry());
    SolverStore::Entry unsat;
    unsat.verdict = CheckResult::kUnsat;
    store->insert(key_of({0xdeadbeef}), unsat);
    EXPECT_EQ(store->size(), 2u);
    EXPECT_TRUE(store->flush());
  }
  auto reopened = SolverStore::open(dir);
  EXPECT_TRUE(reopened->load_error().empty());
  ASSERT_EQ(reopened->size(), 2u);

  SolverStore::Entry entry;
  ASSERT_TRUE(reopened->lookup(key_of({3, 1, 2}), &entry));  // order-blind key
  EXPECT_EQ(entry.verdict, CheckResult::kSat);
  EXPECT_EQ(entry.var_count, 2u);
  ASSERT_EQ(entry.model.size(), 2u);
  EXPECT_EQ(entry.model[0], (std::pair<std::string, uint64_t>{"sym_input_0", 42}));
  ASSERT_TRUE(reopened->lookup(key_of({0xdeadbeef}), &entry));
  EXPECT_EQ(entry.verdict, CheckResult::kUnsat);
  EXPECT_TRUE(entry.model.empty());
  EXPECT_FALSE(reopened->lookup(key_of({9, 9, 9}), nullptr));
  EXPECT_EQ(reopened->hits(), 2u);
  EXPECT_EQ(reopened->misses(), 1u);
}

TEST(SolverStoreTest, UnknownIsNeverAdmittedAndFirstVerdictWins) {
  auto store = SolverStore::open(fresh_dir("admission"));
  SolverStore::Entry unknown;
  unknown.verdict = CheckResult::kUnknown;
  store->insert(key_of({5}), unknown);
  EXPECT_EQ(store->size(), 0u);

  store->insert(key_of({5}), sat_entry(1));
  store->insert(key_of({5}), sat_entry(2));
  SolverStore::Entry entry;
  ASSERT_TRUE(store->lookup(key_of({5}), &entry));
  EXPECT_EQ(entry.model, sat_entry(1).model);
  EXPECT_EQ(store->size(), 1u);
}

TEST(SolverStoreTest, VarCountMismatchIsServedAsAMiss) {
  // Two different queries can collide on the 64-bit content-hash key; the
  // recorded distinct-variable count is the cheap discriminator that keeps
  // such an entry from answering the wrong query. The engine uses this
  // overload for every store consultation.
  auto store = SolverStore::open(fresh_dir("discriminator"));
  store->insert(key_of({77}), sat_entry());  // var_count == 2

  SolverStore::Entry out;
  EXPECT_FALSE(store->lookup(key_of({77}), /*var_count=*/3, &out));
  EXPECT_TRUE(store->lookup(key_of({77}), /*var_count=*/2, &out));
  EXPECT_EQ(out.model, sat_entry().model);
  EXPECT_EQ(store->hits(), 1u);
  EXPECT_EQ(store->misses(), 1u);  // the collision counted as a miss
}

TEST(SolverStoreTest, MissingFileIsACleanColdStart) {
  auto store = SolverStore::open(fresh_dir("empty"));
  EXPECT_TRUE(store->load_error().empty());
  EXPECT_EQ(store->size(), 0u);
}

class SolverStoreCorruption : public ::testing::Test {
 protected:
  /// A flushed two-entry store, its file path and raw bytes.
  void SetUp() override {
    dir_ = fresh_dir("corrupt");
    auto store = SolverStore::open(dir_);
    store->insert(key_of({11, 22}), sat_entry());
    SolverStore::Entry unsat;
    unsat.verdict = CheckResult::kUnsat;
    store->insert(key_of({33}), unsat);
    ASSERT_TRUE(store->flush());
    file_ = store->path();
    std::ifstream in(file_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes_ = buffer.str();
    ASSERT_GT(bytes_.size(), 28u);
  }

  void write_file(const std::string& bytes) {
    std::ofstream out(file_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// FNV-1a as store.cpp computes it, so tests can re-seal tampered bytes
  /// (distinguishing "checksum caught it" from deeper validation).
  static uint64_t fnv1a(const std::string& data, size_t size) {
    uint64_t hash = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i) {
      hash ^= static_cast<unsigned char>(data[i]);
      hash *= 0x100000001b3ull;
    }
    return hash;
  }

  static void reseal(std::string& bytes) {
    const uint64_t checksum = fnv1a(bytes, bytes.size() - 8);
    for (int i = 0; i < 8; ++i)
      bytes[bytes.size() - 8 + i] = static_cast<char>(checksum >> (8 * i));
  }

  std::string dir_;
  std::string file_;
  std::string bytes_;
};

TEST_F(SolverStoreCorruption, FlippedByteDegradesToDiagnosedColdStart) {
  for (const size_t offset : {size_t{0}, size_t{9}, bytes_.size() / 2}) {
    std::string tampered = bytes_;
    tampered[offset] = static_cast<char>(tampered[offset] ^ 0x40);
    write_file(tampered);
    auto store = SolverStore::open(dir_);
    EXPECT_FALSE(store->load_error().empty()) << "offset " << offset;
    EXPECT_EQ(store->size(), 0u) << "offset " << offset;
  }
}

TEST_F(SolverStoreCorruption, TruncationDegradesToDiagnosedColdStart) {
  for (const size_t keep : {size_t{4}, size_t{27}, bytes_.size() - 1}) {
    write_file(bytes_.substr(0, keep));
    auto store = SolverStore::open(dir_);
    EXPECT_FALSE(store->load_error().empty()) << "kept " << keep;
    EXPECT_EQ(store->size(), 0u) << "kept " << keep;
  }
}

TEST_F(SolverStoreCorruption, VersionSkewIsColdStartEvenWithAValidChecksum) {
  // A file written by a future (or past) format version is ignored, not
  // half-parsed: patch the version field and re-seal the checksum so only
  // the version check can reject it.
  std::string skewed = bytes_;
  skewed[8] = static_cast<char>(SolverStore::kFormatVersion + 1);
  reseal(skewed);
  write_file(skewed);
  auto store = SolverStore::open(dir_);
  EXPECT_NE(store->load_error().find("version"), std::string::npos)
      << store->load_error();
  EXPECT_EQ(store->size(), 0u);
}

TEST_F(SolverStoreCorruption, OversizedLengthFieldIsRejectedBeforeAllocating) {
  // A resealed file whose key-count field claims more data than the file
  // holds must fail the plausibility check, not attempt a giant allocation.
  std::string skewed = bytes_;
  // Entry area starts after magic(8) + version(4) + count(8); the first
  // field is the first entry's key size (u32).
  for (int i = 0; i < 4; ++i) skewed[20 + i] = static_cast<char>(0xff);
  reseal(skewed);
  write_file(skewed);
  auto store = SolverStore::open(dir_);
  EXPECT_FALSE(store->load_error().empty());
  EXPECT_EQ(store->size(), 0u);
}

TEST_F(SolverStoreCorruption, DeserializeRejectsTrailingGarbage) {
  std::string padded = bytes_;
  padded.insert(padded.size() - 8, "extra");
  reseal(padded);
  auto store = SolverStore::open(fresh_dir("garbage"));
  std::string error;
  EXPECT_FALSE(store->deserialize(padded, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace binsym::smt
