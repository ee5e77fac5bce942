// Solver portfolio, SMT-LIB pipe backend and persistent query/model store.
//
// Three layers of pinning:
//   * race mechanics with scripted StubSolver members — the first definitive
//     verdict wins, losers are cancelled (and a loser can never win), crashes
//     and all-unknown races degrade gracefully, and the feature router only
//     skips the race once a bucket has a measured leader;
//   * a cross-backend differential harness: randomized queries and the
//     SMT-LIB dumps of a Table I workload run through {z3, bitblast,
//     pipe(smtcheck), portfolio} and must agree on every verdict, with every
//     sat model validated by concrete evaluation;
//   * the persistent store: byte-exact round trips, corruption / truncation /
//     version-skew all degrade to a diagnosed cold start, kUnknown is never
//     admitted (unit and end-to-end via fault injection), and warm reruns
//     answer from the store without drifting the explored path set.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
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
#include "core/finding.hpp"
#include "core/search.hpp"
#include "elf/elf32.hpp"
#include "isa/decoder.hpp"
#include "oracles/manager.hpp"
#include "smt/cache.hpp"
#include "smt/context.hpp"
#include "smt/eval.hpp"
#include "smt/expr.hpp"
#include "smt/pipe.hpp"
#include "smt/portfolio.hpp"
#include "smt/smtlib.hpp"
#include "smt/solver.hpp"
#include "smt/store.hpp"
#include "solver_test_util.hpp"
#include "spec/registry.hpp"
#include "support/bits.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace binsym::smt {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "binsym-portfolio-" + tag + "-" +
                    std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// -- Race mechanics with scripted members. -----------------------------------

/// No cheap-query shortcut: every check in these tests races.
PortfolioConfig racing_config() {
  PortfolioConfig config;
  config.cheap_node_threshold = 0;
  return config;
}

TEST(PortfolioRace, FirstDefinitiveVerdictWinsAndLosersAreCancelled) {
  Context ctx;
  std::vector<ExprRef> query{ctx.var("x", 1)};
  auto fast = std::make_unique<StubSolver>(
      StubSolver::Mode::kSat, std::chrono::milliseconds(5), "fast-sat");
  auto slow = std::make_unique<StubSolver>(
      StubSolver::Mode::kUnsat, std::chrono::milliseconds(3000), "slow-unsat");
  StubSolver* slow_raw = slow.get();
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(std::move(fast));
  members.push_back(std::move(slow));
  auto portfolio = make_portfolio_solver(std::move(members), racing_config());

  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kSat);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // The loser's scripted 3 s solve must not gate the race: cancellation (or
  // the decided-before-wake skip) cut it short.
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
  EXPECT_TRUE(slow_raw->cancelled_checks() >= 1 ||
              slow_raw->stats().queries == 0);

  const SolverStats& s = portfolio->stats();
  EXPECT_EQ(s.queries, 1u);
  EXPECT_EQ(s.sat, 1u);
  EXPECT_EQ(s.portfolio_races, 1u);
  EXPECT_EQ(s.portfolio_routed, 0u);
  EXPECT_EQ(s.portfolio_cancelled, 1u);
  ASSERT_EQ(s.portfolio_wins.count("fast-sat"), 1u);
  EXPECT_EQ(s.portfolio_wins.at("fast-sat"), 1u);
  EXPECT_EQ(s.portfolio_wins.count("slow-unsat"), 0u);
  EXPECT_EQ(portfolio->last_backend(), "fast-sat");
}

TEST(PortfolioRace, UnsatCanWinTheRaceToo) {
  // The mirror image: a fast unsat beats a slow sat — "definitive" means
  // either polarity, and the slow member's would-be sat never surfaces.
  Context ctx;
  std::vector<ExprRef> query{ctx.var("x", 1)};
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(std::make_unique<StubSolver>(
      StubSolver::Mode::kUnsat, std::chrono::milliseconds(0), "fast-unsat"));
  members.push_back(std::make_unique<StubSolver>(
      StubSolver::Mode::kSat, std::chrono::milliseconds(3000), "slow-sat"));
  auto portfolio = make_portfolio_solver(std::move(members), racing_config());

  Assignment model;
  EXPECT_EQ(portfolio->check(query, &model), CheckResult::kUnsat);
  EXPECT_TRUE(model.values.empty());  // no model for an unsat verdict
  EXPECT_EQ(portfolio->stats().portfolio_wins.at("fast-unsat"), 1u);
  EXPECT_EQ(portfolio->last_backend(), "fast-unsat");
}

TEST(PortfolioRace, WinnersModelIsHandedOut) {
  Context ctx;
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> query{ctx.eq(x, ctx.constant(7, 8))};
  auto fast = std::make_unique<StubSolver>(StubSolver::Mode::kSat);
  fast->set_model_value(7);
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(std::move(fast));
  members.push_back(std::make_unique<StubSolver>(
      StubSolver::Mode::kUnknown, std::chrono::milliseconds(50), "laggard"));
  auto portfolio = make_portfolio_solver(std::move(members), racing_config());

  Assignment model;
  ASSERT_EQ(portfolio->check(query, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 7u);
  EXPECT_EQ(evaluate(query[0], model), 1u);
}

TEST(PortfolioRace, AllMembersUnknownMeansUnknown) {
  Context ctx;
  std::vector<ExprRef> query{ctx.var("x", 1)};
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(std::make_unique<StubSolver>(StubSolver::Mode::kUnknown));
  members.push_back(std::make_unique<StubSolver>(StubSolver::Mode::kUnknown));
  auto portfolio = make_portfolio_solver(std::move(members), racing_config());

  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kUnknown);
  const SolverStats& s = portfolio->stats();
  EXPECT_EQ(s.unknown, 1u);
  EXPECT_EQ(s.portfolio_races, 1u);
  EXPECT_TRUE(s.portfolio_wins.empty());
  // Nobody won, so nobody was cancelled *by a winner*.
  EXPECT_EQ(s.portfolio_cancelled, 0u);
}

TEST(PortfolioRace, CrashingMemberJustLoses) {
  Context ctx;
  std::vector<ExprRef> query{ctx.var("x", 1)};
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(
      std::make_unique<StubSolver>(StubSolver::Mode::kThrow,
                                   std::chrono::milliseconds(0), "crasher"));
  members.push_back(std::make_unique<StubSolver>(
      StubSolver::Mode::kSat, std::chrono::milliseconds(10), "solid"));
  auto portfolio = make_portfolio_solver(std::move(members), racing_config());

  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kSat);
  EXPECT_EQ(portfolio->stats().portfolio_wins.at("solid"), 1u);
  // ... and the portfolio survives to answer the next query.
  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kSat);
}

TEST(PortfolioRace, SingleCrashingMemberDegradesToUnknown) {
  Context ctx;
  std::vector<ExprRef> query{ctx.var("x", 1)};
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(std::make_unique<StubSolver>(StubSolver::Mode::kThrow));
  auto portfolio = make_portfolio_solver(std::move(members));

  // Routed first (single member), crash caught, race fallback also crashes:
  // the verdict weakens to kUnknown, the portfolio never throws.
  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kUnknown);
  EXPECT_EQ(portfolio->stats().portfolio_routed, 1u);
  EXPECT_EQ(portfolio->stats().portfolio_races, 1u);
}

TEST(PortfolioRace, CancelledPortfolioSkipsTheRaceEntirely) {
  Context ctx;
  std::vector<ExprRef> query{ctx.var("x", 1)};
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(std::make_unique<StubSolver>(StubSolver::Mode::kSat));
  members.push_back(std::make_unique<StubSolver>(StubSolver::Mode::kSat));
  auto portfolio = make_portfolio_solver(std::move(members), racing_config());

  portfolio->cancel();
  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kUnknown);
  EXPECT_EQ(portfolio->stats().portfolio_races, 0u);
  EXPECT_EQ(portfolio->stats().portfolio_routed, 0u);
  // Sticky until re-armed, like every Solver.
  portfolio->reset_cancel();
  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kSat);
}

TEST(PortfolioRace, SingleMemberPassesThroughWithoutARace) {
  Context ctx;
  std::vector<ExprRef> query{ctx.var("x", 1)};
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(std::make_unique<StubSolver>(
      StubSolver::Mode::kSat, std::chrono::milliseconds(0), "lonely"));
  auto portfolio = make_portfolio_solver(std::move(members));

  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kSat);
  EXPECT_EQ(portfolio->stats().portfolio_races, 0u);
  EXPECT_EQ(portfolio->stats().portfolio_routed, 1u);
  EXPECT_EQ(portfolio->last_backend(), "lonely");
  EXPECT_EQ(portfolio->name(), "portfolio[lonely]");
}

// -- Feature router. ----------------------------------------------------------

TEST(PortfolioRouter, CheapQueriesGoToTheFirstMemberWithoutRacing) {
  Context ctx;
  std::vector<ExprRef> query{ctx.var("x", 1)};  // one node, under threshold
  auto first = std::make_unique<StubSolver>(
      StubSolver::Mode::kSat, std::chrono::milliseconds(0), "first");
  auto second = std::make_unique<StubSolver>(
      StubSolver::Mode::kSat, std::chrono::milliseconds(0), "second");
  StubSolver* second_raw = second.get();
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(std::move(first));
  members.push_back(std::move(second));
  auto portfolio = make_portfolio_solver(std::move(members));  // defaults

  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kSat);
  EXPECT_EQ(portfolio->stats().portfolio_routed, 1u);
  EXPECT_EQ(portfolio->stats().portfolio_races, 0u);
  EXPECT_EQ(second_raw->stats().queries, 0u);  // never woken
  EXPECT_EQ(portfolio->last_backend(), "first");
}

TEST(PortfolioRouter, RoutesToTheMeasuredLeaderAfterEnoughRaces) {
  Context ctx;
  std::vector<ExprRef> query{ctx.var("x", 1)};
  PortfolioConfig config = racing_config();
  config.route_min_races = 2;  // default win share 3/4 still applies
  auto sprinter = std::make_unique<StubSolver>(
      StubSolver::Mode::kSat, std::chrono::milliseconds(0), "sprinter");
  auto strider = std::make_unique<StubSolver>(
      StubSolver::Mode::kSat, std::chrono::milliseconds(60), "strider");
  StubSolver* sprinter_raw = sprinter.get();
  StubSolver* strider_raw = strider.get();
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(std::move(sprinter));
  members.push_back(std::move(strider));
  auto portfolio = make_portfolio_solver(std::move(members), config);

  // Two measured races, both won by the sprinter, make it the bucket leader.
  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kSat);
  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kSat);
  EXPECT_EQ(portfolio->stats().portfolio_races, 2u);
  EXPECT_EQ(portfolio->stats().portfolio_wins.at("sprinter"), 2u);

  const uint64_t sprinter_before = sprinter_raw->stats().queries;
  const uint64_t strider_before = strider_raw->stats().queries;
  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kSat);
  EXPECT_EQ(portfolio->stats().portfolio_routed, 1u);
  EXPECT_EQ(portfolio->stats().portfolio_races, 2u);  // no new race
  EXPECT_EQ(sprinter_raw->stats().queries, sprinter_before + 1);
  EXPECT_EQ(strider_raw->stats().queries, strider_before);  // left alone
}

TEST(PortfolioRouter, RoutedUnknownFallsBackToTheFullRace) {
  // Routing may cost one redundant check, never an answer: the default
  // config sends this tiny query to the first member, which gives up, and
  // the fallback race still gets the second member's verdict.
  Context ctx;
  std::vector<ExprRef> query{ctx.var("x", 1)};
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(std::make_unique<StubSolver>(
      StubSolver::Mode::kUnknown, std::chrono::milliseconds(0), "flaky"));
  members.push_back(std::make_unique<StubSolver>(
      StubSolver::Mode::kSat, std::chrono::milliseconds(0), "closer"));
  auto portfolio = make_portfolio_solver(std::move(members));

  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kSat);
  EXPECT_EQ(portfolio->stats().portfolio_routed, 1u);
  EXPECT_EQ(portfolio->stats().portfolio_races, 1u);
  EXPECT_EQ(portfolio->stats().portfolio_wins.at("closer"), 1u);
  EXPECT_EQ(portfolio->last_backend(), "closer");
}

TEST(PortfolioRace, FallbackRaceRunsOnTheRemainingDeadlineBudget) {
  // Regression: a routed member that burns part of the per-query deadline
  // and gives up must not re-arm the fallback race with the full deadline
  // again — one logical check may spend at most one configured budget.
  Context ctx;
  std::vector<ExprRef> query{ctx.var("x", 1)};  // tiny: routed to member 0
  auto burner = std::make_unique<StubSolver>(
      StubSolver::Mode::kUnknown, std::chrono::milliseconds(80), "burner");
  auto closer = std::make_unique<StubSolver>(
      StubSolver::Mode::kSat, std::chrono::milliseconds(0), "closer");
  StubSolver* closer_raw = closer.get();
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(std::move(burner));
  members.push_back(std::move(closer));
  auto portfolio = make_portfolio_solver(std::move(members));  // defaults

  portfolio->set_deadline_ms(10'000);
  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kSat);
  EXPECT_EQ(portfolio->stats().portfolio_routed, 1u);
  EXPECT_EQ(portfolio->stats().portfolio_races, 1u);
  // The race members were armed with deadline − elapsed, not the full 10 s
  // (the routed burner provably spent ≥ 80 ms of the budget first).
  EXPECT_GT(closer_raw->deadline_ms(), 0u);
  EXPECT_LE(closer_raw->deadline_ms(), 10'000u - 80u);
}

TEST(PortfolioRace, ExhaustedDeadlineSkipsTheFallbackRace) {
  // The degenerate case of the budget contract: when the routed attempt
  // consumed the whole deadline there is nothing left to race on — the
  // check answers kUnknown immediately instead of doubling the budget.
  Context ctx;
  std::vector<ExprRef> query{ctx.var("x", 1)};
  auto burner = std::make_unique<StubSolver>(
      StubSolver::Mode::kUnknown, std::chrono::milliseconds(120), "burner");
  auto closer = std::make_unique<StubSolver>(
      StubSolver::Mode::kSat, std::chrono::milliseconds(0), "closer");
  StubSolver* closer_raw = closer.get();
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(std::move(burner));
  members.push_back(std::move(closer));
  auto portfolio = make_portfolio_solver(std::move(members));  // defaults

  portfolio->set_deadline_ms(50);  // the burner (stub: no deadline honor)
                                   // overshoots it by construction
  EXPECT_EQ(portfolio->check(query, nullptr), CheckResult::kUnknown);
  EXPECT_EQ(portfolio->stats().portfolio_routed, 1u);
  EXPECT_EQ(portfolio->stats().portfolio_races, 0u);
  EXPECT_EQ(closer_raw->stats().queries, 0u);  // never woken
}

// -- Cross-backend differential harness. --------------------------------------

/// Directory of the running test binary (the build tree), where the in-tree
/// `smtcheck` SMT-LIB CLI lives.
std::string build_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  const std::string path(buf);
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string smtcheck_command() {
  const std::string candidate = build_dir() + "/smtcheck";
  return fs::exists(candidate) ? candidate : std::string();
}

/// The full backend matrix over one context: both in-tree backends, the pipe
/// driving the in-tree SMT-LIB CLI (when built), and a portfolio racing the
/// in-tree pair. Every member of the matrix must agree on every verdict.
std::vector<std::pair<std::string, std::unique_ptr<Solver>>> backend_matrix(
    Context& ctx) {
  std::vector<std::pair<std::string, std::unique_ptr<Solver>>> matrix;
  matrix.emplace_back("z3", make_z3_solver(ctx));
  matrix.emplace_back("bitblast", make_bitblast_solver(ctx));
  const std::string pipe_cmd = smtcheck_command();
  if (!pipe_cmd.empty())
    matrix.emplace_back("pipe", make_pipe_solver(ctx, pipe_cmd));
  std::vector<std::unique_ptr<Solver>> members;
  members.push_back(make_z3_solver(ctx));
  members.push_back(make_bitblast_solver(ctx));
  matrix.emplace_back("portfolio", make_portfolio_solver(std::move(members)));
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

// -- Pipe backend failure modes. ----------------------------------------------

/// A query whose SMT-LIB text comfortably exceeds the 64 KiB pipe buffer,
/// so the writer still has bytes in flight whenever the child dies early.
std::vector<ExprRef> oversized_query(Context& ctx, const std::string& tag) {
  std::vector<ExprRef> query;
  for (int i = 0; i < 4000; ++i) {
    ExprRef v = ctx.var(tag + std::to_string(i), 32);
    query.push_back(ctx.eq(v, ctx.constant(static_cast<uint64_t>(i), 32)));
  }
  return query;
}

TEST(PipeSolver, ChildDyingBeforeDrainingStdinIsInertNotFatal) {
  // Regression: a child that exits without reading its stdin — a crashed
  // solver, or execvp's _exit(127) for a missing binary — widows the write
  // pipe mid-query. The write must surface as EPIPE and degrade the check
  // to kUnknown, not raise SIGPIPE and kill the whole engine process.
  Context ctx;
  const std::vector<ExprRef> query = oversized_query(ctx, "widow");
  auto exits = make_pipe_solver(ctx, "true");  // exits, never reads stdin
  Assignment model;
  EXPECT_EQ(exits->check(query, &model), CheckResult::kUnknown);
  EXPECT_EQ(exits->stats().unknown, 1u);

  auto missing =
      make_pipe_solver(ctx, "binsym-definitely-not-a-solver-binary");
  EXPECT_EQ(missing->check(query, &model), CheckResult::kUnknown);
  // ... and both stay usable for the next check (inert, not fatal).
  EXPECT_EQ(exits->check(query, nullptr), CheckResult::kUnknown);
}

/// Write an executable shell script that ignores its stdin and prints the
/// given response; returns the script path (usable as a pipe command).
std::string scripted_solver(const std::string& dir,
                            const std::string& response) {
  const std::string path = dir + "/fake-solver.sh";
  {
    std::ofstream out(path);
    out << "#!/bin/sh\ncat >/dev/null\nprintf '%s\\n' '" << response << "'\n";
  }
  fs::permissions(path, fs::perms::owner_all);
  return path;
}

TEST(PipeSolver, DuplicateModelBindingCannotMaskAMissingVariable) {
  // Regression: a solver that binds x twice while omitting y must degrade
  // to kUnknown — counting (name value) pairs would accept the incomplete
  // model, and y would silently read as zero downstream.
  const std::string dir = fresh_dir("dup-binding");
  Context ctx;
  ExprRef x = ctx.var("x", 8);
  ExprRef y = ctx.var("y", 8);
  const std::vector<ExprRef> query{ctx.eq(x, ctx.constant(1, 8)),
                                   ctx.eq(y, ctx.constant(2, 8))};

  auto duplicated = make_pipe_solver(
      ctx, scripted_solver(dir, "sat\n((x (_ bv1 8)) (x (_ bv2 8)))"));
  Assignment model;
  EXPECT_EQ(duplicated->check(query, &model), CheckResult::kUnknown);

  // Control: the same script shape with both variables bound is a real
  // model and sails through.
  auto complete = make_pipe_solver(
      ctx, scripted_solver(dir, "sat\n((x (_ bv1 8)) (y (_ bv2 8)))"));
  Assignment good;
  ASSERT_EQ(complete->check(query, &good), CheckResult::kSat);
  EXPECT_EQ(good.get(x->var_id), 1u);
  EXPECT_EQ(good.get(y->var_id), 2u);
}

}  // namespace
}  // namespace binsym::smt

// -- Engine-level harness: Table I corpus, store end-to-end, identity sweep. --

namespace binsym {
namespace {

namespace fs = std::filesystem;

/// How each exploration builds its per-worker solver stack.
enum class SolverSetup { kPlain, kPortfolio };

class PortfolioEngineTest : public ::testing::Test {
 protected:
  PortfolioEngineTest() {
    spec::install_rv32im(registry, table);
    spec::install_custom_madd(table, registry);
    spec::install_zbb(table, registry);
  }

  core::Program load_asm(const std::string& source) {
    return elf::to_program(rvasm::assemble_or_die(table, source).image);
  }

  core::WorkerFactory factory(const core::Program& program, SolverSetup setup,
                              const std::string& oracles_spec = "") {
    return [this, &program, setup, oracles_spec](unsigned) {
      core::WorkerResources r;
      r.ctx = std::make_unique<smt::Context>();
      r.executor = std::make_unique<core::BinSymExecutor>(
          *r.ctx, decoder, registry, program, core::MachineConfig{});
      if (setup == SolverSetup::kPortfolio) {
        std::vector<std::unique_ptr<smt::Solver>> members;
        members.push_back(smt::make_z3_solver(*r.ctx));
        members.push_back(smt::make_bitblast_solver(*r.ctx));
        r.solver = smt::make_portfolio_solver(std::move(members));
      } else {
        r.solver = smt::make_z3_solver(*r.ctx);
      }
      if (!oracles_spec.empty()) {
        std::string error;
        auto manager = oracles::OracleManager::make(
            *r.ctx,
            oracles::MemoryMap::for_program(program,
                                            core::MachineConfig{}.stack_top),
            oracles_spec, &error);
        EXPECT_TRUE(manager) << error;
        r.executor->set_observer(manager.get());
        struct Keep {
          std::unique_ptr<oracles::OracleManager> manager;
        };
        auto keep = std::make_shared<Keep>();
        keep->manager = std::move(manager);
        r.keepalive = std::move(keep);
      }
      return r;
    };
  }

  struct Exploration {
    core::EngineStats stats;
    std::set<std::string> path_keys;
    std::multiset<uint32_t> failures;
  };

  Exploration explore(const core::Program& program, SolverSetup setup,
                      core::EngineOptions options) {
    core::DseEngine dse(factory(program, setup), options);
    Exploration result;
    result.stats = dse.explore([&](const core::PathResult& path) {
      std::string key;
      key.reserve(path.trace.branches.size());
      for (const core::BranchRecord& b : path.trace.branches)
        key += b.taken ? '1' : '0';
      result.path_keys.insert(key);
      for (const core::Failure& f : path.trace.failures)
        result.failures.insert(f.id);
    });
    return result;
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

TEST_F(PortfolioEngineTest, TableICorpusAgreesAcrossAllBackends) {
  // Dump the real flip queries of a Table I workload prefix as SMT-LIB
  // files, then replay every one through the full backend matrix: one
  // verdict per query, every sat model valid. This is the corpus leg of the
  // differential harness — the randomized leg lives above.
  const std::string dump_dir = smt::fresh_dir("corpus");
  core::Program program = workloads::load_workload(table, "base64-encode");
  core::EngineOptions options;
  options.max_paths = 40;
  options.smtlib_dump_dir = dump_dir;
  Exploration run = explore(program, SolverSetup::kPlain, options);
  EXPECT_GT(run.stats.paths, 0u);

  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dump_dir))
    if (entry.path().extension() == ".smt2") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_GT(files.size(), 4u);
  if (files.size() > 60) files.resize(60);  // bound the replay cost

  uint64_t sat = 0, unsat = 0;
  for (const std::string& file : files) {
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    smt::Context ctx;
    std::vector<smt::ExprRef> assertions;
    std::string error;
    ASSERT_TRUE(smt::parse_query(ctx, text.str(), &assertions, &error))
        << file << ": " << error;
    auto matrix = smt::backend_matrix(ctx);
    switch (smt::check_all_backends_agree(assertions, matrix, file)) {
      case smt::CheckResult::kSat: ++sat; break;
      case smt::CheckResult::kUnsat: ++unsat; break;
      case smt::CheckResult::kUnknown: break;
    }
  }
  // The corpus must exercise both polarities, or the agreement is vacuous.
  EXPECT_GT(sat, 0u);
  EXPECT_GT(unsat, 0u);
}

TEST_F(PortfolioEngineTest, WarmStoreAnswersWithoutBackendCallsOrPathDrift) {
  const std::string store_dir = smt::fresh_dir("warm");
  core::Program program = load_asm(kThreeBranchGuest);

  core::EngineOptions options;
  options.solver_store = smt::SolverStore::open(store_dir);
  EXPECT_TRUE(options.solver_store->load_error().empty());
  Exploration cold = explore(program, SolverSetup::kPlain, options);
  EXPECT_GT(cold.stats.store_misses, 0u);
  EXPECT_EQ(cold.stats.store_hits, 0u);
  EXPECT_GT(cold.stats.store_entries, 0u);
  EXPECT_GT(backend_calls(cold.stats), 0u);

  // A fresh process would reopen the flushed file exactly like this.
  options.solver_store = smt::SolverStore::open(store_dir);
  EXPECT_TRUE(options.solver_store->load_error().empty());
  Exploration warm = explore(program, SolverSetup::kPlain, options);
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
    pos += 4 + u32_at(pos);              // backend string
    pos += 8;                            // solve seconds
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

TEST_F(PortfolioEngineTest, CollidingStoreEntriesNeverCorruptExploration) {
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
  Exploration cold = explore(program, SolverSetup::kPlain, options);
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
  Exploration warm = explore(program, SolverSetup::kPlain, options);
  EXPECT_EQ(warm.path_keys, cold.path_keys);
  EXPECT_EQ(warm.failures, cold.failures);
  EXPECT_EQ(warm.stats.paths, cold.stats.paths);
  // Every zeroed sat model violates its query (each flip negates a branch
  // the all-zero seed path took), so validation provably fired and sent
  // work back to the solver instead of trusting the store.
  EXPECT_GT(backend_calls(warm.stats), 0u);
  EXPECT_GT(warm.stats.store_misses, 0u);
}

TEST_F(PortfolioEngineTest, InjectedUnknownsAreNeverPersisted) {
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
  Exploration run = explore(program, SolverSetup::kPlain, options);
  EXPECT_GT(run.stats.queries_unknown, 0u);
  EXPECT_EQ(run.stats.store_entries, 0u);
  EXPECT_EQ(smt::SolverStore::open(store_dir)->size(), 0u);
}

TEST_F(PortfolioEngineTest, FindingTriplesIdenticalWithPortfolioOnAndOff) {
  // Racing backends must be invisible to bug finding: whichever member wins
  // whichever query, the (oracle, pc, call-depth) triples over the buggy
  // corpus are bit-identical to the plain-z3 campaign.
  for (const char* name :
       {"buggy-div", "buggy-overflow", "buggy-unaligned", "buggy-stack-smash"}) {
    core::Program program = workloads::load_workload(table, name);
    auto campaign = [&](SolverSetup setup) {
      core::DseEngine dse(factory(program, setup, "all"),
                          core::EngineOptions{});
      dse.explore();
      std::multiset<uint64_t> keys;
      for (const core::Finding& f : dse.findings())
        keys.insert(core::finding_key(f.oracle, f.pc, f.call_depth));
      return keys;
    };
    std::multiset<uint64_t> plain = campaign(SolverSetup::kPlain);
    EXPECT_FALSE(plain.empty()) << name;
    EXPECT_EQ(plain, campaign(SolverSetup::kPortfolio)) << name;
  }
}

// -- Table I bit-identity sweep. ---------------------------------------------
//
// The portfolio and the store may only change cost, never meaning: across
// {portfolio on, off} x {store cold, warm} x {dfs, coverage} x jobs {1, 4},
// the discovered path set and failures must be bit-identical to the plain
// dfs/jobs=1 reference. One store directory is shared by all configurations
// of a workload, so the first run is the cold one and every later run is
// warm — which also proves warm answers (possibly models minted by a
// *different* backend in an earlier configuration) cause zero path drift.
// Excluded from the sanitizer CI jobs like the other full-workload sweeps.

class PortfolioWorkloadIdentity
    : public PortfolioEngineTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(PortfolioWorkloadIdentity, PathSetInvariantAcrossPortfolioStoreJobs) {
  core::Program program = workloads::load_workload(table, GetParam());
  const std::string store_dir =
      smt::fresh_dir(std::string("sweep-") + GetParam());

  Exploration reference =
      explore(program, SolverSetup::kPlain, core::EngineOptions{});
  EXPECT_GT(reference.stats.paths, 100u);
  EXPECT_EQ(reference.stats.paths, reference.path_keys.size());

  bool first_config = true;
  core::EngineStats last_stats;
  for (SolverSetup setup : {SolverSetup::kPortfolio, SolverSetup::kPlain}) {
    for (core::SearchKind kind :
         {core::SearchKind::kDepthFirst, core::SearchKind::kCoverageGuided}) {
      for (unsigned jobs : {1u, 4u}) {
        core::EngineOptions options;
        options.search = kind;
        options.jobs = jobs;
        options.solver_store = smt::SolverStore::open(store_dir);
        ASSERT_TRUE(options.solver_store->load_error().empty());
        Exploration run = explore(program, setup, options);
        std::string label =
            std::string(setup == SolverSetup::kPortfolio ? "portfolio"
                                                         : "plain") +
            " " + core::search_kind_name(kind) +
            " jobs=" + std::to_string(jobs) +
            (first_config ? " (cold)" : " (warm)");
        EXPECT_EQ(run.stats.paths, reference.stats.paths) << label;
        EXPECT_EQ(run.path_keys, reference.path_keys) << label;
        EXPECT_EQ(run.failures, reference.failures) << label;
        if (first_config) {
          // The cold portfolio run must actually exercise the new machinery.
          EXPECT_GT(run.stats.solver.portfolio_races +
                        run.stats.solver.portfolio_routed,
                    0u)
              << label;
          EXPECT_EQ(run.stats.store_hits, 0u) << label;
          EXPECT_GT(run.stats.store_entries, 0u) << label;
        }
        first_config = false;
        last_stats = run.stats;
      }
    }
  }
  // The final (warmest) configuration answers from the store.
  EXPECT_GT(last_stats.store_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Table1, PortfolioWorkloadIdentity,
                         ::testing::Values("base64-encode", "bubble-sort",
                                           "clif-parser", "insertion-sort",
                                           "uri-parser"));

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

SolverStore::Entry sat_entry(std::string backend = "z3") {
  SolverStore::Entry entry;
  entry.verdict = CheckResult::kSat;
  entry.model = {{"sym_input_0", 42}, {"sym_input_1", 7}};
  entry.backend = std::move(backend);
  entry.solve_seconds = 0.125;
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
    unsat.backend = "bitblast+cdcl";
    unsat.solve_seconds = 2.5;
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
  EXPECT_EQ(entry.backend, "z3");
  EXPECT_EQ(entry.solve_seconds, 0.125);
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

  store->insert(key_of({5}), sat_entry("first"));
  store->insert(key_of({5}), sat_entry("second"));
  SolverStore::Entry entry;
  ASSERT_TRUE(store->lookup(key_of({5}), &entry));
  EXPECT_EQ(entry.backend, "first");
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
  EXPECT_EQ(out.backend, "z3");
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
    unsat.backend = "z3";
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
