#include "support/fault.hpp"

#include <cstdlib>
#include <optional>

namespace binsym::support {

namespace {

std::optional<FaultSite> parse_site(const std::string& name) {
  for (uint8_t s = 0; s < static_cast<uint8_t>(FaultSite::kNumFaultSites); ++s)
    if (name == fault_site_name(static_cast<FaultSite>(s)))
      return static_cast<FaultSite>(s);
  return std::nullopt;
}

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

/// Parse one `site@N`, `site@N+` or `site@N:M` clause into the plan.
bool parse_clause(const std::string& clause, FaultPlan* plan,
                  std::string* error) {
  size_t at = clause.find('@');
  if (at == std::string::npos)
    return fail(error, "clause '" + clause + "' has no '@' (want site@N)");
  std::optional<FaultSite> site = parse_site(clause.substr(0, at));
  if (!site)
    return fail(error, "unknown fault site '" + clause.substr(0, at) +
                           "' (want solver, solver-throw or alloc)");

  FaultPlan::Rule rule;
  const char* cursor = clause.c_str() + at + 1;
  char* end = nullptr;
  rule.start = std::strtoull(cursor, &end, 10);
  if (end == cursor || rule.start == 0)
    return fail(error, "clause '" + clause +
                           "' needs a positive 1-based occurrence index");
  if (*end == '+') {
    rule.open_ended = true;
    ++end;
  } else if (*end == ':') {
    cursor = end + 1;
    rule.every = std::strtoull(cursor, &end, 10);
    if (end == cursor || rule.every == 0)
      return fail(error,
                  "clause '" + clause + "' needs a positive period after ':'");
  }
  if (*end != '\0')
    return fail(error, "trailing garbage in clause '" + clause + "'");
  plan->add(*site, rule);
  return true;
}

}  // namespace

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kSolverUnknown: return "solver";
    case FaultSite::kSolverThrow:   return "solver-throw";
    case FaultSite::kAlloc:         return "alloc";
    case FaultSite::kNumFaultSites: break;
  }
  return "?";
}

std::shared_ptr<FaultPlan> FaultPlan::parse(const std::string& spec,
                                            std::string* error) {
  auto plan = std::make_shared<FaultPlan>();
  if (spec.empty()) return plan;  // an empty plan never fires
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t comma = spec.find(',', begin);
    if (comma == std::string::npos) comma = spec.size();
    if (!parse_clause(spec.substr(begin, comma - begin), plan.get(), error))
      return nullptr;
    begin = comma + 1;
  }
  return plan;
}

void FaultPlan::add(FaultSite site, Rule rule) {
  rules_[static_cast<size_t>(site)].push_back(rule);
}

bool FaultPlan::fire(FaultSite site) {
  const size_t index = static_cast<size_t>(site);
  // The occurrence index is claimed atomically, so concurrent workers never
  // observe the same index twice (each rule fires at most once per index).
  const uint64_t occurrence =
      counters_[index].fetch_add(1, std::memory_order_relaxed) + 1;
  for (const Rule& rule : rules_[index]) {
    if (occurrence < rule.start) continue;
    bool hit = occurrence == rule.start || rule.open_ended ||
               (rule.every != 0 && (occurrence - rule.start) % rule.every == 0);
    if (hit) {
      fired_[index].fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

uint64_t FaultPlan::occurrences(FaultSite site) const {
  return counters_[static_cast<size_t>(site)].load(std::memory_order_relaxed);
}

uint64_t FaultPlan::fired(FaultSite site) const {
  return fired_[static_cast<size_t>(site)].load(std::memory_order_relaxed);
}

}  // namespace binsym::support
