// sim::RunBook: the run list, the config-quarantine gate, failure counting
// and the run-index-order fold that the thread pool, campaignd::run_local
// and the campaignd coordinator share.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/error.hpp"

namespace mts::sim {
namespace {

/// Fails runs 1 and 4; every run writes a scalar, a body counter and a
/// report entry, so the fold has results, registries and reports to order.
void body(CampaignContext& ctx) {
  const std::size_t i = ctx.spec().index;
  ctx.set("index", static_cast<double>(i));
  ctx.metrics().counter("book", "runs").inc(i + 1);
  ctx.sim().report().add(0, Severity::kInfo, "book",
                         "run " + std::to_string(i));
  if (i == 1 || i == 4) throw SimulationError("run " + std::to_string(i));
}

/// Executes the listed runs of `book` in `order` on one shard, as a
/// transport would, and returns the folded campaign JSON.
std::string execute_in(RunBook& book, const CampaignOptions& opt,
                       const std::vector<std::size_t>& order) {
  RunShard shard(opt);
  for (std::size_t i : order) {
    if (!book.admit(i)) continue;
    run_step(shard, opt, book.configs(), book.reps(), i, 0, body,
             book.slot(i));
    book.file(i);
  }
  CampaignOutcome out;
  book.fold(out);
  return out.to_json(false) + out.health_json(false);
}

/// A result-only record for run `index` (as a transport files a run it
/// did not execute: attempts == 0).
void file_unexecuted(RunBook& book, std::size_t index) {
  RunResult& r = book.slot(index).result;
  r.index = index;
  r.ok = false;
  r.attempts = 0;
  r.classification = "quarantined";
  r.error = "unit 0 quarantined";
  book.file(index);
}

TEST(RunBook, FilingOutOfOrderFoldsLikeFilingInOrder) {
  CampaignOptions opt;
  opt.seed = 7;
  RunBook in_order(2, 3, opt);
  RunBook reversed(2, 3, opt);
  const std::string want = execute_in(in_order, opt, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(execute_in(reversed, opt, {5, 4, 3, 2, 1, 0}), want);
  EXPECT_NE(want.find("\"failed_runs\": 2"), std::string::npos) << want;
}

TEST(RunBook, FilterIsSortedAndDeduplicated) {
  const CampaignOptions opt;
  const RunBook all(2, 3, opt);
  EXPECT_EQ(all.runs(), (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));

  const RunBook some(2, 3, opt, {4, 1, 4});
  EXPECT_EQ(some.runs(), (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(some.remaining(), 2u);
  EXPECT_TRUE(some.listed(1));
  EXPECT_FALSE(some.listed(0));

  EXPECT_THROW(RunBook(2, 3, opt, {1, 6}), ConfigError);
}

TEST(RunBook, UnlistedIndexIsRejected) {
  const CampaignOptions opt;
  RunBook some(2, 3, opt, {1, 4});
  EXPECT_THROW(some.slot(2), ConfigError);
  EXPECT_THROW(some.admit(2), ConfigError);
  EXPECT_THROW(some.file(2), ConfigError);
  EXPECT_THROW(some.filed(2), ConfigError);
  RunBook all(2, 3, opt);
  EXPECT_THROW(all.slot(6), ConfigError);

  all.slot(0).result.ok = true;
  all.file(0);
  EXPECT_THROW(all.file(0), ConfigError);  // filed twice
}

TEST(RunBook, UnexecutedRecordsNeverCountTowardQuarantine) {
  CampaignOptions opt;
  opt.quarantine_after = 1;
  RunBook book(1, 4, opt);
  // A unit-quarantine record (the fleet gave up on the run): not executed,
  // so config 0 keeps its budget.
  file_unexecuted(book, 0);
  EXPECT_TRUE(book.admit(1));
  EXPECT_TRUE(book.quarantined_configs().empty());

  // One executed failure burns it: the gate files the skip record itself.
  RunResult& r = book.slot(1).result;
  r.index = 1;
  r.ok = false;
  r.attempts = 1;
  book.file(1);
  EXPECT_FALSE(book.admit(2));
  EXPECT_TRUE(book.filed(2));
  const RunResult& skip = book.slot(2).result;
  EXPECT_EQ(skip.attempts, 0u);
  EXPECT_EQ(skip.classification, "quarantined");
  EXPECT_EQ(skip.error, "config 0 quarantined after 1 failed runs");
  EXPECT_EQ(skip.seed, campaign_run_seed(opt.seed, 2));
  EXPECT_EQ(book.quarantined_configs(), (std::vector<std::size_t>{0}));

  // Skips are failures in the artifacts but never in the budget.
  opt.quarantine_after = 2;
  RunBook budget(1, 4, opt);
  file_unexecuted(budget, 0);
  file_unexecuted(budget, 1);
  budget.slot(2).result.attempts = 1;  // executed failure
  budget.file(2);
  EXPECT_TRUE(budget.admit(3));
  EXPECT_TRUE(budget.quarantined_configs().empty());
}

TEST(RunBook, RemainingCountsDownToZero) {
  CampaignOptions opt;
  opt.quarantine_after = 1;
  RunBook book(2, 2, opt);
  EXPECT_EQ(book.remaining(), 4u);
  book.slot(0).result.attempts = 1;  // executed failure
  book.file(0);
  EXPECT_EQ(book.remaining(), 3u);
  EXPECT_FALSE(book.admit(1));  // the gate's skip record files the run
  EXPECT_EQ(book.remaining(), 2u);
  for (const std::size_t i : {std::size_t{3}, std::size_t{2}}) {
    ASSERT_TRUE(book.admit(i));
    book.slot(i).result.ok = true;
    book.file(i);
  }
  EXPECT_EQ(book.remaining(), 0u);
  CampaignOutcome out;
  book.fold(out);
  ASSERT_EQ(out.results.size(), 4u);
  EXPECT_EQ(out.results[1].classification, "quarantined");
}

}  // namespace
}  // namespace mts::sim
