// Campaign run supervision: failure capture with exception types, same-seed
// retry classification (deterministic vs flaky), config quarantine, repro
// bundles, per-run deadlines, violation collection and the merged failure
// manifest.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/error.hpp"
#include "sim/watchdog.hpp"
#include "verify/hub.hpp"

namespace mts::sim {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CampaignSupervision, FailureCapturesTypeConfigAndSeed) {
  CampaignOptions opt;
  opt.workers = 2;
  opt.seed = 0xC0DE;
  Campaign campaign(2, 2, opt);
  campaign.run([](CampaignContext& ctx) {
    if (ctx.spec().config == 1 && ctx.spec().rep == 0) {
      throw SimulationError("bus conflict on cell 3");
    }
    ctx.set("done", 1.0);
  });
  ASSERT_EQ(campaign.failed(), 1u);
  const RunResult& bad = campaign.results()[2];  // config 1, rep 0
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, "bus conflict on cell 3");
  // The demangled exception TYPE is captured alongside what(): the repro
  // needs to know a DeadlineError from a ProtocolViolationError.
  EXPECT_NE(bad.error_type.find("SimulationError"), std::string::npos)
      << bad.error_type;
  EXPECT_EQ(bad.seed, campaign_run_seed(0xC0DE, 2));
  EXPECT_EQ(bad.attempts, 1u);
  EXPECT_TRUE(bad.classification.empty());  // no retries requested
  // The sibling runs completed untouched (failure isolation).
  EXPECT_TRUE(campaign.results()[0].ok);
  EXPECT_TRUE(campaign.results()[3].ok);
  // And the campaign JSON carries the typed failure.
  const std::string j = campaign.to_json(false);
  EXPECT_NE(j.find("SimulationError"), std::string::npos);
}

TEST(CampaignSupervision, EventualPassUnderRetryClassifiesFlaky) {
  CampaignOptions opt;
  opt.workers = 1;
  opt.max_attempts = 3;
  Campaign campaign(1, 1, opt);
  campaign.run([](CampaignContext& ctx) {
    // Host-dependent failure: vanishes on the same-seed re-run.
    if (ctx.attempt() == 1) throw SimulationError("transient");
    ctx.set("attempt", static_cast<double>(ctx.attempt()));
  });
  const RunResult& r = campaign.results()[0];
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(r.classification, "flaky");
  EXPECT_TRUE(r.error.empty());  // the healed run reports no error
  EXPECT_EQ(r.scalars.at("attempt"), 2.0);
  EXPECT_EQ(campaign.failed(), 0u);
}

TEST(CampaignSupervision, IdenticalRepeatedFailuresClassifyDeterministic) {
  CampaignOptions opt;
  opt.workers = 1;
  opt.max_attempts = 3;
  Campaign campaign(1, 1, opt);
  unsigned executions = 0;
  campaign.run([&executions](CampaignContext&) {
    ++executions;  // workers=1: no data race
    throw SimulationError("token ring corrupted");
  });
  const RunResult& r = campaign.results()[0];
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(executions, 3u);  // every attempt really ran
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.classification, "deterministic");
  EXPECT_EQ(r.error, "token ring corrupted");
}

TEST(CampaignSupervision, DifferingFailuresClassifyFlaky) {
  CampaignOptions opt;
  opt.workers = 1;
  opt.max_attempts = 2;
  Campaign campaign(1, 1, opt);
  campaign.run([](CampaignContext& ctx) {
    throw SimulationError("failure variant " +
                          std::to_string(ctx.attempt()));
  });
  const RunResult& r = campaign.results()[0];
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.classification, "flaky");
  EXPECT_EQ(r.error, "failure variant 2");  // last attempt's failure
}

TEST(CampaignSupervision, QuarantineSkipsABudgetBlownConfig) {
  CampaignOptions opt;
  opt.workers = 1;  // quarantine is placement-dependent; pin the order
  opt.quarantine_after = 2;
  Campaign campaign(2, 5, opt);
  unsigned config0_executions = 0;
  campaign.run([&config0_executions](CampaignContext& ctx) {
    if (ctx.spec().config == 0) {
      ++config0_executions;
      throw SimulationError("config 0 is broken");
    }
  });
  // Two failures burn the budget; the remaining three cells are skipped.
  EXPECT_EQ(config0_executions, 2u);
  ASSERT_TRUE(campaign.config_quarantined(0));
  EXPECT_FALSE(campaign.config_quarantined(1));
  ASSERT_EQ(campaign.quarantined().size(), 1u);
  EXPECT_EQ(campaign.quarantined()[0], 0u);
  unsigned skipped = 0;
  for (const RunResult& r : campaign.results()) {
    const std::size_t config = r.index / 5;
    if (config == 1) {
      EXPECT_TRUE(r.ok);
      continue;
    }
    EXPECT_FALSE(r.ok);
    if (r.classification == "quarantined") {
      ++skipped;
      EXPECT_EQ(r.attempts, 0u);  // never executed
      EXPECT_NE(r.error.find("quarantined after 2 failed runs"),
                std::string::npos);
    }
  }
  EXPECT_EQ(skipped, 3u);
  EXPECT_NE(campaign.to_json(false).find("\"quarantined_configs\": [0]"),
            std::string::npos);
  // The health document counts the skipped cells as failed runs.
  const std::string health = campaign.health_json();
  EXPECT_NE(health.find("\"failed\": 5, \"quarantined_runs\": 3"),
            std::string::npos)
      << health;
}

TEST(CampaignSupervision, ReproBundleIsSelfContained) {
  const std::string dir = "campaign_supervision_repro";
  std::filesystem::remove_all(dir);
  CampaignOptions opt;
  opt.workers = 1;
  opt.seed = 0xBADC;
  opt.max_attempts = 2;
  opt.repro_dir = dir;
  Campaign campaign(1, 2, opt);
  campaign.run([](CampaignContext& ctx) {
    if (ctx.spec().rep == 1) throw SimulationError("underflow at cell 2");
    ctx.set("throughput", 0.5);
  });
  const RunResult& good = campaign.results()[0];
  const RunResult& bad = campaign.results()[1];
  EXPECT_TRUE(good.repro_path.empty());  // passing runs write nothing
  ASSERT_FALSE(bad.repro_path.empty());
  ASSERT_TRUE(std::filesystem::exists(bad.repro_path));
  const std::string bundle = slurp(bad.repro_path);
  // Coordinates + seeds + typed failure: everything a re-run needs.
  EXPECT_NE(bundle.find("\"index\": 1"), std::string::npos) << bundle;
  EXPECT_NE(bundle.find("\"seed\": " + std::to_string(bad.seed)),
            std::string::npos)
      << bundle;
  EXPECT_NE(bundle.find("\"campaign_seed\": " + std::to_string(0xBADC)),
            std::string::npos)
      << bundle;
  EXPECT_NE(bundle.find("SimulationError"), std::string::npos) << bundle;
  EXPECT_NE(bundle.find("underflow at cell 2"), std::string::npos) << bundle;
  EXPECT_NE(bundle.find("\"classification\": \"deterministic\""),
            std::string::npos)
      << bundle;
  std::filesystem::remove_all(dir);
}

TEST(CampaignSupervision, RunDeadlineKillsAHungBody) {
  CampaignOptions opt;
  opt.workers = 1;
  opt.run_deadline_sec = 1e-9;  // every poll is already too late
  Campaign campaign(1, 1, opt);
  campaign.run([](CampaignContext& ctx) {
    // A "hung" run: plenty of scheduler events (the engine's per-attempt
    // watchdog polls every 4096) that never finish the protocol.
    for (Time t = 1; t <= 20'000; ++t) ctx.sim().sched().after(t, [] {});
    ctx.sim().run_until(30'000);
  });
  const RunResult& r = campaign.results()[0];
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error_type.find("DeadlineError"), std::string::npos)
      << r.error_type;
  EXPECT_NE(r.error.find("deadline"), std::string::npos) << r.error;
}

TEST(CampaignSupervision, CollectedViolationsLandInResultAndManifest) {
  CampaignOptions opt;
  opt.workers = 1;
  opt.collect_violations = true;
  Campaign campaign(1, 2, opt);
  campaign.run([](CampaignContext& ctx) {
    if (ctx.spec().rep == 0) {
      verify::Violation v;
      v.time = 7;
      v.invariant = verify::Invariant::kTokenRing;
      v.site = "dut.ptok";
      v.observed = "0 tokens";
      v.expected = "exactly 1 circulating token";
      ctx.monitors()->report(std::move(v));  // recorded, not thrown
    }
  });
  ASSERT_EQ(campaign.failed(), 0u);  // record-and-continue
  const RunResult& flagged = campaign.results()[0];
  EXPECT_EQ(flagged.violations, 1u);
  EXPECT_NE(flagged.violations_json.find("token-ring"), std::string::npos)
      << flagged.violations_json;
  EXPECT_EQ(campaign.results()[1].violations, 0u);
  // The hub mirrored the violation into the run's report, which the engine
  // reduces into the campaign-level manifest.
  EXPECT_EQ(campaign.merged_report().count("verify-token-ring"), 1u);
  EXPECT_NE(campaign.to_json(false).find("\"violations\""),
            std::string::npos);
}

TEST(CampaignSupervision, FailureManifestSummarizesEveryFailedRun) {
  CampaignOptions opt;
  opt.workers = 2;
  opt.max_attempts = 2;
  Campaign campaign(3, 1, opt);
  campaign.run([](CampaignContext& ctx) {
    if (ctx.spec().config == 2) throw SimulationError("detector stuck");
  });
  ASSERT_EQ(campaign.failed(), 1u);
  const Report& merged = campaign.merged_report();
  ASSERT_EQ(merged.count("campaign-failure"), 1u);
  std::string line;
  for (const ReportEntry& e : merged.entries()) {
    if (e.category == "campaign-failure") line = e.message;
  }
  // One line names everything: coordinates, seed, classification, type.
  EXPECT_NE(line.find("run 2 (config 2, rep 0, seed "), std::string::npos)
      << line;
  EXPECT_NE(line.find("[deterministic]"), std::string::npos) << line;
  EXPECT_NE(line.find("SimulationError"), std::string::npos) << line;
  EXPECT_NE(line.find("detector stuck"), std::string::npos) << line;
}

}  // namespace
}  // namespace mts::sim
