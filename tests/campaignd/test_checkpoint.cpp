// Checkpoint journal: exact reload across batches, rejection of foreign or
// malformed files, and -- through real coordinator fleets -- a torn tail
// resuming byte-identically to the in-process oracle, append-on-resume,
// and a fresh journal for every run without resume.
//
// Built into the campaignd e2e binary: the fleet cases spawn the
// mts_campaignd worker (MTS_CAMPAIGND_BIN overrides its baked-in path).
#include "campaignd/checkpoint.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaignd/coordinator.hpp"
#include "campaignd/json.hpp"
#include "campaignd/snapshots.hpp"
#include "campaignd/wire.hpp"

namespace campaignd = mts::campaignd;
namespace json = mts::campaignd::json;
using campaignd::CheckpointError;
using campaignd::CheckpointJournal;
using campaignd::Coordinator;

namespace {

constexpr const char* kDigest = "00deadbeef001122";

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "mts_ckpt_" + name + "_" +
         std::to_string(::getpid()) + ".journal";
}

json::Value run_record(std::size_t index) {
  json::Value result = json::Value::object();
  result.set("index", json::Value::number_size(index));
  result.set("seed", json::Value::number_u64(0x123456789abcdef0ull + index));
  result.set("ok", json::Value(true));
  json::Value rec = json::Value::object();
  rec.set("result", std::move(result));
  return rec;
}

/// A 2 x 3 job's journal. Filing order deliberately != index order; a
/// resume must preserve it (the fold re-sorts, the journal does not).
void write_sample(const std::string& path, bool complete = false) {
  CheckpointJournal j(path, 2, 3, kDigest);
  for (std::size_t i : {4u, 0u, 5u}) j.add(run_record(i));
  j.commit(complete);
}

/// What resuming a journal found: its intact records and completion.
struct Resumed {
  std::vector<json::Value> records;
  bool complete = false;
};

/// Resumes the journal at `path` as a `configs` x `reps` job with
/// `digest`.
Resumed resume(const std::string& path, const std::string& digest = kDigest,
               std::size_t configs = 2, std::size_t reps = 3) {
  Resumed r;
  CheckpointJournal j(path, configs, reps, digest);
  r.complete = j.resume([&r](json::Value& rec) { r.records.push_back(rec); });
  return r;
}

bool file_exists(const std::string& p) {
  struct stat st{};
  return ::stat(p.c_str(), &st) == 0;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// -- fleet cases --------------------------------------------------------------

std::string worker_bin() {
  if (const char* env = std::getenv("MTS_CAMPAIGND_BIN")) return env;
  return MTS_CAMPAIGND_BIN_DEFAULT;
}

#define REQUIRE_WORKER_BIN()                                \
  do {                                                      \
    if (::access(worker_bin().c_str(), X_OK) != 0) {        \
      GTEST_SKIP() << "mts_campaignd binary unavailable";   \
    }                                                       \
  } while (false)

campaignd::JobSpec tiny_job(std::size_t reps) {
  campaignd::JobSpec job;
  job.params = json::parse("{\"cycles\": 1, \"coverage\": false}");
  job.configs = 1;
  job.reps = reps;
  job.opt.seed = 20010618;
  return job;
}

campaignd::CoordinatorOptions fleet(const std::string& ckpt, bool resume) {
  campaignd::CoordinatorOptions opt;
  opt.workers = 1;
  opt.worker_cmd = {worker_bin(), "worker", "--port", "{port}"};
  opt.heartbeat_interval_ms = 25;
  opt.checkpoint_path = ckpt;
  opt.checkpoint_every = 1;
  opt.resume = resume;
  return opt;
}

/// The artifacts the kill-and-resume drill compares.
std::string artifacts(const Coordinator::Outcome& o) {
  return o.to_json(false) + o.health_json(false);
}

std::string run_fleet(const campaignd::JobSpec& job, const std::string& ckpt,
                      bool resume) {
  Coordinator::Outcome out;
  Coordinator(job, fleet(ckpt, resume)).run(out);
  return artifacts(out);
}

std::string run_oracle(const campaignd::JobSpec& job) {
  Coordinator::Outcome out;
  campaignd::run_local(job, out);
  return artifacts(out);
}

/// Byte offset of the last frame (header included) in a journal.
std::size_t last_frame_start(const std::string& bytes) {
  std::size_t at = 0;
  std::size_t last = 0;
  while (at + 4 <= bytes.size()) {
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data() + at);
    last = at;
    at += 4 + ((std::size_t{p[0]} << 24) | (std::size_t{p[1]} << 16) |
               (std::size_t{p[2]} << 8) | std::size_t{p[3]});
  }
  return last;
}

}  // namespace

TEST(CampaigndCheckpoint, RoundTrip) {
  const std::string path = temp_path("roundtrip");
  CheckpointJournal j(path, 2, 3, kDigest);
  j.add(run_record(4));
  j.commit(false);
  j.add(run_record(0));  // a second batch appends
  j.add(run_record(5));
  j.commit(false);
  const std::string bytes = slurp(path);

  const Resumed back = resume(path);
  EXPECT_FALSE(back.complete);
  EXPECT_EQ(slurp(path), bytes);  // nothing torn, nothing truncated
  const std::vector<json::Value>& recs = back.records;
  ASSERT_EQ(recs.size(), 3u);
  const std::size_t order[] = {4, 0, 5};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(recs[i].dump(), run_record(order[i]).dump());
  }
  EXPECT_EQ(campaignd::record_run_index(recs[0]), 4u);
  std::remove(path.c_str());
}

TEST(CampaigndCheckpoint, CompleteFlagRoundTrips) {
  const std::string path = temp_path("complete");
  write_sample(path, true);
  const Resumed done = resume(path);
  EXPECT_TRUE(done.complete);
  EXPECT_EQ(done.records.size(), 3u);
  write_sample(path, false);
  EXPECT_FALSE(resume(path).complete);
  std::remove(path.c_str());
}

TEST(CampaigndCheckpoint, WriteIsAtomicNoTmpResidue) {
  const std::string path = temp_path("atomic");
  write_sample(path);
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  // A resumed journal appends in place.
  CheckpointJournal j(path, 2, 3, kDigest);
  j.resume([](json::Value&) {});
  j.add(run_record(1));
  j.commit(false);
  EXPECT_EQ(resume(path).records.size(), 4u);
  EXPECT_FALSE(file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(CampaigndCheckpoint, DigestMismatchRejected) {
  const std::string path = temp_path("digest");
  write_sample(path);
  EXPECT_THROW(resume(path, "ffffffffffffffff"), CheckpointError);
  EXPECT_NO_THROW(resume(path));
  std::remove(path.c_str());
}

TEST(CampaigndCheckpoint, MissingFileRejected) {
  EXPECT_THROW(resume(temp_path("nonexistent-zz")), CheckpointError);
}

TEST(CampaigndCheckpoint, ForeignOrCorruptFilesRejected) {
  const std::string path = temp_path("corrupt");
  auto frame = [](const std::string& payload) {
    return campaignd::encode_frame(payload);
  };

  // Not a journal at all (a torn first write can't produce this -- the
  // header lands by rename -- but a user pointing --resume at the wrong
  // file can).
  write_text(path, "not json {{{");
  EXPECT_THROW(resume(path), CheckpointError);
  write_text(path, "");
  EXPECT_THROW(resume(path), CheckpointError);

  // A JSON document with the wrong magic, bare and framed.
  write_text(path, "{\"magic\":\"something-else\",\"version\":1}");
  EXPECT_THROW(resume(path), CheckpointError);
  write_text(path, frame("{\"magic\":\"something-else\",\"version\":2}"));
  EXPECT_THROW(resume(path), CheckpointError);

  // Right magic, unknown version.
  {
    json::Value header = json::Value::object();
    header.set("magic", json::Value(campaignd::kCheckpointMagic));
    header.set("version", json::Value::number_i64(99));
    write_text(path, frame(header.dump()));
  }
  EXPECT_THROW(resume(path), CheckpointError);

  // Run index outside the declared matrix.
  write_sample(path);
  write_text(path, slurp(path) + frame(run_record(6).dump()));  // max is 5
  EXPECT_THROW(resume(path), CheckpointError);

  // Record without result.index.
  write_sample(path);
  write_text(path, slurp(path) + frame("{}"));
  EXPECT_THROW(resume(path), CheckpointError);

  std::remove(path.c_str());
}

TEST(CampaigndCheckpoint, VersionOneDocumentNamesItsVersion) {
  const std::string path = temp_path("v1");
  write_text(path,
             "{\"magic\":\"mts-campaignd-checkpoint\",\"version\":1,"
             "\"job\":{\"configs\":2,\"reps\":3,"
             "\"digest\":\"00deadbeef001122\"},"
             "\"complete\":false,\"runs\":[]}");
  try {
    resume(path);
    ADD_FAILURE() << "a version-1 checkpoint loaded";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(CampaigndCheckpoint, RecordRunIndexValidates) {
  EXPECT_EQ(campaignd::record_run_index(run_record(7)), 7u);
  EXPECT_THROW(campaignd::record_run_index(json::Value::object()),
               CheckpointError);
  EXPECT_THROW(campaignd::record_run_index(json::parse("[1]")),
               CheckpointError);
}

TEST(CampaigndCheckpoint, ResumeStopsAtTheFirstShortOrUndecodableFrame) {
  const std::string path = temp_path("torn");
  write_sample(path);
  const std::string whole = slurp(path);
  const std::size_t last = last_frame_start(whole);
  for (std::size_t cut = last; cut < whole.size(); ++cut) {
    write_text(path, whole.substr(0, cut));
    EXPECT_EQ(resume(path).records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(slurp(path), whole.substr(0, last)) << "cut at " << cut;
  }
  // A complete frame that does not parse ends the prefix too, and nothing
  // after it is read.
  write_text(path, whole.substr(0, last) + campaignd::encode_frame("{\"res") +
                       whole.substr(last));
  EXPECT_EQ(resume(path).records.size(), 2u);
  EXPECT_EQ(slurp(path), whole.substr(0, last));
  std::remove(path.c_str());
}

TEST(CampaigndCheckpoint, TornTailAtEveryByteResumesLikeRunLocal) {
  REQUIRE_WORKER_BIN();
  const campaignd::JobSpec job = tiny_job(2);
  const std::string oracle = run_oracle(job);
  const std::string path = temp_path("every_byte");
  std::remove(path.c_str());
  EXPECT_EQ(run_fleet(job, path, false), oracle);
  // Drop the completion frame: the journal of a campaign killed after its
  // last record landed. Then cut that record at every byte.
  const std::string full = slurp(path);
  const std::string journal = full.substr(0, last_frame_start(full));
  const std::size_t last = last_frame_start(journal);
  std::remove(path.c_str());

  // Each cut resumes in its own fleet; a few fleets run at once.
  const std::size_t cuts = journal.size() - last;
  std::vector<std::string> got(cuts);
  const unsigned lanes = 4;
  std::vector<std::thread> pool;
  for (unsigned lane = 0; lane < lanes; ++lane) {
    pool.emplace_back([&, lane] {
      const std::string p = temp_path("every_byte_" + std::to_string(lane));
      for (std::size_t c = lane; c < cuts; c += lanes) {
        write_text(p, journal.substr(0, last + c));
        try {
          got[c] = run_fleet(job, p, true);
        } catch (const std::exception& e) {
          got[c] = e.what();
        }
      }
      std::remove(p.c_str());
    });
  }
  for (std::thread& t : pool) t.join();
  for (std::size_t c = 0; c < cuts; ++c) {
    EXPECT_EQ(got[c], oracle) << "cut " << c << " bytes into the last frame";
  }
}

TEST(CampaigndCheckpoint, ResumeAfterTruncationAppends) {
  REQUIRE_WORKER_BIN();
  const campaignd::JobSpec job = tiny_job(3);
  const std::string oracle = run_oracle(job);
  const std::string path = temp_path("append");
  std::remove(path.c_str());
  EXPECT_EQ(run_fleet(job, path, false), oracle);
  const std::string full = slurp(path);
  const std::size_t done = last_frame_start(full);
  const std::size_t last = last_frame_start(full.substr(0, done));

  // Torn in the middle of run 2's record: the resume keeps the intact
  // prefix byte for byte, re-executes run 2 and appends after it.
  write_text(path, full.substr(0, last + (done - last) / 2));
  EXPECT_EQ(run_fleet(job, path, true), oracle);
  const std::string resumed = slurp(path);
  EXPECT_EQ(resumed.substr(0, last), full.substr(0, last));
  const std::string digest = campaignd::job_digest(
      job.configs, job.reps, job.opt, job.workload, job.params.dump());
  const Resumed again = resume(path, digest, 1, 3);
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.records.size(), 3u);
  EXPECT_EQ(slurp(path), resumed);

  // A second resume is identical, and so is the file.
  EXPECT_EQ(run_fleet(job, path, true), oracle);
  EXPECT_EQ(slurp(path), resumed);
  std::remove(path.c_str());
}

TEST(CampaigndCheckpoint, ResumingACompleteJournalLeavesItByteIdentical) {
  REQUIRE_WORKER_BIN();
  const campaignd::JobSpec job = tiny_job(2);
  const std::string path = temp_path("complete_resume");
  std::remove(path.c_str());
  const std::string first = run_fleet(job, path, false);
  const std::string bytes = slurp(path);
  EXPECT_EQ(run_fleet(job, path, true), first);
  EXPECT_EQ(slurp(path), bytes);
  std::remove(path.c_str());
}

TEST(CampaigndCheckpoint, RunWithoutResumeStartsAFreshJournal) {
  REQUIRE_WORKER_BIN();
  const campaignd::JobSpec job = tiny_job(2);
  const std::string path = temp_path("fresh");
  write_sample(path);  // another job's journal at the same path
  run_fleet(job, path, false);
  EXPECT_THROW(resume(path), CheckpointError);
  const std::string digest = campaignd::job_digest(
      job.configs, job.reps, job.opt, job.workload, job.params.dump());
  const Resumed fresh = resume(path, digest, 1, 2);
  EXPECT_TRUE(fresh.complete);
  EXPECT_EQ(fresh.records.size(), 2u);
  // And again over its own journal: still one record per run.
  run_fleet(job, path, false);
  EXPECT_EQ(resume(path, digest, 1, 2).records.size(), 2u);
  std::remove(path.c_str());
}
