#include "campaignd/worker.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaignd/json.hpp"
#include "campaignd/net.hpp"
#include "campaignd/snapshots.hpp"
#include "campaignd/wire.hpp"
#include "campaignd/workload.hpp"
#include "sim/campaign.hpp"

namespace mts::campaignd {

namespace {

/// One scripted failure, delivered with a work unit. `marker` (when
/// non-empty) is an exactly-once gate shared across re-dispatches: the
/// first worker to O_CREAT|O_EXCL it executes the directive, every later
/// attempt sees EEXIST and runs normally -- which is precisely the
/// "crash once, succeed on retry" schedule the chaos suite needs.
struct ChaosDirective {
  std::string mode;  ///< kill | abort | hang | mute_heartbeat | drop_connection
  std::size_t at_run = 0;
  std::string marker;
};

/// Atomically claims a chaos marker. Empty marker: always fires.
bool claim_marker(const std::string& marker) {
  if (marker.empty()) return true;
  const int fd = ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

/// Periodic heartbeat sender. Shares the connection's send mutex with the
/// main loop so beats never interleave bytes with run_done frames.
class Heartbeater {
 public:
  Heartbeater(const Fd& fd, std::mutex& send_mu) : fd_(fd), send_mu_(send_mu) {}

  ~Heartbeater() { stop(); }

  void start(int interval_ms) {
    interval_ms_ = interval_ms > 0 ? interval_ms : 100;
    thread_ = std::thread([this] { loop(); });
  }

  void set_unit(std::int64_t unit) { unit_.store(unit); }
  void note_run_done() { runs_done_.fetch_add(1); }
  /// Chaos mute_heartbeat: beats stop, the process stays alive.
  void mute() { muted_.store(true); }

  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stopping_) {
      cv_.wait_for(lk, std::chrono::milliseconds(interval_ms_));
      if (stopping_) return;
      if (muted_.load()) continue;
      json::Value m = json::Value::object();
      m.set("type", json::Value("heartbeat"));
      const std::int64_t unit = unit_.load();
      if (unit >= 0) m.set("unit", json::Value::number_i64(unit));
      m.set("runs_done", json::Value::number_u64(runs_done_.load()));
      const std::string frame = encode_frame(m.dump());
      lk.unlock();
      try {
        std::lock_guard<std::mutex> sl(send_mu_);
        send_all(fd_, frame);
      } catch (const NetError&) {
        // Coordinator is gone; the main recv loop will see EOF and exit.
        lk.lock();
        return;
      }
      lk.lock();
    }
  }

  const Fd& fd_;
  std::mutex& send_mu_;
  int interval_ms_ = 100;
  std::atomic<std::int64_t> unit_{-1};
  std::atomic<std::uint64_t> runs_done_{0};
  std::atomic<bool> muted_{false};

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

class Worker {
 public:
  explicit Worker(const WorkerOptions& opt)
      : conn_(connect_local(opt.port)), beats_(conn_, send_mu_) {}

  int run() {
    {
      json::Value hello = json::Value::object();
      hello.set("type", json::Value("hello"));
      hello.set("pid", json::Value::number_i64(::getpid()));
      send_msg(hello);
    }
    FrameDecoder dec;
    std::vector<std::string> payloads;
    char buf[4096];
    for (;;) {
      // Drain decoded messages before reading more.
      for (const std::string& p : payloads) {
        if (!handle(json::parse(p))) return 0;  // shutdown
      }
      payloads.clear();
      const std::size_t n = recv_some(conn_, buf, sizeof buf);
      if (n == 0) return 0;  // coordinator went away: orderly exit
      dec.feed(buf, n, payloads);
    }
  }

  /// Best-effort structured error to the coordinator before dying.
  void report_error(const std::string& what) {
    try {
      json::Value m = json::Value::object();
      m.set("type", json::Value("error"));
      m.set("message", json::Value(what));
      send_msg(m);
    } catch (...) {
      // Connection already dead; exit code carries the news.
    }
  }

 private:
  /// Returns false on shutdown.
  bool handle(const json::Value& m) {
    const std::string type = m.at("type").as_string();
    if (type == "job") {
      handle_job(m);
      return true;
    }
    if (type == "unit") {
      handle_unit(m);
      return true;
    }
    if (type == "shutdown") return false;
    throw json::ProtocolError("worker: unexpected message type '" + type +
                              "'");
  }

  void handle_job(const json::Value& m) {
    configs_ = m.at("configs").as_size();
    reps_ = m.at("reps").as_size();
    opt_ = options_from_json(m.at("options"));
    workload_ = make_workload(m.at("workload").as_string(), m.at("params"));
    body_ = workload_->body();
    shard_ = std::make_unique<sim::RunShard>(opt_);
    beats_.start(static_cast<int>(m.get_u64("heartbeat_interval_ms", 100)));
  }

  void handle_unit(const json::Value& m) {
    if (!shard_) throw json::ProtocolError("worker: unit before job");
    const std::int64_t unit = m.at("unit").as_i64();
    std::vector<ChaosDirective> chaos;
    if (const json::Value* c = m.find("chaos")) {
      for (const json::Value& d : c->as_array()) {
        ChaosDirective cd;
        cd.mode = d.at("mode").as_string();
        cd.at_run = d.at("at_run").as_size();
        cd.marker = d.get_string("marker", "");
        chaos.push_back(std::move(cd));
      }
    }
    beats_.set_unit(unit);
    for (const json::Value& iv : m.at("indices").as_array()) {
      const std::size_t index = iv.as_size();
      for (const ChaosDirective& d : chaos) {
        if (d.at_run == index && d.mode != "drop_connection") {
          pre_run_chaos(d);
        }
      }
      json::Value record = execute_one(index);
      for (const ChaosDirective& d : chaos) {
        if (d.at_run == index && d.mode == "drop_connection" &&
            claim_marker(d.marker)) {
          drop_connection_chaos();
        }
      }
      json::Value done = json::Value::object();
      done.set("type", json::Value("run_done"));
      done.set("unit", json::Value::number_i64(unit));
      done.set("record", std::move(record));
      send_msg(done);
      beats_.note_run_done();
    }
    beats_.set_unit(-1);
    json::Value ud = json::Value::object();
    ud.set("type", json::Value("unit_done"));
    ud.set("unit", json::Value::number_i64(unit));
    send_msg(ud);
  }

  /// Executes run `index` exactly as a Campaign pool thread would (repro
  /// bundle included) and returns its snapshot record. The run list and
  /// its quarantine gate are the coordinator's RunBook: it sees every
  /// worker's records and gates runs before dispatch.
  json::Value execute_one(std::size_t index) {
    sim::RunRecord rec;
    sim::run_step(*shard_, opt_, configs_, reps_, index, 0, body_, rec);
    return make_run_record(rec);
  }

  void pre_run_chaos(const ChaosDirective& d) {
    if (!claim_marker(d.marker)) return;
    if (d.mode == "kill") {
      ::raise(SIGKILL);  // the scripted "kill -9 mid-unit"
    } else if (d.mode == "abort") {
      std::abort();
    } else if (d.mode == "hang") {
      // Wedged run: beats keep flowing, the runs-done counter freezes.
      // Only the coordinator's progress deadline can end this.
      for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    } else if (d.mode == "mute_heartbeat") {
      // Alive but silent: the heartbeat deadline must fire.
      beats_.mute();
      for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    } else {
      throw json::ProtocolError("worker: unknown chaos mode '" + d.mode +
                                "'");
    }
  }

  /// Dies mid-message: a frame header promising more bytes than will ever
  /// arrive, then a hard exit. The coordinator's decoder must report
  /// pending bytes at EOF, not hang or mis-sync.
  [[noreturn]] void drop_connection_chaos() {
    const std::string truncated =
        std::string("\x00\x00\x00\x40", 4) + "{\"type\":\"run_done\"";
    try {
      std::lock_guard<std::mutex> sl(send_mu_);
      send_all(conn_, truncated);
    } catch (const NetError&) {
    }
    ::_exit(3);
  }

  void send_msg(const json::Value& m) {
    const std::string frame = encode_frame(m.dump());
    std::lock_guard<std::mutex> sl(send_mu_);
    send_all(conn_, frame);
  }

  Fd conn_;
  std::mutex send_mu_;
  Heartbeater beats_;

  std::size_t configs_ = 0;
  std::size_t reps_ = 0;
  sim::CampaignOptions opt_;
  std::unique_ptr<Workload> workload_;
  sim::Campaign::Body body_;
  std::unique_ptr<sim::RunShard> shard_;
};

}  // namespace

int run_worker(const WorkerOptions& opt) {
  try {
    Worker w(opt);
    try {
      return w.run();
    } catch (const std::exception& e) {
      w.report_error(e.what());
      return 2;
    }
  } catch (const std::exception&) {
    return 2;  // could not even connect
  }
}

}  // namespace mts::campaignd
